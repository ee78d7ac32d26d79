/**
 * @file
 * Numerical-health subsystem tests: HealthGuard trip conditions and
 * scan cadence, saturation-event plumbing from Fixed32 into a guard,
 * the fault-spec grammar, deterministic fault injection, and the
 * guard-tripped SolverSession lifecycle (kFaulted -> restore ->
 * bit-identical resume).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "core/network.h"
#include "fixed/fixed32.h"
#include "health/fault_injector.h"
#include "health/health_guard.h"
#include "models/benchmark_model.h"
#include "obs/stat_registry.h"
#include "runtime/engine_factory.h"
#include "runtime/solver_session.h"

namespace cenn {
namespace {

SolverProgram
ModelProgram(const std::string& name, std::size_t rows, std::size_t cols)
{
  ModelConfig mc;
  mc.rows = rows;
  mc.cols = cols;
  return MakeProgram(*MakeModel(name, mc));
}

/** Overwrites one cell of layer 0 with `value` (corruption helper). */
void
PoisonCell(Engine& engine, double value)
{
  std::vector<double> state = engine.Snapshot(0);
  state[state.size() / 2] = value;
  engine.RestoreState(0, state);
}

// ---------------------------------------------------------------------------
// HealthGuard trip conditions

TEST(HealthGuardTest, HealthyEngineScansClean)
{
  const SolverProgram program = ModelProgram("heat", 12, 12);
  MultilayerCenn<double> engine(program.spec);
  engine.Run(10);

  HealthGuard guard;
  EXPECT_TRUE(guard.Scan(engine));
  const HealthReport report = guard.Report();
  EXPECT_EQ(report.checks_run, 1u);
  EXPECT_FALSE(report.diverged);
  EXPECT_EQ(report.nan_cells, 0u);
  EXPECT_GT(report.max_abs, 0.0);
  EXPECT_GT(report.rms, 0.0);
  EXPECT_TRUE(report.reason.empty());
}

TEST(HealthGuardTest, TripsOnNaNAndStaysTripped)
{
  const SolverProgram program = ModelProgram("heat", 12, 12);
  MultilayerCenn<double> engine(program.spec);
  engine.Run(5);
  PoisonCell(engine, std::numeric_limits<double>::quiet_NaN());

  HealthGuard guard;
  EXPECT_FALSE(guard.Scan(engine));
  EXPECT_TRUE(guard.Tripped());
  const HealthReport report = guard.Report();
  EXPECT_EQ(report.reason, "nan");
  EXPECT_EQ(report.nan_cells, 1u);
  EXPECT_EQ(report.diverged_at_step, 5u);
  // Sticky: further scans report unhealthy without rescanning.
  EXPECT_FALSE(guard.Scan(engine));
  EXPECT_EQ(guard.Report().checks_run, 1u);
}

TEST(HealthGuardTest, TripsOnInfAndMaxAbsAndRms)
{
  const SolverProgram program = ModelProgram("heat", 12, 12);
  MultilayerCenn<double> inf_engine(program.spec);
  PoisonCell(inf_engine, std::numeric_limits<double>::infinity());
  HealthGuard inf_guard;
  EXPECT_FALSE(inf_guard.Scan(inf_engine));
  EXPECT_EQ(inf_guard.Report().reason, "inf");

  MultilayerCenn<double> big_engine(program.spec);
  PoisonCell(big_engine, 5e4);
  HealthGuard abs_guard;  // default max_abs = 1e4
  EXPECT_FALSE(abs_guard.Scan(big_engine));
  EXPECT_EQ(abs_guard.Report().reason, "max_abs");

  HealthGuardConfig rms_cfg;
  rms_cfg.max_abs = 0.0;  // 0 disables, so the RMS check decides
  rms_cfg.max_rms = 1e-12;
  MultilayerCenn<double> rms_engine(program.spec);
  HealthGuard rms_guard(rms_cfg);
  EXPECT_FALSE(rms_guard.Scan(rms_engine));
  EXPECT_EQ(rms_guard.Report().reason, "max_rms");
}

TEST(HealthGuardTest, DisabledThresholdsNeverTrip)
{
  HealthGuardConfig cfg;
  cfg.max_abs = 0.0;
  cfg.max_rms = 0.0;
  cfg.max_sat_events = 0;
  const SolverProgram program = ModelProgram("heat", 12, 12);
  MultilayerCenn<double> engine(program.spec);
  PoisonCell(engine, 1e100);  // finite, so only max_abs could catch it

  HealthGuard guard(cfg);
  EXPECT_TRUE(guard.Scan(engine));
  guard.AddSatEvents(1000000);
  EXPECT_TRUE(guard.Scan(engine));
}

TEST(HealthGuardTest, TripsOnSaturationBudget)
{
  HealthGuardConfig cfg;
  cfg.max_sat_events = 5;
  const SolverProgram program = ModelProgram("heat", 12, 12);
  MultilayerCenn<double> engine(program.spec);

  HealthGuard guard(cfg);
  guard.AddSatEvents(5);
  EXPECT_TRUE(guard.Scan(engine));  // at the budget, not over it
  guard.AddSatEvents(1);
  EXPECT_FALSE(guard.Scan(engine));
  EXPECT_EQ(guard.Report().reason, "sat_events");
  EXPECT_EQ(guard.Report().sat_events, 6u);
}

TEST(HealthGuardTest, MaybeScanHonorsCadence)
{
  HealthGuardConfig cfg;
  cfg.check_every = 8;
  const SolverProgram program = ModelProgram("heat", 12, 12);
  MultilayerCenn<double> engine(program.spec);

  HealthGuard guard(cfg);
  EXPECT_TRUE(guard.MaybeScan(engine));  // first call always scans
  EXPECT_EQ(guard.Report().checks_run, 1u);
  engine.Run(4);
  EXPECT_TRUE(guard.MaybeScan(engine));  // 4 < 8: skipped
  EXPECT_EQ(guard.Report().checks_run, 1u);
  engine.Run(4);
  EXPECT_TRUE(guard.MaybeScan(engine));  // 8 >= 8: scans
  EXPECT_EQ(guard.Report().checks_run, 2u);
}

TEST(HealthGuardTest, ResetClearsTripAndTallies)
{
  const SolverProgram program = ModelProgram("heat", 12, 12);
  MultilayerCenn<double> engine(program.spec);
  PoisonCell(engine, std::numeric_limits<double>::quiet_NaN());

  HealthGuard guard;
  guard.AddSatEvents(3);
  EXPECT_FALSE(guard.Scan(engine));
  guard.Reset();
  EXPECT_FALSE(guard.Tripped());
  EXPECT_EQ(guard.SatEvents(), 0u);
  EXPECT_TRUE(guard.Report().reason.empty());

  // A clean engine scans healthy again after the reset.
  MultilayerCenn<double> clean(program.spec);
  EXPECT_TRUE(guard.Scan(clean));
}

TEST(HealthGuardTest, BindStatsPublishesHealthSubtree)
{
  const SolverProgram program = ModelProgram("heat", 12, 12);
  MultilayerCenn<double> engine(program.spec);
  PoisonCell(engine, std::numeric_limits<double>::quiet_NaN());

  HealthGuard guard;
  StatRegistry registry;
  guard.BindStats(&registry, "");
  guard.Scan(engine);

  EXPECT_EQ(registry.Value("health.checks_run"), 1.0);
  EXPECT_EQ(registry.Value("health.nan_cells"), 1.0);
  EXPECT_EQ(registry.Value("health.diverged"), 1.0);
  EXPECT_EQ(registry.Value("health.diverged_at_step"), 0.0);
  EXPECT_EQ(registry.Value("health.sat_events"), 0.0);
}

// ---------------------------------------------------------------------------
// Fixed32 saturation counting -> guard plumbing

TEST(ScopedSatCounterTest, DrainsThreadSaturationsIntoGuard)
{
  HealthGuard guard;
  {
    ScopedSatCounter scope(&guard);
    const Fixed32 sum = Fixed32::Max() + Fixed32::Max();  // clamps
    EXPECT_EQ(sum, Fixed32::Max());
    std::ignore = -Fixed32::Min();  // clamps
    EXPECT_EQ(guard.SatEvents(), 0u);  // drained on scope exit only
  }
  EXPECT_EQ(guard.SatEvents(), 2u);
}

TEST(ScopedSatCounterTest, NullGuardIsANoOp)
{
  ScopedSatCounter scope(nullptr);
  const Fixed32 sum = Fixed32::Max() + Fixed32::Max();
  EXPECT_EQ(sum, Fixed32::Max());  // no sink installed, no crash
}

// ---------------------------------------------------------------------------
// Fault-spec grammar

TEST(FaultSpecTest, ParsesClauses)
{
  const auto specs = ParseFaultSpec("flip@150,crash@40x2,rd:crash@7");
  ASSERT_EQ(specs.size(), 3u);
  EXPECT_EQ(specs[0].kind, FaultKind::kFlip);
  EXPECT_EQ(specs[0].step, 150u);
  EXPECT_EQ(specs[0].count, 1);
  EXPECT_TRUE(specs[0].job.empty());
  EXPECT_EQ(specs[1].kind, FaultKind::kCrash);
  EXPECT_EQ(specs[1].step, 40u);
  EXPECT_EQ(specs[1].count, 2);
  EXPECT_EQ(specs[2].job, "rd");
  EXPECT_EQ(specs[2].step, 7u);

  EXPECT_EQ(FaultSpecToString(specs), "flip@150,crash@40x2,rd:crash@7");
  EXPECT_TRUE(ParseFaultSpec("").empty());
}

TEST(FaultSpecDeathTest, MalformedSpecsDie)
{
  EXPECT_DEATH(ParseFaultSpec("flip"), "no '@step'");
  EXPECT_DEATH(ParseFaultSpec("melt@10"), "unknown kind");
  EXPECT_DEATH(ParseFaultSpec("flip@ten"), "bad number");
  EXPECT_DEATH(ParseFaultSpec("crash@10x0"), "count");
  EXPECT_DEATH(ParseFaultSpec(":flip@10"), "empty job filter");
}

// ---------------------------------------------------------------------------
// FaultInjector

TEST(FaultInjectorTest, FlipIsDeterministicAndDetectable)
{
  const SolverProgram program = ModelProgram("heat", 12, 12);
  auto make_flipped = [&program] {
    MultilayerCenn<double> engine(program.spec);
    engine.Run(10);
    FaultInjector injector(ParseFaultSpec("flip@10"), /*seed=*/7);
    injector.PlanFor("job", 0)->FireDue(engine);
    EXPECT_EQ(injector.TotalFired(), 1u);
    return engine.Snapshot(0);
  };

  const std::vector<double> a = make_flipped();
  const std::vector<double> b = make_flipped();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i], b[i]) << i;  // same (spec, seed, job) => same flip
  }

  // The corruption is exactly the kind the guard must catch.
  MultilayerCenn<double> engine(program.spec);
  engine.Run(10);
  FaultInjector injector(ParseFaultSpec("flip@10"), 7);
  HealthGuard guard;
  EXPECT_TRUE(guard.Scan(engine));
  injector.PlanFor("job", 0)->FireDue(engine);
  EXPECT_FALSE(guard.Scan(engine));
  EXPECT_EQ(guard.Report().reason, "max_abs");
}

TEST(FaultInjectorTest, CrashThrowsAndFiresOncePerLifetime)
{
  const SolverProgram program = ModelProgram("heat", 12, 12);
  MultilayerCenn<double> engine(program.spec);
  engine.Run(20);

  FaultInjector injector(ParseFaultSpec("crash@15"), 7);
  FaultInjector::Plan* plan = injector.PlanFor("job", 0);
  try {
    plan->FireDue(engine);
    FAIL() << "expected FaultCrash";
  } catch (const FaultCrash& crash) {
    EXPECT_EQ(crash.job, "job");
    EXPECT_EQ(crash.step, 20u);
  }
  // Transient: a retried attempt re-crosses step 15 without re-faulting.
  plan->FireDue(engine);
  EXPECT_EQ(plan->Fired(), 1u);
  EXPECT_FALSE(plan->Pending());
}

TEST(FaultInjectorTest, FiltersByJobAndWaitsForStep)
{
  const SolverProgram program = ModelProgram("heat", 12, 12);
  MultilayerCenn<double> engine(program.spec);
  engine.Run(5);

  FaultInjector injector(ParseFaultSpec("other:crash@1,this:crash@30"), 7);
  FaultInjector::Plan* plan = injector.PlanFor("this", 1);
  plan->FireDue(engine);  // other's fault filtered out; step 30 not due
  EXPECT_EQ(plan->Fired(), 0u);
  EXPECT_TRUE(plan->Pending());
  engine.Run(25);
  EXPECT_THROW(plan->FireDue(engine), FaultCrash);
}

// ---------------------------------------------------------------------------
// SolverSession under a guard: kFaulted -> restore -> identical resume

TEST(HealthSessionTest, GuardTripFaultsSessionAndCheckpointRestoreResumes)
{
  const std::string dir =
      testing::TempDir() + "cenn_health_session";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string ckpt = dir + "/s.ckpt";

  const SolverProgram program = ModelProgram("reaction_diffusion", 12, 12);
  ExecPolicy req;
  req.precision = "double";

  // Reference: clean run to 60 steps.
  SessionConfig ref_cfg;
  ref_cfg.name = "ref";
  ref_cfg.target_steps = 60;
  ref_cfg.slice_steps = 10;
  SolverSession ref(BuildEngine(program, req), ref_cfg);
  ref.RunToTarget();
  ASSERT_EQ(ref.State(), SessionState::kDone);

  // Guarded run with a post-slice hook corrupting state at step 30.
  SessionConfig cfg;
  cfg.name = "guarded";
  cfg.target_steps = 60;
  cfg.slice_steps = 10;
  cfg.checkpoint_every = 10;
  cfg.checkpoint_path = ckpt;
  bool poisoned = false;  // corrupt once, not again on the resumed pass
  cfg.post_slice_hook = [&poisoned](Engine& engine) {
    if (!poisoned && engine.Steps() == 30) {
      poisoned = true;
      PoisonCell(engine, 1e6);
    }
  };

  HealthGuardConfig gcfg;
  gcfg.check_every = 1;
  HealthGuard guard(gcfg);
  SolverSession session(BuildEngine(program, req), cfg);
  session.Backend().AttachHealthGuard(&guard);

  // The trip lands at step 30; the corrupt slice is NOT checkpointed.
  EXPECT_EQ(session.StepN(60), 30u);
  EXPECT_EQ(session.State(), SessionState::kFaulted);
  EXPECT_TRUE(guard.Tripped());
  EXPECT_EQ(guard.Report().diverged_at_step, 30u);
  EXPECT_EQ(session.StepN(10), 0u);  // faulted sessions refuse to step

  StatRegistry registry;
  session.BindStats(&registry);
  const std::string prefix =
      "runtime.session" + std::to_string(session.Id()) + ".";
  EXPECT_EQ(registry.Value(prefix + "faults"), 1.0);
  EXPECT_EQ(registry.Value(prefix + "health.diverged"), 1.0);

  // Restore the last good checkpoint (step 20: the hook fires before
  // the step-30 checkpoint would have been written) and resume; the
  // guard is reset and the stitched run matches the reference exactly.
  ASSERT_TRUE(session.TryRestoreFromFile(ckpt));
  EXPECT_EQ(session.State(), SessionState::kIdle);
  EXPECT_FALSE(guard.Tripped());
  EXPECT_EQ(session.StepsDone(), 20u);
  session.RunToTarget();
  EXPECT_EQ(session.State(), SessionState::kDone);
  EXPECT_EQ(session.StateChecksum(), ref.StateChecksum());
}

}  // namespace
}  // namespace cenn
