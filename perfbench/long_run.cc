// long_run: one large FitzHugh-Nagumo simulation, as a cenn_run user
// runs it. The zoo scenario is compiled by the DSL at 512x512 (about
// 40 MiB resident: beyond L2, inside L3), and two sessions — Fixed32
// and double, each a pinned 2-worker ShardTeam — step in alternating
// phases of every timed round, so both precisions see the same host
// drift. No guard and no checkpoint: the SoA kernels and the team do
// nearly all the work.

#include <algorithm>
#include <iostream>
#include <memory>

#include "bench.h"
#include "health/health_guard.h"
#include "lang/compiler.h"
#include "lut/lut_store.h"
#include "obs/stat_registry.h"
#include "obs/trace.h"
#include "runtime/engine_factory.h"
#include "runtime/model_source.h"
#include "runtime/solver_session.h"
#include "util/exec_policy.h"

namespace perfbench {

namespace {

constexpr std::size_t kGrid = 512;
/** Steps per round phase: each phase takes about 80 ms on the
 *  reference machine, long enough to average out short host stalls
 *  (which stretch the round-time tail most), and a 36 s run still has
 *  over 200 rounds, about 25 per segment. */
constexpr std::uint64_t kDoubleSteps = 36;
constexpr std::uint64_t kFixedSteps = 12;
/**
 * Segments per run. Each segment sets the run up afresh (the previous
 * set-up freed first, so peak RSS stays one set-up) and then times
 * rounds for its share of the run. Set-up is mostly first-touch page
 * faults on the 40 MiB working set, whose cost follows the host's
 * state over seconds: nine set-ups in one burst at start read
 * 0.019-0.046 s run to run, so the samples are spread over the run.
 */
constexpr int kSegments = 9;

cenn::ExecPolicy
Policy(const std::string& text)
{
  cenn::ExecPolicy policy;
  std::string error;
  if (!cenn::ParseExecPolicy(text, &policy, &error) ||
      !cenn::ValidateExecPolicy(policy, &error)) {
    std::cerr << "perfbench: bad exec '" << text << "': " << error << "\n";
    std::exit(2);
  }
  return policy;
}

/** The compiled program plus one stepping session per precision. */
struct LongRun {
  cenn::SolverProgram program;
  std::unique_ptr<cenn::SolverSession> dbl;
  std::unique_ptr<cenn::SolverSession> fix;
};

/** Builds the LutStore-backed engine for `policy` with layer spans. */
std::unique_ptr<cenn::Engine>
BuildWithSpans(const cenn::SolverProgram& program,
               const cenn::ExecPolicy& policy)
{
  cenn::LutBankHandle bank;
  if (policy.precision != "double") {
    bank = AcquireLuts(program);
  }
  ScopedSpan span("kernels.prepare");
  return cenn::BuildEngine(program, policy);
}

std::unique_ptr<cenn::SolverSession>
StartSession(const cenn::SolverProgram& program, const std::string& exec,
             cenn::TraceSession* trace)
{
  cenn::SessionConfig config;
  config.name = "long_run_" + exec;
  config.exec = Policy(exec);
  config.slice_steps = kDoubleSteps;
  config.trace = trace;
  std::unique_ptr<cenn::Engine> engine = BuildWithSpans(program, config.exec);
  std::unique_ptr<cenn::SolverSession> session;
  {
    ScopedSpan span("runtime.team_start");
    session = std::make_unique<cenn::SolverSession>(std::move(engine),
                                                    std::move(config));
  }
  ScopedSpan span("runtime.first_touch");
  session->StepN(1);
  return session;
}

/** Compile, map, LUT, engines, teams and first touch. */
std::unique_ptr<LongRun>
SetUp(const Options& options, std::uint64_t ic_seed, std::size_t grid,
      cenn::TraceSession* trace)
{
  auto run = std::make_unique<LongRun>();
  cenn::lang::ScenarioConfig config;
  config.rows = grid;
  config.cols = grid;
  config.seed = ic_seed;
  cenn::lang::CompileResult compiled;
  {
    ScopedSpan span("lang.compile");
    compiled = cenn::lang::CompileFile(
        options.root + "/zoo/reaction_diffusion.cenn", config);
  }
  if (!compiled.ok()) {
    std::cerr << "perfbench: reaction_diffusion.cenn does not compile\n";
    std::exit(2);
  }
  {
    ScopedSpan span("mapping.map");
    run->program = cenn::lang::MakeScenarioProgram(compiled.scenario);
  }
  run->dbl =
      StartSession(run->program, "soa:double:shards=2:pin=cores", trace);
  run->fix = StartSession(run->program, "soa:fixed:shards=2:pin=cores", trace);
  return run;
}

/** End-to-end figures of one timed pass (or several, appended). */
struct Pass {
  std::uint64_t rounds = 0;
  std::uint64_t failed = 0;
  double double_s = 0.0;
  double fixed_s = 0.0;
  std::vector<double> double_ms;
  std::vector<double> fixed_ms;
  std::vector<double> round_ms;
  std::vector<double> setup_s;
  /** p95 round time of each segment. */
  std::vector<double> segment_p95_ms;
  double peak_rss_mb = 0.0;

  void Append(const Pass& other)
  {
      rounds += other.rounds;
      failed += other.failed;
      double_s += other.double_s;
      fixed_s += other.fixed_s;
      for (auto [to, from] :
           {std::pair{&double_ms, &other.double_ms},
            std::pair{&fixed_ms, &other.fixed_ms},
            std::pair{&round_ms, &other.round_ms},
            std::pair{&setup_s, &other.setup_s},
            std::pair{&segment_p95_ms, &other.segment_p95_ms}}) {
        to->insert(to->end(), from->begin(), from->end());
      }
      peak_rss_mb = std::max(peak_rss_mb, other.peak_rss_mb);
  }
};

Pass
TimedRounds(LongRun& run, double seconds, Report* report)
{
  Pass pass;
  const auto start = Clock::now();
  while (pass.rounds == 0 || SecondsSince(start) < seconds) {
    std::uint64_t dbl_steps = 0;
    std::uint64_t fix_steps = 0;
    const auto t0 = Clock::now();
    {
      ScopedSpan span("runtime.round.double", pass.rounds + 1);
      dbl_steps = run.dbl->StepN(kDoubleSteps);
    }
    const auto t1 = Clock::now();
    {
      ScopedSpan span("runtime.round.fixed", pass.rounds + 1);
      fix_steps = run.fix->StepN(kFixedSteps);
    }
    const auto t2 = Clock::now();
    ++pass.rounds;
    pass.double_s += Ms(t0, t1) / 1e3;
    pass.fixed_s += Ms(t1, t2) / 1e3;
    pass.double_ms.push_back(Ms(t0, t1));
    pass.fixed_ms.push_back(Ms(t1, t2));
    pass.round_ms.push_back(Ms(t0, t2));
    if (dbl_steps != kDoubleSteps || fix_steps != kFixedSteps) {
      ++pass.failed;
      report->Problem("round " + std::to_string(pass.rounds) +
                      " ran short");
    }
    if (pass.rounds == 1 && report->observed.empty()) {
      report->observed["round1.double"] = run.dbl->StateChecksum();
      report->observed["round1.fixed"] = run.fix->StateChecksum();
    }
  }
  // Output check: both states stay finite and bounded.
  for (cenn::SolverSession* session : {run.dbl.get(), run.fix.get()}) {
    cenn::HealthGuard guard;
    if (!guard.Scan(session->Backend())) {
      ++pass.failed;
      report->Problem(session->Name() + " diverged: " + guard.Summary());
    }
  }
  pass.segment_p95_ms.push_back(Percentile(pass.round_ms, 0.95));
  return pass;
}

/**
 * Rates come from the median phase and round times, and the p95 is the
 * median of the segments' p95s: host floating-point speed here swings
 * by a fifth within seconds, and medians keep a burst of slow rounds
 * from moving a whole run's figure.
 */
void
SetEndToEnd(const Pass& pass, double cells, Report* report)
{
  const double round_ms = Median(pass.round_ms);
  report->Set("setup_s", Median(pass.setup_s), "s");
  report->Set("mcups_double",
              cells * kDoubleSteps / Median(pass.double_ms) / 1e3, "Mcell/s");
  report->Set("mcups_fixed",
              cells * kFixedSteps / Median(pass.fixed_ms) / 1e3, "Mcell/s");
  report->Set("jobs_per_s", 1e3 / round_ms, "1/s");
  report->Set("latency_p50_ms", round_ms, "ms");
  report->Set("latency_p95_ms", Median(pass.segment_p95_ms), "ms");
  report->Set("peak_rss_mb", pass.peak_rss_mb, "MiB");
}

/** Team, traffic and LUT-interpolation counts summed over sessions. */
struct TeamTotals {
  double refresh_ns = 0, step_ns = 0, wait_ns = 0, publish_ns = 0;
  double steps = 0;
  int shards = 0;
  double traffic_bytes = 0, traffic_flops = 0, updates = 0;
  double fixed_updates = 0, lut_accesses = 0;
  /** Timed round seconds the sessions ran. */
  double timed_s = 0;

  /** Adds the sessions of `run`, read through their own timings and
   *  registry bindings. */
  void Add(const LongRun& run, double cells)
  {
      cenn::StatRegistry registry;
      for (cenn::SolverSession* session : {run.dbl.get(), run.fix.get()}) {
        const cenn::ShardPhaseTimings& t = session->PhaseTimings();
        for (int k = 0; k < t.MaxShards(); ++k) {
          const cenn::ShardPhaseTimings::Shard s = t.ShardAt(k);
          refresh_ns += static_cast<double>(s.refresh_ns);
          step_ns += static_cast<double>(s.step_ns);
          wait_ns += static_cast<double>(s.wait_ns);
        }
        shards = t.MaxShards();
        publish_ns += static_cast<double>(t.PublishNs());
        const double executed = static_cast<double>(session->StepsExecuted());
        steps += executed;
        session->BindStats(&registry);
        const std::string prefix =
            "runtime.session" + std::to_string(session->Id()) + ".";
        traffic_bytes +=
            registry.Value(prefix + "kernels.traffic.total_bytes");
        traffic_flops += registry.Value(prefix + "kernels.traffic.flops");
        lut_accesses += registry.Value(prefix + "lut.interp.accesses");
        updates += cells * executed;
        if (session == run.fix.get()) {
          fixed_updates += cells * executed;
        }
      }
  }
};

/** Sets up once per segment and times rounds for the segment's share of
 *  `seconds`; the last set-up stays in `run`. `team`, when given, sums
 *  every segment's sessions. */
Pass
Measure(const Options& options, std::size_t grid, double seconds,
        cenn::TraceSession* trace, std::unique_ptr<LongRun>* run,
        TeamTotals* team, Report* report)
{
  const double cells = static_cast<double>(grid * grid);
  Pass pass;
  for (int segment = 0; segment < kSegments; ++segment) {
    run->reset();  // free the previous set-up first: peak RSS stays one
    const auto t0 = Clock::now();
    *run = SetUp(options, options.seed, grid, trace);
    pass.setup_s.push_back(SecondsSince(t0));
    const Pass part = TimedRounds(**run, seconds / kSegments, report);
    pass.Append(part);
    if (team != nullptr) {
      team->Add(**run, cells);
      team->timed_s += part.double_s + part.fixed_s;
    }
  }
  return pass;
}

void
SetTeamMetrics(const TeamTotals& t, Report* report)
{
  report->Set("runtime.team.wait_frac",
              t.wait_ns / (t.refresh_ns + t.step_ns + t.wait_ns), "frac");
  report->Set("runtime.team.publish_us", t.publish_ns / t.steps / 1e3, "us");
  report->Set("runtime.parallel_efficiency",
              t.step_ns / (t.shards * t.timed_s * 1e9), "frac");
  report->Set("lut.interp_per_cell", t.lut_accesses / t.fixed_updates,
              "count");
  report->Set("kernels.bytes_per_cell", t.traffic_bytes / t.updates,
              "B/cell");
  report->Set("kernels.flops_per_byte", t.traffic_flops / t.traffic_bytes,
              "flop/B");
}

/** Steps a 1-worker engine for about `seconds`; returns Mcell/s and
 *  checks a 2-worker team reaches the identical state. */
double
SerialKernelRate(const cenn::SolverProgram& program, const std::string& prec,
                 double seconds, Report* report)
{
  const std::string serial_exec = "soa:" + prec;
  std::unique_ptr<cenn::Engine> serial =
      cenn::BuildEngine(program, Policy(serial_exec));
  std::uint64_t steps = 0;
  const auto t0 = Clock::now();
  while (steps == 0 || SecondsSince(t0) < seconds) {
    serial->Run(4);
    steps += 4;
  }
  const double elapsed = SecondsSince(t0);
  const double cells =
      static_cast<double>(program.spec.rows * program.spec.cols);

  cenn::SessionConfig config;
  config.name = "serial_" + prec;
  config.exec = Policy(serial_exec);
  const cenn::SolverSession stepped(std::move(serial), config);
  config.name = "team_" + prec;
  config.exec = Policy(serial_exec + ":shards=2:pin=cores");
  cenn::SolverSession team(cenn::BuildEngine(program, config.exec), config);
  team.StepN(steps);
  if (team.StateChecksum() != stepped.StateChecksum()) {
    report->Problem("2-worker " + prec + " team state differs from the " +
                    "1-worker engine after " + std::to_string(steps) +
                    " steps");
  }
  return cells * static_cast<double>(steps) / elapsed / 1e6;
}

/** Steps functional:fixed on a serve default-policy spec. */
double
FunctionalRate(double seconds)
{
  const cenn::JobSpec spec = SpecFromKeys(
      {{"model", "reaction_diffusion"}, {"rows", "32"}, {"cols", "32"}});
  std::unique_ptr<cenn::Engine> engine = cenn::BuildEngine(
      cenn::ResolveModelSource(spec, 7).program, spec.exec);
  std::uint64_t steps = 0;
  const auto t0 = Clock::now();
  while (steps == 0 || SecondsSince(t0) < seconds) {
    engine->Run(8);
    steps += 8;
  }
  return static_cast<double>(Cells(spec) * steps) / SecondsSince(t0) / 1e6;
}

}  // namespace

void
UnitRateProbes(const Options& options, Report* report)
{
  const double probe_s = options.smoke ? 0.2 : 1.0;
  const std::size_t grid = options.smoke ? 128 : kGrid;
  cenn::lang::ScenarioConfig config;
  config.rows = grid;
  config.cols = grid;
  config.seed = options.seed;
  const cenn::lang::CompileResult compiled = cenn::lang::CompileFile(
      options.root + "/zoo/reaction_diffusion.cenn", config);
  const cenn::SolverProgram program =
      cenn::lang::MakeScenarioProgram(compiled.scenario);
  report->Set("kernels.serial_mcups_double",
              SerialKernelRate(program, "double", probe_s, report),
              "Mcell/s");
  report->Set("kernels.serial_mcups_fixed",
              SerialKernelRate(program, "fixed", probe_s, report), "Mcell/s");
  report->Set("core.functional_mcups", FunctionalRate(probe_s), "Mcell/s");
}

Report
RunLongRun(const Options& options)
{
  Report report;
  const std::size_t grid = options.smoke ? 128 : kGrid;
  const double cells = static_cast<double>(grid * grid);
  std::unique_ptr<LongRun> run;
  if (!options.trace) {
    Pass pass = Measure(options, grid, options.seconds, nullptr, &run,
                        nullptr, &report);
    pass.peak_rss_mb = PeakRssMb();
    report.attempted = pass.rounds;
    report.failed = pass.failed;
    SetEndToEnd(pass, cells, &report);
    CheckPinned(options, &report);
    return report;
  }

  // Traced run: four quarters, untraced-traced-traced-untraced, so a
  // steady host drift cancels out of the overhead. The traced quarters
  // record spans and attach SessionConfig::trace for shard phases. Each
  // quarter's peak RSS is its own (the mark is reset before it).
  cenn::TraceSession shard_trace(cenn::kTraceAllCategories, 1u << 20);
  Pass passes[2];
  Report checks;
  for (int quarter = 0; quarter < 4; ++quarter) {
    const bool traced = quarter == 1 || quarter == 2;
    const LutStoreCounts lut_before = ReadLutStore();
    TeamTotals team;
    run.reset();
    ResetPeakRss();
    EnableSpans(traced);
    Pass pass = Measure(options, grid, options.seconds / 4,
                        traced ? &shard_trace : nullptr, &run, &team,
                        &checks);
    pass.peak_rss_mb = PassPeakRssMb();
    passes[traced].Append(pass);
    if (quarter == 2) {
      SetTeamMetrics(team, &report);
      SetLutShare(lut_before, &report);
      SetSpanLayerMetrics(&report);
      WriteSpans(options.out_dir + "/long_run.spans.json", &shard_trace);
    }
  }
  EnableSpans(false);
  Report untraced;
  Report traced;
  SetEndToEnd(passes[0], cells, &untraced);
  SetEndToEnd(passes[1], cells, &traced);
  SetTraceOverhead(untraced, traced, &report);
  report.attempted = passes[0].rounds + passes[1].rounds;
  report.failed = passes[0].failed + passes[1].failed;
  report.correct = checks.correct;
  UnitRateProbes(options, &report);
  return report;
}

}  // namespace perfbench
