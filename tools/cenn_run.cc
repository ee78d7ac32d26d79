/**
 * @file
 * cenn_run — the production command-line driver for the CeNN DE solver.
 *
 * Runs any bundled benchmark model with a chosen engine and prints a
 * full report: solution snapshot, accuracy against the reference
 * integrator, cycle/stall statistics, power, and optional artifacts
 * (PGM snapshot, stats dump, timeline trace, checkpoint).
 *
 * Execution is selected by the unified policy (--exec, built through
 * util/exec_policy.h + runtime/engine_factory.h):
 *   soa         vectorized SoA kernels (double/fixed/float precision;
 *               the default; CENN_SIMD_ISA pins the vector ISA)
 *   functional  cell-by-cell reference engine (double/fixed precision;
 *               the only engine for --heun)
 *   arch        cycle-level accelerator simulation (fixed + timing;
 *               the only engine with a memory system)
 * The band-shard count is the policy's shards= field.
 *
 * The driver itself is engine-agnostic: it steps a cenn::Engine
 * through a persistent worker team and only probes for the arch
 * simulator to print timing/power extras. Sharded stepping is
 * bit-identical to serial on engines that support it.
 *
 * Examples:
 *   cenn_run --model=reaction_diffusion --steps=500 --exec=arch
 *   cenn_run --model=heat --exec=soa:fixed:shards=4
 *   cenn_run --model=fitzhugh_nagumo --exec=soa:double:shards=8:pin=numa
 *   cenn_run --model=poisson --steady --tolerance=1e-6
 *   cenn_run --model=gray_scott --steps=3000 --pgm=pattern.pgm
 */

#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>

#include "arch/simulator.h"
#include "core/solver.h"
#include "health/health_guard.h"
#include "kernels/soa_simd.h"
#include "lang/compiler.h"
#include "lang/spec_dump.h"
#include "lut/lut_traffic.h"
#include "mapping/mapper.h"
#include "models/benchmark_model.h"
#include "obs/metrics_emitter.h"
#include "obs/profile.h"
#include "obs/stat_registry.h"
#include "obs/stats_io.h"
#include "obs/trace.h"
#include "power/power_model.h"
#include "program/checkpoint.h"
#include "runtime/engine_factory.h"
#include "runtime/sharded_stepper.h"
#include "runtime/worker_team.h"
#include "util/cli.h"
#include "util/common_options.h"
#include "util/io.h"
#include "util/stats.h"

namespace cenn {
namespace {

/** Every shared flag group except --threads: band shards are the
 *  exec policy's shards= field. */
constexpr unsigned kRunFlagGroups = kAllCommonFlags & ~kThreadsFlag;

void
PrintUsage()
{
  std::printf("usage: cenn_run --model=<name> [options]\n"
              "       cenn_run --model-file=<scenario.cenn> [options]\n"
              "\nmodels:");
  for (const auto& name : AllModelNames()) {
    std::printf(" %s", name.c_str());
  }
  std::printf(
      "\n\nshared options:\n%s"
      "\nrun options:\n"
      "  --model-file=FILE            compile a scenario DSL file instead "
      "of a bundled model\n"
      "  --rows/--cols=N              grid size (default 64, or the "
      "scenario's own `grid`)\n"
      "  --steps=N                    steps (default: model/scenario "
      "default)\n"
      "  --seed=N                     RNG seed for initial conditions\n"
      "  --dump-spec                  print the mapped network spec and "
      "exit\n"
      "  --heun                       Heun integrator; needs "
      "--exec=functional\n"
      "  --steady                     run until steady state\n"
      "  --tolerance=X                steady-state tolerance (1e-6)\n"
      "  --compare                    compare against the reference run\n"
      "  --pgm=FILE                   write layer-0 snapshot as PGM\n"
      "  --checkpoint=FILE            write a checkpoint at the end\n"
      "  --ascii                      print an ASCII heatmap of layer 0\n",
      CommonOptionsHelp(kRunFlagGroups).c_str());
}

/**
 * Periodic progress heartbeat on stderr: at most one line per
 * interval, reporting completed steps, throughput and the remaining
 * time extrapolated from the average rate so far.
 */
class ProgressMeter
{
  public:
    ProgressMeter(bool enabled, std::uint64_t total_steps)
        : enabled_(enabled),
          total_steps_(total_steps),
          start_(Clock::now()),
          last_print_(start_)
    {
    }

    void Tick(std::uint64_t steps_done)
    {
        if (!enabled_) {
          return;
        }
        const auto now = Clock::now();
        if (now - last_print_ < std::chrono::seconds(2)) {
          return;
        }
        last_print_ = now;
        const double elapsed =
            std::chrono::duration<double>(now - start_).count();
        if (elapsed <= 0.0 || steps_done == 0) {
          return;
        }
        const double rate = static_cast<double>(steps_done) / elapsed;
        const double eta =
            static_cast<double>(total_steps_ - steps_done) / rate;
        std::fprintf(stderr,
                     "progress: step %llu/%llu (%.1f%%), %.1f steps/s, "
                     "ETA %.0f s\n",
                     static_cast<unsigned long long>(steps_done),
                     static_cast<unsigned long long>(total_steps_),
                     100.0 * static_cast<double>(steps_done) /
                         static_cast<double>(total_steps_),
                     rate, eta);
    }

    void Finish(std::uint64_t steps_done) const
    {
        if (!enabled_) {
          return;
        }
        const double elapsed =
            std::chrono::duration<double>(Clock::now() - start_).count();
        std::fprintf(stderr, "progress: done, %llu steps in %.2f s "
                     "(%.1f steps/s)\n",
                     static_cast<unsigned long long>(steps_done), elapsed,
                     elapsed > 0.0
                         ? static_cast<double>(steps_done) / elapsed
                         : 0.0);
    }

  private:
    using Clock = std::chrono::steady_clock;
    bool enabled_;
    std::uint64_t total_steps_;
    Clock::time_point start_;
    Clock::time_point last_print_;
};

int
RunMain(int argc, char** argv)
{
  CliFlags flags(argc, argv);
  const std::string model_name = flags.GetString("model", "");
  const std::string model_file = flags.GetString("model-file", "");
  const bool help = flags.GetBool("help", false);
  if (help || (model_name.empty() && model_file.empty())) {
    PrintUsage();
    return !help ? 1 : 0;
  }
  if (!model_name.empty() && !model_file.empty()) {
    CENN_FATAL("--model and --model-file are mutually exclusive");
  }

  // A scenario file carries its own `grid`, so unset flags mean "defer
  // to the file"; hand-coded models keep the historical 64x64 default.
  ModelConfig mc;
  mc.rows = static_cast<std::size_t>(
      flags.GetInt("rows", model_file.empty() ? 64 : 0));
  mc.cols = static_cast<std::size_t>(
      flags.GetInt("cols", model_file.empty() ? 64 : 0));
  mc.seed = static_cast<std::uint64_t>(flags.GetInt("seed", 42));

  std::unique_ptr<BenchmarkModel> model;  // null when running a scenario
  lang::CompiledScenario scenario;
  std::string display_name = model_name;
  std::int64_t default_steps = 0;
  if (model_file.empty()) {
    model = MakeModel(model_name, mc);
    default_steps = model->DefaultSteps();
  } else {
    lang::ScenarioConfig cfg;
    cfg.rows = mc.rows;
    cfg.cols = mc.cols;
    cfg.seed = mc.seed;
    scenario = lang::CompileFileOrDie(model_file, cfg);
    display_name = scenario.name;
    default_steps = static_cast<std::int64_t>(scenario.default_steps);
    mc.rows = scenario.system.rows;
    mc.cols = scenario.system.cols;
  }
  const int steps = static_cast<int>(flags.GetInt("steps", default_steps));

  CommonOptions defaults;
  defaults.exec.precision = "fixed";
  const CommonOptions copts =
      ParseCommonOptions(flags, kRunFlagGroups, defaults);
  const bool heun = flags.GetBool("heun", false);
  const bool steady = flags.GetBool("steady", false);
  const double tolerance = flags.GetDouble("tolerance", 1e-6);
  const bool compare = flags.GetBool("compare", false);
  const bool dump_spec = flags.GetBool("dump-spec", false);
  const std::string pgm = flags.GetString("pgm", "");
  const std::string checkpoint = flags.GetString("checkpoint", "");
  const bool ascii = flags.GetBool("ascii", false);
  flags.Validate();

  if (compare && model == nullptr) {
    CENN_FATAL("--compare requires --model: scenarios have no reference "
               "integrator to compare against");
  }
  if (steps <= 0 && !steady && !dump_spec) {
    CENN_FATAL("scenario '", display_name, "' declares no 'steps' "
               "statement; pass --steps=N");
  }

  if (copts.self_profile) {
    Profiler::Instance().Enable(true);
  }

  std::unique_ptr<TraceSession> trace;
  if (!copts.trace_out.empty()) {
    trace = std::make_unique<TraceSession>(
        ParseTraceCategories(copts.trace_categories), copts.trace_capacity);
  }

  const ExecPolicy& exec = copts.exec;

  MapperReport map_report;
  SolverProgram program;
  const EquationSystem& system =
      model != nullptr ? model->System() : scenario.system;
  program.spec = Mapper::MapWithReport(system, &map_report);
  program.lut_config = model != nullptr ? model->Luts() : scenario.luts;
  program.description =
      model != nullptr ? "benchmark model '" + model->Name() + "'"
                       : "scenario '" + display_name + "'";
  if (heun) {
    if (exec.engine != "functional") {
      CENN_FATAL("--heun needs --exec=functional (the default soa engine, "
                 "like the hardware, integrates with explicit Euler; got "
                 "engine '", exec.engine, "')");
    }
    program.spec.integrator = Integrator::kHeun;
  }

  if (dump_spec) {
    std::printf("%s", lang::DumpSpec(program.spec, program.lut_config,
                                     steps > 0
                                         ? static_cast<std::uint64_t>(steps)
                                         : 0)
                          .c_str());
    return 0;
  }

  std::printf("model %s: %zux%zu, %d layers (%s), %d templates with "
              "real-time update\n",
              display_name.c_str(), mc.rows, mc.cols, map_report.num_layers,
              IntegratorName(program.spec.integrator),
              map_report.templates_needing_update);
  std::printf("exec policy: %s\n", FormatExecPolicy(exec).c_str());

  const std::unique_ptr<Engine> engine = BuildEngine(program, exec);
  auto* sim = dynamic_cast<ArchSimulator*>(engine.get());
  if (sim != nullptr && trace != nullptr) {
    sim->AttachTrace(trace.get());
  }

  HealthGuard guard([&copts] {
    HealthGuardConfig cfg;
    cfg.max_abs = copts.guard_max_abs;
    cfg.max_rms = copts.guard_max_rms;
    cfg.max_sat_events = copts.guard_max_sat;
    cfg.check_every = copts.guard_check_every;
    return cfg;
  }());
  if (copts.guard) {
    engine->AttachHealthGuard(&guard);
  }
  // Saturation events on this thread land in the guard; the worker
  // team installs its own counter on each band worker. No-op without
  // --guard.
  ScopedSatCounter sat(engine->AttachedHealthGuard());

  // Observability is bound up front into one registry, so the exit
  // stats dump and the live metrics stream read the same names with
  // the same values: engine stats (kernels.traffic.* on soa, the full
  // counter set on arch), guard health, off-chip LUT interpolation
  // traffic (lut.interp.*) and per-shard phase timings
  // (runtime.shard<K>.*, runtime.publish.*).
  StatRegistry reg;
  LutTrafficSink lut_traffic;
  engine->AttachLutTraffic(&lut_traffic);
  ShardPhaseTimings timings(exec.shards);
  engine->BindStats(&reg, "");
  if (copts.guard) {
    guard.BindStats(&reg, "");
  }
  lut_traffic.BindStats(&reg, "");
  timings.BindStats(&reg, "runtime.");
  std::unique_ptr<MetricsEmitter> metrics;
  if (!copts.metrics_out.empty()) {
    MetricsOptions mo;
    mo.path = copts.metrics_out;
    mo.interval_ms = copts.metrics_interval_ms;
    metrics = std::make_unique<MetricsEmitter>(&reg, mo);
    if (!metrics->Start()) {
      metrics.reset();
    }
  }
  // LUT interpolation on *this* thread (steady-state search, the arch
  // simulator's serial stepping) drains into the sink; the worker
  // team installs per-worker tallies of its own.
  ScopedLutTally lut_tally(engine->AttachedLutTraffic());

  if (steady) {
    // A scenario without a `steps` statement still needs a search
    // bound; 100k steps is far past convergence for every zoo model.
    const std::uint64_t bound =
        steps > 0 ? static_cast<std::uint64_t>(steps) : 100000;
    const auto result = RunUntilSteady(*engine, tolerance, bound);
    std::printf("\nsteady-state search: %s after %llu steps "
                "(delta %.3e, tolerance %.1e)\n",
                result.converged ? "converged" : "NOT converged",
                static_cast<unsigned long long>(result.steps_taken),
                result.final_delta, tolerance);
  } else {
    ProgressMeter meter(copts.progress, static_cast<std::uint64_t>(steps));
    // One persistent worker team for the whole run: band-parallel (or
    // serial, shards=1) stepping in heartbeat-sized slices reusing the
    // same warmed, optionally pinned threads; bit-exact vs plain
    // Step() loops by the band-phase determinism contract. Phase
    // timings and spans accumulate per slice; the metrics stream
    // samples on its own clock.
    TeamOptions team_options;
    team_options.shards = exec.shards;
    ParseTeamPin(exec.pin, &team_options.pin);
    team_options.timings = &timings;
    // The arch simulator traces its own cycle-level spans; host-side
    // phase spans would mix clock domains on the same lanes.
    team_options.trace = sim == nullptr ? trace.get() : nullptr;
    ShardTeam team(engine.get(), team_options);
    const std::uint64_t total = static_cast<std::uint64_t>(steps);
    std::uint64_t done = 0;
    while (done < total) {
      const std::uint64_t slice = std::min<std::uint64_t>(64, total - done);
      team.Run(slice);
      done += slice;
      if (copts.guard && !guard.MaybeScan(*engine)) {
        break;
      }
      meter.Tick(done);
    }
    meter.Finish(static_cast<std::uint64_t>(steps));
  }

  const std::uint64_t steps_taken = engine->Steps();
  const std::vector<double> layer0 = engine->Snapshot(0);

  if (copts.guard) {
    if (steady) {
      guard.Scan(*engine);  // stepping ran inside RunUntilSteady
    }
    std::printf("health: %s\n", guard.Summary().c_str());
  }

  if (sim != nullptr) {
    const ArchConfig& arch = sim->Config();
    std::printf("\n%s\n%s\n", arch.Summary().c_str(),
                sim->Report().ToString(arch.pe_clock_hz).c_str());
    const EnergyReport energy = ComputeEnergy(sim->Report(), arch);
    std::printf("power %.3f W (on-chip %.3f + memory %.3f), energy "
                "%.3f mJ, %.2f GOPS/W\n",
                energy.total_power_w, energy.onchip_power_w,
                energy.memory_power_w, energy.energy_j * 1e3,
                energy.gops_per_watt);
  } else {
    std::printf("\nengine %s (%s", engine->Kind(), exec.precision.c_str());
    if (exec.engine == "soa") {
      std::printf(", %s kernels", SimdIsaName());
    }
    std::printf("): %llu steps, t = %.4f\n",
                static_cast<unsigned long long>(steps_taken),
                engine->Time());
  }

  if (!checkpoint.empty()) {
    if (sim != nullptr && trace != nullptr) {
      trace->Instant(TraceCategory::kCheckpoint, "checkpoint.write",
                     sim->Report().total_cycles);
    }
    const auto bytes = SerializeCheckpoint(CaptureCheckpoint(*engine));
    std::ofstream out(checkpoint, std::ios::binary);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    std::printf("wrote checkpoint to %s (%zu bytes)\n", checkpoint.c_str(),
                bytes.size());
  }
  if (metrics != nullptr) {
    metrics->Stop();  // appends the final "exit" sample
    std::printf("wrote %llu metrics samples to %s\n",
                static_cast<unsigned long long>(metrics->SamplesWritten()),
                copts.metrics_out.c_str());
  }
  if (!copts.stats_out.empty()) {
    if (WriteStatsFile(reg, copts.stats_out)) {
      std::printf("wrote %zu stats to %s\n", reg.Size(),
                  copts.stats_out.c_str());
    }
  }
  if (trace != nullptr) {
    // Arch timestamps are PE cycles (scale to modeled microseconds);
    // functional timestamps are host nanoseconds (1000 per us).
    const double ticks_per_us =
        sim != nullptr ? sim->Config().pe_clock_hz / 1e6 : 1e3;
    if (trace->WriteChromeJson(copts.trace_out, ticks_per_us)) {
      std::printf("wrote trace to %s (%zu events, %llu dropped)\n",
                  copts.trace_out.c_str(), trace->Size(),
                  static_cast<unsigned long long>(trace->Dropped()));
    }
  }

  if (compare) {
    const auto reference =
        model->ReferenceRun(static_cast<int>(steps_taken));
    const ErrorSummary err = CompareFields(layer0, reference[0]);
    std::printf("accuracy vs reference integrator (layer 0): %s\n",
                FormatError(err).c_str());
  }
  if (!pgm.empty() &&
      WritePgm(pgm, layer0, mc.rows, mc.cols)) {
    std::printf("wrote %s\n", pgm.c_str());
  }
  if (ascii) {
    std::printf("\n%s", AsciiHeatmap(layer0, mc.rows, mc.cols, 48).c_str());
  }
  if (copts.self_profile) {
    std::printf("\n%s", Profiler::Instance().Report().c_str());
  }
  return copts.guard && guard.Tripped() ? 1 : 0;
}

}  // namespace
}  // namespace cenn

int
main(int argc, char** argv)
{
  return cenn::RunMain(argc, argv);
}
