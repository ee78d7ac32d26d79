// Serial replay of batch/serve jobs through the public calls the
// batch runner makes, one span around each call. BatchRunner's
// internals cannot be wrapped from outside, so the traced runs time
// the layers here; the replay's checksums must equal the runner's.

#include <filesystem>
#include <iostream>
#include <memory>
#include <mutex>

#include "bench.h"
#include "health/fault_injector.h"
#include "health/health_guard.h"
#include "lang/compiler.h"
#include "lut/lut_store.h"
#include "models/benchmark_model.h"
#include "obs/stat_registry.h"
#include "runtime/engine_factory.h"
#include "runtime/solver_session.h"
#include "util/rng.h"

namespace perfbench {

namespace {

/** Resolves the job's program the way ResolveModelSource does, with
 *  the DSL compile, the model build and the mapping in separate spans. */
bool
ResolveWithSpans(const cenn::JobSpec& job, std::uint64_t seed,
                 std::uint64_t id, cenn::SolverProgram* program,
                 std::uint64_t* default_steps)
{
  if (!job.model.empty()) {
    cenn::ModelConfig config;
    config.rows = job.rows;
    config.cols = job.cols;
    config.seed = seed;
    std::unique_ptr<cenn::BenchmarkModel> model;
    {
      ScopedSpan span("models.build", id);
      model = cenn::MakeModel(job.model, config);
    }
    ScopedSpan span("mapping.map", id);
    *program = cenn::MakeProgram(*model);
    *default_steps = static_cast<std::uint64_t>(model->DefaultSteps());
    return true;
  }
  cenn::lang::ScenarioConfig config;
  config.rows = job.has_rows ? job.rows : 0;
  config.cols = job.has_cols ? job.cols : 0;
  config.seed = seed;
  cenn::lang::CompileResult compiled;
  {
    ScopedSpan span("lang.compile", id);
    compiled = job.model_file.empty()
                   ? cenn::lang::CompileSource(job.model_source, config)
                   : cenn::lang::CompileFile(job.model_file, config);
  }
  if (!compiled.ok()) {
    return false;
  }
  ScopedSpan span("mapping.map", id);
  *program = cenn::lang::MakeScenarioProgram(compiled.scenario);
  *default_steps = compiled.scenario.default_steps;
  return true;
}

}  // namespace

cenn::LutBankHandle
AcquireLuts(const cenn::SolverProgram& program, std::uint64_t id)
{
  ScopedSpan span("lut.acquire", id);
  const double before = ReadLutStore().builds;
  cenn::LutBankHandle bank =
      cenn::LutStore::Global().Acquire(program.spec, program.lut_config);
  span.Rename(ReadLutStore().builds > before ? "lut.build" : "lut.share");
  return bank;
}

LutStoreCounts
ReadLutStore()
{
  static cenn::StatRegistry registry;
  static std::once_flag bound;
  std::call_once(bound, [] { cenn::LutStore::Global().BindStats(&registry); });
  return {registry.Value("lut.store.builds"),
          registry.Value("lut.store.shared_acquires")};
}

void
SetLutShare(const LutStoreCounts& before, Report* report)
{
  const LutStoreCounts now = ReadLutStore();
  const double builds = now.builds - before.builds;
  const double shared = now.shared - before.shared;
  report->Set("lut.builds", builds, "count");
  report->Set("lut.share_ratio",
              builds + shared == 0.0 ? 0.0 : shared / (builds + shared),
              "frac");
}

ReplayTotals
ReplayJobs(const std::vector<cenn::JobSpec>& jobs,
           const ReplayOptions& options)
{
  ReplayTotals totals;
  std::filesystem::create_directories(options.out_dir);
  std::unique_ptr<cenn::FaultInjector> injector;
  if (!options.fault_inject.empty()) {
    injector = std::make_unique<cenn::FaultInjector>(
        cenn::ParseFaultSpec(options.fault_inject), options.base_seed);
  }
  const auto start = Clock::now();
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const cenn::JobSpec& job = jobs[i];
    const std::uint64_t id = i + 1;
    const auto job_start = Clock::now();
    ScopedSpan job_span("runtime.job", id);
    ++totals.jobs;
    {
      ScopedSpan span("runtime.validate", id);
      std::vector<cenn::JobSpecError> errors;
      if (!cenn::ValidateJobSpec(job, &errors)) {
        ++totals.failed;
        continue;
      }
    }
    const std::uint64_t seed =
        job.has_seed ? job.seed
                     : cenn::Rng(options.base_seed).Split(i).NextU64();
    cenn::SolverProgram program;
    std::uint64_t default_steps = 0;
    if (!ResolveWithSpans(job, seed, id, &program, &default_steps)) {
      ++totals.failed;
      continue;
    }
    const std::uint64_t target = job.steps > 0 ? job.steps : default_steps;
    const bool fixed = IsFixed(job);
    // Held for the job, as the engine's own acquire below shares it.
    cenn::LutBankHandle bank;
    if (fixed || job.exec.engine == "arch") {
      bank = AcquireLuts(program, id);
    }

    const std::uint64_t every = job.checkpoint_every > 0
                                    ? job.checkpoint_every
                                    : options.checkpoint_every;
    cenn::SessionConfig config;
    config.name = job.name;
    config.exec = job.exec;
    config.target_steps = target;
    if (every > 0 && every < config.slice_steps) {
      config.slice_steps = every;
    }
    cenn::FaultInjector::Plan* plan =
        injector != nullptr ? injector->PlanFor(job.name, i) : nullptr;
    if (plan != nullptr) {
      config.post_slice_hook = [plan](cenn::Engine& engine) {
        plan->FireDue(engine);
      };
    }
    const std::string ckpt = options.out_dir + "/" + job.name + ".ckpt";
    std::filesystem::remove(ckpt);

    cenn::HealthGuard guard;
    std::unique_ptr<cenn::StatRegistry> registry;
    std::unique_ptr<cenn::SolverSession> session;
    bool done = false;
    double step_ns = 0.0;
    for (int attempt = 1; attempt <= 1 + options.max_retries && !done;
         ++attempt) {
      guard.Reset();
      session.reset();
      registry = std::make_unique<cenn::StatRegistry>();
      std::unique_ptr<cenn::Engine> engine;
      {
        ScopedSpan span("kernels.prepare", id);
        engine = cenn::BuildEngine(program, job.exec);
      }
      {
        ScopedSpan span("runtime.session", id);
        session = std::make_unique<cenn::SolverSession>(std::move(engine),
                                                        config);
        session->BindStats(registry.get());
      }
      if (attempt > 1) {
        ScopedSpan span("runtime.restore", id);
        session->TryRestoreFromFile(ckpt);
      }
      std::uint64_t since_checkpoint = 0;
      try {
        bool healthy = true;
        while (healthy && !session->ReachedTarget()) {
          const auto t0 = Clock::now();
          std::uint64_t ran = 0;
          {
            ScopedSpan span("runtime.step", id);
            ran = session->StepN(config.slice_steps);
          }
          step_ns += Ms(t0, Clock::now()) * 1e6;
          since_checkpoint += ran;
          if (options.guard) {
            ScopedSpan span("health.scan", id);
            ++totals.scans;
            healthy = guard.Scan(session->Backend());
          }
          if (healthy && every > 0 && since_checkpoint >= every) {
            ScopedSpan span("program.checkpoint", id);
            if (session->SaveCheckpoint(ckpt)) {
              ++totals.checkpoints;
              totals.checkpoint_bytes += std::filesystem::file_size(ckpt);
              since_checkpoint = 0;
            }
          }
        }
        done = healthy;
      } catch (const cenn::FaultCrash&) {
        done = false;
      }
    }
    if (!done) {
      ++totals.failed;
      continue;
    }
    totals.checksums[job.name] = session->StateChecksum();
    const std::uint64_t updates = Cells(job) * session->StepsExecuted();
    const double job_ms = Ms(job_start, Clock::now());
    totals.job_ms.push_back(job_ms);
    (fixed ? totals.fixed_updates : totals.double_updates) +=
        static_cast<double>(updates);
    (fixed ? totals.fixed_s : totals.double_s) += job_ms / 1e3;
    const std::string prefix =
        "runtime.session" + std::to_string(session->Id()) + ".";
    totals.lut_accesses += registry->Value(prefix + "lut.interp.accesses");
    if (job.exec.engine == "soa") {
      totals.soa_updates += static_cast<double>(updates);
      totals.traffic_bytes +=
          registry->Value(prefix + "kernels.traffic.total_bytes");
      totals.traffic_flops +=
          registry->Value(prefix + "kernels.traffic.flops");
    }
    if (job.exec.engine == "arch") {
      totals.arch_cycles += static_cast<std::uint64_t>(
          registry->Value(prefix + "sim.total_cycles"));
      totals.arch_host_ns += step_ns;
    }
  }
  totals.wall_s = SecondsSince(start);
  return totals;
}

void
SetSpanLayerMetrics(Report* report)
{
  const std::map<std::string, SelfTime> self = SpanSelfTimes();
  auto mean_ms = [&self](const char* name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second.MeanMs();
  };
  report->Set("lang.compile_ms", mean_ms("lang.compile"), "ms");
  report->Set("mapping.map_ms", mean_ms("mapping.map"), "ms");
  report->Set("lut.build_ms", mean_ms("lut.build"), "ms");
  report->Set("kernels.prepare_ms", mean_ms("kernels.prepare"), "ms");
  report->Set("runtime.restore_ms", mean_ms("runtime.restore"), "ms");
  report->Set("health.scan_us", mean_ms("health.scan") * 1e3, "us");
  report->Set("program.checkpoint_write_ms", mean_ms("program.checkpoint"),
              "ms");
}

void
SetReplayLayerMetrics(const ReplayTotals& totals, Report* report)
{
  SetSpanLayerMetrics(report);
  report->Set("health.scans", static_cast<double>(totals.scans), "count");
  report->Set("program.checkpoints", static_cast<double>(totals.checkpoints),
              "count");
  report->Set("program.checkpoint_bytes",
              totals.checkpoints == 0
                  ? 0.0
                  : static_cast<double>(totals.checkpoint_bytes) /
                        static_cast<double>(totals.checkpoints),
              "B");
  if (totals.fixed_updates > 0) {
    report->Set("lut.interp_per_cell",
                totals.lut_accesses / totals.fixed_updates, "count");
  }
  if (totals.soa_updates > 0) {
    report->Set("kernels.bytes_per_cell",
                totals.traffic_bytes / totals.soa_updates, "B/cell");
    report->Set("kernels.flops_per_byte",
                totals.traffic_flops / totals.traffic_bytes, "flop/B");
  }
  if (totals.arch_cycles > 0) {
    report->Set("arch.host_ns_per_cycle",
                totals.arch_host_ns / static_cast<double>(totals.arch_cycles),
                "ns/cycle");
    report->Set("arch.sim_cycles", static_cast<double>(totals.arch_cycles),
                "count");
  }
}

}  // namespace perfbench
