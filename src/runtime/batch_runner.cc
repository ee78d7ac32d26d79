#include "runtime/batch_runner.h"

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <thread>

#include "models/benchmark_model.h"
#include "obs/stat_registry.h"
#include "runtime/engine_factory.h"
#include "runtime/model_source.h"
#include "runtime/solver_session.h"
#include "runtime/thread_pool.h"
#include "util/logging.h"
#include "util/rng.h"

namespace cenn {

namespace {

/** Writes the completion marker for a finished job. */
void
WriteDoneMarker(const std::string& path, const JobResult& result)
{
  std::ofstream out(path);
  if (!out) {
    CENN_WARN("batch: cannot write done marker '", path, "'");
    return;
  }
  out << "name=" << result.name << "\n"
      << "model=" << result.model << "\n"
      << "exec=" << result.exec << "\n"
      << "status=" << JobStatusName(result.status) << "\n"
      << "attempts=" << result.attempts << "\n"
      << "steps=" << result.steps_done << "\n"
      << "checksum=" << result.checksum << "\n";
}

/**
 * Reads a completion marker; true when present and well-formed (a
 * malformed marker is treated as absent so the job just re-runs).
 */
bool
TryReadDoneMarker(const std::string& path, JobResult* result)
{
  std::ifstream in(path);
  if (!in) {
    return false;
  }
  bool have_steps = false;
  bool have_checksum = false;
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) {
      continue;
    }
    const std::string key = line.substr(0, eq);
    const std::string value = line.substr(eq + 1);
    if (key == "steps") {
      result->steps_done = std::strtoull(value.c_str(), nullptr, 10);
      have_steps = true;
    } else if (key == "checksum") {
      result->checksum = std::strtoull(value.c_str(), nullptr, 10);
      have_checksum = true;
    }
  }
  return have_steps && have_checksum;
}

/** What the reports' `model` column shows for a job. */
std::string
JobDisplayModel(const JobSpec& job)
{
  if (!job.model.empty()) {
    return job.model;
  }
  if (!job.model_file.empty()) {
    return "file:" + job.model_file;
  }
  return "inline";
}

/** Why the latest attempt did not complete. */
enum class AttemptFailure : std::uint8_t {
  kNone = 0,
  kCrash = 1,     ///< FaultCrash escaped the stepping loop
  kGuardTrip = 2, ///< session ended kFaulted
};

}  // namespace

const char*
JobStatusName(JobStatus status)
{
  switch (status) {
    case JobStatus::kOk:
      return "ok";
    case JobStatus::kRetried:
      return "retried";
    case JobStatus::kRecovered:
      return "recovered";
    case JobStatus::kInterrupted:
      return "interrupted";
    case JobStatus::kCached:
      return "cached";
    case JobStatus::kDiverged:
      return "diverged";
    case JobStatus::kFailed:
      return "failed";
  }
  return "unknown";
}

bool
JobStatusIsFailure(JobStatus status)
{
  return status == JobStatus::kDiverged || status == JobStatus::kFailed;
}

BatchRunner::BatchRunner(std::vector<BatchJobSpec> jobs, BatchOptions options)
    : jobs_(std::move(jobs)), options_(std::move(options))
{
  if (jobs_.empty()) {
    CENN_FATAL("BatchRunner: empty job list");
  }
  if (options_.out_dir.empty()) {
    CENN_FATAL("BatchRunner: out_dir is required");
  }
  if (options_.num_threads < 1) {
    CENN_FATAL("BatchRunner: num_threads must be >= 1");
  }
  if (options_.max_retries < 0 || options_.retry_backoff_ms < 0) {
    CENN_FATAL("BatchRunner: max_retries / retry_backoff_ms must be >= 0");
  }
  if (!options_.fault_inject.empty()) {
    // Parse up front so a mistyped spec dies before any job runs.
    injector_ = std::make_unique<FaultInjector>(
        ParseFaultSpec(options_.fault_inject), options_.base_seed);
  }
}

JobResult
BatchRunner::RunOneJob(const BatchJobSpec& job, std::size_t index,
                       FaultInjector::Plan* faults)
{
  const auto start = std::chrono::steady_clock::now();
  JobResult result;
  result.name = job.name;
  result.model = JobDisplayModel(job);
  result.exec = FormatExecPolicy(job.exec);

  const std::string base = options_.out_dir + "/" + job.name;
  const std::string ckpt_path = base + ".ckpt";

  // Unseeded jobs derive an independent stream from (base_seed,
  // manifest index) — stable across runs and across worker counts.
  const std::uint64_t seed =
      job.has_seed ? job.seed : Rng(options_.base_seed).Split(index).NextU64();
  // Resolution can fail for environmental reasons even on a validated
  // spec (a scenario file edited or removed since parse); that fails
  // this job, not the whole batch.
  ResolvedModel resolved;
  try {
    resolved = ResolveModelSource(job, seed);
  } catch (const std::exception& e) {
    CENN_WARN("batch job '", job.name, "': ", e.what());
    result.status = JobStatus::kFailed;
    result.wall_ms = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - start)
                         .count();
    return result;
  }
  const std::uint64_t target =
      job.steps > 0 ? job.steps : resolved.default_steps;
  const SolverProgram& program = resolved.program;

  SessionConfig sc;
  sc.name = job.name;
  sc.exec = job.exec;
  sc.target_steps = target;
  sc.checkpoint_every = job.checkpoint_every > 0 ? job.checkpoint_every
                                                 : options_.checkpoint_every;
  sc.checkpoint_path = ckpt_path;
  // Align slices to the checkpoint interval so auto-checkpoints (and
  // the fault/guard boundaries that ride on slices) land on time.
  if (sc.checkpoint_every > 0 && sc.checkpoint_every < sc.slice_steps) {
    sc.slice_steps = sc.checkpoint_every;
  }
  if (faults != nullptr) {
    sc.post_slice_hook = [faults](Engine& engine) {
      faults->FireDue(engine);
    };
  }
  if (!options_.metrics_dir.empty()) {
    sc.metrics_path =
        options_.metrics_dir + "/" + job.name + ".metrics.jsonl";
    sc.metrics_interval_ms = options_.metrics_interval_ms;
  }

  HealthGuard guard(options_.guard);
  const int max_attempts = 1 + options_.max_retries;
  bool restored_any = false;
  AttemptFailure failure = AttemptFailure::kNone;
  std::uint64_t executed_prior_attempts = 0;
  // The registry outlives the session (derived callbacks reference
  // session members) and each attempt replaces the session *before*
  // the registry so the dying session's metrics emitter writes its
  // exit sample against a live registry.
  std::unique_ptr<StatRegistry> job_registry;
  std::unique_ptr<SolverSession> session;

  for (int attempt = 1; attempt <= max_attempts; ++attempt) {
    result.attempts = attempt;
    if (attempt > 1 && options_.retry_backoff_ms > 0) {
      const auto delay = std::chrono::milliseconds(
          static_cast<std::int64_t>(options_.retry_backoff_ms)
          << (attempt - 2));
      std::this_thread::sleep_for(delay);
    }

    // Each attempt rebuilds the session from scratch — after a crash
    // the previous one is presumed dead, after a guard trip its state
    // is known-corrupt.
    guard.Reset();
    session.reset();
    job_registry = std::make_unique<StatRegistry>();
    session =
        std::make_unique<SolverSession>(BuildEngine(program, job.exec), sc);
    if (options_.guard_enabled) {
      session->Backend().AttachHealthGuard(&guard);
    }
    // Binds the session subtree (and starts the per-job metrics
    // stream when configured) before any step runs, so live samples
    // carry real runtime/kernel/lut signals from the first slice.
    session->BindStats(job_registry.get());

    // Cold attempts restore only on --resume; retries always prefer
    // the last good checkpoint (absent file = start over, which still
    // converges because faults are transient).
    if ((attempt > 1 || options_.resume) &&
        session->TryRestoreFromFile(ckpt_path)) {
      if (attempt > 1) {
        restored_any = true;
      }
    }

    const std::uint64_t done_already = session->StepsDone();
    std::uint64_t budget = target > done_already ? target - done_already : 0;
    if (options_.max_steps_per_job > 0 &&
        budget > options_.max_steps_per_job) {
      budget = options_.max_steps_per_job;
    }

    try {
      session->StepN(budget);
    } catch (const FaultCrash& crash) {
      failure = AttemptFailure::kCrash;
      if (attempt < max_attempts) {  // else counted after the loop
        executed_prior_attempts += session->StepsExecuted();
      }
      CENN_WARN("batch job '", job.name, "': simulated crash at step ",
                crash.step, " (attempt ", attempt, "/", max_attempts, ")");
      continue;
    }

    if (session->State() == SessionState::kFaulted) {
      failure = AttemptFailure::kGuardTrip;
      if (attempt < max_attempts) {  // else counted after the loop
        executed_prior_attempts += session->StepsExecuted();
      }
      CENN_WARN("batch job '", job.name, "': health guard tripped — ",
                guard.Summary(), " (attempt ", attempt, "/", max_attempts,
                ")");
      continue;
    }

    failure = AttemptFailure::kNone;
    break;
  }

  result.steps_done = session->StepsDone();
  result.steps_executed = executed_prior_attempts + session->StepsExecuted();
  result.checksum = session->StateChecksum();
  result.health = guard.Report();

  if (failure == AttemptFailure::kCrash) {
    result.status = JobStatus::kFailed;
  } else if (failure == AttemptFailure::kGuardTrip) {
    result.status = JobStatus::kDiverged;
  } else if (!session->ReachedTarget()) {
    result.status = JobStatus::kInterrupted;
    session->SaveCheckpoint();
  } else {
    result.status = result.attempts == 1
                        ? JobStatus::kOk
                        : (restored_any ? JobStatus::kRecovered
                                        : JobStatus::kRetried);
    WriteDoneMarker(base + ".done", result);
  }

  // Per-job stat artifact: the job registry bound before stepping
  // (the same one the metrics stream samples), dumped while the
  // session is still alive.
  {
    std::ofstream stats(base + ".stats.txt");
    if (stats) {
      stats << job_registry->DumpText(/*with_desc=*/true);
    }
  }

  result.wall_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start)
          .count();
  return result;
}

std::vector<JobResult>
BatchRunner::RunAll(StatRegistry* registry)
{
  std::error_code ec;
  std::filesystem::create_directories(options_.out_dir, ec);
  if (ec) {
    CENN_FATAL("BatchRunner: cannot create out_dir '", options_.out_dir,
               "': ", ec.message());
  }
  if (!options_.metrics_dir.empty()) {
    std::filesystem::create_directories(options_.metrics_dir, ec);
    if (ec) {
      CENN_FATAL("BatchRunner: cannot create metrics_dir '",
                 options_.metrics_dir, "': ", ec.message());
    }
  }

  std::vector<JobResult> results(jobs_.size());
  std::uint64_t cached = 0;

  ThreadPool::Options pool_options;
  pool_options.num_threads = options_.num_threads;
  pool_options.queue_capacity = options_.queue_capacity;
  ThreadPool pool(pool_options);

  for (std::size_t i = 0; i < jobs_.size(); ++i) {
    const BatchJobSpec& job = jobs_[i];
    if (options_.resume) {
      JobResult done;
      if (TryReadDoneMarker(options_.out_dir + "/" + job.name + ".done",
                            &done)) {
        done.name = job.name;
        done.model = JobDisplayModel(job);
        done.exec = FormatExecPolicy(job.exec);
        done.status = JobStatus::kCached;
        results[i] = done;
        ++cached;
        continue;
      }
    }
    // Plans are built here, single-threaded, before pool submission
    // (FaultInjector::PlanFor is not synchronized).
    FaultInjector::Plan* faults =
        injector_ != nullptr ? injector_->PlanFor(job.name, i) : nullptr;
    // Each job writes only its own preallocated slot; WaitIdle below
    // gives the happens-before edge for reading them.
    pool.Submit(
        [this, i, faults, &results] {
          results[i] = RunOneJob(jobs_[i], i, faults);
        },
        job.priority);
  }
  pool.WaitIdle();

  if (registry != nullptr) {
    // Owned stats (registry-backed storage), so the registry stays
    // dumpable after the pool and sessions are gone.
    StatScope pool_scope = registry->WithPrefix("runtime.pool");
    pool_scope.AddCounter("threads", "pool worker threads")
        ->Set(static_cast<std::uint64_t>(pool.NumThreads()));
    pool_scope.AddCounter("jobs_completed", "jobs run to completion")
        ->Set(pool.JobsCompleted());
    pool_scope
        .AddCounter("backpressure_blocks",
                    "Submit calls that blocked on a full queue")
        ->Set(pool.Queue().TotalBackpressureBlocks());

    StatScope batch_scope = registry->WithPrefix("runtime.batch");
    std::uint64_t done = 0;
    std::uint64_t interrupted = 0;
    std::uint64_t recovered = 0;
    std::uint64_t failed = 0;
    std::uint64_t retries = 0;
    std::uint64_t steps_executed = 0;
    for (std::size_t i = 0; i < results.size(); ++i) {
      const JobResult& r = results[i];
      switch (r.status) {
        case JobStatus::kOk:
          ++done;
          break;
        case JobStatus::kRetried:
        case JobStatus::kRecovered:
          ++done;
          ++recovered;
          break;
        case JobStatus::kInterrupted:
          ++interrupted;
          break;
        case JobStatus::kCached:
          break;
        case JobStatus::kDiverged:
        case JobStatus::kFailed:
          ++failed;
          break;
      }
      retries += r.attempts > 1 ? static_cast<std::uint64_t>(r.attempts - 1)
                                : 0;
      steps_executed += r.steps_executed;
      registry->WithPrefix("runtime.job" + std::to_string(i))
          .AddCounter("attempts", "sessions built for this job")
          ->Set(static_cast<std::uint64_t>(r.attempts));
    }
    batch_scope.AddCounter("jobs_done", "jobs that reached their target")
        ->Set(done);
    batch_scope
        .AddCounter("jobs_interrupted", "jobs stopped by the step budget")
        ->Set(interrupted);
    batch_scope
        .AddCounter("jobs_cached", "jobs skipped via done markers on resume")
        ->Set(cached);
    batch_scope
        .AddCounter("jobs_recovered",
                    "jobs completed only after one or more retries")
        ->Set(recovered);
    batch_scope
        .AddCounter("jobs_failed", "jobs that exhausted their retries")
        ->Set(failed);
    batch_scope.AddCounter("retries", "extra attempts across all jobs")
        ->Set(retries);
    batch_scope
        .AddCounter("steps_executed", "solver steps run this invocation")
        ->Set(steps_executed);
    if (injector_ != nullptr) {
      batch_scope.AddCounter("faults_injected", "faults fired by the injector")
          ->Set(injector_->TotalFired());
    }
  }

  pool.Shutdown(ThreadPool::ShutdownMode::kDrain);
  return results;
}

std::string
BatchRunner::ResultsCsv(const std::vector<JobResult>& results)
{
  std::ostringstream out;
  out << "name,model,exec,status,attempts,steps_done,steps_executed,"
         "checksum,wall_ms,sat_events,nan_cells,diverged_at_step\n";
  for (const JobResult& r : results) {
    out << r.name << ',' << r.model << ',' << r.exec << ','
        << JobStatusName(r.status) << ',' << r.attempts << ','
        << r.steps_done << ',' << r.steps_executed << ',' << r.checksum
        << ',' << r.wall_ms << ',' << r.health.sat_events << ','
        << r.health.nan_cells << ',' << r.health.diverged_at_step << '\n';
  }
  return out.str();
}

}  // namespace cenn
