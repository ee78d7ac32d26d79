#include "runtime/batch_runner.h"

#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>

#include "obs/stat_registry.h"
#include "runtime/thread_pool.h"
#include "util/logging.h"

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
 * Reads a completion marker; true when it is whole and well-formed:
 * every line WriteDoneMarker writes is present and ends in a newline,
 * and its numbers are plain decimal. A torn or garbled marker counts
 * as absent, so the job just re-runs.
 */
bool
TryReadDoneMarker(const std::string& path, JobResult* result)
{
  std::ifstream in(path);
  std::map<std::string, std::string> fields;
  std::string line;
  while (std::getline(in, line)) {
    if (in.eof()) {
      return false;  // the last line was cut short of its newline
    }
    const std::size_t eq = line.find('=');
    fields[line.substr(0, eq)] =
        eq == std::string::npos ? "" : line.substr(eq + 1);
  }
  for (const char* key : {"name", "model", "exec", "status"}) {
    if (fields.count(key) == 0) {
      return false;
    }
  }
  std::uint64_t attempts = 0;
  return ParseDecimalU64(fields["attempts"], &attempts) &&
         ParseDecimalU64(fields["steps"], &result->steps_done) &&
         ParseDecimalU64(fields["checksum"], &result->checksum);
}

/**
 * Runs one job on a pool worker and writes its done marker. `faults`
 * is the job's fault plan (null = none).
 */
JobResult
RunBatchJob(const BatchOptions& options, const JobSpec& job,
            std::size_t index, FaultInjector::Plan* faults)
{
  const std::string base = options.out_dir + "/" + job.name;
  JobRunOptions run;
  run.base_seed = options.base_seed;
  run.index = index;
  run.checkpoint_path = base + ".ckpt";
  run.checkpoint_every = options.checkpoint_every;
  run.resume = options.resume;
  run.max_retries = options.max_retries;
  run.retry_backoff_ms = options.retry_backoff_ms;
  run.max_steps = options.max_steps_per_job;
  run.guard_enabled = options.guard_enabled;
  run.guard = options.guard;
  run.faults = faults;
  if (!options.metrics_dir.empty()) {
    run.metrics_path = options.metrics_dir + "/" + job.name + ".metrics.jsonl";
    run.metrics_interval_ms = options.metrics_interval_ms;
  }
  run.stats_path = base + ".stats.txt";

  const JobResult result = RunJobAttempts(job, run, /*control=*/nullptr);
  if (JobStatusIsSuccess(result.status)) {
    WriteDoneMarker(base + ".done", result);
  }
  return result;
}

}  // namespace

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
          results[i] = RunBatchJob(options_, jobs_[i], i, faults);
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
      const bool success = JobStatusIsSuccess(r.status);
      done += success ? 1 : 0;
      recovered += success && r.attempts > 1 ? 1 : 0;
      interrupted += r.status == JobStatus::kInterrupted ? 1 : 0;
      failed += JobStatusIsFailure(r.status) ? 1 : 0;
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
