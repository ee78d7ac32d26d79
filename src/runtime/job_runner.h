#ifndef CENN_RUNTIME_JOB_RUNNER_H_
#define CENN_RUNTIME_JOB_RUNNER_H_

/**
 * @file
 * RunJobAttempts — the one job-attempt loop under batch and serve:
 * seed, model resolution, SessionConfig, retries with backoff and
 * checkpoint restore, status mapping, an exception fence, the stat
 * dump and wall_ms. BatchRunner and SolverService keep only their own
 * I/O. Recovery contract: docs/robustness.md.
 */

#include <cstdint>
#include <string>

#include "health/fault_injector.h"
#include "health/health_guard.h"
#include "runtime/job_spec.h"

namespace cenn {

class SolverSession;

/** Where a job is in its life, and how it ended. */
enum class JobStatus : std::uint8_t {
  kOk = 0,          ///< reached target on the first attempt
  kRetried = 1,     ///< reached target after a retry from scratch
  kRecovered = 2,   ///< reached target after a checkpoint-restore retry
  kInterrupted = 3, ///< checkpointed and stopped (step budget or drain)
  kCached = 4,      ///< skipped via a done marker (batch resume)
  kDiverged = 5,    ///< retries exhausted; last failure was a guard trip
  kFailed = 6,      ///< retries exhausted on a crash, or internal error
  kQueued = 7,      ///< admitted, waiting for a worker (serve)
  kRunning = 8,     ///< a worker is running the job (serve)
  kCancelled = 9,   ///< stopped by a cancel request (serve)
};

/** Returns "ok" / "retried" / ... / "cancelled". */
const char* JobStatusName(JobStatus status);

/** True for the states a job can still leave (queued, running). */
inline bool
JobStatusIsLive(JobStatus s)
{
  return s == JobStatus::kQueued || s == JobStatus::kRunning;
}

/** True when the job reached its target (ok, retried, recovered). */
inline bool
JobStatusIsSuccess(JobStatus s)
{
  return s == JobStatus::kOk || s == JobStatus::kRetried ||
         s == JobStatus::kRecovered;
}

/** True for the statuses that should fail the batch (CLI exit 1). */
inline bool
JobStatusIsFailure(JobStatus s)
{
  return s == JobStatus::kDiverged || s == JobStatus::kFailed;
}

/** What the reports' `model` column shows for a job. */
std::string JobDisplayModel(const JobSpec& job);

/**
 * The stem of an unnamed job's default name (batch `job<N>_<stem>`,
 * serve `j<N>_<stem>`): the model id, the scenario file's basename
 * with its extension stripped, or "scenario" for inline text.
 */
std::string JobModelStem(const JobSpec& job);

/** Outcome of one job. */
struct JobResult {
  std::string name;
  std::string model;
  /** Canonical execution-policy string (FormatExecPolicy). */
  std::string exec;
  JobStatus status = JobStatus::kOk;
  /** Sessions built for this job (1 = no retries, 0 = none). */
  int attempts = 1;
  /** Engine step counter at job end (includes restored steps). */
  std::uint64_t steps_done = 0;
  /** Steps actually executed by this invocation (all attempts). */
  std::uint64_t steps_executed = 0;
  /** SolverSession::StateChecksum at job end. */
  std::uint64_t checksum = 0;
  /** Wall-clock milliseconds spent in this invocation (all attempts). */
  double wall_ms = 0.0;
  /** Final attempt's guard report (zeros when no guard attached). */
  HealthReport health;
  /** Why the job did not end ok ("" when it did). */
  std::string message;
};

/** How one job runs; each front end fills it from its own options. */
struct JobRunOptions {
  /** An unseeded job runs Rng(base_seed).Split(index). */
  std::uint64_t base_seed = 42;
  std::uint64_t index = 0;

  std::string checkpoint_path;
  /** Auto-checkpoint interval for a job that sets none (0 = off). */
  std::uint64_t checkpoint_every = 0;
  /** Restore checkpoint_path on the first attempt too. */
  bool resume = false;

  int max_retries = 0;
  /** Attempt k waits retry_backoff_ms << (k - 2). */
  int retry_backoff_ms = 0;
  /** Steps this invocation may run (0 = all); then "interrupted". */
  std::uint64_t max_steps = 0;

  bool guard_enabled = false;
  HealthGuardConfig guard;
  /** Fired after every slice (null = none; not owned). */
  FaultInjector::Plan* faults = nullptr;

  /** Per-job JSONL metrics stream ("" = off). */
  std::string metrics_path;
  int metrics_interval_ms = 250;
  /** Stat dump written at job end ("" = none). */
  std::string stats_path;
};

/**
 * How a front end (serve) watches and steers a running job from other
 * threads. Every hook runs on the job's own thread.
 */
class JobControl
{
  public:
    virtual ~JobControl() = default;

    /** Attempt `attempt`'s session once built and restored; null at
     *  each attempt's start and at job end, before it is destroyed. */
    virtual void Publish(SolverSession* session, int attempt) = 0;

    /** True once the job must checkpoint and stop ("interrupted"). */
    virtual bool StopRequested() = 0;

    /** The session paused: hold while the pauser reads it. */
    virtual void Park() = 0;

    /** The engine's step count after a restore and every slice. */
    virtual void Progress(std::uint64_t steps) = 0;
};

/**
 * Runs `spec` to a terminal status. Anything it throws fails the job
 * as "internal error: ..." instead of reaching the caller.
 */
JobResult RunJobAttempts(const JobSpec& spec, const JobRunOptions& options,
                         JobControl* control);

}  // namespace cenn

#endif  // CENN_RUNTIME_JOB_RUNNER_H_
