#ifndef CENN_RUNTIME_BATCH_RUNNER_H_
#define CENN_RUNTIME_BATCH_RUNNER_H_

/**
 * @file
 * BatchRunner — executes a manifest of solver scenarios across the
 * thread pool, with durable per-job artifacts, so an interrupted or
 * faulted batch converges without recomputing finished work. Each job
 * runs through RunJobAttempts (runtime/job_runner.h), the one
 * job-attempt loop serve uses too; the runner keeps the batch's own
 * I/O: done markers and the resume short-circuit, fault plans, the
 * pool, the CSV and the `runtime.batch.*` counters.
 *
 * Artifacts in the output directory, per job `<name>`:
 *   <name>.ckpt       latest checkpoint (periodic + on interruption)
 *   <name>.done       completion marker: status, attempts, steps,
 *                     state checksum
 *   <name>.stats.txt  session stat dump at job end
 *
 * With BatchOptions::metrics_dir set, each running job additionally
 * streams live JSONL metrics samples (obs/metrics_emitter.h) to
 * `<metrics_dir>/<name>.metrics.jsonl`.
 *
 * Resume contract (docs/runtime.md): with `resume` set, a job with a
 * well-formed done marker is reported "cached" and not executed at
 * all (a torn or garbled marker counts as absent); a job with only a
 * checkpoint restores it and continues from the recorded step.
 * Because checkpoints are bit-exact and per-job seeds are derived
 * deterministically from (base_seed, manifest index), a resumed batch
 * converges to the same final states — byte-identical checksums — as
 * an uninterrupted run.
 *
 * Fault tolerance (docs/robustness.md) is the job-attempt loop's:
 * crashes and guard trips retry from the last good checkpoint, and
 * anything else a job throws fails only that job.
 */

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "health/fault_injector.h"
#include "health/health_guard.h"
#include "runtime/batch_manifest.h"
#include "runtime/job_runner.h"

namespace cenn {

class StatRegistry;

/** Batch-wide execution options. */
struct BatchOptions {
  /** Pool workers running jobs concurrently. */
  int num_threads = 2;

  /** Job-queue admission bound (backpressure above this). */
  std::size_t queue_capacity = 64;

  /** Directory for checkpoints / markers / stat dumps (required). */
  std::string out_dir;

  /** Seed from which unseeded jobs derive theirs (Rng::Split). */
  std::uint64_t base_seed = 42;

  /**
   * Per-invocation step budget per job; 0 = unlimited. A job that
   * hits the budget checkpoints and reports "interrupted" — the unit
   * tests use this to exercise resume deterministically.
   */
  std::uint64_t max_steps_per_job = 0;

  /** Default auto-checkpoint interval for jobs that set none. */
  std::uint64_t checkpoint_every = 0;

  /** Pick up .done / .ckpt artifacts already in out_dir. */
  bool resume = false;

  /** Extra attempts after a crash or guard trip (0 = fail fast). */
  int max_retries = 0;

  /**
   * Base delay before a retry; attempt k waits
   * retry_backoff_ms << (k - 2) (0 = retry immediately).
   */
  int retry_backoff_ms = 0;

  /**
   * Directory for per-job JSONL metrics streams ("" = off): each job
   * streams `<metrics_dir>/<name>.metrics.jsonl` while it runs (a
   * retried attempt restarts the stream). Created on demand.
   */
  std::string metrics_dir;

  /** Sampling period of the per-job metrics streams. */
  int metrics_interval_ms = 250;

  /** Fault-injection spec (health/fault_injector.h); empty = none. */
  std::string fault_inject;

  /** Attach a HealthGuard (with `guard` thresholds) to every job. */
  bool guard_enabled = false;

  /** Guard thresholds when guard_enabled is set. */
  HealthGuardConfig guard;
};

/** Runs a parsed manifest (see file comment). */
class BatchRunner
{
  public:
    BatchRunner(std::vector<BatchJobSpec> jobs, BatchOptions options);

    /**
     * Runs every job across the pool and returns results in manifest
     * order. When `registry` is non-null, pool stats bind under
     * `runtime.pool.*`, batch aggregates under `runtime.batch.*` and
     * per-job attempt counts under `runtime.job<index>.attempts`.
     */
    std::vector<JobResult> RunAll(StatRegistry* registry = nullptr);

    /** Results as a CSV document (header + one row per job). */
    static std::string ResultsCsv(const std::vector<JobResult>& results);

  private:
    std::vector<BatchJobSpec> jobs_;
    BatchOptions options_;
    std::unique_ptr<FaultInjector> injector_;  // null when no spec
};

}  // namespace cenn

#endif  // CENN_RUNTIME_BATCH_RUNNER_H_
