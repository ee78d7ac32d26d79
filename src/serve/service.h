#ifndef CENN_SERVE_SERVICE_H_
#define CENN_SERVE_SERVICE_H_

/**
 * @file
 * SolverService — the transport-independent core of cenn_serve: a
 * long-lived multi-tenant front end over SolverSession.
 *
 * One service owns one ThreadPool, one JobRegistry and one
 * AdmissionController; each accepted job runs as one pool closure
 * that calls RunJobAttempts (runtime/job_runner.h), the job-attempt
 * loop the batch runner uses too: a crash or guard trip rebuilds the
 * session, restores the last good checkpoint from the work dir, and
 * retries up to max_retries times. A job that cannot recover reports
 * "diverged" or "failed"; the server itself never goes down with it.
 * The service keeps its own I/O: admission, the registry, the wire,
 * cancel and drain before dispatch, and a JobControl that publishes
 * the live session to the status, snapshot, cancel and drain paths.
 *
 * The entry point is HandleLine: one cenn.serve.v1 request line in,
 * one response line out, callable from any number of transport
 * threads concurrently. Ops:
 *
 *   ping      liveness + server info
 *   submit    {"op":"submit","tenant":t,"spec":{manifest keys...},
 *              ["fault_inject":spec]} -> {"job":"jN","status":"queued"}
 *   status    live status of a job (steps progress while running)
 *   result    terminal result; "wait":true long-polls ("timeout_ms")
 *   cancel    cancels a queued or running job
 *   snapshot  pauses a running job at a slice boundary, returns one
 *             layer's state, resumes (incremental result delivery)
 *   stats     full stat-registry dump (serve.* subtree included)
 *   shutdown  asks the host process to drain and exit
 *
 * Drain() (SIGTERM path) stops admission, flushes queued jobs to
 * "interrupted", pauses running sessions so they checkpoint and
 * report "interrupted", and waits for the pool — no orphaned
 * sessions, no corrupt checkpoints, and every waiter is woken with a
 * terminal status.
 *
 * Observability: the service binds a `serve.*` subtree (admission,
 * completion and wire counters, live queue gauges, lazily created
 * `serve.tenant.<name>.*` per-tenant counters) into its own
 * StatRegistry, streams it through a MetricsEmitter when configured,
 * and exposes the registry for the stats op.
 */

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "health/health_guard.h"
#include "obs/metrics_emitter.h"
#include "obs/stat_registry.h"
#include "serve/admission.h"
#include "serve/job_registry.h"
#include "serve/wire.h"
#include "runtime/thread_pool.h"

namespace cenn {

class JsonValue;

/** Service configuration (see field comments). */
struct ServiceOptions {
  /** Pool workers running jobs concurrently. */
  int num_threads = 2;

  /** Pool job-queue bound (TrySubmit rejects above it). */
  std::size_t queue_capacity = 16;

  /** Max in-flight jobs per tenant (0 = unlimited). */
  int tenant_quota = 8;

  /**
   * Max in-flight jobs across tenants; 0 derives
   * queue_capacity + num_threads (the natural bound: a full queue
   * plus busy workers).
   */
  std::size_t max_in_flight = 0;

  /** Directory for per-job checkpoints (required). */
  std::string work_dir;

  /** Seed from which unseeded jobs derive theirs (Rng::Split). */
  std::uint64_t base_seed = 42;

  /** Extra attempts after a crash or guard trip. */
  int max_retries = 2;

  /** Base retry delay; attempt k waits backoff << (k-2). */
  int retry_backoff_ms = 0;

  /** Auto-checkpoint interval for jobs that set none (0 = off). */
  std::uint64_t checkpoint_every = 64;

  /** Largest rows*cols a submit may ask for (0 = unlimited). */
  std::size_t max_cells = 1u << 20;

  /** Largest steps a submit may ask for (0 = unlimited). */
  std::uint64_t max_steps = 0;

  /** Attach a HealthGuard (with `guard` thresholds) to every job. */
  bool guard_enabled = true;

  /** Guard thresholds when guard_enabled is set. */
  HealthGuardConfig guard;

  /** Retry hint on quota/busy rejections. */
  int retry_after_ms = 200;

  /** Server-wide JSONL metrics stream ("" = off). */
  std::string metrics_path;
  int metrics_interval_ms = 250;
};

/** The serve core (see file comment). */
class SolverService
{
  public:
    explicit SolverService(ServiceOptions options);

    /** Drains (idempotent with an explicit Drain). */
    ~SolverService();

    SolverService(const SolverService&) = delete;
    SolverService& operator=(const SolverService&) = delete;

    /**
     * Handles one request line, writes one response line (no trailing
     * newline). Never throws, never fatal on any input. Returns false
     * when the request asks the host process to shut down ("shutdown"
     * op) — the response is still written and must still be sent.
     */
    bool HandleLine(const std::string& line, std::string* response);

    /**
     * Graceful shutdown: stops admission, flushes the queue to
     * "interrupted", pauses running sessions (they checkpoint and
     * finish "interrupted"), waits for the pool and stops the metrics
     * stream. Idempotent; safe while transport threads are still
     * inside HandleLine.
     */
    void Drain();

    bool Draining() const { return draining_.load(); }

    /** Transport hook: counts one accepted connection. */
    void OnConnection() { counters_.connections.fetch_add(1); }

    /** The service registry (stats op; tests). */
    const StatRegistry& Stats() const { return registry_; }

    /** The job registry (tests). */
    JobRegistry& Jobs() { return jobs_; }

  private:
    /** Wire counters; atomics because transport threads bump them. */
    struct Counters {
      std::atomic<std::uint64_t> connections{0};
      std::atomic<std::uint64_t> requests{0};
      std::atomic<std::uint64_t> bad_requests{0};
      std::atomic<std::uint64_t> accepted{0};
      std::atomic<std::uint64_t> rejected_quota{0};
      std::atomic<std::uint64_t> rejected_busy{0};
      std::atomic<std::uint64_t> rejected_invalid{0};
      std::atomic<std::uint64_t> rejected_draining{0};
      std::atomic<std::uint64_t> completed{0};
      std::atomic<std::uint64_t> recovered{0};
      std::atomic<std::uint64_t> retries{0};
      std::atomic<std::uint64_t> cancelled{0};
      std::atomic<std::uint64_t> interrupted{0};
      std::atomic<std::uint64_t> failed{0};
      std::atomic<std::uint64_t> snapshots{0};
      std::atomic<std::uint64_t> steps_executed{0};
      std::atomic<std::uint64_t> faults_injected{0};
    };

    /** Per-tenant counters, created lazily on first submit. */
    struct TenantCounters {
      std::atomic<std::uint64_t> accepted{0};
      std::atomic<std::uint64_t> rejected{0};
      std::atomic<std::uint64_t> completed{0};
      std::atomic<std::uint64_t> failed{0};
    };

    void BindServiceStats();
    TenantCounters* TenantStats(const std::string& tenant);

    /** @name Op handlers (HandleLine dispatch targets). */
    ///@{
    std::string HandlePing();
    std::string HandleSubmit(const JsonValue& request);
    std::string HandleStatus(const JsonValue& request);
    std::string HandleResult(const JsonValue& request);
    std::string HandleCancel(const JsonValue& request);
    std::string HandleSnapshot(const JsonValue& request);
    std::string HandleStats();
    ///@}

    /** The pool closure: runs one job to a terminal status. */
    void RunJob(ServeJob* job);

    /**
     * Moves `job` to `result.status`, a terminal status (first writer
     * wins), stores the result, releases admission and bumps the
     * terminal counters.
     */
    void Finalize(ServeJob* job, const JobResult& result);

    ServiceOptions options_;

    StatRegistry registry_;
    Counters counters_;
    std::mutex tenant_mu_;
    std::map<std::string, std::unique_ptr<TenantCounters>> tenants_;

    AdmissionController admission_;
    JobRegistry jobs_;
    std::unique_ptr<ThreadPool> pool_;
    std::unique_ptr<MetricsEmitter> metrics_;
    /** LutStore listener forcing metrics samples; 0 = none. */
    std::uint64_t lut_listener_token_ = 0;

    std::atomic<bool> draining_{false};
    std::mutex drain_mu_;  // serializes Drain bodies
    std::atomic<std::uint64_t> dispatch_seq_{0};
};

}  // namespace cenn

#endif  // CENN_SERVE_SERVICE_H_
