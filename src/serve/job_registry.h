#ifndef CENN_SERVE_JOB_REGISTRY_H_
#define CENN_SERVE_JOB_REGISTRY_H_

/**
 * @file
 * JobRegistry — ownership and lookup of every job the service has
 * accepted. The registry (not the connection handlers, not the pool
 * closures) owns the ServeJob records; handlers and workers hold raw
 * pointers, which are stable because records live until the service
 * dies (completed jobs stay queryable — a client may ask for a result
 * long after the run finished).
 *
 * A job's status is the runtime's JobStatus, shared with batch:
 * queued, running, then its JobResult's terminal status.
 *
 * Synchronization is two-level:
 *  - the registry mutex guards the id map (create / find / list);
 *  - each ServeJob carries its own mutex + condvar guarding the
 *    mutable run state (status, progress, the live session pointer)
 *    and waking result-waiters and pause-holders.
 * Lock order is registry before job; the hot path (the run loop)
 * takes only the job lock.
 */

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "health/fault_injector.h"
#include "runtime/job_queue.h"
#include "runtime/job_runner.h"
#include "runtime/job_spec.h"

namespace cenn {

class SolverSession;

/** One accepted job (see file comment for locking). */
struct ServeJob {
  /** Server-assigned id ("j1", "j2", ...); the wire handle. */
  std::string id;

  std::string tenant;
  JobSpec spec;

  /** Global submission index (seed derivation, dispatch tiebreak). */
  std::uint64_t index = 0;

  /** Per-job fault schedule (null = none); plan points into it. */
  std::unique_ptr<FaultInjector> injector;
  FaultInjector::Plan* plan = nullptr;

  /** Pool handle while queued (cancellation of unstarted jobs). */
  JobId pool_id = 0;

  /** Guards everything below; cv wakes waiters on any change. */
  mutable std::mutex mu;
  mutable std::condition_variable cv;

  /** Lifecycle: queued, running, then one terminal status. */
  JobStatus status = JobStatus::kQueued;
  bool cancel_requested = false;

  /** Order this job started on a worker (1-based; 0 = never started). */
  std::uint64_t dispatch_seq = 0;

  /** Sessions built so far (the current attempt while running). */
  int attempts = 0;

  /**
   * Progress mirror for the status op: the worker publishes the
   * engine's step counter here at every slice boundary so handlers
   * never touch a live engine (which would race with stepping).
   */
  std::atomic<std::uint64_t> live_steps{0};

  /** The terminal result; meaningful once status is terminal. */
  JobResult result;

  /**
   * The live session while a worker runs the job (null otherwise).
   * Never dereferenced off the worker thread except while the worker
   * is parked in the pause handshake below.
   */
  SolverSession* session = nullptr;

  /**
   * Pause handshake for snapshot-on-request: a handler increments
   * pause_holders and requests a session pause; the worker parks with
   * paused=true until holders drain, then resumes. While paused the
   * session is quiescent and handlers may read it.
   */
  int pause_holders = 0;
  bool paused = false;
};

/** Owns every accepted job; thread-safe. */
class JobRegistry
{
  public:
    /**
     * Creates a job record for `spec` under the next id. The spec's
     * empty name defaults to the id. Returns a pointer stable for the
     * registry's lifetime.
     */
    ServeJob* Create(const std::string& tenant, JobSpec spec);

    /** Looks up a job id; null when unknown. */
    ServeJob* Find(const std::string& id);

    /**
     * Retracts a record that never entered the pool (failed
     * TrySubmit): unlinks the id and marks the job cancelled, but the
     * record itself stays alive — pointers handed out by Find/All
     * remain valid (the registry's stability guarantee), and a drain
     * sweep racing the retraction sees a terminal job, not freed
     * memory. Fatal if the id is unknown or already dispatched.
     */
    void Retract(const std::string& id);

    /** Every job, in creation order (drain sweeps, tests). */
    std::vector<ServeJob*> All();

    /** Jobs created over the registry's lifetime. */
    std::uint64_t TotalCreated() const;

    /** @name Live-state tallies (derived stat sources; lock-free). */
    ///@{
    std::uint64_t Queued() const { return queued_.load(); }
    std::uint64_t Running() const { return running_.load(); }
    ///@}

    /**
     * Status-transition bookkeeping: moves `job` to `status` under its
     * own lock, maintains the queued/running tallies and wakes every
     * waiter. Terminal transitions are final — further calls are
     * ignored (first writer wins). Returns true when this call
     * performed the transition.
     */
    bool Transition(ServeJob* job, JobStatus status);

    /**
     * Tally maintenance for callers that performed the `from` ->
     * `to` move themselves under the job lock (the service finalizer,
     * which writes result fields and the status atomically).
     */
    void NoteTransition(JobStatus from, JobStatus to);

  private:
    mutable std::mutex mu_;
    std::vector<std::unique_ptr<ServeJob>> jobs_;       // creation order
    std::map<std::string, ServeJob*> by_id_;
    std::uint64_t next_id_ = 1;

    std::atomic<std::uint64_t> queued_{0};
    std::atomic<std::uint64_t> running_{0};
};

}  // namespace cenn

#endif  // CENN_SERVE_JOB_REGISTRY_H_
