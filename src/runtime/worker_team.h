#ifndef CENN_RUNTIME_WORKER_TEAM_H_
#define CENN_RUNTIME_WORKER_TEAM_H_

/**
 * @file
 * ShardTeam — a persistent band-parallel worker team over one Engine.
 *
 * The fused execution engine of the solver stack: K workers are
 * spawned once (per SolverSession / per BatchRunner job / per
 * cenn_run) and step disjoint row bands of a shared engine through
 * the two-phase halo barrier of docs/runtime.md, so a long-running
 * session pays thread creation once instead of once per slice.
 * Dispatch between Run() calls is a generation counter under a
 * mutex/condvar; the phase barriers themselves are std::barrier
 * objects reused across every step of every dispatch. Results are
 * bit-identical to serial stepping for any shard count: every step
 * runs refresh, barrier, compute, barrier, with the serial publish in
 * the compute barrier's completion step.
 *
 * Pinning (TeamOptions::pin): "cores" pins worker k to cpu k mod N;
 * "numa" pins worker k to the cpuset of node k mod #nodes (Linux
 * sysfs; falls back to cores elsewhere). Pinned workers additionally
 * warm their band (one out-of-loop RefreshOutputs) on first dispatch
 * so first-touch page placement lands on the worker's node.
 *
 * Observability: with TeamOptions::timings attached, every worker
 * clocks its refresh / step / barrier-wait phases per step
 * (accumulated thread-locally, merged once per dispatch) and the
 * barrier completion clocks the serial publish; with a trace
 * attached, each phase additionally emits an 'X' span on the shard's
 * lane and lanes are named ("shard0", ..., "publish"). Passing
 * neither keeps the worker loop free of clock reads. The serial
 * fallback attributes its phases to shard 0.
 *
 * Counting: whichever thread steps — a band worker, or the caller for
 * a one-shard team — installs the thread-local Fixed32 saturation
 * counter and LUT tally that drain into the engine's attached
 * HealthGuard and LutTrafficSink, so callers install neither.
 *
 * Thread safety: Run() is externally synchronized (one driver thread
 * at a time — the SolverSession pattern); Workers()/Dispatches() may
 * be read from any thread.
 */

#include <atomic>
#include <barrier>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "runtime/sharded_stepper.h"

namespace cenn {

class Engine;
class ShardTeam;
class TraceSession;

/** Worker pinning policy of a ShardTeam. */
enum class TeamPin : std::uint8_t {
  kNone = 0,   ///< scheduler decides
  kCores = 1,  ///< worker k -> cpu (k mod N)
  kNuma = 2,   ///< worker k -> node (k mod #nodes) cpuset
};

/** Parses "none" / "cores" / "numa"; false otherwise. */
bool ParseTeamPin(const std::string& text, TeamPin* out);

/** Returns "none" / "cores" / "numa". */
const char* TeamPinName(TeamPin pin);

/** Construction parameters of a ShardTeam. */
struct TeamOptions {
  /** Requested band shards (>= 1; clamped to available rows). */
  int shards = 1;

  /** Worker pinning policy. */
  TeamPin pin = TeamPin::kNone;

  /** Phase-time accumulator; null = no clock reads in the loop. */
  ShardPhaseTimings* timings = nullptr;

  /**
   * Trace sink for per-phase 'X' spans (category kStep, lane = shard
   * index, timestamps in steady-clock nanoseconds — export with
   * ticks_per_us = 1e3) and lane-name metadata. Null = off.
   */
  TraceSession* trace = nullptr;
};

/** Compute-barrier completion (the serial publish). */
struct TeamComputeCompletion {
  ShardTeam* team = nullptr;
  void operator()() const noexcept;
};

/** Persistent band-parallel worker team (see file comment). */
class ShardTeam
{
  public:
    /**
     * Prepares `engine` (not owned; must outlive the team), partitions
     * its rows and spawns the workers. Falls back to a thread-free
     * serial team when the engine cannot band-step or the partition
     * yields a single band (a warning is logged once per process when
     * shards > 1 had to be ignored).
     */
    ShardTeam(Engine* engine, const TeamOptions& options);

    ShardTeam(const ShardTeam&) = delete;
    ShardTeam& operator=(const ShardTeam&) = delete;

    /** Joins the workers. */
    ~ShardTeam();

    /**
     * Steps the engine `steps` times using the resident workers
     * (blocking; returns when the engine has advanced). Zero steps is
     * a no-op that does not count as a dispatch.
     */
    void Run(std::uint64_t steps);

    /** Resident worker threads (0 = serial fallback). */
    int Workers() const { return static_cast<int>(workers_.size()); }

    /** Run() dispatches issued so far (lifecycle/reuse telemetry). */
    std::uint64_t Dispatches() const
    {
        return dispatches_.load(std::memory_order_relaxed);
    }

    /** The effective band count ( == Workers() when threaded). */
    int Bands() const { return static_cast<int>(bands_.size()); }

  private:
    friend struct TeamComputeCompletion;

    void WorkerMain(std::size_t k);
    void RunBand(std::size_t k, std::uint64_t steps);
    void RunSerial(std::uint64_t steps);

    /** Compute-barrier completion body (exactly one thread). */
    void OnComputeComplete() noexcept;

    Engine* engine_;
    ShardPhaseTimings* timings_;
    TraceSession* trace_;
    TeamPin pin_;
    std::vector<std::pair<std::size_t, std::size_t>> bands_;

    std::optional<std::barrier<void (*)() noexcept>> refresh_done_;
    std::optional<std::barrier<TeamComputeCompletion>> compute_done_;

    std::mutex mu_;
    std::condition_variable cv_;
    std::condition_variable done_cv_;
    std::uint64_t generation_ = 0;
    std::uint64_t steps_requested_ = 0;
    std::size_t workers_done_ = 0;
    bool stop_ = false;

    std::atomic<std::uint64_t> dispatches_{0};
    std::vector<std::thread> workers_;
};

}  // namespace cenn

#endif  // CENN_RUNTIME_WORKER_TEAM_H_
