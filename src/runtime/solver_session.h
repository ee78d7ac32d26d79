#ifndef CENN_RUNTIME_SOLVER_SESSION_H_
#define CENN_RUNTIME_SOLVER_SESSION_H_

/**
 * @file
 * SolverSession — one managed solver run with a lifecycle.
 *
 * A session owns any cenn::Engine (functional MultilayerCenn, the SoA
 * kernel engine, or the cycle-level ArchSimulator) and adds what a
 * long-running service needs around the raw backend:
 *
 *  - run / pause / resume / cancel, honored at slice granularity
 *    (StepN executes `slice_steps` at a time and re-checks the flags
 *    between slices — cooperative, never mid-step);
 *  - periodic and on-demand checkpoints through src/program's
 *    checkpoint format, and restore-from-file to resume a prior run
 *    bit-exactly (states are stored as lossless f64);
 *  - a per-session stat subtree (`runtime.session<N>.*`) bound into a
 *    shared StatRegistry: lifecycle counters, per-shard phase timings
 *    (`...shard<K>.*`, via ShardPhaseTimings), off-chip LUT traffic
 *    (`...lut.interp.*`, via an attached LutTrafficSink) and whatever
 *    the engine publishes through Engine::BindStats;
 *  - an optional live metrics stream (SessionConfig::metrics_path):
 *    BindStats starts a MetricsEmitter over the registry, lifecycle
 *    transitions (pause/fault/done/cancel) force samples, and the
 *    session destructor stops it with a final "exit" line.
 *
 * The session never branches on the engine kind: stepping goes through
 * a persistent ShardTeam (runtime/worker_team.h) created once at
 * construction — workers live for the whole session, so every slice
 * reuses warmed, pinned threads instead of respawning them — which
 * uses band-phase stepping when the engine supports it and falls back
 * to serial otherwise. Checkpoints go through the Engine overloads of
 * Capture/RestoreCheckpoint, and stats through Engine::BindStats. The
 * team shape (shard count and pinning) comes from SessionConfig::exec;
 * the policy's engine-selection fields are informational here because
 * the engine is constructed by the caller (runtime/engine_factory.h
 * consumes them).
 *
 * Sessions are externally synchronized except for RequestPause /
 * RequestCancel / State / StepsDone, which may be called from any
 * thread while another thread drives StepN — that is the intended
 * control pattern on a pool.
 */

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/solver.h"
#include "lut/lut_traffic.h"
#include "obs/metrics_emitter.h"
#include "program/checkpoint.h"
#include "runtime/sharded_stepper.h"
#include "util/exec_policy.h"

namespace cenn {

class LutRefitter;
class ShardTeam;
class StatRegistry;
class TraceSession;
struct ArchConfig;
struct SolverProgram;

/** Lifecycle of a SolverSession. */
enum class SessionState : std::uint8_t {
  kIdle = 0,      ///< constructed or restored, not stepping
  kRunning = 1,   ///< inside StepN
  kPaused = 2,    ///< stopped by RequestPause; Resume() re-arms
  kDone = 3,      ///< reached target_steps
  kCancelled = 4, ///< stopped by RequestCancel; terminal
  kFaulted = 5,   ///< health guard tripped; restore a checkpoint to clear
};

/** Returns "idle" / "running" / ... / "faulted". */
const char* SessionStateName(SessionState state);

/** Construction parameters of a SolverSession. */
struct SessionConfig {
  /** Human-readable label (job name); also used in log lines. */
  std::string name;

  /**
   * Execution policy. The session consumes the team-shape fields —
   * shards (band-parallel workers, 1 = serial) and pin —
   * for its persistent worker team; the engine-selection fields
   * describe the engine the caller already built (echoed in logs and
   * status, not re-interpreted here).
   */
  ExecPolicy exec;

  /** Total steps the session aims for; 0 = open-ended. */
  std::uint64_t target_steps = 0;

  /** Auto-checkpoint to `checkpoint_path` every N steps (0 = off). */
  std::uint64_t checkpoint_every = 0;

  /** Checkpoint file; required when checkpoint_every > 0. */
  std::string checkpoint_path;

  /** Steps per slice between pause/cancel checks. */
  std::uint64_t slice_steps = 64;

  /**
   * JSONL metrics stream ("" = off): BindStats starts a
   * MetricsEmitter over the bound registry at this path.
   */
  std::string metrics_path;

  /** Sampling period of the metrics stream (>= 1). */
  int metrics_interval_ms = 250;

  /**
   * Optional trace sink (not owned; must outlive the session):
   * sharded stepping emits per-phase spans on named shard lanes.
   */
  TraceSession* trace = nullptr;

  /**
   * Called after every slice, before the health scan and the
   * auto-checkpoint (fault injection, custom monitors). May mutate
   * engine state; may throw (e.g. FaultCrash) — the session object is
   * then dead and its owner rebuilds from the last checkpoint.
   */
  std::function<void(Engine&)> post_slice_hook;

  /**
   * Optional adaptive LUT range refitter (lut/lut_refit.h, built via
   * MakeLutRefitter): after every healthy slice-boundary scan, the
   * session feeds the guard's observed max |state| to the refitter,
   * which acquires a widened-range table set from the LutStore and
   * rebinds the engine when states approach the sampled interval's
   * edge. Null = fixed tables for the whole run.
   */
  std::shared_ptr<LutRefitter> lut_refitter;
};

/** One managed solver run (see file comment). */
class SolverSession
{
  public:
    /** Primary form: wraps any engine (see runtime/engine_factory.h). */
    SolverSession(std::unique_ptr<Engine> engine, SessionConfig config);

    /** Convenience: functional session (double or fixed precision). */
    SolverSession(const NetworkSpec& spec, SolverOptions options,
                  SessionConfig config);

    /** Convenience: cycle-level accelerator session. */
    SolverSession(const SolverProgram& program, const ArchConfig& arch,
                  SessionConfig config);

    SolverSession(const SolverSession&) = delete;
    SolverSession& operator=(const SolverSession&) = delete;

    /** Stops the metrics stream (final "exit" sample) if running. */
    ~SolverSession();

    /**
     * Executes up to `n` steps in slices, stopping early on a pause or
     * cancel request, on reaching target_steps, or on a health-guard
     * trip (engine with an attached HealthGuard: the guard's MaybeScan
     * runs at every slice boundary, and a trip moves the session to
     * kFaulted *without* checkpointing the suspect slice). A pause
     * requested before the call runs zero steps. Returns steps
     * actually run.
     */
    std::uint64_t StepN(std::uint64_t n);

    /** StepN until target_steps (fatal when target_steps == 0). */
    std::uint64_t RunToTarget();

    /** Asks the stepping thread to stop after the current slice. */
    void RequestPause() { pause_requested_.store(true); }

    /** Clears a pause so the next StepN proceeds. */
    void Resume();

    /** Irrevocably stops the session after the current slice. */
    void RequestCancel() { cancel_requested_.store(true); }

    /** Current lifecycle state. */
    SessionState State() const { return state_.load(); }

    /** Engine step counter (includes steps from a restored run). */
    std::uint64_t StepsDone() const { return engine_->Steps(); }

    /** Steps executed by this session object (excludes restored). */
    std::uint64_t StepsExecuted() const { return steps_executed_; }

    /** True once StepsDone() >= target_steps (and target is set). */
    bool ReachedTarget() const;

    /** Snapshot of the full dynamic state. */
    Checkpoint Capture() const;

    /**
     * Writes a checkpoint to `path` (empty = config checkpoint_path).
     * Returns false when the file cannot be written.
     */
    bool SaveCheckpoint(const std::string& path = "");

    /**
     * Restores state + step counter from a checkpoint file. Returns
     * false, leaving the session untouched, when the file does not
     * exist or cannot be read, and (with a warning) when it is torn,
     * garbled, foreign or of another geometry: callers then run the
     * job from the start. Arch sessions restore functional state
     * only — timing counters restart from zero.
     */
    bool TryRestoreFromFile(const std::string& path);

    /**
     * FNV-1a hash over the bit patterns of every layer's state (as
     * f64) plus the step counter — cheap run-identity fingerprint for
     * determinism checks and resume verification.
     */
    std::uint64_t StateChecksum() const;

    /**
     * Binds the session subtree under `runtime.session<id>.`:
     * lifecycle gauges, shard phase timings, LUT traffic, plus
     * whatever the engine publishes through Engine::BindStats (the
     * arch simulator binds its full stat set). When the config asks
     * for a metrics stream, this also starts the MetricsEmitter over
     * `registry`. The session must outlive the registry's dumps.
     */
    void BindStats(StatRegistry* registry);

    /** Per-shard phase timings accumulated by this session's slices. */
    const ShardPhaseTimings& PhaseTimings() const { return *timings_; }

    /**
     * The persistent worker team stepping this session (never null).
     * Exposes team shape and dispatch counts — tests assert that
     * pause/checkpoint/resume cycles reuse the same workers.
     */
    const ShardTeam& Team() const { return *team_; }

    /** Off-chip LUT interpolation traffic seen by this session. */
    const LutTrafficSink& LutTraffic() const { return lut_traffic_; }

    /** The metrics stream, or null when not configured/started. */
    MetricsEmitter* Metrics() { return metrics_.get(); }

    /** Layer state as doubles, any engine kind. */
    std::vector<double> StateDoubles(int layer) const;

    /** Session label from the config. */
    const std::string& Name() const { return config_.name; }

    /** Process-unique session id (sets the stat prefix). */
    std::uint64_t Id() const { return id_; }

    /** The wrapped engine (never null; for kind-specific probing). */
    Engine& Backend() { return *engine_; }
    const Engine& Backend() const { return *engine_; }

  private:
    /** Config validation + shard clamping shared by all ctors. */
    void ValidateConfig();

    /** Runs one slice of `n` steps through the persistent team. */
    void RunSlice(std::uint64_t n);

    /** Checkpoint bookkeeping after a slice. */
    void MaybeAutoCheckpoint();

    /** Forces a metrics sample tagged `reason` (no-op when off). */
    void MetricsSample(const char* reason);

    const std::uint64_t id_;
    SessionConfig config_;
    std::unique_ptr<Engine> engine_;
    std::unique_ptr<ShardPhaseTimings> timings_;
    /** Declared after engine_ so workers join before the engine dies. */
    std::unique_ptr<ShardTeam> team_;
    LutTrafficSink lut_traffic_;
    std::unique_ptr<MetricsEmitter> metrics_;

    std::atomic<SessionState> state_{SessionState::kIdle};
    std::atomic<bool> pause_requested_{false};
    std::atomic<bool> cancel_requested_{false};

    std::uint64_t steps_executed_ = 0;
    std::uint64_t steps_since_checkpoint_ = 0;
    std::uint64_t checkpoints_written_ = 0;
    std::uint64_t restores_ = 0;
    std::uint64_t pauses_honored_ = 0;
    std::uint64_t faults_ = 0;
};

}  // namespace cenn

#endif  // CENN_RUNTIME_SOLVER_SESSION_H_
