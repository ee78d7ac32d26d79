#ifndef CENN_CORE_ENGINE_H_
#define CENN_CORE_ENGINE_H_

/**
 * @file
 * Engine — the unified stepping interface of the CeNN solver stack.
 *
 * Every execution backend implements this one abstract class:
 *
 *  - MultilayerCenn<T> (src/core): the functional reference engine
 *    that walks the grid cell-by-cell ("functional");
 *  - SoaEngine<T> (src/kernels): structure-of-arrays storage with
 *    fused, vectorization-friendly row kernels ("soa");
 *  - ArchSimulator (src/arch): the cycle-level accelerator model
 *    ("arch").
 *
 * Callers that orchestrate engines — SolverSession, ShardTeam, the
 * batch runner, the command-line tools — program against this
 * interface only, so adding a backend never adds a dispatch branch
 * to the runtime.
 *
 * Band-phase protocol (explicit Euler only, gated by SupportsBands):
 * one step = every band runs RefreshOutputs(r0, r1), barrier, every
 * band runs StepBands(r0, r1), barrier, exactly one thread runs
 * Publish(). Phases read only stable front buffers and write disjoint
 * rows, and per-cell arithmetic equals Step()'s, so any band
 * partition is bit-identical to serial stepping (the determinism
 * contract in docs/runtime.md).
 */

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

namespace cenn {

class HealthGuard;      // src/health; attached via AttachHealthGuard
class LutBank;          // src/lut; swapped via RebindLutBank
class LutTrafficSink;   // src/lut; attached via AttachLutTraffic
struct NetworkSpec;
class StatRegistry;

/** Abstract stepping engine (see file comment). */
class Engine
{
  public:
    virtual ~Engine();

    /** The program being executed. */
    virtual const NetworkSpec& Spec() const = 0;

    /** Stable backend id: "functional", "soa" or "arch". */
    virtual const char* Kind() const = 0;

    /**
     * One-time setup before stepping (plan compilation, buffer
     * packing). Idempotent; engines also self-prepare on first use,
     * but band orchestration calls it once up front so workers never
     * race a lazy build.
     */
    virtual void Prepare() {}

    /** True when the band-phase protocol applies (Euler backends). */
    virtual bool SupportsBands() const { return false; }

    /**
     * @name Band-phase stepping
     * Fatal by default; backends that return true from SupportsBands
     * override all three. See the file comment for the protocol.
     */
    ///@{

    /** Phase 1: refresh y = f(x) for rows [row_begin, row_end). */
    virtual void RefreshOutputs(std::size_t row_begin, std::size_t row_end);

    /** Phase 2: compute next-state rows [row_begin, row_end). */
    virtual void StepBands(std::size_t row_begin, std::size_t row_end);

    /** Serial publish: swap buffers, apply resets, count the step. */
    virtual void Publish();

    ///@}

    /** Advances the simulation by one full step. */
    virtual void Step() = 0;

    /** Runs `n` steps (default: a Step() loop). */
    virtual void Run(std::uint64_t n);

    /** Steps taken so far (includes restored history). */
    virtual std::uint64_t Steps() const = 0;

    /** Overrides the step counter (checkpoint restore only). */
    virtual void SetSteps(std::uint64_t steps) = 0;

    /** Simulated time = steps * dt. */
    virtual double Time() const;

    /** Layer state as lossless f64, row-major (checkpoint capture). */
    virtual std::vector<double> Snapshot(int layer) const = 0;

    /** Replaces a layer's state from f64 values (checkpoint restore). */
    virtual void RestoreState(int layer, std::span<const double> values) = 0;

    /**
     * Swaps the LUT bank driving nonlinear evaluation and recompiles
     * anything bound against the old one (adaptive range refit,
     * lut/lut_refit.h). Call only between steps — never while band
     * workers run. Default: false — the engine holds no LUT state
     * (double/float paths) or cannot rebind (the arch simulator's
     * cache hierarchy indices are tied to its bank).
     */
    virtual bool
    RebindLutBank(const std::shared_ptr<const LutBank>& bank)
    {
        (void)bank;
        return false;
    }

    /**
     * Binds backend-specific stats under `prefix` (which must be
     * empty or end with '.'). Default: `sim.steps` and `sim.time`
     * derived gauges; the arch simulator adds its full counter set.
     * The engine must outlive the registry's dumps. (An attached
     * health guard binds separately via HealthGuard::BindStats —
     * SolverSession and the tools do both.)
     */
    virtual void BindStats(StatRegistry* registry, const std::string& prefix);

    /**
     * @name Numerical-health guard
     * Any engine can host a HealthGuard (src/health): drivers scan it
     * at slice boundaries for NaN/Inf cells, Fixed32 saturation and
     * divergence, and a tripped guard pauses the session so the batch
     * runner can retry from the last good checkpoint. The engine does
     * not own the guard and never consults it itself — attaching one
     * costs the hot stepping path nothing.
     */
    ///@{

    /** Attaches `guard` (nullptr detaches). Caller keeps ownership. */
    void AttachHealthGuard(HealthGuard* guard) { health_guard_ = guard; }

    /** The attached guard, or nullptr. Its Report() is the run's
     *  numerical-health summary. */
    HealthGuard* AttachedHealthGuard() const { return health_guard_; }

    ///@}

    /**
     * @name LUT traffic accounting
     * Same hosting pattern as the health guard: drivers attach a
     * LutTrafficSink (src/lut) and stepping scopes — ShardTeam's
     * band workers, SolverSession slices, the serial tool loops —
     * install a ScopedLutTally against it, so off-chip LUT
     * access/hit counts aggregate per engine. The engine never
     * consults the sink; no sink, no accounting, no cost.
     */
    ///@{

    /** Attaches `sink` (nullptr detaches). Caller keeps ownership. */
    void AttachLutTraffic(LutTrafficSink* sink) { lut_traffic_ = sink; }

    /** The attached traffic sink, or nullptr. */
    LutTrafficSink* AttachedLutTraffic() const { return lut_traffic_; }

    ///@}

  private:
    HealthGuard* health_guard_ = nullptr;
    LutTrafficSink* lut_traffic_ = nullptr;
};

}  // namespace cenn

#endif  // CENN_CORE_ENGINE_H_
