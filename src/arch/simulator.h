#ifndef CENN_ARCH_SIMULATOR_H_
#define CENN_ARCH_SIMULATOR_H_

/**
 * @file
 * Cycle-level simulator of the CeNN-based DE solver (Sections 4-5).
 *
 * The simulator fuses function and timing: the functional result is
 * computed by a MultilayerCenn<Fixed32> engine whose nonlinear weights
 * go through the LUT + Taylor path (exactly the hardware datapath),
 * while the timing pass walks the same computation in hardware order —
 * 8x8 sub-blocks, output-stationary weight broadcast (one cycle per
 * kernel entry, Fig. 10 dataflow modes), per-PE L1 LUT probes, shared
 * L2 probes, and DRAM fetch queueing per memory channel — charging
 * cycles for every stall. The paper instead fed Matlab-extracted miss
 * rates into a separate timing model; driving the caches with the real
 * state stream is strictly more faithful.
 *
 * Hardware template merging: the engine's IR may carry several
 * couplings for one (dst, src) layer pair; the hardware holds a single
 * template per pair (the buffer stores up to N_layer^2 of them), so the
 * timing pass merges them and charges l_kernel^2 broadcast cycles per
 * *programmed* pair — the FSM sequencer skips pairs that were never
 * programmed.
 */

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "arch/arch_config.h"
#include "arch/buffers.h"
#include "arch/dram_channel.h"
#include "arch/sim_report.h"
#include "core/engine.h"
#include "core/network.h"
#include "lut/lut_hierarchy.h"
#include "program/solver_program.h"

namespace cenn {

class StatRegistry;
class TraceSession;

/**
 * Returns `base` with the on-chip LUT sizes scaled up when the program
 * uses more distinct LUT-backed functions than the paper's default
 * sizing (4 L1 blocks / 32 L2 entries, chosen in Fig. 12 on
 * single-function benchmarks) can hold: the L1 needs at least ~2 tags
 * per live function or it FIFO-thrashes.
 */
ArchConfig RecommendedArchConfig(const SolverProgram& program,
                                 ArchConfig base = {});

/** Cycle-level model of the accelerator executing one solver program. */
class ArchSimulator final : public cenn::Engine
{
  public:
    /**
     * Programs the solver.
     *
     * @param program validated network program + LUT configuration.
     * @param config  accelerator configuration (PEs, LUTs, memory).
     */
    ArchSimulator(const SolverProgram& program, const ArchConfig& config);

    /** One solver time step: timing pass then functional update. */
    void Step() override;

    /** Runs n steps. */
    void Run(std::uint64_t n) override;

    /**
     * @name Engine interface
     * The cycle-level model steps serially (a hardware step is one
     * pipelined pass, not a band-split loop), so SupportsBands stays
     * false and ShardTeam falls back to Run().
     */
    ///@{

    /** The program of the embedded functional engine. */
    const NetworkSpec& Spec() const override { return engine_->Spec(); }

    /** Stable backend id. */
    const char* Kind() const override { return "arch"; }

    /** Steps taken so far. */
    std::uint64_t Steps() const override { return engine_->Steps(); }

    /** Overrides the step counter (checkpoint restore only). */
    void SetSteps(std::uint64_t steps) override { engine_->SetSteps(steps); }

    /** Layer state as lossless f64 (same as StateDoubles). */
    std::vector<double> Snapshot(int layer) const override
    {
        return engine_->StateDoubles(layer);
    }

    /** Restores a layer's state (timing counters are not restored). */
    void RestoreState(int layer, std::span<const double> values) override
    {
        engine_->RestoreState(layer, values);
    }

    /** Engine hook; forwards to RegisterStats. */
    void BindStats(StatRegistry* registry, const std::string& prefix) override
    {
        RegisterStats(registry, prefix);
    }

    ///@}

    /** Timing/activity results so far. */
    const SimReport& Report() const { return report_; }

    /** The functional fixed-point engine (for state inspection). */
    const MultilayerCenn<Fixed32>& Engine() const { return *engine_; }

    /**
     * Mutable engine access for checkpoint restore (RestoreCheckpoint
     * writes layer states and the step counter directly). Timing
     * accounting (SimReport) is not part of a checkpoint and restarts
     * from zero in a restored simulator.
     */
    MultilayerCenn<Fixed32>& MutableEngine() { return *engine_; }

    /** Layer state as doubles. */
    std::vector<double> StateDoubles(int layer) const;

    /** The accelerator configuration. */
    const ArchConfig& Config() const { return config_; }

    /** The LUT tables materialized for this program. */
    const LutBank& Luts() const { return *lut_bank_; }

    /** The on-chip LUT hierarchy (for miss-rate experiments). */
    const LutHierarchy& Hierarchy() const { return *hierarchy_; }

    /** Streaming words (state+input reads, state writes) per step. */
    std::uint64_t StreamWordsPerStep() const { return stream_words_per_step_; }

    /** Banked global-buffer model with per-bank access counters. */
    const GlobalBufferModel& Buffer() const { return *buffer_; }

    /** Event-based DRAM channel model servicing LUT fetches. */
    const DramChannelModel& DramChannels() const { return *dram_; }

    /** Starts recording one StepTrace per Step() (cleared on call). */
    void EnableTrace();

    /** Recorded per-step samples (empty unless EnableTrace was called). */
    const std::vector<StepTrace>& Trace() const { return trace_; }

    /**
     * Attaches a timeline trace session: step and sub-block spans,
     * per-step stall counter tracks, LUT miss instants and DRAM fetch
     * busy intervals are recorded (subject to the session's category
     * mask) with PE-cycle timestamps. Pass null to detach. Tracing
     * does not perturb the simulation: a traced run produces an
     * identical SimReport to an untraced one.
     */
    void AttachTrace(TraceSession* session);

    /**
     * Binds every stat of this simulation into `registry`: the
     * SimReport/ActivityCounters view (`sim.* / pe.* / lut.* / buf.*
     * / dram.*`), per-DRAM-channel counters (`dram.ch<i>.*`),
     * per-L2-instance counters (`lut.hier.*`) and buffer balance
     * gauges. The simulator must outlive the registry's dumps; values
     * are live, so dumping mid-run yields current numbers.
     *
     * A non-empty `prefix` (must end with '.') namespaces every name
     * under it — e.g. "runtime.session3." — so several concurrent
     * simulations can bind into one shared registry.
     */
    void RegisterStats(StatRegistry* registry,
                       const std::string& prefix = "") const;

  private:
    /** One nonlinear contribution inside a merged hardware weight. */
    struct Contribution {
      const std::vector<WeightFactor>* factors;
    };

    /** One merged hardware template entry. */
    struct HwEntry {
      std::vector<Contribution> nonlinear;
    };

    /** One merged hardware template for a (dst, src, kind) pair. */
    struct HwTemplate {
      int dst = 0;
      int src = 0;
      CouplingKind kind = CouplingKind::kState;
      int side = 1;
      std::vector<HwEntry> entries;  // row-major side^2
    };

    /** Precomputes the hardware template schedule from the spec. */
    void BuildSchedule();

    /** Timing for one sub-block (cells [r0,r1) x [c0,c1)). */
    void SimulateSubBlock(std::size_t r0, std::size_t r1, std::size_t c0,
                          std::size_t c1);

    /**
     * One TUM lookup round: every active PE probes the hierarchy for
     * the factor's control state; returns the stall cycles charged.
     */
    std::uint64_t LookupRound(const WeightFactor& factor, std::size_t r0,
                              std::size_t r1, std::size_t c0, std::size_t c1,
                              int dr, int dc);

    /** Memory channel serving an L2 instance. */
    int ChannelForL2(int l2) const;

    SolverProgram program_;
    ArchConfig config_;
    std::shared_ptr<const LutBank> lut_bank_;
    std::unique_ptr<LutHierarchy> hierarchy_;
    std::unique_ptr<GlobalBufferModel> buffer_;
    std::unique_ptr<DramChannelModel> dram_;
    std::unique_ptr<MultilayerCenn<Fixed32>> engine_;

    std::vector<HwTemplate> schedule_;
    /** Offset-term factor lists per layer (TUM rounds at z update). */
    std::vector<std::vector<const OffsetTerm*>> offsets_by_layer_;

    SimReport report_;

    // Derived timing constants (PE cycles).
    std::uint64_t dram_latency_cycles_ = 0;
    std::uint64_t lut_fetch_service_cycles_ = 1;
    std::uint64_t stream_words_per_step_ = 0;
    std::uint64_t stream_cycles_per_step_ = 0;

    /** Pipeline time cursor (PE cycles) used for DRAM busy intervals. */
    std::uint64_t current_cycle_ = 0;

    // Per-step accumulators.
    std::uint64_t step_compute_ = 0;
    std::uint64_t step_stall_l2_ = 0;
    std::uint64_t step_stall_dram_ = 0;

    bool trace_enabled_ = false;
    std::vector<StepTrace> trace_;

    /** Timeline trace sink (null when timeline tracing is off). */
    TraceSession* trace_session_ = nullptr;
};

}  // namespace cenn

#endif  // CENN_ARCH_SIMULATOR_H_
