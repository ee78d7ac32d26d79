#ifndef CENN_KERNELS_SOA_ENGINE_H_
#define CENN_KERNELS_SOA_ENGINE_H_

/**
 * @file
 * SoaEngine — the vectorized functional backend behind the Engine
 * interface.
 *
 * State, input and output fields live in structure-of-arrays storage
 * (SoaField: contiguous cache-line-aligned rows per layer) and one
 * Euler step executes compiled tap plans (kernel_plan.h) through the
 * explicitly vectorized row kernels of kernels/soa_simd.h, dispatched
 * once per process to the best vector ISA the CPU offers (generic
 * lanes where none is wider): per destination row, the accumulator is
 * initialized with z (minus self-decay), every tap streams one source
 * row lane-parallel over columns, offsets are added, and the Euler
 * update writes the next-state row — one cache-resident pass per row
 * band with no IR walking and no virtual dispatch.
 *
 * Bit-exactness: per cell, the accumulator receives exactly the
 * operation sequence of MultilayerCenn::CellDerivative (same values,
 * same order — only the loop nesting differs). Fixed32 runs on
 * saturating Q16.16 int32 lanes and is bit-identical to
 * MultilayerCenn<Fixed32>, saturation and LUT counts included;
 * float/double are held to <= 4 ULP (per-tap FMA allowed) and are
 * bit-identical today. The functional engine is the oracle: see
 * docs/kernels.md and the differential sweeps in tests/test_kernels.cc.
 *
 * Explicit Euler only (construction is fatal on a Heun spec): the
 * fused pass implements the hardware's one-convolution-per-step
 * schedule, and band stepping (SupportsBands) is always available.
 */

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/evaluator.h"
#include "core/network_spec.h"
#include "core/solver.h"
#include "kernels/kernel_plan.h"
#include "kernels/soa_field.h"
#include "kernels/soa_simd.h"

namespace cenn {

/** Vectorized SoA stepping engine (see file comment). */
template <typename T>
class SoaEngine final : public Engine
{
  public:
    /**
     * Builds the engine from a validated explicit-Euler spec.
     *
     * @param spec      the network program; copied. Fatal on Heun.
     * @param evaluator strategy for nonlinear functions; when null a
     *                  DirectEvaluator (ideal math) is used.
     */
    explicit SoaEngine(const NetworkSpec& spec,
                       std::shared_ptr<FunctionEvaluator<T>> evaluator =
                           nullptr);

    /** @name Engine interface */
    ///@{
    const NetworkSpec& Spec() const override { return spec_; }
    const char* Kind() const override { return "soa"; }
    void Prepare() override;
    bool SupportsBands() const override { return true; }
    void RefreshOutputs(std::size_t row_begin, std::size_t row_end) override;
    void StepBands(std::size_t row_begin, std::size_t row_end) override;
    void Publish() override;
    void Step() override;
    std::uint64_t Steps() const override { return steps_; }
    void SetSteps(std::uint64_t steps) override { steps_ = steps; }
    std::vector<double> Snapshot(int layer) const override;
    void RestoreState(int layer, std::span<const double> values) override;

    /**
     * Forwards a refit bank to the evaluator and, when it adopts the
     * bank, recompiles the tap plans (bound closures and LutViews
     * reference the old tables) plus the traffic model. Slice
     * boundaries only — never while band workers run.
     */
    bool RebindLutBank(const std::shared_ptr<const LutBank>& bank) override;

    /**
     * Adds `kernels.traffic.*` to the default engine stats: bytes
     * read/written, simd LUT tuple gathers and an analytic FLOP
     * count, accumulated per stepped band from the per-row traffic
     * model (see ComputeTrafficModel).
     */
    void BindStats(StatRegistry* registry, const std::string& prefix)
        override;
    ///@}

  private:
    /** Validates a band for the current geometry. */
    void CheckBand(std::size_t row_begin, std::size_t row_end) const;

    /** Post-publish threshold reset rules (mirrors ApplyResets). */
    void ApplyResets();

    /**
     * Precomputes the per-row traffic model from the compiled plans:
     * how many bytes one interior destination row streams (reads:
     * self + tap source rows + factor control rows; writes: the
     * next-state row), how many vector tuple gathers the LUT
     * factors issue, and an analytic arithmetic-op count. Band stepping
     * then bumps the live counters with rows * per-row cost — O(1)
     * relaxed atomic adds per band, nothing per cell. Edge rows cost
     * slightly different byte counts than this interior model; the
     * counters are a streaming-traffic model, not a memory trace.
     */
    void ComputeTrafficModel();

    NetworkSpec spec_;
    std::shared_ptr<FunctionEvaluator<T>> evaluator_;
    std::vector<LayerPlan<T>> plans_;
    bool prepared_ = false;

    /**
     * One zero-filled block behind the fields: state and next state
     * always, input and output only when a coupling reads them. One
     * allocation per engine, rather than one per field, lets engines
     * built and destroyed in turn (batch jobs, benchmark segments)
     * reuse the same heap block instead of faulting fresh pages.
     */
    std::vector<T> storage_;
    SoaField<T> state_;
    SoaField<T> next_state_;
    SoaField<T> input_;
    SoaField<T> output_;
    std::vector<std::uint8_t> needs_output_;

    T dt_{};
    T one_{};
    T neg_one_{};
    T bval_{};  ///< Dirichlet boundary value
    /** Dispatched vector kernel for this precision. */
    SimdStepFn<T> simd_step_ = nullptr;
    std::uint64_t steps_ = 0;

    /** @name Traffic model (see ComputeTrafficModel) */
    ///@{
    std::uint64_t step_read_bytes_per_row_ = 0;
    std::uint64_t step_write_bytes_per_row_ = 0;
    std::uint64_t step_flops_per_row_ = 0;
    std::uint64_t step_gathers_per_row_ = 0;
    std::uint64_t refresh_read_bytes_per_row_ = 0;
    std::uint64_t refresh_write_bytes_per_row_ = 0;
    std::atomic<std::uint64_t> traffic_bytes_read_{0};
    std::atomic<std::uint64_t> traffic_bytes_written_{0};
    std::atomic<std::uint64_t> traffic_lut_gathers_{0};
    std::atomic<std::uint64_t> traffic_flops_{0};
    ///@}
};

extern template class SoaEngine<double>;
extern template class SoaEngine<float>;
extern template class SoaEngine<Fixed32>;

/**
 * Factory: a SoA engine in the requested double/fixed precision with
 * the corresponding evaluator from `options` — the drop-in fast
 * sibling of MakeFunctionalEngine (core/solver.h).
 */
std::unique_ptr<Engine> MakeSoaEngine(const NetworkSpec& spec,
                                      SolverOptions options = {});

/**
 * Factory: the float (fp32) SoA engine — the precision the paper's
 * GPU baseline runs at, with ideal math (there is no float LUT
 * evaluator).
 */
std::unique_ptr<Engine> MakeSoaEngineFloat(const NetworkSpec& spec);

}  // namespace cenn

#endif  // CENN_KERNELS_SOA_ENGINE_H_
