#ifndef CENN_KERNELS_SOA_ENGINE_H_
#define CENN_KERNELS_SOA_ENGINE_H_

/**
 * @file
 * SoaEngine — the vectorized functional backend behind the Engine
 * interface.
 *
 * State, input and output fields live in structure-of-arrays storage
 * (SoaField: contiguous cache-line-aligned rows per layer) and one
 * Euler step executes compiled tap plans (kernel_plan.h) as fused row
 * kernels: per destination row, the accumulator is initialized with
 * z (minus self-decay), every tap streams one source row through a
 * tap-outer / column-inner loop, offsets are added, and the Euler
 * update writes the next-state row — one cache-resident pass per row
 * band with no IR walking, no virtual dispatch and no per-cell
 * branching in the interior.
 *
 * Bit-exactness: per cell, the accumulator receives exactly the
 * operation sequence of MultilayerCenn::CellDerivative (same values,
 * same order — only the loop nesting differs), so SoaEngine<T> is
 * bit-identical to MultilayerCenn<T> for every model, precision,
 * boundary kind and band partition. tests/test_kernels.cc sweeps
 * this. The scalar KernelPath executes the same plans cell-by-cell —
 * the in-tree cross-check for the blocked loops.
 *
 * The simd KernelPath (kernels/soa_simd.h) runs the same plans
 * through explicitly vectorized kernels with runtime CPU dispatch:
 * bit-identical for Fixed32 (it executes the blocked kernels) and
 * ULP-bounded (<= 4, per-tap FMA allowed; currently bit-exact) for
 * float/double — see docs/kernels.md and the differential fuzz sweep
 * in tests/test_kernels.cc.
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
#include "kernels/kernel_path.h"
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
     * @param path      stepping implementation; kAuto resolves to the
     *                  blocked kernels unless CENN_KERNEL_PATH says
     *                  otherwise.
     */
    explicit SoaEngine(const NetworkSpec& spec,
                       std::shared_ptr<FunctionEvaluator<T>> evaluator =
                           nullptr,
                       KernelPath path = KernelPath::kAuto);

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

    /** The resolved stepping implementation (never kAuto). */
    KernelPath Path() const { return path_; }

  private:
    /** Validates a band for the current geometry. */
    void CheckBand(std::size_t row_begin, std::size_t row_end) const;

    /** The plane a tap reads from. */
    const SoaField<T>& FieldFor(TapSource source) const;

    /** Grid2D::Neighbor semantics over a SoA plane. */
    T PlaneNeighbor(const SoaField<T>& field, int layer, std::ptrdiff_t r,
                    std::ptrdiff_t c) const;

    /** Blocked path: fused row kernels for rows [row_begin, row_end). */
    void ComputeRowsBlocked(std::size_t row_begin, std::size_t row_end);

    /** Scalar path: cell-by-cell plan walk for the same rows. */
    void ComputeRowsScalar(std::size_t row_begin, std::size_t row_end);

    /** Simd path: dispatched vector kernels for the same rows. */
    void ComputeRowsSimd(std::size_t row_begin, std::size_t row_end);

    /** One tap accumulated into `acc` for destination row r. */
    void ApplyTapRow(const CompiledTap<T>& tap, std::size_t r, T* acc);

    /** One offset term accumulated into `acc` for destination row r. */
    void ApplyOffsetRow(const CompiledOffset<T>& off, std::size_t r, T* acc);

    /** Full CellDerivative replica for one cell (scalar path, edges). */
    T CellDerivativeScalar(const LayerPlan<T>& plan, int layer, std::size_t r,
                           std::size_t c) const;

    /** FactorProduct replica: prod of bound factors at one cell. */
    T FactorProductAt(const std::vector<CompiledFactor<T>>& factors,
                      std::size_t r, std::size_t c, std::ptrdiff_t sr,
                      std::ptrdiff_t sc) const;

    /** Post-publish threshold reset rules (mirrors ApplyResets). */
    void ApplyResets();

    /**
     * Precomputes the per-row traffic model from the compiled plans:
     * how many bytes one interior destination row streams (reads:
     * self + tap source rows + factor control rows; writes: the
     * next-state row), how many vector tuple gathers the simd LUT
     * path issues, and an analytic arithmetic-op count. Band stepping
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

    SoaField<T> state_;
    SoaField<T> next_state_;
    SoaField<T> input_;
    SoaField<T> output_;
    std::vector<std::uint8_t> needs_output_;

    T dt_{};
    T one_{};
    T neg_one_{};
    T bval_{};  ///< Dirichlet boundary value
    KernelPath path_ = KernelPath::kBlocked;
    /** Dispatched vector kernel; null when T has none (Fixed32). */
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
                                      SolverOptions options = {},
                                      KernelPath path = KernelPath::kAuto);

/**
 * Factory: the float (fp32) SoA engine — the precision the paper's
 * GPU baseline runs at. Ideal math unless an evaluator is given.
 */
std::unique_ptr<Engine> MakeSoaEngineFloat(
    const NetworkSpec& spec,
    std::shared_ptr<FunctionEvaluator<float>> evaluator = nullptr,
    KernelPath path = KernelPath::kAuto);

}  // namespace cenn

#endif  // CENN_KERNELS_SOA_ENGINE_H_
