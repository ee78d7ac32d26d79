#ifndef CENN_CORE_NETWORK_H_
#define CENN_CORE_NETWORK_H_

/**
 * @file
 * The functional multilayer CeNN engine.
 *
 * MultilayerCenn integrates the cell dynamics of eq. (1)-(2) with
 * explicit Euler steps on a synchronous (double-buffered) grid. It is
 * templated on the scalar type: MultilayerCenn<double> models the
 * floating-point reference, MultilayerCenn<Fixed32> models the
 * accelerator's 32-bit fixed-point datapath. Nonlinear template weights
 * are resolved through a FunctionEvaluator, so the same engine runs with
 * ideal math or with the LUT + Taylor approximation path.
 *
 * It is the cell-by-cell oracle the SoA kernels (kernels/soa_engine.h)
 * are held to at every precision; MultilayerCenn<float> exists for
 * that comparison only (the engine factory offers float on soa alone).
 */

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/engine.h"
#include "core/evaluator.h"
#include "core/grid.h"
#include "core/network_spec.h"

namespace cenn {

/** Functional CeNN simulator over scalar type T (double, Fixed32 or
 *  float). */
template <typename T>
class MultilayerCenn : public Engine
{
  public:
    /**
     * Builds the engine from a validated spec.
     *
     * @param spec      the network program; copied.
     * @param evaluator strategy for nonlinear functions; when null a
     *                  DirectEvaluator (ideal math) is used.
     */
    explicit MultilayerCenn(
        const NetworkSpec& spec,
        std::shared_ptr<FunctionEvaluator<T>> evaluator = nullptr);

    /** Advances the network by one Euler step (all layers, then resets). */
    void Step() override;

    /** Advances by `n` steps. */
    void Run(std::uint64_t n) override;

    /**
     * @name Band-parallel explicit-Euler stepping (Engine protocol)
     *
     * Sharded execution splits one Euler step into two data-parallel
     * phases over disjoint row bands plus a serial publish:
     *
     *   1. every band calls RefreshOutputs(r0, r1)
     *      -- barrier (halo exchange: outputs visible everywhere) --
     *   2. every band calls StepBands(r0, r1)
     *      -- barrier (all next-state rows written) --
     *   3. exactly one thread calls Publish()
     *
     * Each phase reads only the stable front buffers (state, input,
     * refreshed outputs) and writes rows [r0, r1) of its own target
     * buffer, and every cell's arithmetic is identical to Step()'s, so
     * any band partition is bit-identical to single-threaded stepping.
     * Bands must cover [0, Rows()) without overlap. Euler only
     * (fatal for a Heun-configured spec).
     */
    ///@{

    /** True for explicit-Euler specs (Heun is not band-steppable). */
    bool SupportsBands() const override
    {
        return spec_.integrator == Integrator::kEuler;
    }

    /** Phase 1: recomputes y = f(x) for band rows of output-coupled
     *  layers. */
    void RefreshOutputs(std::size_t row_begin, std::size_t row_end) override;

    /** Phase 2: writes next_state rows [row_begin, row_end) of every
     *  layer from the (stable) current state. */
    void StepBands(std::size_t row_begin, std::size_t row_end) override;

    /** Publish: swaps in the new state, applies reset rules and
     *  advances the step counter. Call from one thread only, after
     *  every band finished phase 2. */
    void Publish() override;

    ///@}

    /** Simulated time = steps * dt. */
    double Time() const override
    {
        return static_cast<double>(steps_) * spec_.dt;
    }

    /** Number of steps taken so far. */
    std::uint64_t Steps() const override { return steps_; }

    /** Overrides the step counter (checkpoint restore only). */
    void SetSteps(std::uint64_t steps) override { steps_ = steps; }

    /** The immutable program. */
    const NetworkSpec& Spec() const override { return spec_; }

    /** Stable backend id. */
    const char* Kind() const override { return "functional"; }

    /** Layer state as lossless f64 (same as StateDoubles). */
    std::vector<double> Snapshot(int layer) const override
    {
        return StateDoubles(layer);
    }

    /** Replaces a layer's state from f64 values (checkpoint restore). */
    void RestoreState(int layer, std::span<const double> values) override;

    /**
     * Forwards a refit bank to the evaluator (LUT-backed evaluators
     * adopt it and return true). The functional engine binds no
     * closures, so the swap alone suffices.
     */
    bool
    RebindLutBank(const std::shared_ptr<const LutBank>& bank) override
    {
        return evaluator_ != nullptr && evaluator_->RebindLutBank(bank);
    }

    /** State map of a layer. */
    const Grid2D<T>& State(int layer) const;

    /** Mutable state map (for injecting perturbations mid-run). */
    Grid2D<T>& MutableState(int layer);

    /** Input map u of a layer. */
    const Grid2D<T>& Input(int layer) const;

    /** Replaces the input map of a layer (sizes must match). */
    void SetInput(int layer, const Grid2D<T>& input);

    /** State of a layer converted to doubles (row-major). */
    std::vector<double> StateDoubles(int layer) const;

  private:
    /** One explicit Euler step (the hardware path). */
    void StepEuler();

    /** One Heun predictor-corrector step (validation path). */
    void StepHeun();

    /** Recomputes y = f(x) for layers referenced by output couplings. */
    void RefreshOutputsAll();

    /** RefreshOutputsAll restricted to rows [row_begin, row_end). */
    void RefreshOutputsRows(std::size_t row_begin, std::size_t row_end);

    /** Euler next-state computation for rows [row_begin, row_end). */
    void ComputeEulerRows(std::size_t row_begin, std::size_t row_end);

    /** Fatal unless band stepping applies (Euler spec, valid band). */
    void CheckBandArgs(std::size_t row_begin, std::size_t row_end) const;

    /** State buffers derivatives are evaluated against. */
    const std::vector<Grid2D<T>>& SrcState() const
    {
        return deriv_src_ != nullptr ? *deriv_src_ : state_;
    }

    /** Derivative accumulation for one cell of one layer. */
    T CellDerivative(int layer_idx, std::size_t r, std::size_t c) const;

    /** Evaluates a template weight's value at cell (r, c). */
    T WeightValue(const TemplateWeight& w, std::size_t r, std::size_t c,
                  std::ptrdiff_t sr, std::ptrdiff_t sc) const;

    /** Evaluates the product of nonlinear factors at a fixed cell. */
    T FactorProduct(const std::vector<WeightFactor>& factors, std::size_t r,
                    std::size_t c, std::ptrdiff_t sr, std::ptrdiff_t sc) const;

    /** Reads a control state with boundary resolution. */
    T ControlState(int layer, std::ptrdiff_t r, std::ptrdiff_t c) const;

    /** Applies all reset rules to the current state. */
    void ApplyResets();

    NetworkSpec spec_;
    std::shared_ptr<FunctionEvaluator<T>> evaluator_;
    std::vector<Grid2D<T>> state_;
    std::vector<Grid2D<T>> next_state_;
    std::vector<Grid2D<T>> k1_;          // Heun only
    std::vector<Grid2D<T>> heun_final_;  // Heun only
    const std::vector<Grid2D<T>>* deriv_src_ = nullptr;
    std::vector<Grid2D<T>> input_;
    std::vector<Grid2D<T>> output_;       // y = f(x), built when needed
    std::vector<bool> needs_output_;      // per layer: referenced by A coupling
    T dt_{};
    std::uint64_t steps_ = 0;
};

extern template class MultilayerCenn<double>;
extern template class MultilayerCenn<Fixed32>;
extern template class MultilayerCenn<float>;

}  // namespace cenn

#endif  // CENN_CORE_NETWORK_H_
