#ifndef CENN_KERNELS_KERNEL_PLAN_H_
#define CENN_KERNELS_KERNEL_PLAN_H_

/**
 * @file
 * Compiled stepping plans: the NetworkSpec's template structure
 * flattened into per-layer tap lists the SoA engine's vector row
 * kernels (soa_simd_impl.h) execute without walking IR objects in the
 * hot loop.
 *
 * One tap = one (source plane, dr, dc, weight) contribution; taps are
 * emitted in exactly the order MultilayerCenn::CellDerivative visits
 * them (declared coupling order, kernel entries dr-major/dc-minor,
 * zero constant-only entries skipped), nonlinear factors are bound
 * through FunctionEvaluator::Bind, and weight constants are converted
 * with NumTraits once at build time — the same deterministic
 * FromDouble the reference applies per cell. Executing the taps in
 * emission order against any cell therefore reproduces the reference
 * accumulation bit-for-bit.
 */

#include <cstdint>
#include <vector>

#include "core/evaluator.h"
#include "core/network_spec.h"
#include "core/num_traits.h"

namespace cenn {

/** Which plane a tap convolves over (mirrors CouplingKind). */
enum class TapSource : std::uint8_t {
  kState = 0,   ///< current state x
  kOutput = 1,  ///< refreshed output y = f(x)
  kInput = 2,   ///< static input u
};

/** One bound nonlinear factor l(x_ctrl) of a tap or offset. */
template <typename T>
struct CompiledFactor {
  int ctrl_layer = 0;
  bool at_source = false;  ///< read control at the neighbor, not the cell
  BoundFunction<T> eval;   ///< bit-identical to evaluator.Evaluate(fn, .)
  FactorVecInfo vec;       ///< what eval computes, for the simd kernels
};

/** One template-weight contribution into a layer's derivative. */
template <typename T>
struct CompiledTap {
  TapSource source = TapSource::kState;
  int src_layer = 0;
  int dr = 0;
  int dc = 0;
  T weight{};  ///< NumTraits<T>::FromDouble(constant)
  std::vector<CompiledFactor<T>> factors;  ///< empty => linear tap
};

/** One state-dependent offset term (constant * prod l_i(x_ctrl_i)). */
template <typename T>
struct CompiledOffset {
  T constant{};
  std::vector<CompiledFactor<T>> factors;
};

/** Everything needed to step one layer. */
template <typename T>
struct LayerPlan {
  T z{};
  bool has_self_decay = true;
  std::vector<CompiledTap<T>> taps;
  std::vector<CompiledOffset<T>> offsets;
};

/**
 * Compiles per-layer plans from a validated spec. The evaluator must
 * outlive the plans (bound closures may reference it); so must the
 * spec's nonlinear functions.
 */
template <typename T>
std::vector<LayerPlan<T>>
BuildLayerPlans(const NetworkSpec& spec, FunctionEvaluator<T>& evaluator)
{
  std::vector<LayerPlan<T>> plans;
  plans.reserve(spec.layers.size());
  for (const LayerSpec& layer : spec.layers) {
    LayerPlan<T> plan;
    plan.z = NumTraits<T>::FromDouble(layer.z);
    plan.has_self_decay = layer.has_self_decay;
    for (const Coupling& coupling : layer.couplings) {
      const int radius = coupling.kernel.Radius();
      for (int dr = -radius; dr <= radius; ++dr) {
        for (int dc = -radius; dc <= radius; ++dc) {
          const TemplateWeight& w = coupling.kernel.At(dr, dc);
          if (!w.NeedsUpdate() && w.constant == 0.0) {
            continue;  // the reference's skip rule, applied at build time
          }
          CompiledTap<T> tap;
          tap.source = static_cast<TapSource>(coupling.kind);
          tap.src_layer = coupling.src_layer;
          tap.dr = dr;
          tap.dc = dc;
          tap.weight = NumTraits<T>::FromDouble(w.constant);
          tap.factors.reserve(w.factors.size());
          for (const WeightFactor& f : w.factors) {
            tap.factors.push_back({f.ctrl_layer, f.at_source,
                                   evaluator.Bind(*f.fn),
                                   evaluator.Describe(*f.fn)});
          }
          plan.taps.push_back(std::move(tap));
        }
      }
    }
    for (const OffsetTerm& term : layer.offset_terms) {
      CompiledOffset<T> off;
      off.constant = NumTraits<T>::FromDouble(term.constant);
      off.factors.reserve(term.factors.size());
      for (const WeightFactor& f : term.factors) {
        off.factors.push_back({f.ctrl_layer, f.at_source,
                               evaluator.Bind(*f.fn),
                               evaluator.Describe(*f.fn)});
      }
      plan.offsets.push_back(std::move(off));
    }
    plans.push_back(std::move(plan));
  }
  return plans;
}

}  // namespace cenn

#endif  // CENN_KERNELS_KERNEL_PLAN_H_
