#include "kernels/soa_engine.h"

#include <algorithm>
#include <type_traits>
#include <utility>

#include "obs/profile.h"
#include "obs/stat_registry.h"
#include "util/logging.h"

namespace cenn {

template <typename T>
SoaEngine<T>::SoaEngine(const NetworkSpec& spec,
                        std::shared_ptr<FunctionEvaluator<T>> evaluator)
    : spec_(spec),
      evaluator_(std::move(evaluator)),
      simd_step_(SimdStepFor<T>())  // resolves the CPU backend once
{
  spec_.Validate();
  if (spec_.integrator != Integrator::kEuler) {
    CENN_FATAL("SoaEngine supports the explicit-Euler integrator only (spec "
               "uses ", IntegratorName(spec_.integrator),
               "); use the functional engine for Heun validation runs");
  }
  if (evaluator_ == nullptr) {
    evaluator_ = std::make_shared<DirectEvaluator<T>>();
  }
  dt_ = NumTraits<T>::FromDouble(spec_.dt);
  one_ = NumTraits<T>::FromDouble(1.0);
  neg_one_ = NumTraits<T>::FromDouble(-1.0);
  bval_ = NumTraits<T>::FromDouble(spec_.boundary.value);

  const int n = spec_.NumLayers();
  needs_output_.assign(static_cast<std::size_t>(n), 0);
  bool reads_input = false;
  for (const LayerSpec& layer : spec_.layers) {
    for (const Coupling& c : layer.couplings) {
      if (c.kind == CouplingKind::kOutput) {
        needs_output_[static_cast<std::size_t>(c.src_layer)] = 1;
      }
      reads_input = reads_input || c.kind == CouplingKind::kInput;
    }
  }
  const bool reads_output =
      std::find(needs_output_.begin(), needs_output_.end(), 1) !=
      needs_output_.end();

  // Input and output planes exist only when some coupling reads them.
  const std::size_t elems = SoaField<T>::Elements(n, spec_.rows, spec_.cols);
  const std::size_t planes = 2 + (reads_input ? 1 : 0) + (reads_output ? 1 : 0);
  storage_.assign(planes * elems, NumTraits<T>::Zero());
  T* free_block = storage_.data();
  const auto carve = [&] {
    const SoaField<T> field(n, spec_.rows, spec_.cols, free_block);
    free_block += elems;
    return field;
  };
  state_ = carve();
  next_state_ = carve();
  if (reads_input) {
    input_ = carve();
  }
  if (reads_output) {
    output_ = carve();
  }

  for (int l = 0; l < n; ++l) {
    const LayerSpec& layer = spec_.layers[static_cast<std::size_t>(l)];
    if (!layer.initial_state.empty()) {
      state_.PlaneFromDoubles(l, layer.initial_state);
    }
    if (reads_input && !layer.input.empty()) {
      input_.PlaneFromDoubles(l, layer.input);
    }
  }
  Prepare();
}

template <typename T>
void
SoaEngine<T>::Prepare()
{
  if (prepared_) {
    return;
  }
  plans_ = BuildLayerPlans(spec_, *evaluator_);
  ComputeTrafficModel();
  prepared_ = true;
}

template <typename T>
bool
SoaEngine<T>::RebindLutBank(const std::shared_ptr<const LutBank>& bank)
{
  if (evaluator_ == nullptr || !evaluator_->RebindLutBank(bank)) {
    return false;
  }
  if (prepared_) {
    plans_ = BuildLayerPlans(spec_, *evaluator_);
    ComputeTrafficModel();
  }
  return true;
}

template <typename T>
void
SoaEngine<T>::ComputeTrafficModel()
{
  const std::uint64_t row_bytes =
      static_cast<std::uint64_t>(spec_.cols) * sizeof(T);
  const std::uint64_t cols = spec_.cols;
  constexpr bool kFixed = std::is_same_v<T, Fixed32>;
  // LUT strips run at the double width, or the int32 width for the
  // Q16.16 gathers of Fixed32.
  const int lanes = std::max(1, kFixed ? SimdLanesInt32() : SimdLanesDouble());
  const auto gathers_lut = [](const CompiledFactor<T>& f) {
    return kFixed ? f.vec.lut_view.packed_fixed.Valid()
                  : f.vec.lut_view.Valid();
  };
  // 4-lane packed gather (l_p, a1, a2, a3) per vector strip; the
  // expansion point p is recomputed, not gathered (core/evaluator.h).
  const std::uint64_t gathers_per_strip = 4;
  const std::uint64_t strips_per_row =
      (cols + static_cast<std::uint64_t>(lanes) - 1) /
      static_cast<std::uint64_t>(lanes);

  // Analytic op cost of one factor evaluation: Horner is one MAC (2
  // ops) per coefficient; the LUT cubic (and the fixed-point TUM
  // closure behind bound evaluators) is 3 MACs (6 ops).
  const auto factor_ops = [](const CompiledFactor<T>& f) -> std::uint64_t {
    if (f.vec.poly != nullptr) {
      return 2 * f.vec.poly->size();
    }
    return 6;
  };

  step_read_bytes_per_row_ = 0;
  step_write_bytes_per_row_ = 0;
  step_flops_per_row_ = 0;
  step_gathers_per_row_ = 0;
  for (const LayerPlan<T>& plan : plans_) {
    // Accumulator init + Euler update: self row read once (shared by
    // both loops — it stays cache-resident), next row written once.
    step_read_bytes_per_row_ += row_bytes;
    step_write_bytes_per_row_ += row_bytes;
    step_flops_per_row_ += (plan.has_self_decay ? 1 : 0) * cols;  // z - x
    step_flops_per_row_ += 2 * cols;                              // Euler MAC
    for (const CompiledTap<T>& tap : plan.taps) {
      step_read_bytes_per_row_ += row_bytes;  // source row stream
      step_flops_per_row_ += 2 * cols;        // acc += w * nbr
      for (const CompiledFactor<T>& f : tap.factors) {
        step_read_bytes_per_row_ += row_bytes;  // control row stream
        step_flops_per_row_ += (factor_ops(f) + 1) * cols;
        if (gathers_lut(f)) {
          step_gathers_per_row_ += gathers_per_strip * strips_per_row;
        }
      }
    }
    for (const CompiledOffset<T>& off : plan.offsets) {
      step_flops_per_row_ += 2 * cols;  // acc += k * prod
      for (const CompiledFactor<T>& f : off.factors) {
        step_read_bytes_per_row_ += row_bytes;
        step_flops_per_row_ += (factor_ops(f) + 1) * cols;
        if (gathers_lut(f)) {
          step_gathers_per_row_ += gathers_per_strip * strips_per_row;
        }
      }
    }
  }

  refresh_read_bytes_per_row_ = 0;
  refresh_write_bytes_per_row_ = 0;
  for (const std::uint8_t needed : needs_output_) {
    if (needed != 0) {
      refresh_read_bytes_per_row_ += row_bytes;
      refresh_write_bytes_per_row_ += row_bytes;
    }
  }
}

template <typename T>
void
SoaEngine<T>::CheckBand(std::size_t row_begin, std::size_t row_end) const
{
  CENN_ASSERT(row_begin < row_end && row_end <= spec_.rows, "bad band [",
              row_begin, ", ", row_end, ") for ", spec_.rows, " rows");
}

template <typename T>
void
SoaEngine<T>::RefreshOutputs(std::size_t row_begin, std::size_t row_end)
{
  CENN_PROF("soa.refresh");
  CheckBand(row_begin, row_end);
  const std::size_t cols = spec_.cols;
  for (int l = 0; l < spec_.NumLayers(); ++l) {
    if (needs_output_[static_cast<std::size_t>(l)] == 0) {
      continue;
    }
    for (std::size_t r = row_begin; r < row_end; ++r) {
      const T* x = state_.Row(l, r);
      T* y = output_.Row(l, r);
      for (std::size_t c = 0; c < cols; ++c) {
        T v = x[c];
        if (v > one_) {
          v = one_;
        } else if (v < neg_one_) {
          v = neg_one_;
        }
        y[c] = v;
      }
    }
  }
  const std::uint64_t rows = row_end - row_begin;
  traffic_bytes_read_.fetch_add(rows * refresh_read_bytes_per_row_,
                                std::memory_order_relaxed);
  traffic_bytes_written_.fetch_add(rows * refresh_write_bytes_per_row_,
                                   std::memory_order_relaxed);
}

template <typename T>
void
SoaEngine<T>::StepBands(std::size_t row_begin, std::size_t row_end)
{
  CENN_PROF("soa.step");
  CheckBand(row_begin, row_end);
  SimdStepView<T> view;
  view.spec = &spec_;
  view.plans = &plans_;
  view.state = &state_;
  view.next_state = &next_state_;
  view.input = &input_;
  view.output = &output_;
  view.dt = dt_;
  view.one = one_;
  view.bval = bval_;
  simd_step_(view, row_begin, row_end);
  const std::uint64_t rows = row_end - row_begin;
  traffic_bytes_read_.fetch_add(rows * step_read_bytes_per_row_,
                                std::memory_order_relaxed);
  traffic_bytes_written_.fetch_add(rows * step_write_bytes_per_row_,
                                   std::memory_order_relaxed);
  traffic_flops_.fetch_add(rows * step_flops_per_row_,
                           std::memory_order_relaxed);
  if (step_gathers_per_row_ != 0) {
    traffic_lut_gathers_.fetch_add(rows * step_gathers_per_row_,
                                   std::memory_order_relaxed);
  }
}

template <typename T>
void
SoaEngine<T>::ApplyResets()
{
  for (const ResetRule& rule : spec_.resets) {
    const int trig = rule.trigger_layer;
    const T threshold = NumTraits<T>::FromDouble(rule.threshold);
    for (std::size_t r = 0; r < spec_.rows; ++r) {
      const T* trig_row = state_.Row(trig, r);
      for (std::size_t c = 0; c < spec_.cols; ++c) {
        if (trig_row[c] < threshold) {
          continue;
        }
        for (const ResetAction& action : rule.actions) {
          T& cell = state_.At(action.layer, r, c);
          const T v = NumTraits<T>::FromDouble(action.value);
          cell = action.is_set ? v : cell + v;
        }
      }
    }
  }
}

template <typename T>
void
SoaEngine<T>::Publish()
{
  CENN_PROF("soa.publish");
  state_.Swap(next_state_);
  ApplyResets();
  ++steps_;
}

template <typename T>
void
SoaEngine<T>::Step()
{
  RefreshOutputs(0, spec_.rows);
  StepBands(0, spec_.rows);
  Publish();
}

template <typename T>
void
SoaEngine<T>::BindStats(StatRegistry* registry, const std::string& prefix)
{
  Engine::BindStats(registry, prefix);
  StatRegistry& reg = *registry;
  const std::string& p = prefix;
  reg.BindAtomicCounter(p + "kernels.traffic.bytes_read",
                        "state/input/control bytes streamed (traffic model)",
                        &traffic_bytes_read_);
  reg.BindAtomicCounter(p + "kernels.traffic.bytes_written",
                        "next-state/output bytes written (traffic model)",
                        &traffic_bytes_written_);
  reg.BindAtomicCounter(p + "kernels.traffic.lut_gathers",
                        "simd LUT tuple gather instructions issued",
                        &traffic_lut_gathers_);
  reg.BindAtomicCounter(p + "kernels.traffic.flops",
                        "analytic arithmetic-op count for stepped bands",
                        &traffic_flops_);
  reg.BindDerived(
      p + "kernels.traffic.total_bytes", "bytes read + bytes written",
      [this] {
        return static_cast<double>(
            traffic_bytes_read_.load(std::memory_order_relaxed) +
            traffic_bytes_written_.load(std::memory_order_relaxed));
      });
  reg.BindDerived(
      p + "kernels.traffic.flops_per_byte",
      "arithmetic intensity of the stepped bands", [this] {
        const auto bytes =
            traffic_bytes_read_.load(std::memory_order_relaxed) +
            traffic_bytes_written_.load(std::memory_order_relaxed);
        return bytes == 0
                   ? 0.0
                   : static_cast<double>(
                         traffic_flops_.load(std::memory_order_relaxed)) /
                         static_cast<double>(bytes);
      });
}

template <typename T>
std::vector<double>
SoaEngine<T>::Snapshot(int layer) const
{
  CENN_ASSERT(layer >= 0 && layer < spec_.NumLayers(), "bad layer ", layer);
  return state_.PlaneToDoubles(layer);
}

template <typename T>
void
SoaEngine<T>::RestoreState(int layer, std::span<const double> values)
{
  CENN_ASSERT(layer >= 0 && layer < spec_.NumLayers(), "bad layer ", layer);
  state_.PlaneFromDoubles(layer, values);
}

template class SoaEngine<double>;
template class SoaEngine<float>;
template class SoaEngine<Fixed32>;

std::unique_ptr<Engine>
MakeSoaEngine(const NetworkSpec& spec, SolverOptions options)
{
  if (options.precision == Precision::kDouble) {
    return std::make_unique<SoaEngine<double>>(
        spec, std::move(options.double_evaluator));
  }
  return std::make_unique<SoaEngine<Fixed32>>(
      spec, std::move(options.fixed_evaluator));
}

std::unique_ptr<Engine>
MakeSoaEngineFloat(const NetworkSpec& spec)
{
  return std::make_unique<SoaEngine<float>>(spec);
}

}  // namespace cenn
