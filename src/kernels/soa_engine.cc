#include "kernels/soa_engine.h"

#include <algorithm>
#include <type_traits>
#include <utility>

#include "obs/profile.h"
#include "obs/stat_registry.h"
#include "util/logging.h"

namespace cenn {
namespace {

/** Factor-array bound for the stack-resident control row pointers. */
constexpr std::size_t kMaxFactors = 8;

/** Zero-flux index clamp (Grid2D::ClampIndex semantics). */
std::size_t
ClampIndex(std::ptrdiff_t i, std::size_t n)
{
  if (i < 0) {
    return 0;
  }
  if (i >= static_cast<std::ptrdiff_t>(n)) {
    return n - 1;
  }
  return static_cast<std::size_t>(i);
}

/** Periodic index wrap (Grid2D::Wrap semantics). */
std::size_t
WrapIndex(std::ptrdiff_t i, std::size_t n)
{
  const auto sn = static_cast<std::ptrdiff_t>(n);
  std::ptrdiff_t m = i % sn;
  if (m < 0) {
    m += sn;
  }
  return static_cast<std::size_t>(m);
}

}  // namespace

template <typename T>
SoaEngine<T>::SoaEngine(const NetworkSpec& spec,
                        std::shared_ptr<FunctionEvaluator<T>> evaluator,
                        KernelPath path)
    : spec_(spec),
      evaluator_(std::move(evaluator)),
      path_(ResolveKernelPath(path))
{
  spec_.Validate();
  if (path_ == KernelPath::kSimd) {
    simd_step_ = SimdStepFor<T>();  // resolves the CPU backend once
  }
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
  state_ = SoaField<T>(n, spec_.rows, spec_.cols);
  next_state_ = SoaField<T>(n, spec_.rows, spec_.cols);
  input_ = SoaField<T>(n, spec_.rows, spec_.cols);
  output_ = SoaField<T>(n, spec_.rows, spec_.cols);
  needs_output_.assign(static_cast<std::size_t>(n), 0);

  for (int l = 0; l < n; ++l) {
    const LayerSpec& layer = spec_.layers[static_cast<std::size_t>(l)];
    if (!layer.initial_state.empty()) {
      state_.PlaneFromDoubles(l, layer.initial_state);
    }
    if (!layer.input.empty()) {
      input_.PlaneFromDoubles(l, layer.input);
    }
  }
  for (const LayerSpec& layer : spec_.layers) {
    for (const Coupling& c : layer.couplings) {
      if (c.kind == CouplingKind::kOutput) {
        needs_output_[static_cast<std::size_t>(c.src_layer)] = 1;
      }
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
  const bool simd_luts = path_ == KernelPath::kSimd;
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
        if (simd_luts && gathers_lut(f)) {
          step_gathers_per_row_ += gathers_per_strip * strips_per_row;
        }
      }
    }
    for (const CompiledOffset<T>& off : plan.offsets) {
      step_flops_per_row_ += 2 * cols;  // acc += k * prod
      for (const CompiledFactor<T>& f : off.factors) {
        step_read_bytes_per_row_ += row_bytes;
        step_flops_per_row_ += (factor_ops(f) + 1) * cols;
        if (simd_luts && gathers_lut(f)) {
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
const SoaField<T>&
SoaEngine<T>::FieldFor(TapSource source) const
{
  switch (source) {
    case TapSource::kState:
      return state_;
    case TapSource::kOutput:
      return output_;
    case TapSource::kInput:
      return input_;
  }
  return state_;
}

template <typename T>
T
SoaEngine<T>::PlaneNeighbor(const SoaField<T>& field, int layer,
                            std::ptrdiff_t r, std::ptrdiff_t c) const
{
  const auto rows = static_cast<std::ptrdiff_t>(spec_.rows);
  const auto cols = static_cast<std::ptrdiff_t>(spec_.cols);
  if (r >= 0 && c >= 0 && r < rows && c < cols) {
    return field.At(layer, static_cast<std::size_t>(r),
                    static_cast<std::size_t>(c));
  }
  switch (spec_.boundary.kind) {
    case BoundaryKind::kDirichlet:
      return bval_;
    case BoundaryKind::kPeriodic:
      return field.At(layer, WrapIndex(r, spec_.rows),
                      WrapIndex(c, spec_.cols));
    case BoundaryKind::kZeroFlux:
    default:
      return field.At(layer, ClampIndex(r, spec_.rows),
                      ClampIndex(c, spec_.cols));
  }
}

template <typename T>
T
SoaEngine<T>::FactorProductAt(const std::vector<CompiledFactor<T>>& factors,
                              std::size_t r, std::size_t c, std::ptrdiff_t sr,
                              std::ptrdiff_t sc) const
{
  T prod = one_;
  for (const CompiledFactor<T>& f : factors) {
    const T ctrl =
        f.at_source
            ? PlaneNeighbor(state_, f.ctrl_layer, sr, sc)
            : state_.At(f.ctrl_layer, r, c);
    prod = prod * f.eval(ctrl);
  }
  return prod;
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
SoaEngine<T>::ApplyTapRow(const CompiledTap<T>& tap, std::size_t r, T* acc)
{
  const auto cols = static_cast<std::ptrdiff_t>(spec_.cols);
  const std::ptrdiff_t sr = static_cast<std::ptrdiff_t>(r) + tap.dr;
  const std::ptrdiff_t dc = tap.dc;
  const SoaField<T>& field = FieldFor(tap.source);
  const bool row_in =
      sr >= 0 && sr < static_cast<std::ptrdiff_t>(spec_.rows);

  // Columns [lo, hi) have their source column in range; the rest are
  // boundary cells handled by the general per-cell fallback. A
  // Dirichlet out-of-range row makes every column a boundary cell.
  std::ptrdiff_t lo = std::max<std::ptrdiff_t>(0, -dc);
  std::ptrdiff_t hi = std::min<std::ptrdiff_t>(cols, cols - dc);
  if (lo > cols) {
    lo = cols;
  }
  if (hi < lo) {
    hi = lo;
  }
  if (!row_in && spec_.boundary.kind == BoundaryKind::kDirichlet) {
    lo = cols;
    hi = cols;
  }

  // General fallback: identical arithmetic to the scalar path.
  auto edge_cell = [&](std::ptrdiff_t c) {
    const std::ptrdiff_t sc = c + dc;
    const T nbr = PlaneNeighbor(field, tap.src_layer, sr, sc);
    T wv = tap.weight;
    if (!tap.factors.empty()) {
      wv = wv * FactorProductAt(tap.factors, r, static_cast<std::size_t>(c),
                                sr, sc);
    }
    acc[c] = acc[c] + wv * nbr;
  };
  for (std::ptrdiff_t c = 0; c < lo; ++c) {
    edge_cell(c);
  }
  for (std::ptrdiff_t c = hi; c < cols; ++c) {
    edge_cell(c);
  }
  if (lo >= hi) {
    return;
  }

  const std::size_t msr =
      row_in ? static_cast<std::size_t>(sr)
      : spec_.boundary.kind == BoundaryKind::kPeriodic
          ? WrapIndex(sr, spec_.rows)
          : ClampIndex(sr, spec_.rows);
  // src[c] reads the source row at column c + dc (valid on [lo, hi)).
  const T* src = field.Row(tap.src_layer, msr) + dc;

  if (tap.factors.empty()) {
    const T w = tap.weight;
    for (std::ptrdiff_t c = lo; c < hi; ++c) {
      acc[c] = acc[c] + w * src[c];
    }
    return;
  }

  const std::size_t nf = tap.factors.size();
  CENN_ASSERT(nf <= kMaxFactors, "tap with ", nf, " factors exceeds the SoA "
              "kernel bound of ", kMaxFactors);
  const T* dest_ctrl[kMaxFactors];
  const T* src_ctrl[kMaxFactors];
  for (std::size_t i = 0; i < nf; ++i) {
    dest_ctrl[i] = state_.Row(tap.factors[i].ctrl_layer, r);
    src_ctrl[i] = state_.Row(tap.factors[i].ctrl_layer, msr) + dc;
  }
  const T w = tap.weight;
  for (std::ptrdiff_t c = lo; c < hi; ++c) {
    T prod = one_;
    for (std::size_t i = 0; i < nf; ++i) {
      const CompiledFactor<T>& f = tap.factors[i];
      const T ctrl = f.at_source ? src_ctrl[i][c] : dest_ctrl[i][c];
      prod = prod * f.eval(ctrl);
    }
    const T wv = w * prod;
    acc[c] = acc[c] + wv * src[c];
  }
}

template <typename T>
void
SoaEngine<T>::ApplyOffsetRow(const CompiledOffset<T>& off, std::size_t r,
                             T* acc)
{
  const std::size_t cols = spec_.cols;
  if (off.factors.empty()) {
    const T v = off.constant;
    for (std::size_t c = 0; c < cols; ++c) {
      acc[c] = acc[c] + v;
    }
    return;
  }
  // Offset factors always read their control at the cell itself
  // (FactorProduct is called with sr = r, sc = c), so at_source and
  // at-destination coincide and both are in range.
  const std::size_t nf = off.factors.size();
  CENN_ASSERT(nf <= kMaxFactors, "offset with ", nf, " factors exceeds the "
              "SoA kernel bound of ", kMaxFactors);
  const T* ctrl_rows[kMaxFactors];
  for (std::size_t i = 0; i < nf; ++i) {
    ctrl_rows[i] = state_.Row(off.factors[i].ctrl_layer, r);
  }
  for (std::size_t c = 0; c < cols; ++c) {
    T prod = one_;
    for (std::size_t i = 0; i < nf; ++i) {
      prod = prod * off.factors[i].eval(ctrl_rows[i][c]);
    }
    acc[c] = acc[c] + off.constant * prod;
  }
}

template <typename T>
void
SoaEngine<T>::ComputeRowsBlocked(std::size_t row_begin, std::size_t row_end)
{
  const std::size_t cols = spec_.cols;
  std::vector<T> acc(cols);
  for (int l = 0; l < spec_.NumLayers(); ++l) {
    const LayerPlan<T>& plan = plans_[static_cast<std::size_t>(l)];
    for (std::size_t r = row_begin; r < row_end; ++r) {
      T* accp = acc.data();
      const T* self = state_.Row(l, r);
      if (plan.has_self_decay) {
        for (std::size_t c = 0; c < cols; ++c) {
          accp[c] = plan.z - self[c];
        }
      } else {
        for (std::size_t c = 0; c < cols; ++c) {
          accp[c] = plan.z;
        }
      }
      for (const CompiledTap<T>& tap : plan.taps) {
        ApplyTapRow(tap, r, accp);
      }
      for (const CompiledOffset<T>& off : plan.offsets) {
        ApplyOffsetRow(off, r, accp);
      }
      T* next = next_state_.Row(l, r);
      for (std::size_t c = 0; c < cols; ++c) {
        next[c] = self[c] + dt_ * accp[c];
      }
    }
  }
}

template <typename T>
T
SoaEngine<T>::CellDerivativeScalar(const LayerPlan<T>& plan, int layer,
                                   std::size_t r, std::size_t c) const
{
  T acc = plan.z;
  if (plan.has_self_decay) {
    acc = acc - state_.At(layer, r, c);
  }
  for (const CompiledTap<T>& tap : plan.taps) {
    const std::ptrdiff_t sr = static_cast<std::ptrdiff_t>(r) + tap.dr;
    const std::ptrdiff_t sc = static_cast<std::ptrdiff_t>(c) + tap.dc;
    const T nbr = PlaneNeighbor(FieldFor(tap.source), tap.src_layer, sr, sc);
    T wv = tap.weight;
    if (!tap.factors.empty()) {
      wv = wv * FactorProductAt(tap.factors, r, c, sr, sc);
    }
    acc = acc + wv * nbr;
  }
  for (const CompiledOffset<T>& off : plan.offsets) {
    T v = off.constant;
    if (!off.factors.empty()) {
      v = v * FactorProductAt(off.factors, r, c,
                              static_cast<std::ptrdiff_t>(r),
                              static_cast<std::ptrdiff_t>(c));
    }
    acc = acc + v;
  }
  return acc;
}

template <typename T>
void
SoaEngine<T>::ComputeRowsScalar(std::size_t row_begin, std::size_t row_end)
{
  const std::size_t cols = spec_.cols;
  for (int l = 0; l < spec_.NumLayers(); ++l) {
    const LayerPlan<T>& plan = plans_[static_cast<std::size_t>(l)];
    for (std::size_t r = row_begin; r < row_end; ++r) {
      const T* self = state_.Row(l, r);
      T* next = next_state_.Row(l, r);
      for (std::size_t c = 0; c < cols; ++c) {
        const T xdot = CellDerivativeScalar(plan, l, r, c);
        next[c] = self[c] + dt_ * xdot;
      }
    }
  }
}

template <typename T>
void
SoaEngine<T>::ComputeRowsSimd(std::size_t row_begin, std::size_t row_end)
{
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
}

template <typename T>
void
SoaEngine<T>::StepBands(std::size_t row_begin, std::size_t row_end)
{
  CENN_PROF("soa.step");
  CheckBand(row_begin, row_end);
  if (path_ == KernelPath::kScalar) {
    ComputeRowsScalar(row_begin, row_end);
  } else if (path_ == KernelPath::kSimd) {
    ComputeRowsSimd(row_begin, row_end);
  } else {
    ComputeRowsBlocked(row_begin, row_end);
  }
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
MakeSoaEngine(const NetworkSpec& spec, SolverOptions options, KernelPath path)
{
  if (options.precision == Precision::kDouble) {
    return std::make_unique<SoaEngine<double>>(
        spec, std::move(options.double_evaluator), path);
  }
  return std::make_unique<SoaEngine<Fixed32>>(
      spec, std::move(options.fixed_evaluator), path);
}

std::unique_ptr<Engine>
MakeSoaEngineFloat(const NetworkSpec& spec,
                   std::shared_ptr<FunctionEvaluator<float>> evaluator,
                   KernelPath path)
{
  return std::make_unique<SoaEngine<float>>(spec, std::move(evaluator), path);
}

}  // namespace cenn
