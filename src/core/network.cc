#include "core/network.h"

#include <utility>

#include "obs/profile.h"
#include "util/logging.h"

namespace cenn {

template <typename T>
MultilayerCenn<T>::MultilayerCenn(
    const NetworkSpec& spec, std::shared_ptr<FunctionEvaluator<T>> evaluator)
    : spec_(spec), evaluator_(std::move(evaluator))
{
  spec_.Validate();
  if (evaluator_ == nullptr) {
    evaluator_ = std::make_shared<DirectEvaluator<T>>();
  }
  dt_ = NumTraits<T>::FromDouble(spec_.dt);

  const std::size_t n = spec_.layers.size();
  state_.reserve(n);
  next_state_.reserve(n);
  input_.reserve(n);
  output_.reserve(n);
  needs_output_.assign(n, false);

  for (const auto& layer : spec_.layers) {
    if (layer.initial_state.empty()) {
      state_.emplace_back(spec_.rows, spec_.cols);
    } else {
      state_.push_back(Grid2D<T>::FromDoubles(spec_.rows, spec_.cols,
                                              layer.initial_state));
    }
    next_state_.emplace_back(spec_.rows, spec_.cols);
    if (layer.input.empty()) {
      input_.emplace_back(spec_.rows, spec_.cols);
    } else {
      input_.push_back(
          Grid2D<T>::FromDoubles(spec_.rows, spec_.cols, layer.input));
    }
    output_.emplace_back(spec_.rows, spec_.cols);
  }
  for (const auto& layer : spec_.layers) {
    for (const auto& c : layer.couplings) {
      if (c.kind == CouplingKind::kOutput) {
        needs_output_[static_cast<std::size_t>(c.src_layer)] = true;
      }
    }
  }
  if (spec_.integrator == Integrator::kHeun) {
    for (std::size_t l = 0; l < n; ++l) {
      k1_.emplace_back(spec_.rows, spec_.cols);
      heun_final_.emplace_back(spec_.rows, spec_.cols);
    }
  }
}

template <typename T>
const Grid2D<T>&
MultilayerCenn<T>::State(int layer) const
{
  CENN_ASSERT(layer >= 0 && layer < spec_.NumLayers(), "bad layer ", layer);
  return state_[static_cast<std::size_t>(layer)];
}

template <typename T>
Grid2D<T>&
MultilayerCenn<T>::MutableState(int layer)
{
  CENN_ASSERT(layer >= 0 && layer < spec_.NumLayers(), "bad layer ", layer);
  return state_[static_cast<std::size_t>(layer)];
}

template <typename T>
const Grid2D<T>&
MultilayerCenn<T>::Input(int layer) const
{
  CENN_ASSERT(layer >= 0 && layer < spec_.NumLayers(), "bad layer ", layer);
  return input_[static_cast<std::size_t>(layer)];
}

template <typename T>
void
MultilayerCenn<T>::SetInput(int layer, const Grid2D<T>& input)
{
  CENN_ASSERT(layer >= 0 && layer < spec_.NumLayers(), "bad layer ", layer);
  if (input.Rows() != spec_.rows || input.Cols() != spec_.cols) {
    CENN_FATAL("SetInput: size mismatch");
  }
  input_[static_cast<std::size_t>(layer)] = input;
}

template <typename T>
std::vector<double>
MultilayerCenn<T>::StateDoubles(int layer) const
{
  return State(layer).ToDoubles();
}

template <typename T>
T
MultilayerCenn<T>::ControlState(int layer, std::ptrdiff_t r,
                                std::ptrdiff_t c) const
{
  return SrcState()[static_cast<std::size_t>(layer)].Neighbor(
      r, c, spec_.boundary);
}

template <typename T>
T
MultilayerCenn<T>::FactorProduct(const std::vector<WeightFactor>& factors,
                                 std::size_t r, std::size_t c,
                                 std::ptrdiff_t sr, std::ptrdiff_t sc) const
{
  T prod = NumTraits<T>::FromDouble(1.0);
  for (const auto& f : factors) {
    const T ctrl =
        f.at_source
            ? ControlState(f.ctrl_layer, sr, sc)
            : ControlState(f.ctrl_layer, static_cast<std::ptrdiff_t>(r),
                           static_cast<std::ptrdiff_t>(c));
    prod = prod * evaluator_->Evaluate(*f.fn, ctrl);
  }
  return prod;
}

template <typename T>
T
MultilayerCenn<T>::WeightValue(const TemplateWeight& w, std::size_t r,
                               std::size_t c, std::ptrdiff_t sr,
                               std::ptrdiff_t sc) const
{
  T value = NumTraits<T>::FromDouble(w.constant);
  if (w.NeedsUpdate()) {
    value = value * FactorProduct(w.factors, r, c, sr, sc);
  }
  return value;
}

template <typename T>
T
MultilayerCenn<T>::CellDerivative(int layer_idx, std::size_t r,
                                  std::size_t c) const
{
  const auto& layer = spec_.layers[static_cast<std::size_t>(layer_idx)];
  T acc = NumTraits<T>::FromDouble(layer.z);
  const std::vector<Grid2D<T>>& states = SrcState();

  if (layer.has_self_decay) {
    acc = acc - states[static_cast<std::size_t>(layer_idx)].At(r, c);
  }

  for (const auto& coupling : layer.couplings) {
    const auto src = static_cast<std::size_t>(coupling.src_layer);
    const Grid2D<T>* grid = nullptr;
    switch (coupling.kind) {
      case CouplingKind::kState:
        grid = &states[src];
        break;
      case CouplingKind::kOutput:
        grid = &output_[src];
        break;
      case CouplingKind::kInput:
        grid = &input_[src];
        break;
    }
    const int radius = coupling.kernel.Radius();
    for (int dr = -radius; dr <= radius; ++dr) {
      for (int dc = -radius; dc <= radius; ++dc) {
        const TemplateWeight& w = coupling.kernel.At(dr, dc);
        if (!w.NeedsUpdate() && w.constant == 0.0) {
          continue;
        }
        const auto sr = static_cast<std::ptrdiff_t>(r) + dr;
        const auto sc = static_cast<std::ptrdiff_t>(c) + dc;
        const T neighbor = grid->Neighbor(sr, sc, spec_.boundary);
        acc = acc + WeightValue(w, r, c, sr, sc) * neighbor;
      }
    }
  }

  for (const auto& term : layer.offset_terms) {
    T v = NumTraits<T>::FromDouble(term.constant);
    if (!term.factors.empty()) {
      v = v * FactorProduct(term.factors, r, c,
                            static_cast<std::ptrdiff_t>(r),
                            static_cast<std::ptrdiff_t>(c));
    }
    acc = acc + v;
  }
  return acc;
}

template <typename T>
void
MultilayerCenn<T>::RefreshOutputsAll()
{
  RefreshOutputsRows(0, spec_.rows);
}

template <typename T>
void
MultilayerCenn<T>::RefreshOutputsRows(std::size_t row_begin,
                                      std::size_t row_end)
{
  CENN_PROF("functional.refresh");
  const std::size_t n_layers = spec_.layers.size();
  const std::vector<Grid2D<T>>& states = SrcState();
  for (std::size_t l = 0; l < n_layers; ++l) {
    if (!needs_output_[l]) {
      continue;
    }
    const T one = NumTraits<T>::FromDouble(1.0);
    const T neg_one = NumTraits<T>::FromDouble(-1.0);
    for (std::size_t i = row_begin * spec_.cols; i < row_end * spec_.cols;
         ++i) {
      const T x = states[l].Data()[i];
      T y = x;
      if (y > one) {
        y = one;
      } else if (y < neg_one) {
        y = neg_one;
      }
      output_[l].MutableData()[i] = y;
    }
  }
}

template <typename T>
void
MultilayerCenn<T>::ComputeEulerRows(std::size_t row_begin,
                                    std::size_t row_end)
{
  CENN_PROF("functional.step");
  const std::size_t n_layers = spec_.layers.size();
  for (std::size_t l = 0; l < n_layers; ++l) {
    for (std::size_t r = row_begin; r < row_end; ++r) {
      for (std::size_t c = 0; c < spec_.cols; ++c) {
        const T xdot = CellDerivative(static_cast<int>(l), r, c);
        next_state_[l].At(r, c) = state_[l].At(r, c) + dt_ * xdot;
      }
    }
  }
}

template <typename T>
void
MultilayerCenn<T>::CheckBandArgs(std::size_t row_begin,
                                 std::size_t row_end) const
{
  if (spec_.integrator != Integrator::kEuler) {
    CENN_FATAL("band stepping supports the explicit-Euler integrator only "
               "(spec uses ", IntegratorName(spec_.integrator), ")");
  }
  CENN_ASSERT(row_begin < row_end && row_end <= spec_.rows,
              "bad band [", row_begin, ", ", row_end, ") for ", spec_.rows,
              " rows");
}

template <typename T>
void
MultilayerCenn<T>::RefreshOutputs(std::size_t row_begin, std::size_t row_end)
{
  CheckBandArgs(row_begin, row_end);
  RefreshOutputsRows(row_begin, row_end);
}

template <typename T>
void
MultilayerCenn<T>::StepBands(std::size_t row_begin, std::size_t row_end)
{
  CheckBandArgs(row_begin, row_end);
  ComputeEulerRows(row_begin, row_end);
}

template <typename T>
void
MultilayerCenn<T>::Publish()
{
  if (spec_.integrator != Integrator::kEuler) {
    CENN_FATAL("band stepping supports the explicit-Euler integrator only");
  }
  state_.swap(next_state_);
  ApplyResets();
  ++steps_;
}

template <typename T>
void
MultilayerCenn<T>::RestoreState(int layer, std::span<const double> values)
{
  CENN_ASSERT(layer >= 0 && layer < spec_.NumLayers(), "bad layer ", layer);
  state_[static_cast<std::size_t>(layer)] =
      Grid2D<T>::FromDoubles(spec_.rows, spec_.cols, values);
}

template <typename T>
void
MultilayerCenn<T>::StepEuler()
{
  RefreshOutputsAll();
  ComputeEulerRows(0, spec_.rows);
  state_.swap(next_state_);
}

template <typename T>
void
MultilayerCenn<T>::StepHeun()
{
  CENN_PROF("functional.heun");
  const std::size_t n_layers = spec_.layers.size();
  const T half = NumTraits<T>::FromDouble(0.5);

  // Predictor: k1 from the current state, x_pred = x + dt * k1.
  deriv_src_ = nullptr;
  RefreshOutputsAll();
  for (std::size_t l = 0; l < n_layers; ++l) {
    for (std::size_t r = 0; r < spec_.rows; ++r) {
      for (std::size_t c = 0; c < spec_.cols; ++c) {
        const T k1 = CellDerivative(static_cast<int>(l), r, c);
        k1_[l].At(r, c) = k1;
        next_state_[l].At(r, c) = state_[l].At(r, c) + dt_ * k1;
      }
    }
  }

  // Corrector: k2 from the predicted state.
  deriv_src_ = &next_state_;
  RefreshOutputsAll();
  for (std::size_t l = 0; l < n_layers; ++l) {
    for (std::size_t r = 0; r < spec_.rows; ++r) {
      for (std::size_t c = 0; c < spec_.cols; ++c) {
        const T k2 = CellDerivative(static_cast<int>(l), r, c);
        heun_final_[l].At(r, c) =
            state_[l].At(r, c) + dt_ * (half * (k1_[l].At(r, c) + k2));
      }
    }
  }
  deriv_src_ = nullptr;
  state_.swap(heun_final_);
}

template <typename T>
void
MultilayerCenn<T>::Step()
{
  if (spec_.integrator == Integrator::kHeun) {
    StepHeun();
  } else {
    StepEuler();
  }
  ApplyResets();
  ++steps_;
}

template <typename T>
void
MultilayerCenn<T>::ApplyResets()
{
  for (const auto& rule : spec_.resets) {
    const auto trig = static_cast<std::size_t>(rule.trigger_layer);
    const T threshold = NumTraits<T>::FromDouble(rule.threshold);
    for (std::size_t i = 0; i < spec_.rows * spec_.cols; ++i) {
      if (state_[trig].Data()[i] < threshold) {
        continue;
      }
      for (const auto& action : rule.actions) {
        const auto dst = static_cast<std::size_t>(action.layer);
        T& cell = state_[dst].MutableData()[i];
        const T v = NumTraits<T>::FromDouble(action.value);
        cell = action.is_set ? v : cell + v;
      }
    }
  }
}

template <typename T>
void
MultilayerCenn<T>::Run(std::uint64_t n)
{
  for (std::uint64_t i = 0; i < n; ++i) {
    Step();
  }
}

template class MultilayerCenn<double>;
template class MultilayerCenn<Fixed32>;
template class MultilayerCenn<float>;

}  // namespace cenn
