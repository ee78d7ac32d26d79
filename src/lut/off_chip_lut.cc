#include "lut/off_chip_lut.h"

#include <cmath>

#include "lut/lut_traffic.h"
#include "util/logging.h"

namespace cenn {

double
LutSpec::Spacing() const
{
  return std::ldexp(1.0, -frac_index_bits);
}

int
LutSpec::NumPoints() const
{
  return static_cast<int>(std::floor((max_p - min_p) / Spacing())) + 1;
}

void
LutSpec::Validate() const
{
  if (min_p >= max_p) {
    CENN_FATAL("LutSpec: min_p ", min_p, " >= max_p ", max_p);
  }
  if (frac_index_bits < 0 || frac_index_bits > Fixed32::kFracBits) {
    CENN_FATAL("LutSpec: frac_index_bits ", frac_index_bits,
               " out of [0,16]");
  }
  if (NumPoints() > (1 << 22)) {
    CENN_FATAL("LutSpec: table too large (", NumPoints(), " points)");
  }
}

OffChipLut::OffChipLut(NonlinearFnPtr fn, LutSpec spec)
    : fn_(std::move(fn)), spec_(spec)
{
  CENN_ASSERT(fn_ != nullptr, "OffChipLut with null function");
  spec_.Validate();
  const int n = spec_.NumPoints();
  entries_.reserve(static_cast<std::size_t>(n));
  fixed_entries_.reserve(static_cast<std::size_t>(n));
  packed_l_p_.reserve(static_cast<std::size_t>(n));
  packed_a1_.reserve(static_cast<std::size_t>(n));
  packed_a2_.reserve(static_cast<std::size_t>(n));
  packed_a3_.reserve(static_cast<std::size_t>(n));
  const double spacing = spec_.Spacing();
  for (int i = 0; i < n; ++i) {
    const double p = spec_.min_p + static_cast<double>(i) * spacing;
    const TaylorTuple t = fn_->TaylorAt(p);
    entries_.push_back(t);
    packed_l_p_.push_back(t.l_p);
    packed_a1_.push_back(t.a1);
    packed_a2_.push_back(t.a2);
    packed_a3_.push_back(t.a3);
    fixed_entries_.push_back({Fixed32::FromDouble(t.l_p),
                              Fixed32::FromDouble(t.p),
                              Fixed32::FromDouble(t.a1),
                              Fixed32::FromDouble(t.a2),
                              Fixed32::FromDouble(t.a3),
                              Fixed32::FromDouble(t.c0),
                              Fixed32::FromDouble(t.c1),
                              Fixed32::FromDouble(t.c2),
                              Fixed32::FromDouble(t.c3)});
  }
  packed_ = {packed_l_p_.data(), packed_a1_.data(), packed_a2_.data(),
             packed_a3_.data()};

  // The raw-bit index path needs min_p on the sample grid (min_p a
  // multiple of the spacing); every in-tree spec satisfies this.
  const double units = spec_.min_p / spacing;
  grid_aligned_ = std::floor(units) == units &&
                  units >= -2147483648.0 && units <= 2147483647.0;
  min_p_units_ = grid_aligned_ ? static_cast<std::int64_t>(units) : 0;
  BuildPackedFixed();
}

void
OffChipLut::BuildPackedFixed()
{
  // The vector Q16.16 path rebuilds p as (min_units + i) << shift, so
  // every sample point must be an exact Q16.16 word: on the grid and
  // inside the int32 raw range (where FromDouble(p) did not clamp).
  const int shift = Fixed32::kFracBits - spec_.frac_index_bits;
  const std::int64_t first = min_p_units_ * (std::int64_t{1} << shift);
  const std::int64_t last =
      (min_p_units_ + NumEntries() - 1) * (std::int64_t{1} << shift);
  if (!grid_aligned_ || first < INT32_MIN || last > INT32_MAX) {
    return;
  }
  const auto n = static_cast<std::size_t>(NumEntries());
  packed_fixed_l_p_.resize(n);
  packed_fixed_a1_.resize(n);
  packed_fixed_a2_.resize(n);
  packed_fixed_a3_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    packed_fixed_l_p_[i] = fixed_entries_[i].l_p.raw();
    packed_fixed_a1_[i] = fixed_entries_[i].a1.raw();
    packed_fixed_a2_[i] = fixed_entries_[i].a2.raw();
    packed_fixed_a3_[i] = fixed_entries_[i].a3.raw();
  }
  PackedFixedView& v = packed_fixed_;
  v.l_p = packed_fixed_l_p_.data();
  v.a1 = packed_fixed_a1_.data();
  v.a2 = packed_fixed_a2_.data();
  v.a3 = packed_fixed_a3_.data();
  v.shift = shift;
  v.min_units = static_cast<std::int32_t>(min_p_units_);
  v.max_units = static_cast<std::int32_t>(min_p_units_ + NumEntries() - 1);
  // IsExactSample's range test on raw bits: v >= min_p is
  // raw >= min_p * 2^16 (an integer here), v <= max_p is
  // raw <= floor(max_p * 2^16), clamped into the raw range.
  v.min_raw = static_cast<std::int32_t>(first);
  const double max_raw = std::floor(spec_.max_p * static_cast<double>(
                                                      Fixed32::kOne));
  v.max_raw = max_raw >= static_cast<double>(INT32_MAX)
                  ? INT32_MAX
                  : static_cast<std::int32_t>(max_raw);
}

int
OffChipLut::IndexOf(double x) const
{
  const double rel = (x - spec_.min_p) / spec_.Spacing();
  int idx = static_cast<int>(std::floor(rel));
  if (idx < 0) {
    idx = 0;
  }
  if (idx >= NumEntries()) {
    idx = NumEntries() - 1;
  }
  return idx;
}

int
OffChipLut::IndexOf(Fixed32 x) const
{
  if (!grid_aligned_) {
    return IndexOf(x.ToDouble());
  }
  // floor(x / 2^-k) is an arithmetic right shift of the Q16.16 raw
  // bits by (16 - k): the hardware's upper-bit extraction, exact for
  // negative states too (the shift floors toward -inf, like the
  // double path's std::floor).
  const int shift = Fixed32::kFracBits - spec_.frac_index_bits;
  const std::int64_t units = static_cast<std::int64_t>(x.raw() >> shift);
  std::int64_t idx = units - min_p_units_;
  if (idx < 0) {
    idx = 0;
  }
  if (idx >= NumEntries()) {
    idx = NumEntries() - 1;
  }
  return static_cast<int>(idx);
}

LutView
OffChipLut::View() const
{
  LutView v;
  v.entries = entries_.data();
  v.packed = packed_;
  v.packed_fixed = packed_fixed_;
  v.min_p = spec_.min_p;
  v.spacing = spec_.Spacing();
  v.num_entries = NumEntries();
  return v;
}

std::uint64_t
OffChipLut::FootprintBytes() const
{
  const auto n = static_cast<std::uint64_t>(entries_.size());
  const auto fixed_lanes =
      static_cast<std::uint64_t>(packed_fixed_l_p_.size());
  return n * (sizeof(TaylorTuple) + sizeof(FixedTuple) +
              4 * sizeof(double)) +
         fixed_lanes * 4 * sizeof(std::int32_t);
}

const TaylorTuple&
OffChipLut::Entry(int index) const
{
  CENN_ASSERT(index >= 0 && index < NumEntries(), "LUT index ", index,
              " out of range");
  return entries_[static_cast<std::size_t>(index)];
}

bool
OffChipLut::IsExactSample(Fixed32 x) const
{
  // Sample spacing is 2^-k, so x is exact iff the low (16 - k) raw bits
  // are zero and x is inside the sampled range.
  const double v = x.ToDouble();
  if (v < spec_.min_p || v > spec_.max_p) {
    return false;
  }
  const int low_bits = Fixed32::kFracBits - spec_.frac_index_bits;
  const std::uint32_t mask = (low_bits >= 32)
                                 ? 0xffffffffu
                                 : ((1u << low_bits) - 1u);
  return (static_cast<std::uint32_t>(x.raw()) & mask) == 0;
}

double
OffChipLut::EvaluateDouble(double x) const
{
  const TaylorTuple& t = LookupTuple(x);
  if (x == t.p) {
    lut_traffic::CountAccesses(1, 1);
    return t.l_p;
  }
  lut_traffic::CountAccesses(1, 0);
  return t.EvaluateAroundP(x);
}

Fixed32
OffChipLut::EvaluateFixed(Fixed32 x) const
{
  const int idx = IndexOf(x);
  const FixedTuple& ft = fixed_entries_[static_cast<std::size_t>(idx)];
  if (IsExactSample(x)) {
    lut_traffic::CountAccesses(1, 1);
    return ft.l_p;
  }
  lut_traffic::CountAccesses(1, 0);
  // Delta-form TUM datapath: d = x - p is exact in fixed point and
  // |d| < spacing, so quantized a1..a3 contribute only O(eps) error.
  const Fixed32 d = x - ft.p;
  return ft.l_p + d * (ft.a1 + d * (ft.a2 + d * ft.a3));
}

Fixed32
OffChipLut::EvaluateFixedExpanded(Fixed32 x) const
{
  const int idx = IndexOf(x);
  const FixedTuple& ft = fixed_entries_[static_cast<std::size_t>(idx)];
  if (IsExactSample(x)) {
    lut_traffic::CountAccesses(1, 1);
    return ft.l_p;
  }
  lut_traffic::CountAccesses(1, 0);
  // The paper's literal eq. (10): alpha = c0 + (c1 + c2 x) x, value =
  // c3 + alpha x. Quantization error in c1/c2 is amplified by x^2/x^3.
  const Fixed32 alpha = ft.c0 + (ft.c1 + ft.c2 * x) * x;
  return ft.c3 + alpha * x;
}

}  // namespace cenn
