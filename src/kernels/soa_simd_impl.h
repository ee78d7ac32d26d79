/**
 * @file
 * ISA-generic body of the SoA engine's row kernels, compiled once per
 * vector ISA. Before including this header a translation unit must define:
 *
 *   CENN_SIMD_NS      — the namespace for this ISA's entry points
 *                       (e.g. simd_avx2), matching soa_simd.h
 *   CENN_SIMD_VEC_NS  — the kernels/vec.h namespace providing VecD,
 *                       VecF and VecI (e.g. ::cenn::vec::avx2)
 *
 * and must be compiled with -ffp-contract=off (set in the kernels
 * CMakeLists): everything here — vector ops, scalar edge cells,
 * per-lane fallbacks — must keep separate multiply/add roundings so
 * the kernels stay bit-identical to the functional engine
 * (MultilayerCenn; the contract in docs/kernels.md allows per-tap
 * FMA, but the current kernels intentionally do not use it).
 *
 * Fixed32 runs the same body over VecQ (Q16.16 lanes with Fixed32's
 * saturating ops and exact saturation counting, defined below);
 * integer ops do not round, so that path is bit-identical by
 * construction, saturation counts and LUT counters included.
 *
 * Structure per destination row (identical per-cell operation order
 * to MultilayerCenn::CellDerivative, lane-parallel over columns):
 *   1. accumulator init with z (minus self-decay);
 *   2. per tap: scalar boundary cells outside the in-range column
 *      window [lo, hi), vector strips with a lane-masked tail inside
 *      it; nonlinear factor products evaluate as vector Horner
 *      polynomials, vectorized packed-lane LUT gathers, or exact
 *      per-lane closure calls (FactorVecInfo decides);
 *   3. per offset term: vector accumulate, same factor machinery;
 *   4. Euler update next = self + dt * acc.
 */

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/network_spec.h"
#include "fixed/fixed32.h"
#include "kernels/soa_simd.h"
#include "kernels/vec.h"
#include "lut/lut_traffic.h"
#include "util/logging.h"

namespace cenn {
namespace CENN_SIMD_NS {
namespace {

using VecD = CENN_SIMD_VEC_NS::VecD;
using VecF = CENN_SIMD_VEC_NS::VecF;
using VecI = CENN_SIMD_VEC_NS::VecI;

static_assert(VecF::kLanes == 2 * VecD::kLanes,
              "float factor widening assumes twice the double lanes");
static_assert(sizeof(Fixed32) == sizeof(std::int32_t),
              "Fixed32 fields are read as raw int32 words");

/** Factor-array bound for the stack-resident control row pointers. */
constexpr std::size_t kMaxFactors = 8;

/** Bit mask of the first n lanes. */
constexpr unsigned
LaneBits(int n)
{
  return n >= 32 ? ~0u : (1u << n) - 1u;
}

/**
 * A Fixed32 array as its raw words. VecI reads and writes through
 * intrinsics or memcpy, never through the int32 pointer itself.
 */
inline const std::int32_t*
RawWords(const Fixed32* p)
{
  return reinterpret_cast<const std::int32_t*>(p);
}

inline std::int32_t*
RawWords(Fixed32* p)
{
  return reinterpret_cast<std::int32_t*>(p);
}

/**
 * Q16.16 lanes for the shared step body: VecI words under Fixed32's
 * saturating +, - and * (vec.h's AddSat/SubSat/MulQ16), and the same
 * load/store/broadcast surface as VecD. Each op adds its clamped lanes
 * to the thread's saturation sink, as the scalar ops do per cell, but
 * only lanes set in `count`: all lanes of a Load or Broadcast, the
 * first n of a LoadPartial. A result keeps the lanes both operands
 * count, so the garbage lanes past a row's end never count, whatever
 * op chain they flow through.
 */
struct VecQ {
  static constexpr int kLanes = VecI::kLanes;
  static constexpr unsigned kAll = LaneBits(kLanes);

  VecI v;
  unsigned count = kAll;

  static VecQ Broadcast(Fixed32 x) { return {VecI::Broadcast(x.raw()), kAll}; }
  static VecQ Load(const Fixed32* p) { return {VecI::Load(RawWords(p)), kAll}; }

  static VecQ
  LoadPartial(const Fixed32* p, int n)
  {
    return {VecI::LoadPartial(RawWords(p), n), LaneBits(n)};
  }

  void Store(Fixed32* p) const { v.Store(RawWords(p)); }
  void StorePartial(Fixed32* p, int n) const { v.StorePartial(RawWords(p), n); }

  VecQ
  operator+(VecQ o) const
  {
    unsigned sat = 0;
    const VecQ r{VecI::AddSat(v, o.v, &sat), count & o.count};
    CountClamps(sat, r.count);
    return r;
  }

  VecQ
  operator-(VecQ o) const
  {
    unsigned sat = 0;
    const VecQ r{VecI::SubSat(v, o.v, &sat), count & o.count};
    CountClamps(sat, r.count);
    return r;
  }

  VecQ
  operator*(VecQ o) const
  {
    unsigned sat = 0;
    const VecQ r{VecI::MulQ16(v, o.v, &sat), count & o.count};
    CountClamps(sat, r.count);
    return r;
  }

  /** a*b + c as two saturating ops, like the scalar expression. */
  static VecQ MulAdd(VecQ a, VecQ b, VecQ c) { return a * b + c; }

  /** Reports the clamped lanes among `lanes` (rare: one test). */
  static void
  CountClamps(unsigned sat, unsigned lanes)
  {
    if ((sat & lanes) != 0) [[unlikely]] {
      Fixed32::CountSaturations(
          static_cast<std::uint64_t>(std::popcount(sat & lanes)));
    }
  }
};

template <typename T>
struct VecFor;
template <>
struct VecFor<double> {
  using type = VecD;
};
template <>
struct VecFor<float> {
  using type = VecF;
};
template <>
struct VecFor<Fixed32> {
  using type = VecQ;
};

/** Zero-flux index clamp (Grid2D::ClampIndex semantics). */
inline std::size_t
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
inline std::size_t
WrapIndex(std::ptrdiff_t i, std::size_t n)
{
  const auto sn = static_cast<std::ptrdiff_t>(n);
  std::ptrdiff_t m = i % sn;
  if (m < 0) {
    m += sn;
  }
  return static_cast<std::size_t>(m);
}

template <typename T>
const SoaField<T>&
FieldForV(const SimdStepView<T>& v, TapSource source)
{
  switch (source) {
    case TapSource::kState:
      return *v.state;
    case TapSource::kOutput:
      return *v.output;
    case TapSource::kInput:
      return *v.input;
  }
  return *v.state;
}

/** Grid2D::Neighbor semantics over a SoA plane, for the scalar
 *  boundary cells. */
template <typename T>
T
PlaneNeighborS(const SimdStepView<T>& v, const SoaField<T>& field, int layer,
               std::ptrdiff_t r, std::ptrdiff_t c)
{
  const auto rows = static_cast<std::ptrdiff_t>(v.spec->rows);
  const auto cols = static_cast<std::ptrdiff_t>(v.spec->cols);
  if (r >= 0 && c >= 0 && r < rows && c < cols) {
    return field.At(layer, static_cast<std::size_t>(r),
                    static_cast<std::size_t>(c));
  }
  switch (v.spec->boundary.kind) {
    case BoundaryKind::kDirichlet:
      return v.bval;
    case BoundaryKind::kPeriodic:
      return field.At(layer, WrapIndex(r, v.spec->rows),
                      WrapIndex(c, v.spec->cols));
    case BoundaryKind::kZeroFlux:
    default:
      return field.At(layer, ClampIndex(r, v.spec->rows),
                      ClampIndex(c, v.spec->cols));
  }
}

/** MultilayerCenn::FactorProduct replica for the scalar boundary
 *  cells. */
template <typename T>
T
FactorProductAtS(const SimdStepView<T>& v,
                 const std::vector<CompiledFactor<T>>& factors, std::size_t r,
                 std::size_t c, std::ptrdiff_t sr, std::ptrdiff_t sc)
{
  T prod = v.one;
  for (const CompiledFactor<T>& f : factors) {
    const T ctrl = f.at_source
                       ? PlaneNeighborS(v, *v.state, f.ctrl_layer, sr, sc)
                       : v.state->At(f.ctrl_layer, r, c);
    prod = prod * f.eval(ctrl);
  }
  return prod;
}

/**
 * Vector Horner loop over ascending coefficients — the identical
 * double arithmetic of DirectEvaluator's bound polynomial closure
 * (acc = acc * x + c[k], descending k, two roundings per step).
 */
inline VecD
PolyHorner(const std::vector<double>& c, VecD x)
{
  VecD acc = VecD::Broadcast(0.0);
  for (std::size_t k = c.size(); k-- > 0;) {
    acc = VecD::MulAdd(acc, x, VecD::Broadcast(c[k]));
  }
  return acc;
}

/**
 * Vectorized OffChipLut::EvaluateDouble over the packed SoA lanes of
 * a LutView: per-lane index computation replicating IndexOf exactly,
 * four packed-lane gathers (l_p, a1, a2, a3), the delta-form cubic
 * l_p + d(a1 + d(a2 + d a3)), and an exact-sample blend for lanes
 * where x lands on a sample point. The expansion point p is not
 * gathered — it is recomputed as min_p + idx * spacing, the exact
 * expression (same two roundings) the table builder stored, so d and
 * the x == p comparison are bit-identical to the tuple path.
 *
 * `n` is the number of *valid* lanes (the tail of a strip carries
 * garbage): the LutTally accounting counts exactly those lanes, one
 * access each and one exact hit per x == p lane, so the counters
 * match what n scalar EvaluateDouble calls would have recorded.
 */
inline VecD
LutGatherEval(const LutView& lut, VecD x, int n)
{
  constexpr int kLanes = VecD::kLanes;

  double xs[kLanes];
  x.Store(xs);
  const double min_p = lut.min_p;
  const double spacing = lut.spacing;
  const int num_entries = lut.num_entries;
  std::int64_t off[kLanes];
  double idxd[kLanes];
  for (int i = 0; i < kLanes; ++i) {
    // Exactly OffChipLut::IndexOf (same divide, floor and clamps).
    const double rel = (xs[i] - min_p) / spacing;
    int idx = static_cast<int>(std::floor(rel));
    if (idx < 0) {
      idx = 0;
    }
    if (idx >= num_entries) {
      idx = num_entries - 1;
    }
    off[i] = idx;
    idxd[i] = static_cast<double>(idx);
  }
  const VecD p = VecD::MulAdd(VecD::Load(idxd), VecD::Broadcast(spacing),
                              VecD::Broadcast(min_p));
  const VecD lp = VecD::Gather(lut.packed.l_p, off);
  const VecD a1 = VecD::Gather(lut.packed.a1, off);
  const VecD a2 = VecD::Gather(lut.packed.a2, off);
  const VecD a3 = VecD::Gather(lut.packed.a3, off);
  const VecD d = x - p;
  // TaylorTuple::EvaluateAroundP, two roundings per MulAdd.
  const VecD cubic = VecD::MulAdd(
      d, VecD::MulAdd(d, VecD::MulAdd(d, a3, a2), a1), lp);
  if (lut_traffic::t_tally != nullptr) {
    double ps[kLanes];
    p.Store(ps);
    std::uint64_t hits = 0;
    for (int i = 0; i < n; ++i) {
      hits += xs[i] == ps[i] ? 1u : 0u;
    }
    lut_traffic::CountAccesses(static_cast<std::uint64_t>(n), hits);
  }
  // EvaluateDouble returns l_p exactly when x == p (NaN lanes take
  // the cubic branch, same as the scalar comparison).
  return VecD::Select(x.CmpEq(p), lp, cubic);
}

/**
 * One factor evaluated across a strip: vector Horner for described
 * polynomials, packed-lane gathers for described LUT views, otherwise
 * exact per-lane calls of the bound closure (only the first n lanes;
 * the rest are filled with 1.0 and never stored).
 */
inline VecD
EvalFactorVec(const CompiledFactor<double>& f, VecD ctrl, int n)
{
  if (f.vec.poly != nullptr) {
    return PolyHorner(*f.vec.poly, ctrl);
  }
  if (f.vec.lut_view.Valid()) {
    return LutGatherEval(f.vec.lut_view, ctrl, n);
  }
  double xs[VecD::kLanes];
  double ys[VecD::kLanes];
  ctrl.Store(xs);
  for (int i = 0; i < n; ++i) {
    ys[i] = f.eval(xs[i]);
  }
  for (int i = n; i < VecD::kLanes; ++i) {
    ys[i] = 1.0;
  }
  return VecD::Load(ys);
}

inline VecF
EvalFactorVec(const CompiledFactor<float>& f, VecF ctrl, int n)
{
  if (f.vec.poly != nullptr) {
    // The float closure widens to double, runs Horner there and
    // narrows once at the end; Widen/Narrow reproduce those casts.
    VecD lo;
    VecD hi;
    VecF::Widen(ctrl, &lo, &hi);
    return VecF::Narrow(PolyHorner(*f.vec.poly, lo),
                        PolyHorner(*f.vec.poly, hi));
  }
  // No float LUT evaluator exists, so f.vec.lut_view is never set
  // here.
  float xs[VecF::kLanes];
  float ys[VecF::kLanes];
  ctrl.Store(xs);
  for (int i = 0; i < n; ++i) {
    ys[i] = f.eval(xs[i]);
  }
  for (int i = n; i < VecF::kLanes; ++i) {
    ys[i] = 1.0f;
  }
  return VecF::Load(ys);
}

/**
 * Vectorized OffChipLut::EvaluateFixed over a table's packed Q16.16
 * lanes. The index is IndexOf(Fixed32)'s arithmetic shift clamped
 * into the table, the exact-sample test is IsExactSample's low-bit
 * and range test, both on raw words; p is rebuilt as the clamped
 * index shifted back (PackedFixedView). Four int32 gathers feed the
 * delta-form cubic l_p + d(a1 + d(a2 + d a3)) in saturating Q16.16.
 * Exact-sample lanes return l_p. The scalar call never computes their
 * cubic, and here it cannot clamp: an exact sample is its own p, so
 * d = 0 and every op of the cubic is exact, which keeps the clamp
 * count equal to scalar's. LutTally counts the valid lanes and their
 * exact hits, as that many scalar calls would.
 */
inline VecQ
LutGatherEvalQ(const PackedFixedView& lut, VecQ x)
{
  const VecI zero = VecI::Zero();
  const VecI units = VecI::Min(
      VecI::Max(x.v.ShiftRightArith(lut.shift),
                VecI::Broadcast(lut.min_units)),
      VecI::Broadcast(lut.max_units));
  const VecI idx = units - VecI::Broadcast(lut.min_units);
  const VecI low_bits =
      VecI::Broadcast((std::int32_t{1} << lut.shift) - 1);
  VecI exact = (x.v & low_bits).CmpEq(zero);
  exact = VecI::Select(VecI::Broadcast(lut.min_raw).CmpGt(x.v), zero, exact);
  exact = VecI::Select(x.v.CmpGt(VecI::Broadcast(lut.max_raw)), zero, exact);

  const VecI lp = VecI::Gather(lut.l_p, idx);
  const VecQ d = x - VecQ{units.ShiftLeft(lut.shift)};
  const VecQ cubic =
      VecQ{lp} +
      d * (VecQ{VecI::Gather(lut.a1, idx)} +
           d * (VecQ{VecI::Gather(lut.a2, idx)} +
                d * VecQ{VecI::Gather(lut.a3, idx)}));
  if (lut_traffic::t_tally != nullptr) {
    lut_traffic::CountAccesses(
        static_cast<std::uint64_t>(std::popcount(x.count)),
        static_cast<std::uint64_t>(std::popcount(exact.MoveMask() & x.count)));
  }
  return {VecI::Select(exact, lp, cubic.v), x.count};
}

/**
 * Fixed32 factors: packed Q16.16 gathers for described LUT views,
 * otherwise exact per-lane closure calls (whose scalar ops count
 * their own clamps and LUT traffic; tail lanes are one and never
 * stored). Polynomials bound by DirectEvaluator<Fixed32> convert
 * through double per lane and take the closure too.
 */
inline VecQ
EvalFactorVec(const CompiledFactor<Fixed32>& f, VecQ ctrl, int n)
{
  if (f.vec.lut_view.packed_fixed.Valid()) {
    return LutGatherEvalQ(f.vec.lut_view.packed_fixed, ctrl);
  }
  Fixed32 xs[VecQ::kLanes];
  Fixed32 ys[VecQ::kLanes];
  ctrl.Store(xs);
  for (int i = 0; i < n; ++i) {
    ys[i] = f.eval(xs[i]);
  }
  for (int i = n; i < VecQ::kLanes; ++i) {
    ys[i] = Fixed32::FromRaw(static_cast<std::int32_t>(Fixed32::kOne));
  }
  return {VecQ::Load(ys).v, ctrl.count};
}

/** One tap accumulated into `acc` for destination row r: scalar
 *  boundary cells outside [lo, hi), vector strips inside it. */
template <typename T>
void
ApplyTapRowV(const SimdStepView<T>& v, const CompiledTap<T>& tap,
             std::size_t r, T* acc)
{
  using V = typename VecFor<T>::type;
  const auto cols = static_cast<std::ptrdiff_t>(v.spec->cols);
  const std::ptrdiff_t sr = static_cast<std::ptrdiff_t>(r) + tap.dr;
  const std::ptrdiff_t dc = tap.dc;
  const SoaField<T>& field = FieldForV(v, tap.source);
  const bool row_in =
      sr >= 0 && sr < static_cast<std::ptrdiff_t>(v.spec->rows);

  // Columns [lo, hi) have their source column in range; the rest are
  // boundary cells handled per cell. A Dirichlet out-of-range row
  // makes every column a boundary cell.
  std::ptrdiff_t lo = std::max<std::ptrdiff_t>(0, -dc);
  std::ptrdiff_t hi = std::min<std::ptrdiff_t>(cols, cols - dc);
  if (lo > cols) {
    lo = cols;
  }
  if (hi < lo) {
    hi = lo;
  }
  if (!row_in && v.spec->boundary.kind == BoundaryKind::kDirichlet) {
    lo = cols;
    hi = cols;
  }

  auto edge_cell = [&](std::ptrdiff_t c) {
    const std::ptrdiff_t sc = c + dc;
    const T nbr = PlaneNeighborS(v, field, tap.src_layer, sr, sc);
    T wv = tap.weight;
    if (!tap.factors.empty()) {
      wv = wv * FactorProductAtS(v, tap.factors, r,
                                 static_cast<std::size_t>(c), sr, sc);
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
      : v.spec->boundary.kind == BoundaryKind::kPeriodic
          ? WrapIndex(sr, v.spec->rows)
          : ClampIndex(sr, v.spec->rows);
  const T* src = field.Row(tap.src_layer, msr) + dc;

  if (tap.factors.empty()) {
    const V w = V::Broadcast(tap.weight);
    std::ptrdiff_t c = lo;
    for (; c + V::kLanes <= hi; c += V::kLanes) {
      V::MulAdd(w, V::Load(src + c), V::Load(acc + c)).Store(acc + c);
    }
    if (c < hi) {
      const int n = static_cast<int>(hi - c);
      V::MulAdd(w, V::LoadPartial(src + c, n), V::LoadPartial(acc + c, n))
          .StorePartial(acc + c, n);
    }
    return;
  }

  const std::size_t nf = tap.factors.size();
  CENN_ASSERT(nf <= kMaxFactors, "tap with ", nf, " factors exceeds the SoA "
              "kernel bound of ", kMaxFactors);
  const T* dest_ctrl[kMaxFactors];
  const T* src_ctrl[kMaxFactors];
  for (std::size_t i = 0; i < nf; ++i) {
    dest_ctrl[i] = v.state->Row(tap.factors[i].ctrl_layer, r);
    src_ctrl[i] = v.state->Row(tap.factors[i].ctrl_layer, msr) + dc;
  }
  const V w = V::Broadcast(tap.weight);
  for (std::ptrdiff_t c = lo; c < hi; c += V::kLanes) {
    const int n =
        static_cast<int>(std::min<std::ptrdiff_t>(V::kLanes, hi - c));
    // The scalar product starts at one; one * f is exactly f at every
    // precision (no rounding, no clamp), so it starts at f here.
    V prod = EvalFactorVec(tap.factors[0],
                           V::LoadPartial((tap.factors[0].at_source
                                               ? src_ctrl[0]
                                               : dest_ctrl[0]) + c, n),
                           n);
    for (std::size_t i = 1; i < nf; ++i) {
      const CompiledFactor<T>& f = tap.factors[i];
      const T* ctrlp = f.at_source ? src_ctrl[i] : dest_ctrl[i];
      const V ctrl = V::LoadPartial(ctrlp + c, n);
      prod = prod * EvalFactorVec(f, ctrl, n);
    }
    const V wv = w * prod;
    V::MulAdd(wv, V::LoadPartial(src + c, n), V::LoadPartial(acc + c, n))
        .StorePartial(acc + c, n);
  }
}

/** One offset term accumulated into `acc` for destination row r,
 *  with vector strips. */
template <typename T>
void
ApplyOffsetRowV(const SimdStepView<T>& v, const CompiledOffset<T>& off,
                std::size_t r, T* acc)
{
  using V = typename VecFor<T>::type;
  const auto cols = static_cast<std::ptrdiff_t>(v.spec->cols);
  if (off.factors.empty()) {
    const V k = V::Broadcast(off.constant);
    std::ptrdiff_t c = 0;
    for (; c + V::kLanes <= cols; c += V::kLanes) {
      (V::Load(acc + c) + k).Store(acc + c);
    }
    if (c < cols) {
      const int n = static_cast<int>(cols - c);
      (V::LoadPartial(acc + c, n) + k).StorePartial(acc + c, n);
    }
    return;
  }
  const std::size_t nf = off.factors.size();
  CENN_ASSERT(nf <= kMaxFactors, "offset with ", nf, " factors exceeds the "
              "SoA kernel bound of ", kMaxFactors);
  const T* ctrl_rows[kMaxFactors];
  for (std::size_t i = 0; i < nf; ++i) {
    ctrl_rows[i] = v.state->Row(off.factors[i].ctrl_layer, r);
  }
  const V k = V::Broadcast(off.constant);
  for (std::ptrdiff_t c = 0; c < cols; c += V::kLanes) {
    const int n =
        static_cast<int>(std::min<std::ptrdiff_t>(V::kLanes, cols - c));
    // As in ApplyTapRowV: the product starts at the first factor.
    V prod = EvalFactorVec(off.factors[0],
                           V::LoadPartial(ctrl_rows[0] + c, n), n);
    for (std::size_t i = 1; i < nf; ++i) {
      prod = prod * EvalFactorVec(off.factors[i],
                                  V::LoadPartial(ctrl_rows[i] + c, n), n);
    }
    V::MulAdd(k, prod, V::LoadPartial(acc + c, n)).StorePartial(acc + c, n);
  }
}

template <typename T>
void
StepRowsT(const SimdStepView<T>& v, std::size_t row_begin,
          std::size_t row_end)
{
  using V = typename VecFor<T>::type;
  const auto cols = static_cast<std::ptrdiff_t>(v.spec->cols);
  std::vector<T> acc(v.spec->cols);
  const V dt = V::Broadcast(v.dt);
  for (int l = 0; l < v.spec->NumLayers(); ++l) {
    const LayerPlan<T>& plan = (*v.plans)[static_cast<std::size_t>(l)];
    const V z = V::Broadcast(plan.z);
    for (std::size_t r = row_begin; r < row_end; ++r) {
      T* accp = acc.data();
      const T* self = v.state->Row(l, r);
      std::ptrdiff_t c = 0;
      if (plan.has_self_decay) {
        for (; c + V::kLanes <= cols; c += V::kLanes) {
          (z - V::Load(self + c)).Store(accp + c);
        }
        if (c < cols) {
          const int n = static_cast<int>(cols - c);
          (z - V::LoadPartial(self + c, n)).StorePartial(accp + c, n);
        }
      } else {
        for (; c + V::kLanes <= cols; c += V::kLanes) {
          z.Store(accp + c);
        }
        if (c < cols) {
          z.StorePartial(accp + c, static_cast<int>(cols - c));
        }
      }
      for (const CompiledTap<T>& tap : plan.taps) {
        ApplyTapRowV(v, tap, r, accp);
      }
      for (const CompiledOffset<T>& off : plan.offsets) {
        ApplyOffsetRowV(v, off, r, accp);
      }
      T* next = v.next_state->Row(l, r);
      c = 0;
      for (; c + V::kLanes <= cols; c += V::kLanes) {
        V::MulAdd(dt, V::Load(accp + c), V::Load(self + c)).Store(next + c);
      }
      if (c < cols) {
        const int n = static_cast<int>(cols - c);
        V::MulAdd(dt, V::LoadPartial(accp + c, n),
                  V::LoadPartial(self + c, n))
            .StorePartial(next + c, n);
      }
    }
  }
}

}  // namespace

void
StepRowsD(const SimdStepView<double>& view, std::size_t row_begin,
          std::size_t row_end)
{
  StepRowsT<double>(view, row_begin, row_end);
}

void
StepRowsF(const SimdStepView<float>& view, std::size_t row_begin,
          std::size_t row_end)
{
  StepRowsT<float>(view, row_begin, row_end);
}

void
StepRowsQ(const SimdStepView<Fixed32>& view, std::size_t row_begin,
          std::size_t row_end)
{
  StepRowsT<Fixed32>(view, row_begin, row_end);
}

int
LanesD()
{
  return VecD::kLanes;
}

int
LanesF()
{
  return VecF::kLanes;
}

int
LanesI()
{
  return VecI::kLanes;
}

}  // namespace CENN_SIMD_NS
}  // namespace cenn
