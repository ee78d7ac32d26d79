#ifndef CENN_KERNELS_VEC_H_
#define CENN_KERNELS_VEC_H_

/**
 * @file
 * Portable fixed-width vector wrappers for the SoA simd kernel path.
 *
 * Each ISA namespace (avx2, sse2, neon, generic) provides the same
 * three types — VecD (double lanes), VecF (float lanes, always twice
 * as many) and VecI (signed int32 lanes, the raw words of the Q16.16
 * datapath) — with an identical member API per type, so the stepping
 * kernels in soa_simd_impl.h compile unchanged against any of them.
 * neon's VecI is the generic lane array. A namespace
 * is only defined when the including translation unit is compiled
 * with the matching target flags (e.g. -mavx2 for avx2), which is why
 * each ISA gets its own TU under src/kernels/ and runtime dispatch
 * picks an implementation in soa_simd.cc.
 *
 * Exactness rules the API guarantees (relied on by the kernel
 * exactness contract in docs/kernels.md):
 *  - every arithmetic op is the IEEE op applied per lane;
 *  - MulAdd(a, b, c) computes a*b + c with TWO roundings (an explicit
 *    multiply followed by an add — never an FMA), so lane i matches
 *    the scalar expression `a[i] * b[i] + c[i]` bit-for-bit;
 *  - widen (float -> double) is exact; Narrow rounds to
 *    nearest-even, identical to a scalar static_cast<float>.
 *
 *  - VecI's AddSat/SubSat/MulQ16 are Fixed32's saturating +, - and *
 *    lane by lane, bit for bit (MulQ16: 64-bit product, +-half an
 *    LSB, division truncating toward zero, clamp), and report which
 *    lanes clamped as a bit mask, so callers can count saturations
 *    exactly; every other VecI op is exact integer arithmetic.
 *
 * Partial ops (LoadPartial / StorePartial) touch exactly the first n
 * lanes of memory — the lane-masked tail handler for grid widths that
 * are not a multiple of the vector width. Gather reads lane i from
 * base[off[i]] (element offsets), the LUT tuple-fetch primitive.
 */

#include <cstddef>
#include <cstdint>
#include <cstring>

#if defined(__AVX2__) || defined(__SSE2__) || defined(_M_X64)
#include <immintrin.h>
#endif
#if defined(__ARM_NEON)
#include <arm_neon.h>
#endif

namespace cenn {
namespace vec {

// ---------------------------------------------------------------------------
// generic: plain lane arrays, always available. The compiler is free
// to auto-vectorize these loops; per-lane semantics (and the simd
// TU's -ffp-contract=off) keep results identical to true scalar code.

namespace generic {

template <typename T, int N>
struct VecN {
  static constexpr int kLanes = N;
  T lane[N];

  static VecN
  Broadcast(T v)
  {
    VecN r;
    for (int i = 0; i < N; ++i) {
      r.lane[i] = v;
    }
    return r;
  }

  static VecN Zero() { return Broadcast(T(0)); }

  static VecN
  Load(const T* p)
  {
    VecN r;
    std::memcpy(r.lane, p, sizeof(r.lane));
    return r;
  }

  /** First n lanes from p, remaining lanes zero. */
  static VecN
  LoadPartial(const T* p, int n)
  {
    VecN r = Zero();
    for (int i = 0; i < n; ++i) {
      r.lane[i] = p[i];
    }
    return r;
  }

  void Store(T* p) const { std::memcpy(p, lane, sizeof(lane)); }

  /** Writes exactly the first n lanes. */
  void
  StorePartial(T* p, int n) const
  {
    for (int i = 0; i < n; ++i) {
      p[i] = lane[i];
    }
  }

  VecN
  operator+(VecN o) const
  {
    VecN r;
    for (int i = 0; i < N; ++i) {
      r.lane[i] = lane[i] + o.lane[i];
    }
    return r;
  }

  VecN
  operator-(VecN o) const
  {
    VecN r;
    for (int i = 0; i < N; ++i) {
      r.lane[i] = lane[i] - o.lane[i];
    }
    return r;
  }

  VecN
  operator*(VecN o) const
  {
    VecN r;
    for (int i = 0; i < N; ++i) {
      r.lane[i] = lane[i] * o.lane[i];
    }
    return r;
  }

  /** a*b + c, two roundings per lane (see file comment). */
  static VecN
  MulAdd(VecN a, VecN b, VecN c)
  {
    VecN r;
    for (int i = 0; i < N; ++i) {
      const T prod = a.lane[i] * b.lane[i];
      r.lane[i] = prod + c.lane[i];
    }
    return r;
  }

  /** Lane i = base[off[i]]. */
  static VecN
  Gather(const T* base, const std::int64_t off[N])
  {
    VecN r;
    for (int i = 0; i < N; ++i) {
      r.lane[i] = base[off[i]];
    }
    return r;
  }

  /** All-ones lane mask where lanes compare equal (IEEE ==). */
  VecN
  CmpEq(VecN o) const
  {
    VecN r;
    for (int i = 0; i < N; ++i) {
      std::uint64_t bits = (lane[i] == o.lane[i]) ? ~std::uint64_t{0} : 0;
      T v;
      std::memcpy(&v, &bits, sizeof(T));
      r.lane[i] = v;
    }
    return r;
  }

  /** Bitwise blend: mask lane all-ones -> a, else b. */
  static VecN
  Select(VecN mask, VecN a, VecN b)
  {
    VecN r;
    for (int i = 0; i < N; ++i) {
      std::uint64_t mb = 0;
      std::uint64_t ab = 0;
      std::uint64_t bb = 0;
      std::memcpy(&mb, &mask.lane[i], sizeof(T));
      std::memcpy(&ab, &a.lane[i], sizeof(T));
      std::memcpy(&bb, &b.lane[i], sizeof(T));
      const std::uint64_t rb = (ab & mb) | (bb & ~mb);
      T v;
      std::memcpy(&v, &rb, sizeof(T));
      r.lane[i] = v;
    }
    return r;
  }
};

using VecD = VecN<double, 4>;

struct VecF : VecN<float, 8> {
  using Base = VecN<float, 8>;
  VecF() = default;
  VecF(Base b) : Base(b) {}  // NOLINT(google-explicit-constructor)

  /** Exact float -> double widening of the low/high half-lanes. */
  static void
  Widen(VecF v, VecD* lo, VecD* hi)
  {
    for (int i = 0; i < 4; ++i) {
      lo->lane[i] = static_cast<double>(v.lane[i]);
      hi->lane[i] = static_cast<double>(v.lane[i + 4]);
    }
  }

  /** Round-to-nearest-even narrowing (== scalar static_cast). */
  static VecF
  Narrow(VecD lo, VecD hi)
  {
    VecF r;
    for (int i = 0; i < 4; ++i) {
      r.lane[i] = static_cast<float>(lo.lane[i]);
      r.lane[i + 4] = static_cast<float>(hi.lane[i]);
    }
    return r;
  }
};

/** Clamps a 64-bit lane result; true when it clamped. */
inline bool
SaturateLane(std::int64_t v, std::int32_t* out)
{
  if (v > INT32_MAX || v < INT32_MIN) {
    *out = v > INT32_MAX ? INT32_MAX : INT32_MIN;
    return true;
  }
  *out = static_cast<std::int32_t>(v);
  return false;
}

/**
 * Q16.16 product of two raw words, exactly Fixed32::operator*: the
 * 64-bit product, plus or minus half an LSB, divided by 2^16 with
 * truncation toward zero, then clamped (true when it clamped).
 */
inline bool
MulQ16Lane(std::int32_t a, std::int32_t b, std::int32_t* out)
{
  std::int64_t p = static_cast<std::int64_t>(a) * b;
  p += p >= 0 ? 32768 : -32768;
  return SaturateLane(p / 65536, out);
}

/** Signed int32 lanes, one plain loop per op (the portable backend). */
struct VecI {
  static constexpr int kLanes = 8;
  std::int32_t lane[kLanes];

  static VecI
  Broadcast(std::int32_t v)
  {
    VecI r;
    for (int i = 0; i < kLanes; ++i) {
      r.lane[i] = v;
    }
    return r;
  }

  static VecI Zero() { return Broadcast(0); }

  static VecI
  Load(const std::int32_t* p)
  {
    VecI r;
    std::memcpy(r.lane, p, sizeof(r.lane));
    return r;
  }

  /** First n lanes from p, remaining lanes zero. */
  static VecI
  LoadPartial(const std::int32_t* p, int n)
  {
    VecI r = Zero();
    std::memcpy(r.lane, p, static_cast<std::size_t>(n) * sizeof(*p));
    return r;
  }

  void Store(std::int32_t* p) const { std::memcpy(p, lane, sizeof(lane)); }

  /** Writes exactly the first n lanes. */
  void
  StorePartial(std::int32_t* p, int n) const
  {
    std::memcpy(p, lane, static_cast<std::size_t>(n) * sizeof(*p));
  }

  /** Lane-wise a - b; callers keep it in range (index arithmetic). */
  VecI
  operator-(VecI o) const
  {
    VecI r;
    for (int i = 0; i < kLanes; ++i) {
      r.lane[i] = lane[i] - o.lane[i];
    }
    return r;
  }

  VecI
  operator&(VecI o) const
  {
    VecI r;
    for (int i = 0; i < kLanes; ++i) {
      r.lane[i] = lane[i] & o.lane[i];
    }
    return r;
  }

  /** Arithmetic (sign-filling) right shift by n in [0, 31]. */
  VecI
  ShiftRightArith(int n) const
  {
    VecI r;
    for (int i = 0; i < kLanes; ++i) {
      r.lane[i] = lane[i] >> n;
    }
    return r;
  }

  /** Left shift by n; the caller guarantees no lane overflows. */
  VecI
  ShiftLeft(int n) const
  {
    VecI r;
    for (int i = 0; i < kLanes; ++i) {
      r.lane[i] = static_cast<std::int32_t>(
          static_cast<std::uint32_t>(lane[i]) << n);
    }
    return r;
  }

  static VecI
  Max(VecI a, VecI b)
  {
    VecI r;
    for (int i = 0; i < kLanes; ++i) {
      r.lane[i] = a.lane[i] > b.lane[i] ? a.lane[i] : b.lane[i];
    }
    return r;
  }

  static VecI
  Min(VecI a, VecI b)
  {
    VecI r;
    for (int i = 0; i < kLanes; ++i) {
      r.lane[i] = a.lane[i] < b.lane[i] ? a.lane[i] : b.lane[i];
    }
    return r;
  }

  /** All-ones lane mask where lanes are equal. */
  VecI
  CmpEq(VecI o) const
  {
    VecI r;
    for (int i = 0; i < kLanes; ++i) {
      r.lane[i] = lane[i] == o.lane[i] ? -1 : 0;
    }
    return r;
  }

  /** All-ones lane mask where this lane is greater (signed). */
  VecI
  CmpGt(VecI o) const
  {
    VecI r;
    for (int i = 0; i < kLanes; ++i) {
      r.lane[i] = lane[i] > o.lane[i] ? -1 : 0;
    }
    return r;
  }

  /** Mask lane all-ones -> a, else b. */
  static VecI
  Select(VecI mask, VecI a, VecI b)
  {
    VecI r;
    for (int i = 0; i < kLanes; ++i) {
      r.lane[i] = (a.lane[i] & mask.lane[i]) | (b.lane[i] & ~mask.lane[i]);
    }
    return r;
  }

  /** Bit i set when lane i's sign bit is (mask lanes: all-ones). */
  unsigned
  MoveMask() const
  {
    unsigned bits = 0;
    for (int i = 0; i < kLanes; ++i) {
      bits |= lane[i] < 0 ? 1u << i : 0u;
    }
    return bits;
  }

  /** Lane i = base[idx[i]]. */
  static VecI
  Gather(const std::int32_t* base, VecI idx)
  {
    VecI r;
    for (int i = 0; i < kLanes; ++i) {
      r.lane[i] = base[idx.lane[i]];
    }
    return r;
  }

  /** Saturating a + b; *sat gets one bit per clamped lane. */
  static VecI
  AddSat(VecI a, VecI b, unsigned* sat)
  {
    VecI r;
    unsigned bits = 0;
    for (int i = 0; i < kLanes; ++i) {
      if (SaturateLane(static_cast<std::int64_t>(a.lane[i]) + b.lane[i],
                       &r.lane[i])) {
        bits |= 1u << i;
      }
    }
    *sat = bits;
    return r;
  }

  /** Saturating a - b; *sat gets one bit per clamped lane. */
  static VecI
  SubSat(VecI a, VecI b, unsigned* sat)
  {
    VecI r;
    unsigned bits = 0;
    for (int i = 0; i < kLanes; ++i) {
      if (SaturateLane(static_cast<std::int64_t>(a.lane[i]) - b.lane[i],
                       &r.lane[i])) {
        bits |= 1u << i;
      }
    }
    *sat = bits;
    return r;
  }

  /** Q16.16 a * b (MulQ16Lane per lane); *sat as for AddSat. */
  static VecI
  MulQ16(VecI a, VecI b, unsigned* sat)
  {
    VecI r;
    unsigned bits = 0;
    for (int i = 0; i < kLanes; ++i) {
      if (MulQ16Lane(a.lane[i], b.lane[i], &r.lane[i])) {
        bits |= 1u << i;
      }
    }
    *sat = bits;
    return r;
  }
};

}  // namespace generic

// ---------------------------------------------------------------------------
// sse2: the x86-64 baseline. 2 double / 4 float lanes.

#if defined(__SSE2__) || defined(_M_X64)
namespace sse2 {

struct VecD {
  static constexpr int kLanes = 2;
  __m128d v;

  static VecD Broadcast(double x) { return {_mm_set1_pd(x)}; }
  static VecD Zero() { return {_mm_setzero_pd()}; }
  static VecD Load(const double* p) { return {_mm_loadu_pd(p)}; }

  static VecD
  LoadPartial(const double* p, int n)
  {
    if (n >= kLanes) {
      return Load(p);
    }
    return {n == 1 ? _mm_load_sd(p) : _mm_setzero_pd()};
  }

  void Store(double* p) const { _mm_storeu_pd(p, v); }

  void
  StorePartial(double* p, int n) const
  {
    if (n >= kLanes) {
      Store(p);
    } else if (n == 1) {
      _mm_store_sd(p, v);
    }
  }

  VecD operator+(VecD o) const { return {_mm_add_pd(v, o.v)}; }
  VecD operator-(VecD o) const { return {_mm_sub_pd(v, o.v)}; }
  VecD operator*(VecD o) const { return {_mm_mul_pd(v, o.v)}; }

  static VecD
  MulAdd(VecD a, VecD b, VecD c)
  {
    return {_mm_add_pd(_mm_mul_pd(a.v, b.v), c.v)};
  }

  static VecD
  Gather(const double* base, const std::int64_t off[kLanes])
  {
    return {_mm_set_pd(base[off[1]], base[off[0]])};
  }

  VecD CmpEq(VecD o) const { return {_mm_cmpeq_pd(v, o.v)}; }

  static VecD
  Select(VecD mask, VecD a, VecD b)
  {
    return {_mm_or_pd(_mm_and_pd(mask.v, a.v),
                      _mm_andnot_pd(mask.v, b.v))};
  }
};

struct VecF {
  static constexpr int kLanes = 4;
  __m128 v;

  static VecF Broadcast(float x) { return {_mm_set1_ps(x)}; }
  static VecF Zero() { return {_mm_setzero_ps()}; }
  static VecF Load(const float* p) { return {_mm_loadu_ps(p)}; }

  static VecF
  LoadPartial(const float* p, int n)
  {
    if (n >= kLanes) {
      return Load(p);
    }
    alignas(16) float tmp[kLanes] = {0.0f, 0.0f, 0.0f, 0.0f};
    for (int i = 0; i < n; ++i) {
      tmp[i] = p[i];
    }
    return {_mm_load_ps(tmp)};
  }

  void Store(float* p) const { _mm_storeu_ps(p, v); }

  void
  StorePartial(float* p, int n) const
  {
    if (n >= kLanes) {
      Store(p);
      return;
    }
    alignas(16) float tmp[kLanes];
    _mm_store_ps(tmp, v);
    for (int i = 0; i < n; ++i) {
      p[i] = tmp[i];
    }
  }

  VecF operator+(VecF o) const { return {_mm_add_ps(v, o.v)}; }
  VecF operator-(VecF o) const { return {_mm_sub_ps(v, o.v)}; }
  VecF operator*(VecF o) const { return {_mm_mul_ps(v, o.v)}; }

  static VecF
  MulAdd(VecF a, VecF b, VecF c)
  {
    return {_mm_add_ps(_mm_mul_ps(a.v, b.v), c.v)};
  }

  static void
  Widen(VecF x, VecD* lo, VecD* hi)
  {
    lo->v = _mm_cvtps_pd(x.v);
    hi->v = _mm_cvtps_pd(_mm_movehl_ps(x.v, x.v));
  }

  static VecF
  Narrow(VecD lo, VecD hi)
  {
    return {_mm_movelh_ps(_mm_cvtpd_ps(lo.v), _mm_cvtpd_ps(hi.v))};
  }
};

struct VecI {
  static constexpr int kLanes = 4;
  __m128i v;

  static VecI Broadcast(std::int32_t x) { return {_mm_set1_epi32(x)}; }
  static VecI Zero() { return {_mm_setzero_si128()}; }

  static VecI
  Load(const std::int32_t* p)
  {
    return {_mm_loadu_si128(reinterpret_cast<const __m128i*>(p))};
  }

  static VecI
  LoadPartial(const std::int32_t* p, int n)
  {
    if (n >= kLanes) {
      return Load(p);
    }
    alignas(16) std::int32_t tmp[kLanes] = {0, 0, 0, 0};
    std::memcpy(tmp, p, static_cast<std::size_t>(n) * sizeof(*p));
    return Load(tmp);
  }

  void
  Store(std::int32_t* p) const
  {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(p), v);
  }

  void
  StorePartial(std::int32_t* p, int n) const
  {
    if (n >= kLanes) {
      Store(p);
      return;
    }
    alignas(16) std::int32_t tmp[kLanes];
    Store(tmp);
    std::memcpy(p, tmp, static_cast<std::size_t>(n) * sizeof(*p));
  }

  VecI operator-(VecI o) const { return {_mm_sub_epi32(v, o.v)}; }
  VecI operator&(VecI o) const { return {_mm_and_si128(v, o.v)}; }

  VecI
  ShiftRightArith(int n) const
  {
    return {_mm_sra_epi32(v, _mm_cvtsi32_si128(n))};
  }

  VecI
  ShiftLeft(int n) const
  {
    return {_mm_sll_epi32(v, _mm_cvtsi32_si128(n))};
  }

  VecI CmpEq(VecI o) const { return {_mm_cmpeq_epi32(v, o.v)}; }
  VecI CmpGt(VecI o) const { return {_mm_cmpgt_epi32(v, o.v)}; }

  static VecI
  Select(VecI mask, VecI a, VecI b)
  {
    return {_mm_or_si128(_mm_and_si128(mask.v, a.v),
                         _mm_andnot_si128(mask.v, b.v))};
  }

  // SSE2 has no pmaxsd/pminsd (SSE4.1): compare and blend.
  static VecI Max(VecI a, VecI b) { return Select(a.CmpGt(b), a, b); }
  static VecI Min(VecI a, VecI b) { return Select(a.CmpGt(b), b, a); }

  unsigned
  MoveMask() const
  {
    return static_cast<unsigned>(_mm_movemask_ps(_mm_castsi128_ps(v)));
  }

  static VecI
  Gather(const std::int32_t* base, VecI idx)
  {
    alignas(16) std::int32_t off[kLanes];
    idx.Store(off);
    return {_mm_setr_epi32(base[off[0]], base[off[1]], base[off[2]],
                           base[off[3]])};
  }

  /**
   * Saturating a + b: the wrapped sum overflowed exactly where it
   * differs in sign from both operands; those lanes take INT32_MAX or
   * INT32_MIN by a's sign.
   */
  static VecI
  AddSat(VecI a, VecI b, unsigned* sat)
  {
    const __m128i s = _mm_add_epi32(a.v, b.v);
    const __m128i ov =
        _mm_and_si128(_mm_xor_si128(s, a.v), _mm_xor_si128(s, b.v));
    return Clamped(a, s, ov, sat);
  }

  /** Saturating a - b (overflow: a, b differ in sign, s differs from a). */
  static VecI
  SubSat(VecI a, VecI b, unsigned* sat)
  {
    const __m128i s = _mm_sub_epi32(a.v, b.v);
    const __m128i ov =
        _mm_and_si128(_mm_xor_si128(a.v, b.v), _mm_xor_si128(a.v, s));
    return Clamped(a, s, ov, sat);
  }

  /**
   * Q16.16 a * b. SSE2 has no signed 32x32->64 multiply
   * (_mm_mul_epi32 is SSE4.1), so this baseline goes per lane: the
   * sse2 backend is held to exactness, not speed.
   */
  static VecI
  MulQ16(VecI a, VecI b, unsigned* sat)
  {
    alignas(16) std::int32_t x[kLanes];
    alignas(16) std::int32_t y[kLanes];
    a.Store(x);
    b.Store(y);
    unsigned bits = 0;
    for (int i = 0; i < kLanes; ++i) {
      if (generic::MulQ16Lane(x[i], y[i], &x[i])) {
        bits |= 1u << i;
      }
    }
    *sat = bits;
    return Load(x);
  }

  /** AddSat/SubSat tail: lanes whose `ov` sign bit is set (rare)
      take INT32_MAX or INT32_MIN by a's sign, the rest keep s. */
  static VecI
  Clamped(VecI a, __m128i s, __m128i ov, unsigned* sat)
  {
    *sat = static_cast<unsigned>(_mm_movemask_ps(_mm_castsi128_ps(ov)));
    if (*sat == 0) {
      return {s};
    }
    const __m128i limit = _mm_xor_si128(_mm_srai_epi32(a.v, 31),
                                        _mm_set1_epi32(INT32_MAX));
    return Select({_mm_srai_epi32(ov, 31)}, {limit}, {s});
  }
};

}  // namespace sse2
#endif  // __SSE2__

// ---------------------------------------------------------------------------
// avx2: 4 double / 8 float lanes, hardware gather and masked tails.

#if defined(__AVX2__)
namespace avx2 {

/** Lane mask with the first n of `lanes` 64-bit lanes active. */
inline __m256i
TailMask64(int n)
{
  const __m256i iota = _mm256_setr_epi64x(0, 1, 2, 3);
  return _mm256_cmpgt_epi64(_mm256_set1_epi64x(n), iota);
}

/** Lane mask with the first n of `lanes` 32-bit lanes active. */
inline __m256i
TailMask32(int n)
{
  const __m256i iota = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  return _mm256_cmpgt_epi32(_mm256_set1_epi32(n), iota);
}

struct VecD {
  static constexpr int kLanes = 4;
  __m256d v;

  static VecD Broadcast(double x) { return {_mm256_set1_pd(x)}; }
  static VecD Zero() { return {_mm256_setzero_pd()}; }
  static VecD Load(const double* p) { return {_mm256_loadu_pd(p)}; }

  static VecD
  LoadPartial(const double* p, int n)
  {
    if (n >= kLanes) {
      return Load(p);
    }
    return {_mm256_maskload_pd(p, TailMask64(n))};
  }

  void Store(double* p) const { _mm256_storeu_pd(p, v); }

  void
  StorePartial(double* p, int n) const
  {
    if (n >= kLanes) {
      Store(p);
    } else {
      _mm256_maskstore_pd(p, TailMask64(n), v);
    }
  }

  VecD operator+(VecD o) const { return {_mm256_add_pd(v, o.v)}; }
  VecD operator-(VecD o) const { return {_mm256_sub_pd(v, o.v)}; }
  VecD operator*(VecD o) const { return {_mm256_mul_pd(v, o.v)}; }

  /**
   * Two-rounding multiply-add. Explicit mul/add intrinsics are never
   * contracted by the compiler (and the simd TUs compile with
   * -ffp-contract=off), so this stays bit-identical to scalar code.
   */
  static VecD
  MulAdd(VecD a, VecD b, VecD c)
  {
    return {_mm256_add_pd(_mm256_mul_pd(a.v, b.v), c.v)};
  }

  static VecD
  Gather(const double* base, const std::int64_t off[kLanes])
  {
    const __m256i idx =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(off));
    return {_mm256_i64gather_pd(base, idx, sizeof(double))};
  }

  VecD CmpEq(VecD o) const { return {_mm256_cmp_pd(v, o.v, _CMP_EQ_OQ)}; }

  static VecD
  Select(VecD mask, VecD a, VecD b)
  {
    return {_mm256_blendv_pd(b.v, a.v, mask.v)};
  }
};

struct VecF {
  static constexpr int kLanes = 8;
  __m256 v;

  static VecF Broadcast(float x) { return {_mm256_set1_ps(x)}; }
  static VecF Zero() { return {_mm256_setzero_ps()}; }
  static VecF Load(const float* p) { return {_mm256_loadu_ps(p)}; }

  static VecF
  LoadPartial(const float* p, int n)
  {
    if (n >= kLanes) {
      return Load(p);
    }
    return {_mm256_maskload_ps(p, TailMask32(n))};
  }

  void Store(float* p) const { _mm256_storeu_ps(p, v); }

  void
  StorePartial(float* p, int n) const
  {
    if (n >= kLanes) {
      Store(p);
    } else {
      _mm256_maskstore_ps(p, TailMask32(n), v);
    }
  }

  VecF operator+(VecF o) const { return {_mm256_add_ps(v, o.v)}; }
  VecF operator-(VecF o) const { return {_mm256_sub_ps(v, o.v)}; }
  VecF operator*(VecF o) const { return {_mm256_mul_ps(v, o.v)}; }

  static VecF
  MulAdd(VecF a, VecF b, VecF c)
  {
    return {_mm256_add_ps(_mm256_mul_ps(a.v, b.v), c.v)};
  }

  static void
  Widen(VecF x, VecD* lo, VecD* hi)
  {
    lo->v = _mm256_cvtps_pd(_mm256_castps256_ps128(x.v));
    hi->v = _mm256_cvtps_pd(_mm256_extractf128_ps(x.v, 1));
  }

  static VecF
  Narrow(VecD lo, VecD hi)
  {
    return {_mm256_set_m128(_mm256_cvtpd_ps(hi.v),
                            _mm256_cvtpd_ps(lo.v))};
  }
};

struct VecI {
  static constexpr int kLanes = 8;
  __m256i v;

  static VecI Broadcast(std::int32_t x) { return {_mm256_set1_epi32(x)}; }
  static VecI Zero() { return {_mm256_setzero_si256()}; }

  static VecI
  Load(const std::int32_t* p)
  {
    return {_mm256_loadu_si256(reinterpret_cast<const __m256i*>(p))};
  }

  static VecI
  LoadPartial(const std::int32_t* p, int n)
  {
    if (n >= kLanes) {
      return Load(p);
    }
    return {_mm256_maskload_epi32(reinterpret_cast<const int*>(p),
                                  TailMask32(n))};
  }

  void
  Store(std::int32_t* p) const
  {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
  }

  void
  StorePartial(std::int32_t* p, int n) const
  {
    if (n >= kLanes) {
      Store(p);
    } else {
      _mm256_maskstore_epi32(reinterpret_cast<int*>(p), TailMask32(n), v);
    }
  }

  VecI operator-(VecI o) const { return {_mm256_sub_epi32(v, o.v)}; }
  VecI operator&(VecI o) const { return {_mm256_and_si256(v, o.v)}; }

  VecI
  ShiftRightArith(int n) const
  {
    return {_mm256_sra_epi32(v, _mm_cvtsi32_si128(n))};
  }

  VecI
  ShiftLeft(int n) const
  {
    return {_mm256_sll_epi32(v, _mm_cvtsi32_si128(n))};
  }

  static VecI Max(VecI a, VecI b) { return {_mm256_max_epi32(a.v, b.v)}; }
  static VecI Min(VecI a, VecI b) { return {_mm256_min_epi32(a.v, b.v)}; }
  VecI CmpEq(VecI o) const { return {_mm256_cmpeq_epi32(v, o.v)}; }
  VecI CmpGt(VecI o) const { return {_mm256_cmpgt_epi32(v, o.v)}; }

  static VecI
  Select(VecI mask, VecI a, VecI b)
  {
    return {_mm256_blendv_epi8(b.v, a.v, mask.v)};
  }

  unsigned
  MoveMask() const
  {
    return static_cast<unsigned>(
        _mm256_movemask_ps(_mm256_castsi256_ps(v)));
  }

  static VecI
  Gather(const std::int32_t* base, VecI idx)
  {
    return {_mm256_i32gather_epi32(reinterpret_cast<const int*>(base),
                                   idx.v, sizeof(std::int32_t))};
  }

  /** Saturating a + b (see the sse2 flavor for the overflow test). */
  static VecI
  AddSat(VecI a, VecI b, unsigned* sat)
  {
    const __m256i s = _mm256_add_epi32(a.v, b.v);
    const __m256i ov = _mm256_and_si256(_mm256_xor_si256(s, a.v),
                                        _mm256_xor_si256(s, b.v));
    return Clamped(a, s, ov, sat);
  }

  /** Saturating a - b. */
  static VecI
  SubSat(VecI a, VecI b, unsigned* sat)
  {
    const __m256i s = _mm256_sub_epi32(a.v, b.v);
    const __m256i ov = _mm256_and_si256(_mm256_xor_si256(a.v, b.v),
                                        _mm256_xor_si256(a.v, s));
    return Clamped(a, s, ov, sat);
  }

  /**
   * Q16.16 a * b, bit-identical to Fixed32::operator*. Even and odd
   * lanes multiply separately into signed 64-bit products p. The
   * rounded, zero-truncated quotient (p +- 2^15) / 2^16 equals the
   * floor (p + 2^15 - [p < 0]) >> 16, so one add serves both signs;
   * AVX2 has no 64-bit arithmetic shift, but the low 32 result bits
   * are bits 16..47 of that sum q whichever shift is used. The
   * quotient fits int32 exactly when q lies in [-2^47, 2^47), i.e.
   * when q + 2^47 has no bit above 47 — one test for all lanes.
   * Clamped lanes (rare) take the limit of the product's sign, a's
   * sign xor b's.
   */
  static VecI
  MulQ16(VecI a, VecI b, unsigned* sat)
  {
    const __m256i half = _mm256_set1_epi64x(32768);
    const auto round = [&half](__m256i p) {
      return _mm256_sub_epi64(_mm256_add_epi64(p, half),
                              _mm256_srli_epi64(p, 63));
    };
    const __m256i qe = round(_mm256_mul_epi32(a.v, b.v));
    const __m256i qo = round(_mm256_mul_epi32(_mm256_srli_epi64(a.v, 32),
                                              _mm256_srli_epi64(b.v, 32)));
    // Even quotients sit in the low dword after >> 16, odd ones in the
    // high dword after << 16.
    const __m256i q = _mm256_blend_epi32(_mm256_srli_epi64(qe, 16),
                                         _mm256_slli_epi64(qo, 16), 0xAA);
    const __m256i bias = _mm256_set1_epi64x(std::int64_t{1} << 47);
    const __m256i be = _mm256_add_epi64(qe, bias);
    const __m256i bo = _mm256_add_epi64(qo, bias);
    const __m256i above_47 = _mm256_set1_epi64x(
        static_cast<std::int64_t>(0xFFFF000000000000ull));
    if (_mm256_testz_si256(_mm256_or_si256(be, bo), above_47) != 0) {
      *sat = 0;
      return {q};
    }
    // Per lane: the biased sum's bits 48..63, in that lane's dword.
    const __m256i out = _mm256_blend_epi32(
        _mm256_srli_epi64(be, 48),
        _mm256_slli_epi64(_mm256_srli_epi64(bo, 48), 32), 0xAA);
    const __m256i fits = _mm256_cmpeq_epi32(out, _mm256_setzero_si256());
    *sat = ~static_cast<unsigned>(
               _mm256_movemask_ps(_mm256_castsi256_ps(fits))) & 0xffu;
    const __m256i limit =
        _mm256_xor_si256(_mm256_srai_epi32(_mm256_xor_si256(a.v, b.v), 31),
                         _mm256_set1_epi32(INT32_MAX));
    return {_mm256_blendv_epi8(limit, q, fits)};
  }

  /** AddSat/SubSat tail: lanes whose `ov` sign bit is set (rare)
      take INT32_MAX or INT32_MIN by a's sign, the rest keep s. */
  static VecI
  Clamped(VecI a, __m256i s, __m256i ov, unsigned* sat)
  {
    if (_mm256_testz_si256(ov, _mm256_set1_epi32(INT32_MIN)) != 0) {
      *sat = 0;
      return {s};
    }
    *sat = static_cast<unsigned>(
        _mm256_movemask_ps(_mm256_castsi256_ps(ov)));
    const __m256i limit = _mm256_xor_si256(_mm256_srai_epi32(a.v, 31),
                                           _mm256_set1_epi32(INT32_MAX));
    return {_mm256_castps_si256(_mm256_blendv_ps(
        _mm256_castsi256_ps(s), _mm256_castsi256_ps(limit),
        _mm256_castsi256_ps(ov)))};
  }
};

}  // namespace avx2
#endif  // __AVX2__

// ---------------------------------------------------------------------------
// neon: aarch64. 2 double / 4 float lanes.

#if defined(__ARM_NEON) && defined(__aarch64__)
namespace neon {

struct VecD {
  static constexpr int kLanes = 2;
  float64x2_t v;

  static VecD Broadcast(double x) { return {vdupq_n_f64(x)}; }
  static VecD Zero() { return {vdupq_n_f64(0.0)}; }
  static VecD Load(const double* p) { return {vld1q_f64(p)}; }

  static VecD
  LoadPartial(const double* p, int n)
  {
    if (n >= kLanes) {
      return Load(p);
    }
    VecD r = Zero();
    if (n == 1) {
      r.v = vld1q_lane_f64(p, r.v, 0);
    }
    return r;
  }

  void Store(double* p) const { vst1q_f64(p, v); }

  void
  StorePartial(double* p, int n) const
  {
    if (n >= kLanes) {
      Store(p);
    } else if (n == 1) {
      vst1q_lane_f64(p, v, 0);
    }
  }

  VecD operator+(VecD o) const { return {vaddq_f64(v, o.v)}; }
  VecD operator-(VecD o) const { return {vsubq_f64(v, o.v)}; }
  VecD operator*(VecD o) const { return {vmulq_f64(v, o.v)}; }

  static VecD
  MulAdd(VecD a, VecD b, VecD c)
  {
    // vaddq(vmulq) keeps two roundings; vfmaq would fuse.
    return {vaddq_f64(vmulq_f64(a.v, b.v), c.v)};
  }

  static VecD
  Gather(const double* base, const std::int64_t off[kLanes])
  {
    double tmp[kLanes] = {base[off[0]], base[off[1]]};
    return Load(tmp);
  }

  VecD
  CmpEq(VecD o) const
  {
    return {vreinterpretq_f64_u64(vceqq_f64(v, o.v))};
  }

  static VecD
  Select(VecD mask, VecD a, VecD b)
  {
    return {vbslq_f64(vreinterpretq_u64_f64(mask.v), a.v, b.v)};
  }
};

struct VecF {
  static constexpr int kLanes = 4;
  float32x4_t v;

  static VecF Broadcast(float x) { return {vdupq_n_f32(x)}; }
  static VecF Zero() { return {vdupq_n_f32(0.0f)}; }
  static VecF Load(const float* p) { return {vld1q_f32(p)}; }

  static VecF
  LoadPartial(const float* p, int n)
  {
    if (n >= kLanes) {
      return Load(p);
    }
    float tmp[kLanes] = {0.0f, 0.0f, 0.0f, 0.0f};
    for (int i = 0; i < n; ++i) {
      tmp[i] = p[i];
    }
    return Load(tmp);
  }

  void Store(float* p) const { vst1q_f32(p, v); }

  void
  StorePartial(float* p, int n) const
  {
    if (n >= kLanes) {
      Store(p);
      return;
    }
    float tmp[kLanes];
    Store(tmp);
    for (int i = 0; i < n; ++i) {
      p[i] = tmp[i];
    }
  }

  VecF operator+(VecF o) const { return {vaddq_f32(v, o.v)}; }
  VecF operator-(VecF o) const { return {vsubq_f32(v, o.v)}; }
  VecF operator*(VecF o) const { return {vmulq_f32(v, o.v)}; }

  static VecF
  MulAdd(VecF a, VecF b, VecF c)
  {
    return {vaddq_f32(vmulq_f32(a.v, b.v), c.v)};
  }

  static void
  Widen(VecF x, VecD* lo, VecD* hi)
  {
    lo->v = vcvt_f64_f32(vget_low_f32(x.v));
    hi->v = vcvt_f64_f32(vget_high_f32(x.v));
  }

  static VecF
  Narrow(VecD lo, VecD hi)
  {
    return {vcombine_f32(vcvt_f32_f64(lo.v), vcvt_f32_f64(hi.v))};
  }
};

// The Q16.16 lanes use the portable generic type on aarch64.
using VecI = generic::VecI;

}  // namespace neon
#endif  // __ARM_NEON && __aarch64__

}  // namespace vec
}  // namespace cenn

#endif  // CENN_KERNELS_VEC_H_
