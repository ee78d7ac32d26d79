#ifndef CENN_TESTS_SIMD_LANE_OPS_H_
#define CENN_TESTS_SIMD_LANE_OPS_H_

/**
 * @file
 * The Q16.16 lane ops of one kernels/vec.h VecI backend applied to
 * plain arrays, so SimdFuzzTest.LaneOpsMatchFixed32 can check every
 * backend against Fixed32 from baseline code. The avx2 and avx512
 * backends are applied in their own TUs (simd_lane_ops_avx2.cc,
 * simd_lane_ops_avx512.cc), built with those target flags and called
 * only after a runtime CPU probe; nothing else is compiled there.
 */

#include <cstdint>

namespace cenn::lane_ops {

/** Lanes of the widest backend: the stride of the arrays below. */
constexpr int kMaxLanes = 16;

/**
 * Applies AddSat, SubSat and MulQ16 (op 0, 1, 2) to lanes a[l], b[l]:
 * out[op * kMaxLanes + l] gets the word, bit l of sat[op] whether the
 * lane clamped.
 */
using ApplyFn = void (*)(const std::int32_t* a, const std::int32_t* b,
                         std::int32_t* out, unsigned* sat);

/** One backend's lane count and ops. */
struct Backend {
  const char* isa;
  int lanes;
  ApplyFn apply;
};

template <typename VecI>
void
Apply(const std::int32_t* a, const std::int32_t* b, std::int32_t* out,
      unsigned* sat)
{
  static_assert(VecI::kLanes <= kMaxLanes);
  const VecI va = VecI::Load(a);
  const VecI vb = VecI::Load(b);
  VecI::AddSat(va, vb, &sat[0]).Store(out);
  VecI::SubSat(va, vb, &sat[1]).Store(out + kMaxLanes);
  VecI::MulQ16(va, vb, &sat[2]).Store(out + 2 * kMaxLanes);
}

template <typename VecI>
Backend
BackendOf(const char* isa)
{
  return {isa, VecI::kLanes, &Apply<VecI>};
}

#if defined(__x86_64__) || defined(_M_X64)
/** The avx2 and avx512 backends; run them only where the CPU can. */
Backend Avx2Backend();
Backend Avx512Backend();
#endif

}  // namespace cenn::lane_ops

#endif  // CENN_TESTS_SIMD_LANE_OPS_H_
