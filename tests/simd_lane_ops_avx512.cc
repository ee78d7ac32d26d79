// The avx512 VecI lane ops for SimdFuzzTest.LaneOpsMatchFixed32. Built
// with -mavx512{f,dq,bw,vl}; the test calls in only after a runtime
// CPU probe.

// GCC 12's false -Wuninitialized/-Wmaybe-uninitialized in
// avx512fintrin.h (GCC bug 105593; see soa_simd_x86_avx512.cc).
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

#include "kernels/vec.h"
#include "simd_lane_ops.h"

namespace cenn::lane_ops {

Backend
Avx512Backend()
{
  return BackendOf<vec::avx512::VecI>("avx512");
}

}  // namespace cenn::lane_ops
