// The avx2 VecI lane ops for SimdFuzzTest.LaneOpsMatchFixed32. Built
// with -mavx2; the test calls in only after a runtime CPU probe.

#include "kernels/vec.h"
#include "simd_lane_ops.h"

namespace cenn::lane_ops {

Backend
Avx2Backend()
{
  return BackendOf<vec::avx2::VecI>("avx2");
}

}  // namespace cenn::lane_ops
