#ifndef CENN_KERNELS_KERNEL_PATH_H_
#define CENN_KERNELS_KERNEL_PATH_H_

/**
 * @file
 * Runtime dispatch between the SoA engine's stepping implementations.
 *
 * kScalar is the cell-by-cell reference walk over the compiled plans;
 * kBlocked is the fused row-band path (tap-outer, column-inner loops
 * the compiler can vectorize); kSimd is the explicitly vectorized
 * path (kernels/vec.h wrappers, 2-8 cells per iteration, runtime
 * CPU-feature dispatch — see docs/kernels.md).
 *
 * Exactness: kScalar and kBlocked execute the identical per-cell
 * operation sequence, so their results are bit-identical. kSimd is
 * bit-identical for Fixed32 (saturating Q16.16 int32 lanes: integer
 * ops do not round, and saturation and LUT counts match too) and
 * ULP-bounded for float/double: the same per-cell operation sequence
 * with at most per-tap FMA contraction allowed, never reassociation,
 * giving a <= 4 ULP contract enforced by the differential fuzz sweep
 * in tests/test_kernels.cc. The current kernels use separate
 * multiply/add throughout, so in practice all three paths match
 * bit-for-bit today; the contract leaves room for FMA.
 *
 * kAuto resolves to kSimd at every precision, so the default path is
 * the fast one; kBlocked stays selectable as the benchmark baseline.
 */

#include <cstdint>

namespace cenn {

/** Stepping implementation selector for SoaEngine. */
enum class KernelPath : std::uint8_t {
  kAuto = 0,     ///< simd, unless CENN_KERNEL_PATH overrides it
  kScalar = 1,   ///< cell-by-cell reference walk
  kBlocked = 2,  ///< fused, vectorization-friendly row kernels
  kSimd = 3,     ///< explicit vector kernels (vec.h, CPU dispatch)
};

/** Returns "auto" / "scalar" / "blocked" / "simd". */
const char* KernelPathName(KernelPath path);

/**
 * Resolves `requested` to a concrete path: kAuto becomes kSimd (the
 * fastest path, bit-identical to the functional reference for Fixed32
 * and, with today's kernels, for float and double too), and the
 * CENN_KERNEL_PATH environment variable
 * ("scalar", "blocked" or "simd"), when set, overrides any request —
 * the escape hatch for A/B-ing a suspected kernel bug without
 * rebuilding. A CENN_KERNEL_PATH value that is not a known path is
 * fatal: a silent fallback would time or debug the wrong kernels.
 */
KernelPath ResolveKernelPath(KernelPath requested);

/** Parses "auto" / "scalar" / "blocked" / "simd"; false otherwise. */
bool ParseKernelPath(const char* text, KernelPath* out);

/** "auto|scalar|blocked|simd" — for flag help and error messages. */
extern const char kKernelPathChoices[];

}  // namespace cenn

#endif  // CENN_KERNELS_KERNEL_PATH_H_
