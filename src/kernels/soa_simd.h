#ifndef CENN_KERNELS_SOA_SIMD_H_
#define CENN_KERNELS_SOA_SIMD_H_

/**
 * @file
 * The simd KernelPath: explicitly vectorized row-band stepping
 * kernels over the compiled tap plans, with runtime CPU-feature
 * dispatch.
 *
 * The kernels themselves live in soa_simd_impl.h and are compiled
 * once per ISA into separate translation units (each in its own
 * namespace, so a TU built with -mavx2 can never leak AVX2 code into
 * a baseline build): soa_simd_x86_avx2.cc, soa_simd_x86_sse2.cc,
 * soa_simd_neon.cc and soa_simd_generic.cc. soa_simd.cc probes the
 * CPU once per process and publishes the best available entry points
 * here; SoaEngine calls through the returned function pointer.
 *
 * Dispatch order: avx2 > sse2 (x86-64), neon (aarch64), generic
 * (everything else). CENN_SIMD_ISA=auto|avx2|sse2|neon|generic
 * overrides the probe; naming an ISA the CPU or build does not
 * support is fatal, as is an unknown value.
 *
 * Every precision has vector kernels: double and float lanes, and
 * Q16.16 int32 lanes for Fixed32 (saturating ops, exact saturation
 * counts and packed Q16.16 LUT gathers — bit-identical to the scalar
 * path, see docs/kernels.md).
 */

#include <cstddef>
#include <vector>

#include "core/network_spec.h"
#include "kernels/kernel_plan.h"
#include "kernels/soa_field.h"

namespace cenn {

/**
 * Everything one band step needs, passed by reference into the
 * ISA-specific kernels. All pointers outlive the call (they alias
 * SoaEngine members).
 */
template <typename T>
struct SimdStepView {
  const NetworkSpec* spec = nullptr;
  const std::vector<LayerPlan<T>>* plans = nullptr;
  const SoaField<T>* state = nullptr;
  SoaField<T>* next_state = nullptr;
  const SoaField<T>* input = nullptr;
  const SoaField<T>* output = nullptr;
  T dt{};
  T one{};
  T bval{};  ///< Dirichlet boundary value
};

/** Computes next_state rows [row_begin, row_end) from the view. */
template <typename T>
using SimdStepFn = void (*)(const SimdStepView<T>&, std::size_t,
                            std::size_t);

/**
 * The dispatched step kernel for T (double, float or Fixed32). Probes
 * the CPU on first use; thread-safe.
 */
template <typename T>
SimdStepFn<T> SimdStepFor();

template <>
SimdStepFn<double> SimdStepFor<double>();
template <>
SimdStepFn<float> SimdStepFor<float>();
template <>
SimdStepFn<Fixed32> SimdStepFor<Fixed32>();

/** Name of the dispatched ISA: "avx2", "sse2", "neon" or "generic". */
const char* SimdIsaName();

/** Double lanes per iteration of the dispatched kernels (2-4). */
int SimdLanesDouble();

/** Float lanes per iteration of the dispatched kernels (4-8). */
int SimdLanesFloat();

/** Q16.16 (int32) lanes per iteration of the dispatched kernels (4-8). */
int SimdLanesInt32();

// Per-ISA entry points (defined by the soa_simd_*.cc TUs; declared
// here so the dispatcher can reference them without target flags).
#define CENN_DECLARE_SIMD_ENTRIES(ns)                                      \
  namespace ns {                                                           \
  void StepRowsD(const SimdStepView<double>& view, std::size_t row_begin,  \
                 std::size_t row_end);                                     \
  void StepRowsF(const SimdStepView<float>& view, std::size_t row_begin,   \
                 std::size_t row_end);                                     \
  void StepRowsQ(const SimdStepView<Fixed32>& view, std::size_t row_begin, \
                 std::size_t row_end);                                     \
  int LanesD();                                                            \
  int LanesF();                                                            \
  int LanesI();                                                            \
  }

CENN_DECLARE_SIMD_ENTRIES(simd_generic)
#if defined(__x86_64__) || defined(_M_X64)
CENN_DECLARE_SIMD_ENTRIES(simd_sse2)
CENN_DECLARE_SIMD_ENTRIES(simd_avx2)
#endif
#if defined(__aarch64__)
CENN_DECLARE_SIMD_ENTRIES(simd_neon)
#endif

#undef CENN_DECLARE_SIMD_ENTRIES

}  // namespace cenn

#endif  // CENN_KERNELS_SOA_SIMD_H_
