#include "kernels/soa_simd.h"

#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "fixed/fixed32.h"
#include "util/logging.h"

namespace cenn {
namespace {

/** One compiled ISA backend's entry points. */
struct SimdBackend {
  const char* isa;
  SimdStepFn<double> step_d;
  SimdStepFn<float> step_f;
  SimdStepFn<Fixed32> step_q;
  int lanes_d;
  int lanes_f;
  int lanes_i;
};

/** The entry points one soa_simd_*.cc TU exports, as a backend. */
#define CENN_SIMD_BACKEND(name, ns)                                     \
  SimdBackend{name, &ns::StepRowsD, &ns::StepRowsF, &ns::StepRowsQ,     \
              ns::LanesD(), ns::LanesF(), ns::LanesI()}

/**
 * Backends this build carries AND this CPU can run, ordered worst to
 * best: generic, then the baseline ISA (sse2/neon), then the wider
 * x86 ISAs (avx2, avx512), each only after a runtime CPU probe.
 * avx512 needs all four of the extensions its TU is built with.
 */
std::vector<SimdBackend>
AvailableBackends()
{
  std::vector<SimdBackend> avail;
  avail.push_back(CENN_SIMD_BACKEND("generic", simd_generic));
#if defined(__x86_64__) || defined(_M_X64)
  avail.push_back(CENN_SIMD_BACKEND("sse2", simd_sse2));
#if defined(__GNUC__) || defined(__clang__)
  if (__builtin_cpu_supports("avx2")) {
    avail.push_back(CENN_SIMD_BACKEND("avx2", simd_avx2));
  }
  if (__builtin_cpu_supports("avx512f") &&
      __builtin_cpu_supports("avx512dq") &&
      __builtin_cpu_supports("avx512bw") &&
      __builtin_cpu_supports("avx512vl")) {
    avail.push_back(CENN_SIMD_BACKEND("avx512", simd_avx512));
  }
#endif
#endif
#if defined(__aarch64__)
  avail.push_back(CENN_SIMD_BACKEND("neon", simd_neon));
#endif
  return avail;
}

#undef CENN_SIMD_BACKEND

/**
 * Probes once per process: the widest available backend, unless
 * CENN_SIMD_ISA forces one. Forcing an ISA the CPU or build cannot
 * run (or a name that is not an ISA) is fatal — a silent fallback
 * would benchmark or debug the wrong kernels.
 */
const SimdBackend&
PickBackend()
{
  static const SimdBackend chosen = [] {
    const std::vector<SimdBackend> avail = AvailableBackends();
    const char* env = std::getenv("CENN_SIMD_ISA");
    if (env == nullptr || *env == '\0' || std::strcmp(env, "auto") == 0) {
      return avail.back();
    }
    for (const SimdBackend& b : avail) {
      if (std::strcmp(env, b.isa) == 0) {
        return b;
      }
    }
    std::string valid = "auto";
    for (const SimdBackend& b : avail) {
      valid += ", ";
      valid += b.isa;
    }
    CENN_FATAL("CENN_SIMD_ISA='", env, "' is not available on this "
               "build/CPU (valid: ", valid, ")");
    return avail.front();  // unreachable
  }();
  return chosen;
}

}  // namespace

bool
SimdIsaSupported(const char* isa)
{
  for (const SimdBackend& b : AvailableBackends()) {
    if (std::strcmp(isa, b.isa) == 0) {
      return true;
    }
  }
  return false;
}

const char*
SimdIsaName()
{
  return PickBackend().isa;
}

int
SimdLanesDouble()
{
  return PickBackend().lanes_d;
}

int
SimdLanesFloat()
{
  return PickBackend().lanes_f;
}

int
SimdLanesInt32()
{
  return PickBackend().lanes_i;
}

template <>
SimdStepFn<double>
SimdStepFor<double>()
{
  return PickBackend().step_d;
}

template <>
SimdStepFn<float>
SimdStepFor<float>()
{
  return PickBackend().step_f;
}

template <>
SimdStepFn<Fixed32>
SimdStepFor<Fixed32>()
{
  return PickBackend().step_q;
}

}  // namespace cenn
