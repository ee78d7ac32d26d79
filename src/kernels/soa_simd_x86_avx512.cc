// AVX-512 instantiation of the simd kernels. This TU (and only this
// TU) is compiled with -mavx512f -mavx512dq -mavx512bw -mavx512vl;
// its symbols live in their own namespace so no AVX-512 code can leak
// into the other paths, and the dispatcher only selects it after
// __builtin_cpu_supports reports all four features.

#if defined(__x86_64__) || defined(_M_X64)

#if !defined(__AVX512F__) || !defined(__AVX512DQ__) || \
    !defined(__AVX512BW__) || !defined(__AVX512VL__)
#error "soa_simd_x86_avx512.cc must be compiled with -mavx512{f,dq,bw,vl}"
#endif

// GCC 12's avx512fintrin.h trips false -Wuninitialized and
// -Wmaybe-uninitialized warnings inside _mm512_mul_epi32, the shifts,
// min/max and the gathers (GCC bug 105593, fixed in GCC 13), which
// -Werror builds turn into errors. The intrinsics initialize every
// lane they return; only this TU includes them with AVX-512 enabled.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

#define CENN_SIMD_NS simd_avx512
#define CENN_SIMD_VEC_NS ::cenn::vec::avx512
#include "kernels/soa_simd_impl.h"

#endif  // x86-64
