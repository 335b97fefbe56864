// simd.h — the name of the vector ISA the compiler targets.
//
// The sweep kernels (sim/sweep_kernels.h) are plain loops, so the vector
// code they run follows from the target flags alone. This name stamps
// benchmark runs and bench reports with that target, so numbers from
// "-march=x86-64" and "-march=x86-64-v3" builds are not compared as if
// they were one machine.
#pragma once

namespace cl::simd {

#if defined(__AVX2__)
inline constexpr const char* kBackendName = "avx2";
#elif defined(__SSE2__) || defined(_M_X64) || \
    (defined(_M_IX86_FP) && _M_IX86_FP >= 2)
inline constexpr const char* kBackendName = "sse2";
#elif defined(__aarch64__) && defined(__ARM_NEON)
inline constexpr const char* kBackendName = "neon";
#else
inline constexpr const char* kBackendName = "scalar";
#endif

}  // namespace cl::simd
