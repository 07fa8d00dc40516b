// Runtime SIMD dispatch shared by the vectorized hot paths — the
// replica band (replica_band.hpp) and the step pipeline's speculative
// window gather (step_pipeline.hpp).
//
// One rule, queried at construction time by every engine: the AVX2
// paths engage only when the CPU reports AVX2 and the operator has not
// set SOPS_FORCE_SCALAR (the CI fallback tier re-runs the equivalence
// suites with it set, pinning that every scalar path produces the same
// bytes). Non-x86 builds resolve to false at compile time.
#pragma once

#include <cstdlib>

namespace sops::core::detail {

[[nodiscard]] inline bool simd_runtime_enabled() noexcept {
#if defined(__x86_64__) || defined(_M_X64)
  return __builtin_cpu_supports("avx2") &&
         std::getenv("SOPS_FORCE_SCALAR") == nullptr;
#else
  return false;
#endif
}

/// AVX-512 Foundation: gates the band's 8-lane-wide decode kernel
/// (zmm xoshiro states, vprolq, vpmovqd). Integer-exact, so engaging
/// it never changes any byte — only how fast the words are produced.
[[nodiscard]] inline bool cpu_has_avx512f() noexcept {
#if defined(__x86_64__) || defined(_M_X64)
  return __builtin_cpu_supports("avx512f");
#else
  return false;
#endif
}

}  // namespace sops::core::detail
