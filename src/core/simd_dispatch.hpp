// Runtime SIMD dispatch and the grid offset table shared by the
// vectorized hot paths — the replica band (replica_band.hpp) and the
// step pipeline's speculative window gather (step_pipeline.hpp).
//
// One rule, queried at construction time by every engine: the AVX2
// paths engage only when the CPU reports AVX2 and the operator has not
// set SOPS_FORCE_SCALAR (the CI fallback tier re-runs the equivalence
// suites with it set, pinning that every scalar path produces the same
// bytes). Non-x86 builds resolve to false at compile time. AVX2 is the
// only vector tier: wider CPUs (AVX-512) run the same AVX2 bodies, so
// every host that takes the SIMD path runs the same code.
#pragma once

#include <cstdint>
#include <cstdlib>

#include "src/sops/particle_system.hpp"

namespace sops::core::detail {

/// The grid's direction offsets (system::grid::kRingOffset/kLpOffset)
/// transposed for vpermd selection by a direction vector: ring[k][dir]
/// and lp[dir], dirs 6 and 7 unused.
struct GridOffsets {
  alignas(32) std::int32_t ring[8][8];
  alignas(32) std::int32_t lp[8];
};
inline constexpr GridOffsets kGridOffsets = [] {
  GridOffsets w{};
  for (std::size_t d = 0; d < 6; ++d) {
    for (std::size_t k = 0; k < 8; ++k) {
      w.ring[k][d] = system::grid::kRingOffset[d][k];
    }
    w.lp[d] = system::grid::kLpOffset[d];
  }
  return w;
}();

[[nodiscard]] inline bool simd_runtime_enabled() noexcept {
#if defined(__x86_64__) || defined(_M_X64)
  return __builtin_cpu_supports("avx2") &&
         std::getenv("SOPS_FORCE_SCALAR") == nullptr;
#else
  return false;
#endif
}

}  // namespace sops::core::detail
