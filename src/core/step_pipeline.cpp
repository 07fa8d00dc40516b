#include "src/core/step_pipeline.hpp"

#include <algorithm>

#if defined(__x86_64__) || defined(_M_X64)
#include <immintrin.h>
#define SOPS_PIPE_X86 1
#endif

#include "src/core/simd_dispatch.hpp"

namespace sops::core {

using system::NeighborhoodGather;
using system::ParticleIndex;
using detail::kGridOffsets;
namespace cell = system::cell;

StepPipeline::StepPipeline(SeparationChain& chain, std::size_t block_size)
    : chain_(chain),
      block_size_(std::clamp<std::size_t>(block_size, 1, kMaxBlockSize)),
      simd_(detail::simd_runtime_enabled()) {
  raw_.resize(3 * block_size_);
  spi_.resize(block_size_);
  sdir_.resize(block_size_);
  sq_.resize(block_size_);
  spec_occ_.resize(block_size_);
  spec_nib_.resize(block_size_);
  spec_lpc_.resize(block_size_);
}

void StepPipeline::run(std::uint64_t iterations) {
  while (iterations > 0) {
    const std::size_t count = static_cast<std::size_t>(
        std::min<std::uint64_t>(iterations, block_size_));
    run_block(count);
    iterations -= count;
  }
}

#if defined(SOPS_PIPE_X86)
SOPS_PIPE_AVX2_FN void StepPipeline::spec_gather8(std::size_t i0) {
  const system::ParticleSystem& sys = chain_.sys_;
  // One proposal per lane: the proposer's cell address from the
  // address SoA, then every neighborhood cell at a per-lane direction
  // offset picked out of the transposed tables by a vpermd. The apron
  // keeps every address inside the proposer's page.
  const __m256i vpi =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(spi_.data() + i0));
  const __m256i vbase = _mm256_i32gather_epi32(
      reinterpret_cast<const int*>(sys.addresses()), vpi, 4);
  const __m256i vdir =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(sdir_.data() + i0));
  const int* const cbase = reinterpret_cast<const int*>(sys.cells());
  const __m256i vlpc = _mm256_i32gather_epi32(
      cbase,
      _mm256_add_epi32(vbase, _mm256_permutevar8x32_epi32(
                                  _mm256_load_si256(reinterpret_cast<const __m256i*>(
                                      kGridOffsets.lp)),
                                  vdir)),
      4);
  const __m256i vzero = _mm256_setzero_si256();
  const __m256i vone = _mm256_set1_epi32(1);
  __m256i vocc = vzero;
  __m256i vnib = vzero;
  // Descending so node k lands at occupancy bit k / nibble bits 4k
  // after the shift-accumulate, exactly the scalar loop's layout.
  for (int k = 7; k >= 0; --k) {
    const __m256i voff = _mm256_permutevar8x32_epi32(
        _mm256_load_si256(
            reinterpret_cast<const __m256i*>(kGridOffsets.ring[k])),
        vdir);
    const __m256i vc =
        _mm256_i32gather_epi32(cbase, _mm256_add_epi32(vbase, voff), 4);
    // (occ << 1) | (cell != 0): cmpeq yields -1 on an empty cell,
    // cancelling the +1.
    vocc = _mm256_add_epi32(
        _mm256_add_epi32(vocc, vocc),
        _mm256_add_epi32(vone, _mm256_cmpeq_epi32(vc, vzero)));
    vnib = _mm256_or_si256(_mm256_slli_epi32(vnib, 4),
                           _mm256_srli_epi32(vc, cell::kNibbleShift));
  }
  vocc = _mm256_or_si256(vocc,
                         _mm256_set1_epi32(1 << NeighborhoodGather::kNodeL));
  vocc = _mm256_or_si256(
      vocc, _mm256_andnot_si256(
                _mm256_cmpeq_epi32(vlpc, vzero),
                _mm256_set1_epi32(1 << NeighborhoodGather::kNodeLp)));
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(spec_occ_.data() + i0), vocc);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(spec_nib_.data() + i0), vnib);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(spec_lpc_.data() + i0), vlpc);
  ++stats_.spec_windows;
}
#else
void StepPipeline::spec_gather8(std::size_t) {}
#endif

void StepPipeline::run_block(std::size_t count) {
  ++stats_.blocks;
  util::Rng& rng = chain_.rng_;

  // 1. REFILL — the minimum 3 words per step in one bulk fill. Every
  // refilled word is consumed by the decode below (each proposal takes
  // at least 3), so the generator never runs ahead of the trajectory:
  // after the block, rng state equals the serial step() loop's exactly.
  const std::size_t words = 3 * count;
  std::uint64_t* const raw = raw_.data();
  rng.fill(raw, words);
  stats_.refill_words += words;

  // 2. DECODE — identical word consumption to step()'s
  // below(n)/below(6)/uniform_open() triple, rejection redraws
  // included; the rare draws past the refilled block spill to the
  // generator directly, still in sequence order.
  const std::uint64_t n = chain_.sys_.size();
  std::size_t cursor = 0;
  std::uint64_t tail = 0;
  const auto take = [&]() noexcept {
    if (cursor < words) return raw[cursor++];
    ++tail;
    return rng.next();
  };
  for (std::size_t i = 0; i < count; ++i) {
    spi_[i] = static_cast<std::int32_t>(util::lemire_below(take, n));
    sdir_[i] = static_cast<std::int32_t>(util::lemire_below(take, 6));
    sq_[i] = util::decode_uniform_open(take());
  }
  stats_.tail_words += tail;

  // 3. EXECUTE — step()'s own body, proposal by proposal. A window
  // gathered at the last configuration change or later is current, so
  // its neighborhoods stand in for step_with's own gather. Which window
  // the spec_* arrays hold and the change count they were gathered at
  // live in locals: a same-color swap accepts without changing the
  // configuration and so leaves the window valid.
  const system::ParticleSystem& sys = chain_.sys_;
  std::size_t win = ~std::size_t{0};
  std::uint64_t changes = 0;
  std::uint64_t wchanges = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const auto pi = static_cast<ParticleIndex>(spi_[i]);
    if (simd_ && (i & (kSpecWindow - 1)) == 0 && i + kSpecWindow <= count) {
      spec_gather8(i);
      win = i / kSpecWindow;
      wchanges = changes;
    }
    if (i / kSpecWindow == win && changes == wchanges) {
      const std::uint32_t lpc = spec_lpc_[i];
      NeighborhoodGather g;
      g.occ = static_cast<std::uint16_t>(spec_occ_[i]);
      g.color_nibbles ^=
          static_cast<std::uint64_t>(spec_nib_[i]) |
          (static_cast<std::uint64_t>(lpc >> cell::kNibbleShift) << 36) |
          (static_cast<std::uint64_t>(sys.color(pi) ^ 0xFu) << 32);
      g.p_at_l = pi;
      g.p_at_lp = static_cast<ParticleIndex>(lpc & cell::kIndexMask) - 1;
      ++stats_.speculative_hits;
      changes += chain_.step_with(pi, sdir_[i], sq_[i], &g);
    } else {
      ++stats_.speculative_misses;
      changes += chain_.step_with(pi, sdir_[i], sq_[i]);
    }
  }
}

}  // namespace sops::core
