#include "src/core/step_pipeline.hpp"

#include <algorithm>
#include <limits>

#if defined(__x86_64__) || defined(_M_X64)
#include <immintrin.h>
#define SOPS_PIPE_X86 1
#endif

#include "src/core/neighborhood.hpp"
#include "src/core/simd_dispatch.hpp"

namespace sops::core {

using lattice::EdgeRing;
using lattice::Node;
using system::Color;
using system::NeighborhoodGather;
using system::ParticleIndex;

StepPipeline::StepPipeline(SeparationChain& chain, std::size_t block_size)
    : chain_(chain),
      block_size_(std::clamp<std::size_t>(block_size, 1, kMaxBlockSize)),
      simd_(detail::simd_runtime_enabled()) {
  raw_.resize(3 * block_size_);
  props_.resize(block_size_);
  spi_.resize(block_size_);
  sdir_.resize(block_size_);
  spec_base_.resize(block_size_);
  spec_occ_.resize(block_size_);
  spec_nib_.resize(block_size_);
  spec_lpc_.resize(block_size_);
}

void StepPipeline::run(std::uint64_t iterations) {
  if (iterations == 0) return;
  // The system may have been stepped outside the pipeline since the
  // last call (step() interleavings, checkpointed measurement code);
  // the mirror is derived state, so rebuild it at every entry.
  rebuild_mirror();
  while (iterations > 0) {
    const std::size_t count = static_cast<std::size_t>(
        std::min<std::uint64_t>(iterations, block_size_));
    run_block(count);
    iterations -= count;
  }
  // The mirrored walk applied its accepts without touching the
  // system's occupancy index; one rebuild hands it back current.
  stats_.reindexes += chain_.sys_.reindex();
}

void StepPipeline::rebuild_mirror() {
  mirror_ok_ = false;
  const system::ParticleSystem& sys = chain_.sys_;
  const std::size_t n = sys.size();
  if (n == 0 || n + 1 > cell::kWideIndexMask) return;  // index+1 must fit

  std::int64_t xmin = std::numeric_limits<std::int64_t>::max();
  std::int64_t xmax = std::numeric_limits<std::int64_t>::min();
  std::int64_t ymin = xmin;
  std::int64_t ymax = xmax;
  for (std::size_t i = 0; i < n; ++i) {
    const Node v = sys.position(static_cast<ParticleIndex>(i));
    xmin = std::min<std::int64_t>(xmin, v.x);
    xmax = std::max<std::int64_t>(xmax, v.x);
    ymin = std::min<std::int64_t>(ymin, v.y);
    ymax = std::max<std::int64_t>(ymax, v.y);
  }
  const std::int64_t w = (xmax - xmin + 1) + 2 * cell::kMargin;
  const std::int64_t h = (ymax - ymin + 1) + 2 * cell::kMargin;
  if (w * h > cell::plane_cap(n)) return;  // FlatMap path instead

  x0_ = xmin - cell::kMargin;
  y0_ = ymin - cell::kMargin;
  w_ = w;
  h_ = h;
  cells_.assign(static_cast<std::size_t>(w * h), 0);
  for (std::size_t i = 0; i < n; ++i) {
    const auto pi = static_cast<ParticleIndex>(i);
    cells_[static_cast<std::size_t>(mirror_index(sys.position(pi)))] =
        cell::encode<std::uint32_t>(static_cast<std::uint32_t>(i),
                                    sys.color(pi));
  }
  for (int d = 0; d < 6; ++d) {
    const auto off = [&](Node v) {
      return static_cast<std::int64_t>(v.y) * w_ + v.x;
    };
    lp_off_[static_cast<std::size_t>(d)] = off(lattice::neighbor(Node{}, d));
    lp_off32_[static_cast<std::size_t>(d)] =
        static_cast<std::int32_t>(lp_off_[static_cast<std::size_t>(d)]);
    const EdgeRing ring = EdgeRing::around(Node{}, d);
    for (std::size_t k = 0; k < 8; ++k) {
      ring_off_[static_cast<std::size_t>(d)][k] = off(ring.nodes[k]);
      ring_off32_[k][static_cast<std::size_t>(d)] =
          static_cast<std::int32_t>(ring_off_[static_cast<std::size_t>(d)][k]);
    }
  }
  ++stats_.mirror_rebuilds;
  mirror_ok_ = true;
}

#if defined(SOPS_PIPE_X86)
SOPS_PIPE_AVX2_FN void StepPipeline::spec_gather8(std::size_t i0,
                                                 const std::uint32_t* cells) {
  const system::ParticleSystem& sys = chain_.sys_;
  // One proposal per lane. Positions are {int32 x, int32 y} pairs, so a
  // qword gather pulls both coordinates of a lane in one load; the
  // even/odd dword permutes then split the two gathers into packed
  // x / y vectors.
  const long long* const pos =
      reinterpret_cast<const long long*>(sys.positions().data());
  const __m128i vi_lo =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(spi_.data() + i0));
  const __m128i vi_hi =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(spi_.data() + i0 + 4));
  const __m256i pa = _mm256_i32gather_epi64(pos, vi_lo, 8);
  const __m256i pb = _mm256_i32gather_epi64(pos, vi_hi, 8);
  const __m256i even = _mm256_setr_epi32(0, 2, 4, 6, 0, 0, 0, 0);
  const __m256i odd = _mm256_setr_epi32(1, 3, 5, 7, 0, 0, 0, 0);
  const __m256i vx = _mm256_permute2x128_si256(
      _mm256_permutevar8x32_epi32(pa, even),
      _mm256_permutevar8x32_epi32(pb, even), 0x20);
  const __m256i vy = _mm256_permute2x128_si256(
      _mm256_permutevar8x32_epi32(pa, odd),
      _mm256_permutevar8x32_epi32(pb, odd), 0x20);
  // base = (y - y0)*w + (x - x0), folded to y*w + x - (y0*w + x0) in
  // wrap-around 32-bit arithmetic: the true index fits in 31 bits (box
  // cap), so the mod-2^32 result is exact even when the absolute
  // coordinates push the intermediate products out of the int32 range.
  const std::int32_t borig = static_cast<std::int32_t>(
      static_cast<std::uint32_t>(y0_) * static_cast<std::uint32_t>(w_) +
      static_cast<std::uint32_t>(x0_));
  const __m256i vbase = _mm256_sub_epi32(
      _mm256_add_epi32(
          _mm256_mullo_epi32(vy,
                             _mm256_set1_epi32(static_cast<std::int32_t>(w_))),
          vx),
      _mm256_set1_epi32(borig));
  // Per-lane direction offsets come out of the transposed int32 tables
  // by a vpermd with the direction vector as the selector.
  const __m256i vdir =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(sdir_.data() + i0));
  const int* const cbase = reinterpret_cast<const int*>(cells);
  const __m256i vlpc = _mm256_i32gather_epi32(
      cbase,
      _mm256_add_epi32(
          vbase, _mm256_permutevar8x32_epi32(
                     _mm256_load_si256(
                         reinterpret_cast<const __m256i*>(lp_off32_)),
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
        _mm256_load_si256(reinterpret_cast<const __m256i*>(ring_off32_[k])),
        vdir);
    const __m256i vc =
        _mm256_i32gather_epi32(cbase, _mm256_add_epi32(vbase, voff), 4);
    // (occ << 1) | (cell != 0): cmpeq yields -1 on an empty cell,
    // cancelling the +1.
    vocc = _mm256_add_epi32(
        _mm256_add_epi32(vocc, vocc),
        _mm256_add_epi32(vone, _mm256_cmpeq_epi32(vc, vzero)));
    vnib = _mm256_or_si256(_mm256_slli_epi32(vnib, 4),
                           _mm256_srli_epi32(vc, cell::kWideNibbleShift));
  }
  vocc = _mm256_or_si256(vocc,
                         _mm256_set1_epi32(1 << NeighborhoodGather::kNodeL));
  vocc = _mm256_or_si256(
      vocc, _mm256_andnot_si256(
                _mm256_cmpeq_epi32(vlpc, vzero),
                _mm256_set1_epi32(1 << NeighborhoodGather::kNodeLp)));
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(spec_base_.data() + i0),
                      vbase);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(spec_occ_.data() + i0), vocc);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(spec_nib_.data() + i0), vnib);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(spec_lpc_.data() + i0), vlpc);
  ++stats_.spec_windows;
}
#else
void StepPipeline::spec_gather8(std::size_t, const std::uint32_t*) {}
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
    Proposal& pr = props_[i];
    pr.pi = static_cast<ParticleIndex>(util::lemire_below(take, n));
    pr.dir = static_cast<std::int32_t>(util::lemire_below(take, 6));
    pr.q = util::decode_uniform_open(take());
    pr.epoch = ~0ULL;
    spi_[i] = static_cast<std::int32_t>(pr.pi);
    sdir_[i] = pr.dir;
  }
  stats_.tail_words += tail;

  // 3. EXECUTE. A mirror refused at entry never starts, and a mid-block
  // drift rebuild can decline it (box cap); either way step()'s own
  // body finishes the block from the decoded proposals, which are
  // path-independent. It reads the system's index, so one reindex first
  // brings that up to date with the mirrored walk's accepts.
  const std::size_t done = mirror_ok_ ? execute_block(count) : 0;
  if (done < count) {
    stats_.reindexes += chain_.sys_.reindex();
    for (std::size_t i = done; i < count; ++i) {
      chain_.step_with(props_[i].pi, props_[i].dir, props_[i].q);
    }
  }
}

std::size_t StepPipeline::execute_block(std::size_t count) {
  system::ParticleSystem& sys = chain_.sys_;
  const Params params = chain_.params_;
  const double* const pow_l = chain_.pow_lambda_ + SeparationChain::kMaxExp;
  const double* const pow_g = chain_.pow_gamma_ + SeparationChain::kMaxExp;
  SeparationChain::Counters c;
  std::uint64_t epoch = 0;
  std::uint32_t* cells = cells_.data();
  std::size_t done = count;

  // Snapshot the proposer's position and pull in the three mirror rows
  // its 10-node neighborhood spans. Valid while no accepted move/swap
  // intervenes — hence the epoch stamp.
  const auto speculate = [&](Proposal& pr) noexcept {
    pr.l = sys.position(pr.pi);
    pr.epoch = epoch;
    pr.base = mirror_index(pr.l);
#if defined(__GNUC__) || defined(__clang__)
    __builtin_prefetch(
        &cells[pr.base + lp_off_[static_cast<std::size_t>(pr.dir)]], 0, 1);
    __builtin_prefetch(&cells[pr.base - w_], 0, 1);
    __builtin_prefetch(&cells[pr.base + w_], 0, 1);
#endif
  };

  // Window-gather speculation (AVX2 walks) tracks validity in two
  // locals: which 8-proposal window the spec_* arrays currently hold,
  // and the mutation epoch they were gathered at. Locals — not
  // per-proposal stamps — because the epoch restarts at 0 every block,
  // so a stamp left over from an earlier block could alias a fresh one.
  const bool window_mode = simd_;
  std::size_t win = ~std::size_t{0};
  std::uint64_t wepoch = 0;

  if (!window_mode && count > 0) speculate(props_[0]);
  for (std::size_t i = 0; i < count; ++i) {
    const Proposal& pr = props_[i];
    Node l;
    std::int64_t base = 0;
    NeighborhoodView nb;
    bool assembled = false;
    if (window_mode) {
      if ((i & (kSpecWindow - 1)) == 0 && i + kSpecWindow <= count) {
        spec_gather8(i, cells);
        win = i / kSpecWindow;
        wepoch = epoch;
      }
      // The position read stays unconditional — one hot L1 load, and
      // keeping it out of the speculation contract means a stale window
      // can never misplace the proposer.
      l = sys.position(pr.pi);
      if (i / kSpecWindow == win && epoch == wepoch) {
        base = spec_base_[i];
        const std::uint32_t lpc = spec_lpc_[i];
        nb.occ = static_cast<std::uint16_t>(spec_occ_[i]);
        nb.color_nibbles ^=
            static_cast<std::uint64_t>(spec_nib_[i]) |
            (static_cast<std::uint64_t>(lpc >> cell::kWideNibbleShift)
             << 36) |
            (static_cast<std::uint64_t>(sys.color(pr.pi) ^ 0xFu) << 32);
        nb.p_at_l = pr.pi;
        nb.p_at_lp =
            static_cast<ParticleIndex>(lpc & cell::kWideIndexMask) - 1;
        assembled = true;
        ++stats_.speculative_hits;
      } else {
        // Ragged tail before/after the last full window, or an accept
        // invalidated the gather; plain scalar path.
        base = mirror_index(l);
        ++stats_.speculative_misses;
      }
    } else {
      if (i + 1 < count) {
        speculate(props_[i + 1]);
        if (i + 2 < count) sys.prefetch_position(props_[i + 2].pi);
      }
      if (pr.epoch == epoch) {
        l = pr.l;
        base = pr.base;
        ++stats_.speculative_hits;
      } else {
        // An accepted move/swap since the snapshot may have relocated
        // the proposer; fall back to a fresh read + plain gather.
        l = sys.position(pr.pi);
        base = mirror_index(l);
        ++stats_.speculative_misses;
      }
    }
    const int dir = static_cast<int>(pr.dir);
    const double q = pr.q;
    const std::int64_t lp_cell = base + lp_off_[static_cast<std::size_t>(dir)];

    if (!assembled) {
      // Branch-free gather from the dense mirror: ten direct loads; the
      // cell encoding IS the occupancy bit and the nibble XOR mask.
      const std::int64_t* const roff =
          ring_off_[static_cast<std::size_t>(dir)].data();
      unsigned occ = 1u << NeighborhoodGather::kNodeL;
      std::uint64_t nib = 0;
      for (std::size_t k = 0; k < 8; ++k) {
        const std::uint32_t cl = cells[base + roff[k]];
        occ |= static_cast<unsigned>(cl != 0) << k;
        nib ^= static_cast<std::uint64_t>(cl >> cell::kWideNibbleShift)
               << (4 * k);
      }
      const std::uint32_t lpc = cells[lp_cell];
      occ |= static_cast<unsigned>(lpc != 0) << NeighborhoodGather::kNodeLp;
      nib ^= static_cast<std::uint64_t>(lpc >> cell::kWideNibbleShift) << 36;
      nib ^= static_cast<std::uint64_t>(sys.color(pr.pi) ^ 0xFu) << 32;
      nb.occ = static_cast<std::uint16_t>(occ);
      nb.color_nibbles ^= nib;
      nb.p_at_l = pr.pi;
      nb.p_at_lp = static_cast<ParticleIndex>(lpc & cell::kWideIndexMask) - 1;
    }

    if (!nb.lp_occupied()) {
      ++c.move_proposals;
      const Color ci = sys.color(pr.pi);
      const int e = nb.e();
      if (e == 5) {
        ++c.rejected_five;
        continue;
      }
      if (!nb.move_locality_ok()) {
        ++c.rejected_locality;
        continue;
      }
      const int ei = nb.e_i(ci);
      const int ep = nb.e_prime();
      const int epi = nb.e_prime_i(ci);
      if (q >= pow_l[ep - e] * pow_g[epi - ei]) {
        ++c.rejected_metropolis;
        continue;
      }
      const Node to = lattice::neighbor(l, dir);
      ++c.moves_accepted;
      ++epoch;
      // The gather already certified the target adjacent and empty, so
      // skip apply_move's precondition probes along with the recounts;
      // the mirror, not the system's index, records the move.
      sys.apply_move_unchecked(pr.pi, to, ep - e, (ep - epi) - (e - ei));
      cells[lp_cell] = cells[base];
      cells[base] = 0;
      // Keep every particle at least cell::kSlack (> the gather's 2-cell
      // reach) away from the box edge: re-center the box when a move
      // drifts into the guard band. A declined rebuild (box cap) hands
      // the rest of the block to step_with().
      if (to.x - x0_ < cell::kSlack || x0_ + w_ - 1 - to.x < cell::kSlack ||
          to.y - y0_ < cell::kSlack || y0_ + h_ - 1 - to.y < cell::kSlack) {
        rebuild_mirror();
        if (!mirror_ok_) {
          done = i + 1;
          break;
        }
        cells = cells_.data();  // assign() may have reallocated
      }
      continue;
    }

    if (!params.swaps_enabled) continue;
    ++c.swap_proposals;
    const int sx = nb.swap_exponent();
    if (q >= pow_g[sx]) continue;
    // Any accepted swap advances the epoch; the underlying apply_swap
    // relocates the pair only when the colors differ (a same-color swap
    // is a configuration no-op), and the mirror matches it branch-free:
    // the conditional cell exchange masks to zero for equal top nibbles.
    // The h(σ) delta of a heterogeneous swap is −swap_exponent — the
    // neighborhood is already in registers, so the apply skips both
    // before/after occupancy recounts.
    ++c.swaps_accepted;
    ++epoch;
    sys.apply_swap_unchecked(pr.pi, nb.p_at_lp, -sx);
    const std::uint32_t a = cells[base];
    const std::uint32_t b = cells[lp_cell];
    const std::uint32_t mask =
        ((a ^ b) >> cell::kWideNibbleShift) != 0 ? ~std::uint32_t{0} : 0;
    cells[base] = a ^ ((a ^ b) & mask);
    cells[lp_cell] = b ^ ((a ^ b) & mask);
  }

  SeparationChain::Counters& out = chain_.counters_;
  out.steps += done;
  out.move_proposals += c.move_proposals;
  out.moves_accepted += c.moves_accepted;
  out.rejected_five += c.rejected_five;
  out.rejected_locality += c.rejected_locality;
  out.rejected_metropolis += c.rejected_metropolis;
  out.swap_proposals += c.swap_proposals;
  out.swaps_accepted += c.swaps_accepted;
  return done;
}

}  // namespace sops::core
