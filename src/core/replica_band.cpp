#include "src/core/replica_band.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <stdexcept>

#if defined(__x86_64__) || defined(_M_X64)
#include <immintrin.h>
#define SOPS_BAND_X86 1
#endif

#include "src/core/neighborhood.hpp"
#include "src/core/simd_dispatch.hpp"

namespace sops::core {

using detail::kGridOffsets;
using lattice::Node;
using system::ParticleIndex;
namespace cell = system::cell;

namespace {

// Properties 4/5 move-locality as eight 32-bit words: the whole
// 256-entry ring LUT fits in one ymm register, so the lookup is a
// vpermd word select plus a variable shift instead of a gather.
constexpr std::array<std::uint32_t, 8> make_move_ok_words() {
  std::array<std::uint32_t, 8> w{};
  for (unsigned m = 0; m < 256; ++m) {
    if (detail::kMoveOkLut.test(static_cast<std::uint8_t>(m))) {
      w[m >> 5] |= 1u << (m & 31u);
    }
  }
  return w;
}
constexpr std::array<std::uint32_t, 8> kMoveOkWords = make_move_ok_words();

#if defined(__x86_64__) || defined(_M_X64)
// File-scope helpers rather than lambdas: lambdas do not inherit the
// enclosing function's target("avx2") attribute.

// Expands an 8-bit accept mask (assembled from movemask_pd halves) back
// into a per-lane epi32 mask for the counter accumulators.
__attribute__((target("avx2"))) inline __m256i expand_mask8(
    int m, __m256i vbits) noexcept {
  return _mm256_cmpeq_epi32(_mm256_and_si256(_mm256_set1_epi32(m), vbits),
                            vbits);
}

__attribute__((target("avx2"))) inline __m256i rotl64x4(__m256i x,
                                                        int k) noexcept {
  return _mm256_or_si256(_mm256_slli_epi64(x, k),
                         _mm256_srli_epi64(x, 64 - k));
}

// xoshiro256++ for four lanes at once, state in 64-bit vector lanes.
// Op-for-op the scalar Rng::next(), so each lane's stream is the
// stream its own util::Rng would have produced.
__attribute__((target("avx2"))) inline __m256i xo_next4(
    __m256i& s0, __m256i& s1, __m256i& s2, __m256i& s3) noexcept {
  const __m256i r =
      _mm256_add_epi64(rotl64x4(_mm256_add_epi64(s0, s3), 23), s0);
  const __m256i t = _mm256_slli_epi64(s1, 17);
  s2 = _mm256_xor_si256(s2, s0);
  s3 = _mm256_xor_si256(s3, s1);
  s1 = _mm256_xor_si256(s1, s2);
  s0 = _mm256_xor_si256(s0, s3);
  s2 = _mm256_xor_si256(s2, t);
  s3 = rotl64x4(s3, 45);
  return r;
}

// Lemire multiply-shift for four lanes: returns floor(x * b / 2^64),
// the no-rejection result of util::lemire_below. Lanes that would take
// the rejection branch (low 64 product bits below the threshold) are
// OR-ed into `rej` for the caller's scalar replay; the 2^24 bound on b
// lets the detection use one shift + signed 64-bit compare.
__attribute__((target("avx2"))) inline __m256i lemire4(__m256i x, __m256i vb,
                                                       __m256i vthr,
                                                       __m256i& rej) noexcept {
  const __m256i lo32 = _mm256_set1_epi64x(0xffffffffLL);
  const __m256i t2 = _mm256_mul_epu32(x, vb);
  const __m256i t1 = _mm256_mul_epu32(_mm256_srli_epi64(x, 32), vb);
  const __m256i sum = _mm256_add_epi64(t1, _mm256_srli_epi64(t2, 32));
  const __m256i low = _mm256_or_si256(_mm256_slli_epi64(sum, 32),
                                      _mm256_and_si256(t2, lo32));
  const __m256i fits = _mm256_cmpeq_epi64(_mm256_srli_epi64(low, 24),
                                          _mm256_setzero_si256());
  rej = _mm256_or_si256(
      rej, _mm256_and_si256(fits, _mm256_cmpgt_epi64(vthr, low)));
  return _mm256_srli_epi64(sum, 32);
}

// Narrows two 4x64 registers (values < 2^31) into one 8x32 store.
__attribute__((target("avx2"))) inline void store_lo32x8(std::int32_t* dst,
                                                         __m256i a,
                                                         __m256i b) noexcept {
  const __m256i idx = _mm256_setr_epi32(0, 2, 4, 6, 0, 2, 4, 6);
  const __m256i pa = _mm256_permutevar8x32_epi32(a, idx);
  const __m256i pb = _mm256_permutevar8x32_epi32(b, idx);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst),
                      _mm256_permute2x128_si256(pa, pb, 0x20));
}

// Block-invariant inputs of the SIMD decide kernel.
struct BandEnv {
  const std::int32_t* pi;
  const std::int32_t* dir;
  const std::uint64_t* q;
  const std::int64_t* itab;
  std::size_t W;
  bool swaps;
};

// Per-group SIMD execute state: lane constants, the lane bases of the
// lanes' two pools, and the seven counter accumulators. The width-16
// walk keeps two of these live and runs their ticks interleaved.
struct Group {
  __m256i vactive;
  // One lane-base vector per four lanes and pool: each lane's pool
  // pointer divided by 4, as int64 (lanes 0-3, then 4-7). addresses()
  // never moves during a run (one slot per particle); cells() moves
  // when an apply creates a page, so vcbase is re-loaded after applies.
  __m256i vabase[2], vcbase[2];
  __m256i acc_movep, acc_macc, acc_r5, acc_rloc, acc_rmet, acc_swapp,
      acc_sacc;
  std::size_t g8 = 0;
};

__attribute__((target("avx2"))) inline __m256i quarter_bases(
    const void* a, const void* b, const void* c, const void* d) noexcept {
  const auto q = [](const void* p) {
    return static_cast<long long>(reinterpret_cast<std::uintptr_t>(p) >> 2);
  };
  return _mm256_setr_epi64x(q(a), q(b), q(c), q(d));
}

__attribute__((target("avx2"))) inline void load_cell_bases(
    Group& G, SeparationChain* const* lanes) noexcept {
  for (std::size_t h = 0; h < 2; ++h) {
    SeparationChain* const* l = lanes + G.g8 + 4 * h;
    G.vcbase[h] = quarter_bases(
        l[0]->system().cells(), l[1]->system().cells(),
        l[2]->system().cells(), l[3]->system().cells());
  }
}

__attribute__((target("avx2"))) inline void group_init(
    Group& G, std::size_t g8, const std::size_t* active,
    SeparationChain* const* lanes) noexcept {
  alignas(32) std::int32_t act32[8];
  for (std::size_t j = 0; j < 8; ++j) {
    act32[j] = static_cast<std::int32_t>(active[g8 + j]);
  }
  G.vactive = _mm256_load_si256(reinterpret_cast<const __m256i*>(act32));
  G.g8 = g8;
  for (std::size_t h = 0; h < 2; ++h) {
    SeparationChain* const* l = lanes + g8 + 4 * h;
    G.vabase[h] = quarter_bases(
        l[0]->system().addresses(), l[1]->system().addresses(),
        l[2]->system().addresses(), l[3]->system().addresses());
  }
  load_cell_bases(G, lanes);
  const __m256i z = _mm256_setzero_si256();
  G.acc_movep = G.acc_macc = G.acc_r5 = G.acc_rloc = G.acc_rmet =
      G.acc_swapp = G.acc_sacc = z;
}

// Gathers element vidx[j] of lane j's own pool for all eight lanes:
// the int32 indices widen beside the lanes' int64 bases (pool / 4), and
// a scale-4 gather from a null base reads 4 × (base + index), the
// element's address. Two 4-wide gathers per eight lanes.
__attribute__((target("avx2"))) inline __m256i gather_lanes(
    const __m256i (&vbase)[2], __m256i vidx) noexcept {
  const auto* const null = static_cast<const int*>(nullptr);
  const __m128i lo = _mm256_i64gather_epi32(
      null,
      _mm256_add_epi64(vbase[0],
                       _mm256_cvtepi32_epi64(_mm256_castsi256_si128(vidx))),
      4);
  const __m128i hi = _mm256_i64gather_epi32(
      null,
      _mm256_add_epi64(
          vbase[1], _mm256_cvtepi32_epi64(_mm256_extracti128_si256(vidx, 1))),
      4);
  return _mm256_set_m128i(hi, lo);
}

// One tick of one 8-lane group: load the tick's proposal band, gather
// each lane's proposer address and 10-node neighborhood from the lane's
// own grid, and resolve every lane's outcome into counter accumulators.
// Returns the accept masks packed as mm_macc | mm_sacc << 8, spilling
// the decision vectors to `sp` only when some lane accepted — applies
// happen scalar afterwards, so two groups can decide back-to-back with
// their gathers overlapping. kMasked=false compiles the uniform-quota
// prefix where every lane is known live, dropping the per-tick quota
// compare and the three mask ANDs it feeds. always_inline: the tick
// loops live or die by this body fusing into them (no per-tick call,
// constants hoisted).
template <bool kMasked>
__attribute__((target("avx2"), always_inline)) inline int band_decide(
    const BandEnv& E, Group& G, std::size_t t,
    ReplicaBand::Spill* sp) noexcept {
  const __m256i vzero = _mm256_setzero_si256();
  const __m256i vm5 = _mm256_set1_epi32(-5);
  const __m256i v31 = _mm256_set1_epi32(31);
  // Bias folding both +5 (λ-exponent row) and +12 (γ-exponent column)
  // into one add: wtab index = (a << 5) + b + (5*32 + 12).
  const __m256i vwbias = _mm256_set1_epi32(5 * 32 + 12);
  const __m256i vbits = _mm256_setr_epi32(1, 2, 4, 8, 16, 32, 64, 128);
  const __m256i vlut = _mm256_loadu_si256(
      reinterpret_cast<const __m256i*>(kMoveOkWords.data()));
  // Lanes whose quota ended before this tick are masked out of every
  // counter and accept; their stale proposal slots still hold valid
  // particle indices, so the gathers stay in bounds. The maskless
  // instantiation folds vrun to all-ones and the ANDs vanish.
  __m256i vrun = _mm256_set1_epi32(-1);
  if constexpr (kMasked) {
    vrun = _mm256_cmpgt_epi32(G.vactive,
                              _mm256_set1_epi32(static_cast<int>(t)));
  }

  const std::size_t idx = t * E.W + G.g8;
  const __m256i vpi = _mm256_loadu_si256(
      reinterpret_cast<const __m256i*>(E.pi + idx));
  const __m256i vdir = _mm256_loadu_si256(
      reinterpret_cast<const __m256i*>(E.dir + idx));
  // Raw generator words shifted to the 53-bit uniform domain; the
  // accept test below compares them against integer thresholds instead
  // of decoding to double.
  const __m256i vq_lo = _mm256_srli_epi64(
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(E.q + idx)), 11);
  const __m256i vq_hi = _mm256_srli_epi64(
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(E.q + idx + 4)),
      11);

  // Each lane's proposer cell address from its address SoA, then its
  // own cell for its encoded color. Every neighborhood cell sits at a
  // per-direction offset from that address, picked out of the
  // transposed offset tables by vpermd; the apron keeps every address
  // inside the proposer's page.
  const __m256i vaddr = gather_lanes(G.vabase, vpi);
  const __m256i vci =
      _mm256_srli_epi32(gather_lanes(G.vcbase, vaddr), cell::kNibbleShift);
  const __m256i vlpc = gather_lanes(
      G.vcbase,
      _mm256_add_epi32(
          vaddr, _mm256_permutevar8x32_epi32(
                     _mm256_load_si256(
                         reinterpret_cast<const __m256i*>(kGridOffsets.lp)),
                     vdir)));
  const __m256i vlp_empty = _mm256_cmpeq_epi32(vlpc, vzero);
  const __m256i vcj = _mm256_srli_epi32(vlpc, cell::kNibbleShift);

  // Occupancy/color sums accumulated on the fly over the node subsets
  // of neighborhood.hpp: e over ring 0..4, e' over ring {0,4,5,6,7}
  // (l' is empty on the move path, l is excluded per the reference
  // index sets). Cells are in the format of cell_codec.hpp: encoded
  // colors are c ^ 0xF ∈ [8, 15], so an empty node never matches a
  // color and the sign bit is set iff the cell is occupied — occupancy
  // is one arithmetic shift, no compare. k runs descending so the ring
  // bitmask builds by shift-accumulate (bit k ↔ node k) with no per-k
  // mask constants; every sum is order-independent.
  __m256i socc = vzero, soccp = vzero, sei = vzero, sepi = vzero,
          snjl = vzero, snjlp = vzero, vring = vzero;
  for (int k = 7; k >= 0; --k) {
    const __m256i voff = _mm256_permutevar8x32_epi32(
        _mm256_load_si256(reinterpret_cast<const __m256i*>(
            kGridOffsets.ring[static_cast<std::size_t>(k)])),
        vdir);
    const __m256i vc =
        gather_lanes(G.vcbase, _mm256_add_epi32(vaddr, voff));
    const __m256i vocc = _mm256_srai_epi32(vc, 31);
    const __m256i vnib = _mm256_srli_epi32(vc, cell::kNibbleShift);
    const __m256i vmci = _mm256_cmpeq_epi32(vnib, vci);
    const __m256i vmcj = _mm256_cmpeq_epi32(vnib, vcj);
    if (k <= 4) {
      socc = _mm256_add_epi32(socc, vocc);
      sei = _mm256_add_epi32(sei, vmci);
      snjl = _mm256_add_epi32(snjl, vmcj);
    }
    if (k == 0 || k >= 4) {
      soccp = _mm256_add_epi32(soccp, vocc);
      sepi = _mm256_add_epi32(sepi, vmci);
      snjlp = _mm256_add_epi32(snjlp, vmcj);
    }
    vring = _mm256_sub_epi32(_mm256_add_epi32(vring, vring), vocc);
  }
  // The mask-sums are negated counts, and every Metropolis quantity is
  // a difference of two of them, so the negations cancel without ever
  // materializing the counts:
  //   Δe   (λ exponent)  = socc − soccp
  //   Δe_i (γ exponent)  = sei  − sepi
  //   sx (swap exponent) = Δe_i + (snjlp − snjl) − 2·[ci == cj]
  // (a cmpeq mask is −1 per true, so adding it twice subtracts 2).
  const __m256i vde = _mm256_sub_epi32(socc, soccp);
  const __m256i vdei = _mm256_sub_epi32(sei, sepi);
  const __m256i vceq = _mm256_cmpeq_epi32(vci, vcj);
  const __m256i vsx = _mm256_add_epi32(
      _mm256_add_epi32(vdei, _mm256_sub_epi32(snjlp, snjl)),
      _mm256_add_epi32(vceq, vceq));

  // Properties 4/5: the 256-bit ring LUT lives in one register — vpermd
  // selects the 32-bit word, then the queried bit is shifted up to the
  // sign position where one signed compare reads it.
  const __m256i vword =
      _mm256_permutevar8x32_epi32(vlut, _mm256_srli_epi32(vring, 5));
  const __m256i vlocok = _mm256_cmpgt_epi32(
      vzero,
      _mm256_sllv_epi32(
          vword, _mm256_sub_epi32(v31, _mm256_and_si256(vring, v31))));

  // One shared threshold gather for both paths from the precomputed 2-D
  // integer table: move lanes read itab_[Δe][Δe_i], swap lanes read
  // itab_[0][sx]. Each entry is the exact count of 53-bit words whose
  // decoded uniform lies below λ^a·γ^b, so the signed compare below
  // partitions raw draws identically to step()'s q < w double test
  // without ever converting to double. Every blended index is
  // in-bounds on every lane whichever path it is on.
  const __m256i va = _mm256_blendv_epi8(vzero, vde, vlp_empty);
  const __m256i vb = _mm256_blendv_epi8(vsx, vdei, vlp_empty);
  const __m256i vwi = _mm256_add_epi32(
      _mm256_add_epi32(_mm256_slli_epi32(va, 5), vb), vwbias);
  const auto* const itab = reinterpret_cast<const long long*>(E.itab);
  const __m256i vt_lo =
      _mm256_i32gather_epi64(itab, _mm256_castsi256_si128(vwi), 8);
  const __m256i vt_hi =
      _mm256_i32gather_epi64(itab, _mm256_extracti128_si256(vwi, 1), 8);
  const int mm_qlt =
      _mm256_movemask_pd(
          _mm256_castsi256_pd(_mm256_cmpgt_epi64(vt_lo, vq_lo))) |
      (_mm256_movemask_pd(
           _mm256_castsi256_pd(_mm256_cmpgt_epi64(vt_hi, vq_hi)))
       << 4);
  const __m256i vqm = expand_mask8(mm_qlt, vbits);

  // Per-lane outcome masks, in step()'s precedence order, every one
  // gated on the lane still running this tick.
  // socc == −5 ⇔ all five ring(l) nodes occupied (step()'s e == 5).
  const __m256i ve5 = _mm256_cmpeq_epi32(socc, vm5);
  const __m256i vpropm = _mm256_and_si256(vlp_empty, vrun);
  const __m256i vstage = _mm256_andnot_si256(ve5, vpropm);
  const __m256i vmet = _mm256_and_si256(vstage, vlocok);
  const __m256i vmacc = _mm256_and_si256(vmet, vqm);
  G.acc_movep = _mm256_sub_epi32(G.acc_movep, vpropm);
  G.acc_r5 = _mm256_sub_epi32(G.acc_r5, _mm256_and_si256(vpropm, ve5));
  G.acc_rloc =
      _mm256_sub_epi32(G.acc_rloc, _mm256_andnot_si256(vlocok, vstage));
  G.acc_rmet = _mm256_sub_epi32(G.acc_rmet, _mm256_andnot_si256(vqm, vmet));
  G.acc_macc = _mm256_sub_epi32(G.acc_macc, vmacc);
  __m256i vsacc = vzero;
  if (E.swaps) {
    const __m256i vlp_occ = _mm256_andnot_si256(vlp_empty, vrun);
    vsacc = _mm256_and_si256(vlp_occ, vqm);
    G.acc_swapp = _mm256_sub_epi32(G.acc_swapp, vlp_occ);
    G.acc_sacc = _mm256_sub_epi32(G.acc_sacc, vsacc);
  }

  const int mm = _mm256_movemask_ps(_mm256_castsi256_ps(vmacc)) |
                 (_mm256_movemask_ps(_mm256_castsi256_ps(vsacc)) << 8);
  if (mm != 0) [[unlikely]] {
    _mm256_store_si256(reinterpret_cast<__m256i*>(sp->pi), vpi);
    _mm256_store_si256(reinterpret_cast<__m256i*>(sp->dir), vdir);
    _mm256_store_si256(reinterpret_cast<__m256i*>(sp->de), vde);
    _mm256_store_si256(reinterpret_cast<__m256i*>(sp->dh),
                       _mm256_sub_epi32(vde, vdei));
    _mm256_store_si256(reinterpret_cast<__m256i*>(sp->sx), vsx);
    _mm256_store_si256(reinterpret_cast<__m256i*>(sp->lpc), vlpc);
  }
  return mm;
}
#endif

}  // namespace

bool ReplicaBand::auto_simd() noexcept {
  return detail::simd_runtime_enabled();
}

ReplicaBand::ReplicaBand(std::span<SeparationChain* const> chains,
                         std::size_t block_size, Mode mode)
    : chains_(chains.begin(), chains.end()),
      block_size_(std::clamp<std::size_t>(block_size, 1, kMaxBlockSize)) {
  if (chains_.empty() || chains_.size() > kMaxWidth) {
    throw std::invalid_argument("ReplicaBand: width must be in [1, 16]");
  }
  for (SeparationChain* c : chains_) {
    if (c == nullptr) throw std::invalid_argument("ReplicaBand: null chain");
  }
  const SeparationChain& head = *chains_.front();
  for (const SeparationChain* c : chains_) {
    if (c->system().size() != head.system().size() ||
        c->params().lambda != head.params().lambda ||
        c->params().gamma != head.params().gamma ||
        c->params().swaps_enabled != head.params().swaps_enabled) {
      throw std::invalid_argument(
          "ReplicaBand: chains must share (n, lambda, gamma, swaps_enabled)");
    }
  }
  simd_ = mode == Mode::kAuto && auto_simd();
  const std::size_t w = chains_.size();
  group_lanes_ = simd_ ? w / 8 * 8 : 0;
  pipes_.resize(w);
  pi_.resize(block_size_ * w);
  dir_.resize(block_size_ * w);
  q_.resize(block_size_ * w);
  raw_.resize(3 * block_size_);
  lane_counts_.resize(w);
  // The 2-D threshold table (see the header): for each (a, b) compute
  // the exact IEEE product w = λ^a · γ^b that step() compares against,
  // then binary-search the monotone decoded-uniform curve for the
  // count of raw values accepted by `q < w`. All lanes share (λ, γ),
  // so one table serves the band.
  for (int a = -5; a <= 5; ++a) {
    for (int b = -SeparationChain::kMaxExp; b <= SeparationChain::kMaxExp;
         ++b) {
      const double wt = head.pow_lambda_[SeparationChain::kMaxExp + a] *
                        head.pow_gamma_[SeparationChain::kMaxExp + b];
      // First v in [0, 2^53] with q(v) >= wt, where q(v) is exactly
      // util::decode_uniform_open's (double(v) + 0.5) * 2^-53. Every
      // raw >> 11 below the boundary accepts, everything at or above
      // rejects — the same partition the scalar double compare makes.
      std::uint64_t lo = 0;
      std::uint64_t hi = std::uint64_t{1} << 53;
      while (lo < hi) {
        const std::uint64_t mid = lo + (hi - lo) / 2;
        const double qv = (static_cast<double>(mid) + 0.5) * 0x1.0p-53;
        if (qv < wt) {
          lo = mid + 1;
        } else {
          hi = mid;
        }
      }
      itab_[static_cast<std::size_t>((a + 5) * kWtabStride + (b + 12))] =
          static_cast<std::int64_t>(lo);
    }
  }
}

void ReplicaBand::run(std::uint64_t iterations) {
  if (iterations == 0) return;
  std::array<std::uint64_t, kMaxWidth> quotas;
  quotas.fill(iterations);
  run(std::span<const std::uint64_t>(quotas.data(), width()));
}

void ReplicaBand::run(std::span<const std::uint64_t> quotas) {
  if (quotas.size() != width()) {
    throw std::invalid_argument("ReplicaBand: quota count != width");
  }
  const std::size_t G = group_lanes_;
  std::array<std::uint64_t, kMaxWidth> rem{};
  std::copy(quotas.begin(), quotas.end(), rem.begin());
  std::uint64_t most = G > 0 ? *std::max_element(rem.begin(), rem.begin() + G)
                             : 0;
  std::array<std::size_t, kMaxWidth> active{};
  while (most > 0) {
    const std::size_t count =
        static_cast<std::size_t>(std::min<std::uint64_t>(most, block_size_));
    for (std::size_t r = 0; r < G; ++r) {
      active[r] =
          static_cast<std::size_t>(std::min<std::uint64_t>(rem[r], count));
    }
    run_block(active.data());
    most = 0;
    for (std::size_t r = 0; r < G; ++r) {
      rem[r] -= active[r];
      most = std::max(most, rem[r]);
    }
  }
  // Every lane outside the SIMD groups runs its whole quota through its
  // pipeline.
  for (std::size_t r = G; r < width(); ++r) {
    if (rem[r] > 0) run_lane(r, rem[r]);
  }
}

void ReplicaBand::run_lane(std::size_t r, std::uint64_t steps) {
  std::unique_ptr<StepPipeline>& pipe = pipes_[r];
  if (!pipe) pipe = std::make_unique<StepPipeline>(*chains_[r], block_size_);
  const StepPipeline::Stats before = pipe->stats();
  pipe->run(steps);
  const StepPipeline::Stats& after = pipe->stats();
  stats_.refill_words += after.refill_words - before.refill_words;
  stats_.tail_words += after.tail_words - before.tail_words;
  stats_.scalar_steps += steps;
}

void ReplicaBand::run_block(const std::size_t* active) {
  ++stats_.blocks;
  const std::size_t G = group_lanes_;

  // DECODE: each full 8-lane group runs the vectorized generator+Lemire
  // path over the group's uniform tick prefix; ragged per-lane tails use
  // the scalar bulk-refill decode. Word consumption per lane is
  // identical either way.
  for (std::size_t g = 0; g < G; g += 8) {
    const std::size_t uniform = *std::min_element(active + g, active + g + 8);
    if (uniform > 0) decode_group_simd(g, uniform);
    for (std::size_t j = 0; j < 8; ++j) {
      if (active[g + j] > uniform) {
        decode_lane(g + j, uniform, active[g + j]);
      }
    }
  }

  // EXECUTE: one walker for one group or, at width 16, both groups
  // interleaved through one tick loop; lanes whose quota ends early are
  // masked off tick by tick.
  if (G == 16) {
    execute_group_simd<2>(active);
  } else {
    execute_group_simd<1>(active);
  }
  for (std::size_t r = 0; r < G; ++r) stats_.simd_steps += active[r];
  flush_counters(active);
}

void ReplicaBand::decode_lane(std::size_t r, std::size_t from,
                              std::size_t to) {
  if (from >= to) return;
  const std::size_t W = width();
  const std::uint64_t n = chains_[0]->sys_.size();
  util::Rng& rng = chains_[r]->rng_;
  const std::size_t words = 3 * (to - from);
  std::uint64_t* const raw = raw_.data();
  rng.fill(raw, words);
  stats_.refill_words += words;
  std::size_t cursor = 0;
  std::uint64_t tail = 0;
  const auto take = [&]() noexcept {
    if (cursor < words) return raw[cursor++];
    ++tail;
    return rng.next();
  };
  for (std::size_t t = from; t < to; ++t) {
    pi_[t * W + r] = static_cast<std::int32_t>(util::lemire_below(take, n));
    dir_[t * W + r] = static_cast<std::int32_t>(util::lemire_below(take, 6));
    q_[t * W + r] = take();
  }
  stats_.tail_words += tail;
}

void ReplicaBand::apply_group(std::size_t g8, int mm_macc, int mm_sacc,
                              const Spill& sp) {
  // Accepted lanes apply scalar through the delta-fed mutators step()
  // uses, which keep each lane's grid current.
  for (int m = mm_macc; m != 0; m &= m - 1) {
    const int j = std::countr_zero(static_cast<unsigned>(m));
    system::ParticleSystem& sys =
        chains_[g8 + static_cast<std::size_t>(j)]->sys_;
    const auto pi = static_cast<ParticleIndex>(sp.pi[j]);
    const Node dst =
        lattice::neighbor(sys.position(pi), static_cast<int>(sp.dir[j]));
    sys.apply_move(pi, dst, sp.de[j], sp.dh[j]);
  }
  for (int m = mm_sacc; m != 0; m &= m - 1) {
    const int j = std::countr_zero(static_cast<unsigned>(m));
    system::ParticleSystem& sys =
        chains_[g8 + static_cast<std::size_t>(j)]->sys_;
    const auto qj = static_cast<ParticleIndex>(
                        static_cast<std::uint32_t>(sp.lpc[j]) &
                        cell::kIndexMask) -
                    1;
    sys.apply_swap(static_cast<ParticleIndex>(sp.pi[j]), qj, -sp.sx[j]);
  }
}

void ReplicaBand::flush_counters(const std::size_t* done) {
  for (std::size_t r = 0; r < group_lanes_; ++r) {
    SeparationChain::Counters& out = chains_[r]->counters_;
    LaneCounts& c = lane_counts_[r];
    out.steps += done[r];
    out.move_proposals += c.move_proposals;
    out.moves_accepted += c.moves_accepted;
    out.rejected_five += c.rejected_five;
    out.rejected_locality += c.rejected_locality;
    out.rejected_metropolis += c.rejected_metropolis;
    out.swap_proposals += c.swap_proposals;
    out.swaps_accepted += c.swaps_accepted;
    c = LaneCounts{};
  }
}

#if defined(SOPS_BAND_X86)

__attribute__((target("avx2"))) void ReplicaBand::decode_group_simd(
    std::size_t g8, std::size_t ticks) {
  const std::size_t W = width();
  const std::uint64_t n = chains_[0]->sys_.size();

  // Pre-call snapshot: the rejection replay path restarts a lane's
  // stream from here.
  util::Rng::State snap[8];
  alignas(32) std::uint64_t st[4][8];
  for (std::size_t j = 0; j < 8; ++j) {
    snap[j] = chains_[g8 + j]->rng_.state();
    for (std::size_t k = 0; k < 4; ++k) st[k][j] = snap[j][k];
  }
  __m256i s0a = _mm256_load_si256(reinterpret_cast<const __m256i*>(&st[0][0]));
  __m256i s0b = _mm256_load_si256(reinterpret_cast<const __m256i*>(&st[0][4]));
  __m256i s1a = _mm256_load_si256(reinterpret_cast<const __m256i*>(&st[1][0]));
  __m256i s1b = _mm256_load_si256(reinterpret_cast<const __m256i*>(&st[1][4]));
  __m256i s2a = _mm256_load_si256(reinterpret_cast<const __m256i*>(&st[2][0]));
  __m256i s2b = _mm256_load_si256(reinterpret_cast<const __m256i*>(&st[2][4]));
  __m256i s3a = _mm256_load_si256(reinterpret_cast<const __m256i*>(&st[3][0]));
  __m256i s3b = _mm256_load_si256(reinterpret_cast<const __m256i*>(&st[3][4]));

  const __m256i vn = _mm256_set1_epi64x(static_cast<long long>(n));
  const __m256i v6 = _mm256_set1_epi64x(6);
  const __m256i vthrn =
      _mm256_set1_epi64x(static_cast<long long>((0 - n) % n));
  const __m256i vthr6 = _mm256_set1_epi64x(
      static_cast<long long>((0 - std::uint64_t{6}) % 6));
  __m256i reja = _mm256_setzero_si256();
  __m256i rejb = _mm256_setzero_si256();

  std::int32_t* const pi = pi_.data();
  std::int32_t* const dr = dir_.data();
  std::uint64_t* const q = q_.data();
  for (std::size_t t = 0; t < ticks; ++t) {
    const std::size_t idx = t * W + g8;
    __m256i xa = xo_next4(s0a, s1a, s2a, s3a);
    __m256i xb = xo_next4(s0b, s1b, s2b, s3b);
    store_lo32x8(pi + idx, lemire4(xa, vn, vthrn, reja),
                 lemire4(xb, vn, vthrn, rejb));
    xa = xo_next4(s0a, s1a, s2a, s3a);
    xb = xo_next4(s0b, s1b, s2b, s3b);
    store_lo32x8(dr + idx, lemire4(xa, v6, vthr6, reja),
                 lemire4(xb, v6, vthr6, rejb));
    // The Metropolis draw stays a raw word: the decide kernel compares
    // raw >> 11 against integer thresholds, so no double conversion
    // happens anywhere on the SIMD path.
    xa = xo_next4(s0a, s1a, s2a, s3a);
    xb = xo_next4(s0b, s1b, s2b, s3b);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(q + idx), xa);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(q + idx + 4), xb);
  }

  _mm256_store_si256(reinterpret_cast<__m256i*>(&st[0][0]), s0a);
  _mm256_store_si256(reinterpret_cast<__m256i*>(&st[0][4]), s0b);
  _mm256_store_si256(reinterpret_cast<__m256i*>(&st[1][0]), s1a);
  _mm256_store_si256(reinterpret_cast<__m256i*>(&st[1][4]), s1b);
  _mm256_store_si256(reinterpret_cast<__m256i*>(&st[2][0]), s2a);
  _mm256_store_si256(reinterpret_cast<__m256i*>(&st[2][4]), s2b);
  _mm256_store_si256(reinterpret_cast<__m256i*>(&st[3][0]), s3a);
  _mm256_store_si256(reinterpret_cast<__m256i*>(&st[3][4]), s3b);
  for (std::size_t j = 0; j < 8; ++j) {
    chains_[g8 + j]->rng_.set_state(
        {st[0][j], st[1][j], st[2][j], st[3][j]});
  }

  const int mrej = _mm256_movemask_pd(_mm256_castsi256_pd(reja)) |
                   (_mm256_movemask_pd(_mm256_castsi256_pd(rejb)) << 4);
  // A replayed lane's words are counted by its replay, not here.
  stats_.refill_words +=
      3 * ticks * static_cast<std::size_t>(8 - std::popcount(
                                                   static_cast<unsigned>(mrej)));
  if (mrej != 0) [[unlikely]] {
    // A lane hit the Lemire rejection branch, so its fast-path decode
    // is wrong from that draw on: replay the whole lane scalar from
    // the snapshot — the definitive decode, rejection spills included.
    for (int m = mrej; m != 0; m &= m - 1) {
      const auto j = static_cast<std::size_t>(
          std::countr_zero(static_cast<unsigned>(m)));
      chains_[g8 + j]->rng_.set_state(snap[j]);
      decode_lane(g8 + j, 0, ticks);
    }
  }
}

template <std::size_t kGroups>
__attribute__((target("avx2"))) void ReplicaBand::execute_group_simd(
    const std::size_t* active) {
  // At kGroups = 2 (width 16) both 8-lane groups advance through ONE
  // tick loop, the second group's decide issued while the first one's
  // gathers are still in flight, so neither group's gather latency
  // serializes the tick. Each tick decides every group, then applies
  // every group. Lanes never read another lane's grid, so running both
  // decides before either apply changes scheduling, not results.
  constexpr std::size_t kLanes = 8 * kGroups;
  const BandEnv env{pi_.data(), dir_.data(), q_.data(), itab_, width(),
                    chains_[0]->params_.swaps_enabled};
  Group grp[kGroups];
#pragma GCC unroll 2
  for (std::size_t g = 0; g < kGroups; ++g) {
    group_init(grp[g], 8 * g, active, chains_.data());
  }
  const std::size_t to = *std::max_element(active, active + kLanes);
  const std::size_t tmin = *std::min_element(active, active + kLanes);

  // Ticks below every lane's quota run the maskless decide; only the
  // ragged tail (usually empty — uniform quotas are the common case)
  // pays the per-tick quota masking. A group's cell bases are re-loaded
  // only after a tick that applied something — an apply that creates a
  // page is the only thing that moves a lane's pool — so the common
  // all-reject tick never reloads them.
  Spill sp[kGroups];
  int mm[kGroups];
  std::size_t t = 0;
  for (; t < tmin; ++t) {
#pragma GCC unroll 2
    for (std::size_t g = 0; g < kGroups; ++g) {
      mm[g] = band_decide<false>(env, grp[g], t, &sp[g]);
    }
#pragma GCC unroll 2
    for (std::size_t g = 0; g < kGroups; ++g) {
      if (mm[g] != 0) {
        apply_group(8 * g, mm[g] & 0xFF, mm[g] >> 8, sp[g]);
        load_cell_bases(grp[g], chains_.data());
      }
    }
  }
  for (; t < to; ++t) {
#pragma GCC unroll 2
    for (std::size_t g = 0; g < kGroups; ++g) {
      mm[g] = band_decide<true>(env, grp[g], t, &sp[g]);
    }
#pragma GCC unroll 2
    for (std::size_t g = 0; g < kGroups; ++g) {
      if (mm[g] != 0) {
        apply_group(8 * g, mm[g] & 0xFF, mm[g] >> 8, sp[g]);
        load_cell_bases(grp[g], chains_.data());
      }
    }
  }

  // Flush the vector accumulators into the per-lane counters.
  for (const Group& G : grp) {
    alignas(32) std::int32_t acc[7][8];
    _mm256_store_si256(reinterpret_cast<__m256i*>(acc[0]), G.acc_movep);
    _mm256_store_si256(reinterpret_cast<__m256i*>(acc[1]), G.acc_macc);
    _mm256_store_si256(reinterpret_cast<__m256i*>(acc[2]), G.acc_r5);
    _mm256_store_si256(reinterpret_cast<__m256i*>(acc[3]), G.acc_rloc);
    _mm256_store_si256(reinterpret_cast<__m256i*>(acc[4]), G.acc_rmet);
    _mm256_store_si256(reinterpret_cast<__m256i*>(acc[5]), G.acc_swapp);
    _mm256_store_si256(reinterpret_cast<__m256i*>(acc[6]), G.acc_sacc);
    for (int j = 0; j < 8; ++j) {
      LaneCounts& lc = lane_counts_[G.g8 + static_cast<std::size_t>(j)];
      lc.move_proposals += static_cast<std::uint32_t>(acc[0][j]);
      lc.moves_accepted += static_cast<std::uint32_t>(acc[1][j]);
      lc.rejected_five += static_cast<std::uint32_t>(acc[2][j]);
      lc.rejected_locality += static_cast<std::uint32_t>(acc[3][j]);
      lc.rejected_metropolis += static_cast<std::uint32_t>(acc[4][j]);
      lc.swap_proposals += static_cast<std::uint32_t>(acc[5][j]);
      lc.swaps_accepted += static_cast<std::uint32_t>(acc[6][j]);
    }
  }
}

#else  // !SOPS_BAND_X86

void ReplicaBand::decode_group_simd(std::size_t g8, std::size_t ticks) {
  // Unreachable in practice (simd_ is never true off x86-64); decode
  // scalar so the contract holds if it is ever called anyway.
  for (std::size_t j = 0; j < 8; ++j) decode_lane(g8 + j, 0, ticks);
}

template <std::size_t kGroups>
void ReplicaBand::execute_group_simd(const std::size_t*) {
  // Unreachable: simd_ can never be true off x86-64 (auto_simd() is
  // false), so no lane ever reaches a SIMD group.
}

template void ReplicaBand::execute_group_simd<1>(const std::size_t*);
template void ReplicaBand::execute_group_simd<2>(const std::size_t*);

#endif

}  // namespace sops::core
