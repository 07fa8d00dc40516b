// Across-replica SoA band engine: lock-step advance of independent
// replicas of the same (n, λ, γ) point.
//
// Within one chain, steps are inherently sequential — every proposal
// reads the configuration the previous step wrote. Across the replicas
// of a sweep point they are perfectly independent, which is the axis
// the StepPipeline (step_pipeline.hpp) cannot vectorize. ReplicaBand
// binds 1–16 chains sharing the same particle count and parameters and
// advances them in lock-step "ticks", one step per replica per tick:
//
//  - REFILL/DECODE keeps one util::Rng stream per replica, and for a
//    full 8-lane group runs the stream itself in SIMD: the xoshiro256++
//    states live as structure-of-arrays vector registers, each tick
//    generates the band's three raw words with vector rotate/xor, and
//    the Lemire multiply-shift decode happens in 64-bit vector lanes.
//    This AVX2 body is the band's one vector decode. It is bit-exact:
//    a lane whose word would take the (once per ~2^40 draws) rejection
//    branch is detected and replayed on the scalar util::lemire_below
//    path from its pre-decode state, so word consumption stays
//    identical to serial step(). Ragged lane tails decode scalar
//    (Rng::fill + lemire_below) as well.
//    Proposals land in lane-transposed arrays (tick-major, lane-minor)
//    so one tick's band of proposals is a contiguous vector load.
//  - EXECUTE vectorizes ACROSS lanes, reading each lane's own paged
//    occupancy grid (particle_system.hpp) — the one occupancy
//    structure every executor shares, never stale and never refused.
//    Lanes have separate page pools, so a group keeps one 64-bit
//    lane-base vector per four lanes for each pool (its cells() and
//    addresses() pointers divided by 4). A tick gathers each lane's
//    proposer address from addresses(), adds the compile-time
//    grid::kRingOffset/kLpOffset offsets (transposed once and picked by
//    direction with vpermd), widens the sums to 64 bits beside the lane
//    bases, and gathers the 10-node neighborhood with
//    _mm256_i64gather_epi32, two per eight lanes; the proposer's color
//    nibble comes from its own cell. The Properties 4/5 ring LUT is
//    answered by an in-register permute, and the Metropolis accept
//    comes from gathered integer thresholds (itab_ below) — the move
//    and swap weight indices are blended into one shared compare, exact
//    because λ^0 ≡ 1.0 — bit-identical per lane to step()'s
//    `q >= λ^Δe · γ^Δe_i` (resp. `q >= γ^sx`) test.
//    Lanes whose step quota ran out mid-block are masked off inside
//    the tick instead of demoting the group, so ragged quotas stay
//    vectorized. Accepted lanes apply scalar through the delta-fed
//    mutators step() uses, which keep the lane's grid current; a page
//    created by an apply can reallocate that lane's pool, so the cell
//    bases are re-loaded after every tick that applied something.
//    Nothing is left to repair when run() returns.
//
// One SIMD walker serves one group or two. Width-16 bands run their two
// 8-lane groups *interleaved* through it: each tick decides both groups
// (group B's neighborhood gathers issue while group A's SWAR/LUT/
// Metropolis arithmetic is still in flight, so gather latency hides
// behind the other group's independent work), then applies both. Lanes
// are independent chains, so the pairing changes instruction
// scheduling only, never any lane's trajectory.
//
// Dispatch is runtime: the SIMD path engages when the CPU reports AVX2
// and `SOPS_FORCE_SCALAR` is not set, whatever the lanes' shapes. Every
// lane outside a full 8-lane group runs through its own StepPipeline
// (step_pipeline.hpp), built on first use, for its whole quota:
// Mode::kScalar and non-AVX2 hosts, and the W % 8 remainder lanes. No
// stream is rewound and no word is drawn twice. All paths produce the
// same bytes.
//
// The contract, pinned by tests/replica_band_test.cpp: after
// ReplicaBand::run, every bound chain is byte-identical to a twin
// advanced by the same number of serial step() calls — positions,
// colors, edge counts, all eight counters, and post-run RNG state.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "src/core/markov_chain.hpp"
#include "src/core/step_pipeline.hpp"

// Member templates need the target attribute on their in-class
// declaration: GCC resolves a template's target at instantiation from
// the declaration it sees, not from the out-of-class definition.
#if defined(__x86_64__) || defined(_M_X64)
#define SOPS_BAND_AVX2_FN __attribute__((target("avx2")))
#else
#define SOPS_BAND_AVX2_FN
#endif

namespace sops::core {

class ReplicaBand {
 public:
  /// Lanes per band. 8 is one AVX2 gather; 16 runs two SIMD groups
  /// interleaved through one tick loop, hiding gather latency behind
  /// the sibling group's arithmetic.
  static constexpr std::size_t kMaxWidth = 16;
  static constexpr std::size_t kDefaultBlockSize = 256;
  static constexpr std::size_t kMaxBlockSize = 4096;

  /// Execution-path selection. kAuto resolves to SIMD when the CPU
  /// supports AVX2 and the SOPS_FORCE_SCALAR environment variable is
  /// unset; kScalar runs every lane through its pipeline (CI exercises
  /// it explicitly).
  enum class Mode { kAuto, kScalar };

  /// Telemetry only; never feeds back into any trajectory. Surfaced as
  /// benchmark counters by BM_ReplicaBand (simd_fraction = simd_steps /
  /// (simd_steps + scalar_steps) is the SIMD-coverage gate CI checks).
  /// The lane pipelines' refill_words and tail_words are folded in, so
  /// simd_steps + scalar_steps and refill_words cover every step of both
  /// tiers exactly once.
  struct Stats {
    std::uint64_t blocks = 0;        ///< SIMD-group decode/execute blocks
    std::uint64_t refill_words = 0;  ///< bulk-refilled raw words
    std::uint64_t tail_words = 0;    ///< Lemire-rejection spill draws
    std::uint64_t simd_steps = 0;    ///< steps executed on the SIMD path
    std::uint64_t scalar_steps = 0;  ///< steps run by the lane pipelines
    /// Always 0 (the band keeps no arena); stays for perfbench until the
    /// next benchmark change.
    std::uint64_t arena_rebuilds = 0;
  };

  /// Binds to `chains` (kept by pointer; all must outlive the band).
  /// Requires 1..kMaxWidth chains agreeing on particle count, λ, γ, and
  /// swaps_enabled; throws std::invalid_argument otherwise. Replicas
  /// differ only in configuration and RNG stream — exactly the sweep
  /// grid's replica axis.
  explicit ReplicaBand(std::span<SeparationChain* const> chains,
                       std::size_t block_size = kDefaultBlockSize,
                       Mode mode = Mode::kAuto);

  /// Advances every lane by `iterations` steps, byte-identical per lane
  /// to `iterations` serial step() calls on that chain.
  void run(std::uint64_t iterations);

  /// Per-lane step quotas (size() == width()): lane r advances by
  /// exactly quotas[r] steps. Lanes whose quota runs out mid-block are
  /// masked off tick by tick; the rest stay vectorized. This is how the
  /// ensemble drives replicas whose measurement schedules diverge.
  /// The band keeps no state of its lanes' configurations, so a chain
  /// may be stepped or restored between run() calls.
  void run(std::span<const std::uint64_t> quotas);

  [[nodiscard]] std::size_t width() const noexcept { return chains_.size(); }
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }
  /// True when the resolved mode uses AVX2 for the full 8-lane groups.
  [[nodiscard]] bool simd_enabled() const noexcept { return simd_; }
  /// Always false (the band keeps no arena); stays for perfbench until
  /// the next benchmark change.
  [[nodiscard]] bool arena_compact() const noexcept { return false; }

  /// What Mode::kAuto resolves to on this machine right now (CPU
  /// capability ∧ !SOPS_FORCE_SCALAR). Exposed for tests and benches.
  [[nodiscard]] static bool auto_simd() noexcept;

  /// Spilled per-tick decision vectors of one 8-lane group, handed from
  /// the SIMD decide kernel to the scalar apply walk. Written only on
  /// ticks with at least one accepted lane — most ticks never touch it.
  struct Spill {
    alignas(32) std::int32_t pi[8];
    alignas(32) std::int32_t dir[8];
    alignas(32) std::int32_t de[8];
    alignas(32) std::int32_t dh[8];
    alignas(32) std::int32_t sx[8];
    alignas(32) std::int32_t lpc[8];
  };

 private:
  /// Runs one block of the group lanes [0, group_lanes_): `active[r]`
  /// ticks each.
  void run_block(const std::size_t* active);
  /// Advances lane `r` by `steps` through its pipeline (built on first
  /// use) and folds the pipeline's telemetry into stats_.
  void run_lane(std::size_t r, std::uint64_t steps);
  /// Decodes ticks [from, to) of lane `r` on the scalar path: Rng::fill
  /// bulk refill + the shared util::lemire_below, rejection spills
  /// drawn from the live generator.
  void decode_lane(std::size_t r, std::size_t from, std::size_t to);
  /// Decodes ticks [0, ticks) for the full 8-lane group at `g8` with
  /// the vectorized AVX2 xoshiro256++/Lemire path; lanes that would hit
  /// the Lemire rejection branch are replayed scalar from their
  /// pre-call RNG state. Requires n < 2^24 (the vector rejection test's
  /// range).
  void decode_group_simd(std::size_t g8, std::size_t ticks);
  /// The band's one SIMD walker: executes ticks [0, max active[r]) for
  /// the kGroups 8-lane groups at lanes 0 and 8 with AVX2 gathers from
  /// the lanes' grids; lanes whose active count is below the current
  /// tick are masked off. At kGroups = 2 the two groups' instruction
  /// streams interleave so one group's gathers overlap the other's
  /// arithmetic.
  template <std::size_t kGroups>
  SOPS_BAND_AVX2_FN void execute_group_simd(const std::size_t* active);
  /// Applies one group's accepted moves/swaps (mask bits of mm_macc /
  /// mm_sacc) scalar through the delta-fed mutators.
  void apply_group(std::size_t g8, int mm_macc, int mm_sacc, const Spill& sp);
  void flush_counters(const std::size_t* done);

  std::vector<SeparationChain*> chains_;
  std::size_t block_size_;
  bool simd_ = false;
  /// Lanes in full 8-lane SIMD groups (0, 8 or 16); the rest run
  /// through pipes_.
  std::size_t group_lanes_ = 0;
  std::vector<std::unique_ptr<StepPipeline>> pipes_;

  // Decoded proposals, tick-major and lane-minor: tick t of lane r
  // lives at [t * width + r], so one tick is one contiguous band. q_
  // holds the RAW third word of each step, not the decoded double: the
  // SIMD accept compares (raw >> 11) against integer thresholds (itab_
  // below), so decoding to double happens only on scalar paths.
  std::vector<std::int32_t> pi_;
  std::vector<std::int32_t> dir_;
  std::vector<std::uint64_t> q_;
  std::vector<std::uint64_t> raw_;  ///< per-lane refill buffer (reused)

  // 2-D Metropolis threshold table, indexed like the weight grid:
  // itab_[(a+5)*kWtabStride + (b+12)] counts the raw-draw values v in
  // [0, 2^53) whose decoded uniform q(v) = (double(v) + 0.5)·2^-53
  // falls below w = pow_lambda_[a] * pow_gamma_[b] — i.e. step()'s
  // `q < w` accept set, computed once per (a, b) by binary search over
  // the exact scalar formula. q(v) is monotone in v, so the SIMD
  // accept is one signed 64-bit compare (raw >> 11) < itab_[idx]
  // against the gathered threshold: bit-identical to step()'s IEEE
  // compare without converting raw words to doubles at all. Moves read
  // (a, b) = (Δe, Δe_i) ∈ [-5, 5]²; swaps read (0, sx), sx ∈ [-10, 10]
  // (λ^0 ≡ 1.0 leaves γ^sx exact). Stride 32 makes the index one
  // shift+add. ~2.8 KB, L1-resident.
  static constexpr int kWtabStride = 32;
  alignas(64) std::int64_t itab_[11 * kWtabStride] = {};

  // Per-lane counter accumulators, flushed per block.
  struct LaneCounts {
    std::uint64_t move_proposals = 0, moves_accepted = 0, rejected_five = 0,
                  rejected_locality = 0, rejected_metropolis = 0,
                  swap_proposals = 0, swaps_accepted = 0;
  };
  std::vector<LaneCounts> lane_counts_;

  Stats stats_;
};

}  // namespace sops::core
