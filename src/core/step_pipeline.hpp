// Batched run loop for Algorithm 1 — the engine behind
// SeparationChain::run.
//
// step() interleaves three unrelated kinds of work at every iteration:
// RNG decoding (two Lemire bounded draws + one double), a dependent
// chain of occupancy-table probes (the single-gather kernel of
// neighborhood.hpp), and bookkeeping (counters, Metropolis table
// lookups). The pipeline splits a trajectory into blocks and runs each
// phase over the whole block:
//
//  1. REFILL — draw the block's raw xoshiro256++ outputs in one tight
//     loop (3 words per step, the no-rejection minimum of the
//     pick-particle / pick-direction / pick-q triple).
//  2. DECODE — turn the raw words into (particle, dir, q) proposal
//     records with util::lemire_below — the *same* decode Rng::below
//     runs, so the word consumption order (including Lemire rejection
//     redraws, which spill past the refilled block into direct
//     rng.next() calls) is identical to calling step() in a loop.
//     Proposals depend only on the draws, never on the configuration,
//     so the whole block can be decoded before any step executes.
//  3. EXECUTE — walk the decoded block over the mirror (below). On
//     AVX2 machines the walk runs a *speculative window*: at every
//     8-proposal boundary one vectorized pass gathers the full 10-node
//     neighborhoods of the next eight pre-decoded proposals (one
//     proposal per SIMD lane — positions by epi64 gather, ring cells
//     by epi32 gathers over vpermd-selected direction offsets) and
//     assembles their occupancy/nibble words up front. The window is
//     stamped with the block's mutation epoch; only an accepted
//     move/swap advances the epoch, so a stamped window stays valid
//     until the next accept — accepts are a small minority, so most
//     speculative gathers land. A proposal whose window stamp is stale
//     (or that never got one: ragged tail, scalar build) falls back to
//     the plain position read + gather — speculation is a hint, never
//     an input. Off the SIMD path the walk keeps the older one-ahead
//     position snapshot + mirror-row prefetch, with the same epoch
//     rule. The Metropolis pow_lambda_/pow_gamma_ table bases and the
//     counter updates are hoisted out of the per-step path: counters
//     accumulate in locals and flush once per block.
//
// The execute phase reads occupancy through a pipeline-private *dense
// mirror* of the occupancy table: a bounding-box grid of 32-bit cells
// in the wide layout of cell_codec.hpp (0 = empty), so one gather is
// ten direct array loads assembled branch-free into a
// NeighborhoodGather — no hash probe chains, no data-dependent
// branches. The mirror is built from the particle system at every run()
// entry (the system may have been stepped externally between calls) and
// rebuilt with fresh margin when a move drifts near the box edge (the
// box rule of cell_codec.hpp). Within a run it is the only occupancy
// structure kept current: accepted moves/swaps go through the system's
// *_unchecked mutators, which update positions and edge counts but
// leave the FlatMap index stale, and run() rebuilds the index once on
// exit. When the mirror is refused at entry (disconnected outliers
// blowing up the bounding box) or declined by a mid-block drift
// rebuild, the pipeline reindexes once and hands the block's remaining
// decoded proposals to SeparationChain::step_with — the body of step()
// itself, over the FlatMap. There is no second FlatMap walk to keep in
// step: the reference twin the pipeline is tested against is also its
// fallback.
//
// The contract, pinned by tests/step_pipeline_test.cpp at every block
// size and segment split: a trajectory driven by StepPipeline::run is
// byte-identical to one driven by step() — same positions, same
// counters, same final RNG state.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "src/core/cell_codec.hpp"
#include "src/core/markov_chain.hpp"

// The window gather is compiled for AVX2 behind runtime dispatch; the
// target attribute must be visible on the declaration so every caller
// agrees on the function's target (see replica_band.hpp for the same
// pattern).
#if defined(__x86_64__) || defined(_M_X64)
#define SOPS_PIPE_AVX2_FN __attribute__((target("avx2")))
#else
#define SOPS_PIPE_AVX2_FN
#endif

namespace sops::core {

class StepPipeline {
 public:
  static constexpr std::size_t kDefaultBlockSize = 256;
  /// Cap keeps the proposal and raw-word buffers comfortably inside L2.
  static constexpr std::size_t kMaxBlockSize = 4096;

  /// Proposals covered by one speculative window gather (one AVX2
  /// lane set: eight proposals, ten gathered cells each).
  static constexpr std::size_t kSpecWindow = 8;

  /// Telemetry for tests and benchmarks; never feeds back into the
  /// trajectory.
  struct Stats {
    std::uint64_t blocks = 0;            ///< blocks executed
    std::uint64_t refill_words = 0;      ///< raw words drawn in refill loops
    std::uint64_t tail_words = 0;        ///< Lemire-rejection spill draws
    std::uint64_t speculative_hits = 0;  ///< speculation still valid at use
    std::uint64_t speculative_misses = 0;///< epoch moved; plain fallback
    std::uint64_t mirror_rebuilds = 0;   ///< dense-mirror (re)builds
    std::uint64_t spec_windows = 0;      ///< 8-proposal window gathers issued
    std::uint64_t reindexes = 0;         ///< occupancy-index repairs
  };

  /// Binds to `chain` (kept by reference; must outlive the pipeline).
  /// `block_size` is clamped to [1, kMaxBlockSize]; it tunes only the
  /// phase granularity, never the trajectory.
  explicit StepPipeline(SeparationChain& chain,
                        std::size_t block_size = kDefaultBlockSize);

  /// Runs `iterations` steps of the chain, byte-identical to calling
  /// chain.step() that many times. Segments may be split across calls
  /// arbitrarily: no RNG draw ever outlives the call that consumes it.
  void run(std::uint64_t iterations);

  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }
  [[nodiscard]] std::size_t block_size() const noexcept { return block_size_; }

 private:
  /// One decoded proposal plus the speculative position snapshot taken
  /// during the scalar (non-window) execute walk.
  struct Proposal {
    system::ParticleIndex pi = system::kNoParticle;
    std::int32_t dir = 0;
    double q = 0.0;
    lattice::Node l{};          ///< position snapshot (valid iff epochs match)
    std::int64_t base = 0;      ///< mirror cell index of l
    std::uint64_t epoch = ~0ULL;///< mutation epoch at snapshot time
  };

  void run_block(std::size_t count);
  /// Walks decoded proposals [0, count) over the mirror and returns the
  /// index it stopped at: `count` normally, or the resume point when
  /// the mirror was declined mid-walk (drift rebuild hitting the box
  /// cap).
  std::size_t execute_block(std::size_t count);
  /// One speculative window: AVX2-gathers the 10-node neighborhoods of
  /// proposals [i0, i0 + kSpecWindow) against the current mirror state
  /// and stores their assembled occupancy masks / nibble words / lp
  /// cells into the spec_* arrays. Valid until the next accepted
  /// move/swap (the caller stamps the window with the mutation epoch).
  SOPS_PIPE_AVX2_FN void spec_gather8(std::size_t i0,
                                      const std::uint32_t* cells);

  /// Rebuilds the dense mirror from the particle system, or disables it
  /// (mirror_ok_ = false) when the bounding box is uneconomical.
  void rebuild_mirror();
  [[nodiscard]] std::int64_t mirror_index(lattice::Node v) const noexcept {
    return (static_cast<std::int64_t>(v.y) - y0_) * w_ +
           (static_cast<std::int64_t>(v.x) - x0_);
  }

  SeparationChain& chain_;
  std::size_t block_size_;
  bool simd_ = false;                ///< AVX2 window-gather speculation
  std::vector<std::uint64_t> raw_;   ///< refilled raw xoshiro outputs
  std::vector<Proposal> props_;      ///< decoded block
  Stats stats_;

  // Decode SoA twin of props_ (pi and dir as packed int32), feeding the
  // window gather's vector loads; written by the same decode walk.
  std::vector<std::int32_t> spi_;
  std::vector<std::int32_t> sdir_;
  // Speculative window results, indexed like props_: assembled
  // occupancy mask, ring-nibble word (nodes 0..7 at bits 4k), raw lp
  // cell, and mirror base index of each covered proposal.
  std::vector<std::int32_t> spec_base_;
  std::vector<std::int32_t> spec_occ_;
  std::vector<std::uint32_t> spec_nib_;
  std::vector<std::uint32_t> spec_lpc_;

  // Dense occupancy mirror (execute-phase cache; see file comment).
  std::vector<std::uint32_t> cells_;
  std::int64_t x0_ = 0, y0_ = 0;     ///< box origin (axial coordinates)
  std::int64_t w_ = 0, h_ = 0;       ///< box extent
  bool mirror_ok_ = false;
  std::array<std::array<std::int64_t, 8>, 6> ring_off_{}; ///< per-dir ring cell offsets
  std::array<std::int64_t, 6> lp_off_{};                  ///< per-dir target cell offset
  // The same offsets as int32, transposed for vpermd selection by a
  // direction vector: ring_off32_[k][dir] (dirs 6/7 unused). In-bounds
  // whenever the 64-bit tables are: the mirror cap bounds every cell
  // index below 2^30.
  alignas(32) std::int32_t ring_off32_[8][8] = {};
  alignas(32) std::int32_t lp_off32_[8] = {};
};

}  // namespace sops::core
