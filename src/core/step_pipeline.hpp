// Batched run loop for Algorithm 1 — the engine behind
// SeparationChain::run.
//
// step() interleaves three unrelated kinds of work at every iteration:
// RNG decoding (two Lemire bounded draws + one double), a dependent
// chain of occupancy loads (the single-gather kernel of
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
//  3. EXECUTE — feed the decoded proposals, in order, to
//     SeparationChain::step_with, the body step() itself runs. On AVX2
//     machines the walk runs a *speculative window*: at every
//     8-proposal boundary one vectorized pass gathers the full 10-node
//     neighborhoods of the next eight pre-decoded proposals (one
//     proposal per SIMD lane — each proposer's cell address from the
//     particle system's address SoA by an epi32 gather, then the ring
//     cells of its page by epi32 gathers over vpermd-selected
//     compile-time direction offsets) and assembles their
//     occupancy/nibble words up front. The window is valid until the
//     next step that changes the configuration; accepts are a small
//     minority, so most speculative gathers land and step_with takes
//     them instead of gathering again. A proposal the window does not
//     cover validly (ragged tail, an accept earlier in the window,
//     scalar build) is gathered by step_with itself — speculation is a
//     hint, never an input.
//
// There is no pipeline-private occupancy: every read and write goes to
// the particle system's paged grid, which is never stale, so run() has
// nothing to build at entry and nothing to repair at exit.
//
// The contract, pinned by tests/step_pipeline_test.cpp at every block
// size and segment split: a trajectory driven by StepPipeline::run is
// byte-identical to one driven by step() — same positions, same
// counters, same final RNG state.
#pragma once

#include <cstdint>
#include <vector>

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
    std::uint64_t speculative_hits = 0;  ///< window gather still valid at use
    std::uint64_t speculative_misses = 0;///< gathered by step_with instead
    std::uint64_t spec_windows = 0;      ///< 8-proposal window gathers issued
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
  void run_block(std::size_t count);
  /// One speculative window: AVX2-gathers the 10-node neighborhoods of
  /// proposals [i0, i0 + kSpecWindow) against the current grid and
  /// stores their assembled occupancy masks / nibble words / lp cells
  /// into the spec_* arrays. Valid until the next configuration change.
  SOPS_PIPE_AVX2_FN void spec_gather8(std::size_t i0);

  SeparationChain& chain_;
  std::size_t block_size_;
  bool simd_ = false;                ///< AVX2 window-gather speculation
  std::vector<std::uint64_t> raw_;   ///< refilled raw xoshiro outputs
  Stats stats_;

  // The decoded block as SoA (pi and dir packed int32, feeding the
  // window gather's vector loads).
  std::vector<std::int32_t> spi_;
  std::vector<std::int32_t> sdir_;
  std::vector<double> sq_;
  // Speculative window results, indexed like the block: assembled
  // occupancy mask, ring-nibble word (nodes 0..7 at bits 4k) and raw lp
  // cell of each covered proposal.
  std::vector<std::int32_t> spec_occ_;
  std::vector<std::uint32_t> spec_nib_;
  std::vector<std::uint32_t> spec_lpc_;
};

}  // namespace sops::core
