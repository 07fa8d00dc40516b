// Pipeline-equivalence suite: a trajectory driven by the batched
// StepPipeline must be byte-identical to one driven by step() — same
// positions, same counters, same final RNG state — at every block size
// and however the run is split into segments. This is the contract that
// lets SeparationChain::run (and every harness above it) sit on the
// pipeline while step() stays the reference twin.
#include "src/core/step_pipeline.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <unordered_set>
#include <vector>

#include "src/core/coloring.hpp"
#include "src/core/markov_chain.hpp"
#include "src/core/runner.hpp"
#include "src/core/simd_dispatch.hpp"
#include "src/lattice/shapes.hpp"
#include "src/util/rng.hpp"
#include "tests/grid_audit.hpp"

namespace sops::core {
namespace {

using system::ParticleSystem;

SeparationChain make_chain(std::size_t n, int k, Params params,
                           std::uint64_t seed) {
  util::Rng rng(seed);
  const auto nodes = lattice::random_blob(n, rng);
  const auto colors = balanced_random_colors(n, k, rng);
  return SeparationChain(ParticleSystem(nodes, colors), params, seed);
}

struct Setting {
  std::size_t n;
  int k;
  Params params;
  std::uint64_t seed;
};

// Mirrors the four (λ, γ, k, swaps) regimes of neighborhood_test's
// trajectory suite: separation, compression-only, near-critical with
// four colors, and sub-critical (high acceptance, so the speculative
// fallback path is exercised heavily).
const Setting kSettings[] = {
    {120, 2, Params{4.0, 4.0, true}, 11},
    {120, 1, Params{4.0, 1.0, false}, 22},
    {90, 4, Params{2.0, 3.0, true}, 33},
    {120, 2, Params{1.0, 1.0, true}, 44},
};

void expect_same_state(const SeparationChain& a, const SeparationChain& b,
                       const char* what) {
  system::testing::expect_grid_consistent(b.system(), what);
  EXPECT_EQ(a.system().positions(), b.system().positions()) << what;
  EXPECT_EQ(a.system().colors(), b.system().colors()) << what;
  EXPECT_EQ(a.system().edge_count(), b.system().edge_count()) << what;
  EXPECT_EQ(a.system().hetero_edge_count(), b.system().hetero_edge_count())
      << what;
  const auto& ca = a.counters();
  const auto& cb = b.counters();
  EXPECT_EQ(ca.steps, cb.steps) << what;
  EXPECT_EQ(ca.move_proposals, cb.move_proposals) << what;
  EXPECT_EQ(ca.moves_accepted, cb.moves_accepted) << what;
  EXPECT_EQ(ca.rejected_five, cb.rejected_five) << what;
  EXPECT_EQ(ca.rejected_locality, cb.rejected_locality) << what;
  EXPECT_EQ(ca.rejected_metropolis, cb.rejected_metropolis) << what;
  EXPECT_EQ(ca.swap_proposals, cb.swap_proposals) << what;
  EXPECT_EQ(ca.swaps_accepted, cb.swaps_accepted) << what;
}

// After the driven segments, step both chains a while longer through
// step(): only an identical RNG state can keep them in lockstep, so
// this pins that the pipeline consumed exactly the serial draw
// sequence — no word drawn early survives past a run() call.
void expect_rng_in_sync(SeparationChain& a, SeparationChain& b) {
  for (int i = 0; i < 2000; ++i) {
    EXPECT_EQ(a.step(), b.step()) << "post-run step " << i;
  }
  expect_same_state(a, b, "post-run trajectory");
}

TEST(StepPipeline, MatchesStepTrajectoryAtEverySetting) {
  for (const Setting& s : kSettings) {
    SeparationChain serial = make_chain(s.n, s.k, s.params, s.seed);
    SeparationChain piped = make_chain(s.n, s.k, s.params, s.seed);
    for (int i = 0; i < 100000; ++i) serial.step();
    StepPipeline(piped).run(100000);
    expect_same_state(serial, piped, "100k-step trajectory");
    expect_rng_in_sync(serial, piped);
  }
}

TEST(StepPipeline, BlockSizeNeverChangesTheTrajectory) {
  const Setting& s = kSettings[0];
  SeparationChain serial = make_chain(s.n, s.k, s.params, s.seed);
  for (int i = 0; i < 30000; ++i) serial.step();
  for (const std::size_t block : {std::size_t{1}, std::size_t{2},
                                  std::size_t{64}, std::size_t{256},
                                  std::size_t{1024}}) {
    SeparationChain piped = make_chain(s.n, s.k, s.params, s.seed);
    StepPipeline(piped, block).run(30000);
    expect_same_state(serial, piped, "block-size sweep");
  }
}

TEST(StepPipeline, SegmentSplitsNeverChangeTheTrajectory) {
  const Setting& s = kSettings[3];  // high acceptance
  SeparationChain serial = make_chain(s.n, s.k, s.params, s.seed);
  for (int i = 0; i < 30000; ++i) serial.step();

  // Odd-sized segments across one long-lived pipeline: exercises
  // partial blocks and buffer reuse between run() calls.
  SeparationChain piped = make_chain(s.n, s.k, s.params, s.seed);
  StepPipeline pipeline(piped, 256);
  std::uint64_t remaining = 30000;
  std::uint64_t seg = 1;
  while (remaining > 0) {
    const std::uint64_t take = std::min<std::uint64_t>(seg, remaining);
    pipeline.run(take);
    system::testing::expect_grid_consistent(piped.system(), "after a segment");
    remaining -= take;
    seg = seg * 3 + 1;  // 1, 4, 13, 40, ... hits many partial-block tails
  }
  expect_same_state(serial, piped, "segmented pipeline");
  expect_rng_in_sync(serial, piped);
}

TEST(StepPipeline, RunIsRewiredOntoThePipeline) {
  const Setting& s = kSettings[2];
  SeparationChain serial = make_chain(s.n, s.k, s.params, s.seed);
  SeparationChain run_driven = make_chain(s.n, s.k, s.params, s.seed);
  for (int i = 0; i < 50000; ++i) serial.step();
  run_driven.run(50000);
  expect_same_state(serial, run_driven, "SeparationChain::run");
  expect_rng_in_sync(serial, run_driven);
}

TEST(StepPipeline, MatchesReferenceTwinTrajectory) {
  const Setting& s = kSettings[0];
  SeparationChain reference = make_chain(s.n, s.k, s.params, s.seed);
  SeparationChain piped = make_chain(s.n, s.k, s.params, s.seed);
  reference.run_reference(100000);
  StepPipeline(piped).run(100000);
  expect_same_state(reference, piped, "reference twin");
}

TEST(StepPipeline, StatsAccountForEveryProposal) {
  const Setting& s = kSettings[3];
  SeparationChain piped = make_chain(s.n, s.k, s.params, s.seed);
  StepPipeline pipeline(piped, 128);
  pipeline.run(50000);
  const StepPipeline::Stats& st = pipeline.stats();
  EXPECT_EQ(st.speculative_hits + st.speculative_misses, 50000u);
  // High-acceptance setting: both speculation outcomes must occur where
  // the window gather runs; without it step_with gathers every step.
  EXPECT_EQ(st.speculative_hits > 0, detail::simd_runtime_enabled());
  EXPECT_GT(st.speculative_misses, 0u);
  EXPECT_EQ(st.refill_words, 3u * 50000u);
  EXPECT_EQ(st.blocks, (50000u + 127u) / 128u);
}

// xoshiro256++ puts out rotl(s0 + s3, 23) + s0, so a state {0, a, b, 0}
// yields the word 0 first, and 0 lands in the Lemire rejection zone of
// every bound that is not a power of two (here n = 120). The decode
// must redraw, spilling one word past the refilled block, and still
// match step() word for word.
TEST(StepPipeline, LemireRejectionSpillsPastTheBlock) {
  const util::Rng::State reject_first{0, 0x9E3779B97F4A7C15ULL,
                                      0xD1B54A32D192ED03ULL, 0};
  const Setting& s = kSettings[0];
  SeparationChain serial = make_chain(s.n, s.k, s.params, s.seed);
  SeparationChain piped = make_chain(s.n, s.k, s.params, s.seed);
  serial.set_rng_state(reject_first);
  piped.set_rng_state(reject_first);
  StepPipeline pipeline(piped);
  pipeline.run(5000);
  for (int i = 0; i < 5000; ++i) serial.step();
  EXPECT_EQ(pipeline.stats().refill_words, 3u * 5000u);
  EXPECT_GT(pipeline.stats().tail_words, 0u);
  expect_same_state(serial, piped, "rejection-first trajectory");
  expect_rng_in_sync(serial, piped);
}

// The 8-proposal window gather must actually engage on SIMD hardware
// (and stay off under SOPS_FORCE_SCALAR / non-AVX2 CPUs), while the
// hit/miss ledger keeps accounting for every proposal either way.
TEST(StepPipeline, WindowGatherEngagesExactlyWhenSimdIsOn) {
  const Setting& s = kSettings[0];
  SeparationChain piped = make_chain(s.n, s.k, s.params, s.seed);
  StepPipeline pipeline(piped, 256);
  pipeline.run(50000);
  const StepPipeline::Stats& st = pipeline.stats();
  EXPECT_EQ(st.speculative_hits + st.speculative_misses, 50000u);
  if (detail::simd_runtime_enabled()) {
    EXPECT_GT(st.spec_windows, 0u);
    // Accepts are a small minority in the separation regime, so most
    // window-covered proposals must land as hits.
    EXPECT_GT(st.speculative_hits, st.speculative_misses);
  } else {
    EXPECT_EQ(st.spec_windows, 0u);
  }
}

TEST(StepPipeline, CountersAreExactAfterEverySegment) {
  const Setting& s = kSettings[0];
  SeparationChain piped = make_chain(s.n, s.k, s.params, s.seed);
  StepPipeline pipeline(piped, 64);
  std::uint64_t total = 0;
  for (const std::uint64_t seg : {std::uint64_t{7}, std::uint64_t{64},
                                  std::uint64_t{65}, std::uint64_t{1000}}) {
    pipeline.run(seg);
    total += seg;
    EXPECT_EQ(piped.counters().steps, total);
  }
}

TEST(StepPipeline, BlockSizeIsClamped) {
  SeparationChain chain = make_chain(50, 2, Params{4.0, 4.0, true}, 5);
  EXPECT_EQ(StepPipeline(chain, 0).block_size(), 1u);
  EXPECT_EQ(StepPipeline(chain, 1 << 20).block_size(),
            StepPipeline::kMaxBlockSize);
}

// The runner drivers (which ChainJob workers execute) sit on one
// pipeline per call; their output must match per-step driving.
TEST(StepPipeline, RunnerDriversMatchStepwiseMeasurements) {
  const Setting& s = kSettings[0];
  SeparationChain serial = make_chain(s.n, s.k, s.params, s.seed);
  SeparationChain piped = make_chain(s.n, s.k, s.params, s.seed);

  const std::vector<std::uint64_t> checkpoints{0, 1000, 1003, 20000};
  const auto series = run_with_checkpoints(piped, checkpoints);
  std::vector<Measurement> expected;
  std::uint64_t now = 0;
  for (const std::uint64_t target : checkpoints) {
    for (; now < target; ++now) serial.step();
    expected.push_back(measure(serial));
  }
  ASSERT_EQ(series.size(), expected.size());
  for (std::size_t i = 0; i < series.size(); ++i) {
    EXPECT_EQ(series[i].iteration, expected[i].iteration);
    EXPECT_EQ(series[i].perimeter, expected[i].perimeter);
    EXPECT_EQ(series[i].edges, expected[i].edges);
    EXPECT_EQ(series[i].hetero_edges, expected[i].hetero_edges);
    EXPECT_EQ(series[i].perimeter_ratio, expected[i].perimeter_ratio);
    EXPECT_EQ(series[i].hetero_fraction, expected[i].hetero_fraction);
  }
  expect_same_state(serial, piped, "run_with_checkpoints");
}

// The pipeline keeps no occupancy of its own, so direct step() calls
// interleaved between segments on the same long-lived pipeline must be
// absorbed exactly.
TEST(StepPipeline, ExternalStepsBetweenSegmentsAreAbsorbed) {
  SeparationChain serial = make_chain(120, 2, Params{4.0, 4.0, true}, 55);
  SeparationChain piped = make_chain(120, 2, Params{4.0, 4.0, true}, 55);
  StepPipeline pipeline(piped);
  for (int round = 0; round < 6; ++round) {
    for (int i = 0; i < 5000; ++i) serial.step();
    pipeline.run(5000);
    system::testing::expect_grid_consistent(piped.system(),
                                            "before external steps");
    for (int i = 0; i < 137; ++i) {
      serial.step();
      piped.step();  // mutate the system outside the pipeline
    }
  }
  expect_same_state(serial, piped, "interleaved run()/step() trajectory");
  expect_rng_in_sync(serial, piped);
}

// A free blob (λ = γ = 1) diffuses across page edges: crossing moves
// create pages, emptied pages return to the free list, and none of it
// may perturb the trajectory.
TEST(StepPipeline, DriftingBlobCrossesPageEdges) {
  SeparationChain serial = make_chain(40, 2, Params{1.0, 1.0, true}, 66);
  SeparationChain piped = make_chain(40, 2, Params{1.0, 1.0, true}, 66);
  StepPipeline pipeline(piped);
  std::size_t max_pages = 0;
  for (int segment = 0; segment < 8; ++segment) {
    for (int i = 0; i < 50000; ++i) serial.step();
    pipeline.run(50000);
    max_pages = std::max(max_pages, piped.system().pages().size());
    system::testing::expect_grid_consistent(piped.system(),
                                            "diffusing segment");
  }
  EXPECT_GT(max_pages, 1u) << "the blob never spanned a page edge";
  EXPECT_LE(piped.system().pooled_pages(), max_pages + 1)
      << "released pages were not reused";
  expect_same_state(serial, piped, "diffusing trajectory");
  expect_rng_in_sync(serial, piped);
}

// A far-away outlier gets a page of its own: the pipeline's window runs
// over both the blob's pages and the outlier's, with next to no
// directory probes, and stays byte-identical to step().
TEST(StepPipeline, OversizedBoundingBoxFallsBackToFlatMapGather) {
  util::Rng rng(77);
  auto nodes = lattice::random_blob(60, rng);
  nodes.push_back(lattice::Node{100000, 100000});
  const auto colors = balanced_random_colors(nodes.size(), 2, rng);
  const Params params{4.0, 4.0, true};
  SeparationChain serial(ParticleSystem(nodes, colors), params, 77);
  SeparationChain piped(ParticleSystem(nodes, colors), params, 77);
  StepPipeline pipeline(piped);
  for (int i = 0; i < 30000; ++i) serial.step();
  const std::uint64_t probes = piped.system().directory_probes();
  pipeline.run(30000);
  // Every gather reads the proposer's page directly; only the rare move
  // that crosses into an unlinked page consults the directory.
  EXPECT_LT(piped.system().directory_probes() - probes, 3000u);
  if (detail::simd_runtime_enabled()) {
    EXPECT_GT(pipeline.stats().speculative_hits, 0u);
  }
  expect_same_state(serial, piped, "disconnected-outlier trajectory");
  expect_rng_in_sync(serial, piped);
}

// A compact blob plus a dimer 2^20 nodes away: the dimer rolls freely
// (each of its moves keeps one neighbor) across the edges of its own
// pages, far from the blob's, without perturbing a byte.
TEST(StepPipeline, FarDimerRollsAcrossItsOwnPages) {
  util::Rng rng(88);
  auto nodes = lattice::compact_blob(60);
  nodes.push_back(lattice::Node{(1 << 20) - 1, 0});
  nodes.push_back(lattice::Node{1 << 20, 0});
  const auto colors = balanced_random_colors(nodes.size(), 2, rng);
  const Params params{4.0, 4.0, true};
  SeparationChain serial(ParticleSystem(nodes, colors), params, 88);
  SeparationChain piped(ParticleSystem(nodes, colors), params, 88);
  StepPipeline pipeline(piped);
  pipeline.run(400000);
  for (int i = 0; i < 400000; ++i) serial.step();
  expect_same_state(serial, piped, "far dimer");
  expect_rng_in_sync(serial, piped);
}

}  // namespace
}  // namespace sops::core
