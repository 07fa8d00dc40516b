// Band-equivalence suite: a band of replicas advanced lock-step by
// ReplicaBand must leave every lane byte-identical to a twin advanced
// by the same number of serial step() calls — same positions, colors,
// edge counts, all eight counters, and post-run RNG state — at every
// width, on every execution path (SIMD groups, lane pipelines and
// step()'s own body over each lane's grid), through ragged
// per-lane quotas, and across arena re-centers and mid-run arena
// declines. This is the
// contract that lets the ensemble group sweep replicas into bands.
#include "src/core/replica_band.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <unordered_set>
#include <vector>

#include "src/sops/cell_codec.hpp"
#include "src/core/coloring.hpp"
#include "src/core/markov_chain.hpp"
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

// A band's replicas share (n, λ, γ, swaps) but differ in configuration
// and RNG stream — exactly the sweep grid's replica axis.
std::vector<SeparationChain> make_replicas(std::size_t width, std::size_t n,
                                           int k, Params params,
                                           std::uint64_t seed0) {
  std::vector<SeparationChain> chains;
  chains.reserve(width);
  for (std::size_t r = 0; r < width; ++r) {
    chains.push_back(make_chain(n, k, params, seed0 + 1000 * r));
  }
  return chains;
}

std::vector<SeparationChain*> pointers(std::vector<SeparationChain>& chains) {
  std::vector<SeparationChain*> p;
  for (SeparationChain& c : chains) p.push_back(&c);
  return p;
}

void expect_same_state(const SeparationChain& a, const SeparationChain& b,
                       const std::string& what) {
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

// Step both chains onward through step(): only identical RNG states can
// keep them in lockstep, pinning that the band consumed exactly each
// lane's serial draw sequence.
void expect_rng_in_sync(SeparationChain& a, SeparationChain& b,
                        const std::string& what) {
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a.step(), b.step()) << what << " post-run step " << i;
  }
  expect_same_state(a, b, what + " post-run trajectory");
}

// Widths 9 and 12 put one SIMD group and pipeline-run lanes in one band.
TEST(ReplicaBand, MatchesStepTwinsAtEveryWidth) {
  for (const std::size_t width :
       {std::size_t{1}, std::size_t{2}, std::size_t{4}, std::size_t{8},
        std::size_t{9}, std::size_t{12}, std::size_t{16}}) {
    auto banded = make_replicas(width, 120, 2, Params{4.0, 4.0, true}, 11);
    auto serial = make_replicas(width, 120, 2, Params{4.0, 4.0, true}, 11);
    auto ptrs = pointers(banded);
    ReplicaBand band(ptrs);
    band.run(20000);
    for (std::size_t r = 0; r < width; ++r) {
      for (int i = 0; i < 20000; ++i) serial[r].step();
      const std::string what =
          "width " + std::to_string(width) + " lane " + std::to_string(r);
      expect_same_state(serial[r], banded[r], what);
      expect_rng_in_sync(serial[r], banded[r], what);
    }
  }
}

// The four (λ, γ, k, swaps) regimes of the pipeline suite: separation,
// compression-only (swaps off — proposals onto occupied nodes burn the
// draws with no counter), near-critical four-color, and sub-critical
// high-acceptance.
TEST(ReplicaBand, MatchesStepTwinsAtEverySetting) {
  struct Setting {
    std::size_t n;
    int k;
    Params params;
    std::uint64_t seed;
  };
  const Setting kSettings[] = {
      {120, 2, Params{4.0, 4.0, true}, 11},
      {120, 1, Params{4.0, 1.0, false}, 22},
      {90, 4, Params{2.0, 3.0, true}, 33},
      {120, 2, Params{1.0, 1.0, true}, 44},
  };
  for (const Setting& s : kSettings) {
    auto banded = make_replicas(8, s.n, s.k, s.params, s.seed);
    auto serial = make_replicas(8, s.n, s.k, s.params, s.seed);
    auto ptrs = pointers(banded);
    ReplicaBand band(ptrs);
    band.run(30000);
    for (std::size_t r = 0; r < 8; ++r) {
      for (int i = 0; i < 30000; ++i) serial[r].step();
      const std::string what = "seed " + std::to_string(s.seed) + " lane " +
                               std::to_string(r);
      expect_same_state(serial[r], banded[r], what);
      expect_rng_in_sync(serial[r], banded[r], what);
    }
  }
}

// Forced-scalar mode is the CI fallback tier (SOPS_FORCE_SCALAR); it
// must produce the same bytes with the SIMD path switched off.
TEST(ReplicaBand, ScalarModeMatchesStepTwins) {
  auto banded = make_replicas(8, 120, 2, Params{4.0, 4.0, true}, 17);
  auto serial = make_replicas(8, 120, 2, Params{4.0, 4.0, true}, 17);
  auto ptrs = pointers(banded);
  ReplicaBand band(ptrs, ReplicaBand::kDefaultBlockSize,
                   ReplicaBand::Mode::kScalar);
  EXPECT_FALSE(band.simd_enabled());
  band.run(30000);
  EXPECT_EQ(band.stats().simd_steps, 0u);
  for (std::size_t r = 0; r < 8; ++r) {
    for (int i = 0; i < 30000; ++i) serial[r].step();
    const std::string what = "scalar lane " + std::to_string(r);
    expect_same_state(serial[r], banded[r], what);
    expect_rng_in_sync(serial[r], banded[r], what);
  }
}

// Ragged per-lane quotas: replicas completing mid-band drop out of the
// lock-step groups; the remaining lanes stay correct, and a lane with
// quota zero must not consume a single draw.
TEST(ReplicaBand, PerLaneQuotasHandleRaggedTails) {
  auto banded = make_replicas(8, 120, 2, Params{4.0, 4.0, true}, 23);
  auto serial = make_replicas(8, 120, 2, Params{4.0, 4.0, true}, 23);
  auto ptrs = pointers(banded);
  ReplicaBand band(ptrs);
  const std::uint64_t quotas[] = {0, 1, 7, 100, 1000, 4096, 9999, 20000};
  band.run(std::span<const std::uint64_t>(quotas, 8));
  for (std::size_t r = 0; r < 8; ++r) {
    for (std::uint64_t i = 0; i < quotas[r]; ++i) serial[r].step();
    const std::string what = "quota " + std::to_string(quotas[r]);
    expect_same_state(serial[r], banded[r], what);
    expect_rng_in_sync(serial[r], banded[r], what);
  }
}

// Odd-sized segments across one long-lived band, with direct step()
// calls interleaved between segments: the arena is derived state and
// must absorb external mutations at every re-entry.
TEST(ReplicaBand, SegmentsAndExternalStepsAreAbsorbed) {
  auto banded = make_replicas(8, 120, 2, Params{4.0, 4.0, true}, 31);
  auto serial = make_replicas(8, 120, 2, Params{4.0, 4.0, true}, 31);
  auto ptrs = pointers(banded);
  ReplicaBand band(ptrs, 64);
  std::uint64_t seg = 1;
  for (int round = 0; round < 8; ++round) {
    band.run(seg);
    for (std::size_t r = 0; r < 8; ++r) {
      system::testing::expect_grid_consistent(banded[r].system(),
                                              "before external steps");
      for (std::uint64_t i = 0; i < seg; ++i) serial[r].step();
      for (int i = 0; i < 57; ++i) {
        serial[r].step();
        banded[r].step();  // mutate outside the band
      }
    }
    seg = seg * 4 + 1;  // 1, 5, 21, ... hits many partial-block tails
  }
  for (std::size_t r = 0; r < 8; ++r) {
    const std::string what = "segmented lane " + std::to_string(r);
    expect_same_state(serial[r], banded[r], what);
    expect_rng_in_sync(serial[r], banded[r], what);
  }
}

// Free blobs (λ = γ = 1) diffuse; drifting into a lane's guard band
// must re-center the shared arena mid-band without perturbing any
// lane's trajectory — for one SIMD group and for the width-16
// interleaved pair, whose re-centers land between the two groups'
// applies.
TEST(ReplicaBand, DriftRecentersTheArenaInsideABand) {
  for (const std::size_t width : {std::size_t{8}, std::size_t{16}}) {
    auto banded = make_replicas(width, 40, 2, Params{1.0, 1.0, true}, 41);
    auto serial = make_replicas(width, 40, 2, Params{1.0, 1.0, true}, 41);
    auto ptrs = pointers(banded);
    ReplicaBand band(ptrs);
    band.run(150000);
    // At least the entry rebuild plus one drift re-center; forced-scalar
    // bands build no arena.
    if (band.simd_enabled()) {
      EXPECT_GE(band.stats().arena_rebuilds, 2u);
    }
    for (std::size_t r = 0; r < width; ++r) {
      for (int i = 0; i < 150000; ++i) serial[r].step();
      const std::string what = "width " + std::to_string(width) +
                               " drift lane " + std::to_string(r);
      expect_same_state(serial[r], banded[r], what);
      expect_rng_in_sync(serial[r], banded[r], what);
    }
  }
}

// One lane with a far-away outlier blows up the shared arena extent:
// the band must refuse the arena and hand every lane to its pipeline,
// which gathers from the lane's grid (the outlier just has a page of
// its own). The refusal is recorded, so back-to-back run() calls scan
// the lanes once. All stay byte-identical to step().
TEST(ReplicaBand, OversizedBoundingBoxFallsBackToFlatMapGather) {
  const Params params{4.0, 4.0, true};
  std::vector<SeparationChain> banded;
  std::vector<SeparationChain> serial;
  for (std::size_t r = 0; r < 8; ++r) {
    util::Rng rng(77 + r);
    auto nodes = lattice::random_blob(60, rng);
    if (r == 3) {
      nodes.push_back(lattice::Node{100000, 100000});
    } else {
      nodes.push_back(lattice::Node{0, -50});  // keep n equal across lanes
    }
    const auto colors = balanced_random_colors(nodes.size(), 2, rng);
    banded.emplace_back(ParticleSystem(nodes, colors), params, 77 + r);
    serial.emplace_back(ParticleSystem(nodes, colors), params, 77 + r);
  }
  auto ptrs = pointers(banded);
  ReplicaBand band(ptrs);
  band.run(10000);
  band.run(5000);
  band.run(5000);
  EXPECT_EQ(band.stats().arena_rebuilds, 0u);
  EXPECT_EQ(band.stats().simd_steps, 0u);
  EXPECT_EQ(band.stats().scalar_steps, 8u * 20000u);
  // Only a SIMD band scans for an arena; the three calls scan once.
  EXPECT_EQ(band.stats().arena_refusals, band.simd_enabled() ? 1u : 0u);
  // A step outside the band makes the recorded refusal stale.
  banded[0].step();
  serial[0].step();
  band.run(1);
  serial[0].step();
  EXPECT_EQ(band.stats().arena_refusals, band.simd_enabled() ? 2u : 0u);
  for (std::size_t r = 1; r < 8; ++r) serial[r].step();
  for (std::size_t r = 0; r < 8; ++r) {
    for (int i = 0; i < 20000; ++i) serial[r].step();
    const std::string what = "outlier lane " + std::to_string(r);
    expect_same_state(serial[r], banded[r], what);
    expect_rng_in_sync(serial[r], banded[r], what);
  }
}

// Every lane is a compact blob plus a far-off dimer, placed so the
// shared plane sits just under its cell cap. The dimers roll freely
// (each of their moves keeps one neighbor), and once one drifts into
// its guard band the re-centered plane no longer fits: the arena is
// declined mid-block. The block is already decoded, so each lane
// finishes its remaining ticks through step()'s own body over its grid;
// its pipeline takes over from the next block, and no byte may move.
// Widths 8 and 16 cover the one- and two-group walker. At width 16 only
// group A (lanes 0–7) carries the far dimer, so only group A can push
// the plane past its cap; group B's dimer sits beside its blob. With
// these seeds a group-B lane accepts on the tick whose group-A apply
// declines the arena in the uniform pass, so skipping B's applies after
// A's decline fails here. The ragged pass gives even lanes quotas of at
// most 8 steps and odd lanes quotas above 128, so the decline lands in
// a block where the lanes had executed different tick counts (the even
// lanes had finished).
TEST(ReplicaBand, ArenaDeclinedMidRunHandsOverToFlatMap) {
  auto nodes = lattice::compact_blob(60);
  int xmin = nodes[0].x, ymin = nodes[0].y, ymax = nodes[0].y;
  for (const lattice::Node v : nodes) {
    xmin = std::min(xmin, v.x);
    ymin = std::min(ymin, v.y);
    ymax = std::max(ymax, v.y);
  }
  // Plane = (extent + 2·8 margin) per axis against a 2^20-cell cap: put
  // the dimer's right end on the widest column that still fits.
  const int h = (ymax - ymin + 1) + 16;
  const int right = xmin + (1 << 20) / h - 16 - 1;
  std::vector<lattice::Node> near = nodes;
  near.push_back(lattice::Node{xmin - 6, ymin});
  near.push_back(lattice::Node{xmin - 5, ymin});
  nodes.push_back(lattice::Node{right - 1, ymin});
  nodes.push_back(lattice::Node{right, ymin});
  const Params params{4.0, 4.0, true};
  struct Pass {
    std::size_t width;
    bool ragged;
  };
  for (const Pass pass : {Pass{8, false}, Pass{8, true}, Pass{16, false},
                          Pass{16, true}}) {
    const std::size_t width = pass.width;
    std::vector<SeparationChain> banded;
    std::vector<SeparationChain> serial;
    for (std::size_t r = 0; r < width; ++r) {
      const std::uint64_t seed = r < 8 ? 88 + r : 188 + r;
      const auto& at = r < 8 ? nodes : near;
      util::Rng rng(seed);
      const auto colors = balanced_random_colors(at.size(), 2, rng);
      banded.emplace_back(ParticleSystem(at, colors), params, seed);
      serial.emplace_back(ParticleSystem(at, colors), params, seed);
    }
    auto ptrs = pointers(banded);
    ReplicaBand band(ptrs);
    const bool arena = band.simd_enabled();
    std::vector<std::uint64_t> total(width, 1);
    band.run(1);
    if (arena) {
      ASSERT_EQ(band.stats().arena_rebuilds, 1u) << "plane over the cap";
    }
    if (!pass.ragged) {
      band.run(200000);
      for (std::uint64_t& t : total) t += 200000;
    } else {
      std::vector<std::uint64_t> quotas(width);
      for (std::uint64_t call = 0; call < 1200; ++call) {
        for (std::size_t r = 0; r < width; ++r) {
          quotas[r] = r % 2 == 0 ? 1 + (call + r) % 8
                                 : 129 + (7 * call + r) % 128;
          total[r] += quotas[r];
        }
        band.run(quotas);
      }
    }
    // The decline is recorded like an entry refusal: later calls run the
    // lane pipelines without rescanning, and no rebuild succeeds.
    const std::uint64_t rebuilds = band.stats().arena_rebuilds;
    const std::uint64_t refusals = band.stats().arena_refusals;
    band.run(1);
    for (std::uint64_t& t : total) t += 1;
    if (arena) {
      EXPECT_EQ(band.stats().arena_rebuilds, rebuilds);
      EXPECT_EQ(band.stats().arena_refusals, refusals);
      EXPECT_GT(refusals, 0u) << "no dimer pushed the plane past the cap";
      EXPECT_GT(band.stats().simd_steps, 0u);
    }
    // Each step ran exactly once, on one tier: the SIMD walk, or the
    // scalar tier (the step_with() finish of the declined block, then
    // the lane pipelines). Each tick's words were drawn once, by the
    // block decode or by a pipeline refill.
    std::uint64_t steps = 0;
    for (const std::uint64_t t : total) steps += t;
    EXPECT_EQ(band.stats().simd_steps + band.stats().scalar_steps, steps);
    EXPECT_EQ(band.stats().refill_words, 3 * steps);
    for (std::size_t r = 0; r < width; ++r) {
      for (std::uint64_t i = 0; i < total[r]; ++i) serial[r].step();
      const std::string what = "width " + std::to_string(width) +
                               (pass.ragged ? " ragged" : "") +
                               " mid-run decline lane " + std::to_string(r);
      expect_same_state(serial[r], banded[r], what);
      expect_rng_in_sync(serial[r], banded[r], what);
    }
  }
}

// xoshiro256++ puts out rotl(s0 + s3, 23) + s0, so a state {0, a, b, 0}
// yields the word 0 first, and 0 lands in the Lemire rejection zone of
// every bound that is not a power of two (here n = 120). One lane per
// SIMD group starts there: the vector decode must detect the rejection
// and replay that lane scalar — or, forced scalar, the lane's pipeline
// must spill the redraw past its refilled block — leaving every lane
// byte-identical to its twin and every word counted exactly once.
TEST(ReplicaBand, LemireRejectionReplaysTheLaneExactly) {
  const util::Rng::State reject_first{0, 0x9E3779B97F4A7C15ULL,
                                      0xD1B54A32D192ED03ULL, 0};
  for (const std::size_t width : {std::size_t{8}, std::size_t{16}}) {
    auto banded = make_replicas(width, 120, 2, Params{4.0, 4.0, true}, 71);
    auto serial = make_replicas(width, 120, 2, Params{4.0, 4.0, true}, 71);
    for (std::size_t r = 3; r < width; r += 8) {
      banded[r].set_rng_state(reject_first);
      serial[r].set_rng_state(reject_first);
    }
    auto ptrs = pointers(banded);
    ReplicaBand band(ptrs);
    band.run(5000);
    const ReplicaBand::Stats& st = band.stats();
    EXPECT_EQ(st.refill_words, 3u * width * 5000u);
    EXPECT_GT(st.tail_words, 0u);
    if (ReplicaBand::auto_simd()) {
      EXPECT_EQ(st.simd_steps, width * 5000u);
    }
    for (std::size_t r = 0; r < width; ++r) {
      for (int i = 0; i < 5000; ++i) serial[r].step();
      const std::string what = "width " + std::to_string(width) +
                               " rejection lane " + std::to_string(r);
      expect_same_state(serial[r], banded[r], what);
      expect_rng_in_sync(serial[r], banded[r], what);
    }
  }
}

// n = 4094 is the last size whose index+1 fits the compact cells'
// 12-bit field, so the band must pick the 16-bit layout — and every
// lane must still be byte-identical to its serial twin. Only SIMD
// groups build an arena; forced-scalar bands run every lane through its
// pipeline and report none.
TEST(ReplicaBand, CompactLayoutAtIndexCapacityMatchesStepTwins) {
  static_assert(cell::kCompactIndexMask == 4095);
  auto banded = make_replicas(8, 4094, 2, Params{4.0, 4.0, true}, 61);
  auto serial = make_replicas(8, 4094, 2, Params{4.0, 4.0, true}, 61);
  auto ptrs = pointers(banded);
  ReplicaBand band(ptrs);
  band.run(3000);
  EXPECT_EQ(band.arena_compact(), band.simd_enabled());
  for (std::size_t r = 0; r < 8; ++r) {
    for (int i = 0; i < 3000; ++i) serial[r].step();
    const std::string what = "compact-boundary lane " + std::to_string(r);
    expect_same_state(serial[r], banded[r], what);
    expect_rng_in_sync(serial[r], banded[r], what);
  }
}

// One particle more and index+1 no longer fits 12 bits: the band must
// fall back to the wide 32-bit layout, same bytes as ever.
TEST(ReplicaBand, WideLayoutJustAboveIndexCapacityMatchesStepTwins) {
  auto banded = make_replicas(8, 4095, 2, Params{4.0, 4.0, true}, 67);
  auto serial = make_replicas(8, 4095, 2, Params{4.0, 4.0, true}, 67);
  auto ptrs = pointers(banded);
  ReplicaBand band(ptrs);
  band.run(3000);
  EXPECT_FALSE(band.arena_compact());
  EXPECT_EQ(band.stats().arena_rebuilds > 0, band.simd_enabled());
  for (std::size_t r = 0; r < 8; ++r) {
    for (int i = 0; i < 3000; ++i) serial[r].step();
    const std::string what = "wide-boundary lane " + std::to_string(r);
    expect_same_state(serial[r], banded[r], what);
    expect_rng_in_sync(serial[r], banded[r], what);
  }
}

// A staircase blob is a near-maximal-extent configuration, so the
// free-diffusion (λ = γ = 1) collapse of the line shrinks its bounding
// box through many drift rebuilds — across the footprint at which a
// byte-sized layout policy would flip cell widths mid-walk. The layout
// is a function of n alone, so every rebuild of this width-16 band
// (two interleaved SIMD groups) must keep the compact cells it chose at
// entry, and every lane must stay byte-identical to its serial twin.
TEST(ReplicaBand, DriftRebuildCrossesTheLayoutSelection) {
  const Params params{1.0, 1.0, true};
  std::vector<lattice::Node> nodes;
  for (int i = 0; i < 80; ++i) {
    nodes.push_back(lattice::Node{(i + 1) / 2, i / 2});
  }
  std::vector<SeparationChain> banded;
  std::vector<SeparationChain> serial;
  for (std::size_t r = 0; r < 16; ++r) {
    util::Rng rng(91 + r);
    const auto colors = balanced_random_colors(nodes.size(), 2, rng);
    banded.emplace_back(ParticleSystem(nodes, colors), params, 91 + r);
    serial.emplace_back(ParticleSystem(nodes, colors), params, 91 + r);
  }
  auto ptrs = pointers(banded);
  ReplicaBand band(ptrs);
  std::uint64_t total = 0;
  for (int segment = 0; segment < 20; ++segment) {
    band.run(10000);
    total += 10000;
    ASSERT_EQ(band.arena_compact(), band.simd_enabled())
        << "layout changed after " << total << " steps";
  }
  // The entry rebuild plus drift re-centers; forced-scalar bands build
  // no arena.
  if (band.simd_enabled()) {
    EXPECT_GE(band.stats().arena_rebuilds, 2u);
  }
  for (std::size_t r = 0; r < 16; ++r) {
    for (std::uint64_t i = 0; i < total; ++i) serial[r].step();
    const std::string what = "layout-crossing lane " + std::to_string(r);
    expect_same_state(serial[r], banded[r], what);
    expect_rng_in_sync(serial[r], banded[r], what);
  }
}

TEST(ReplicaBand, RejectsIncompatibleBands) {
  auto chains = make_replicas(2, 60, 2, Params{4.0, 4.0, true}, 3);
  auto ptrs = pointers(chains);
  EXPECT_THROW(ReplicaBand(std::span<SeparationChain* const>{}),
               std::invalid_argument);
  std::vector<SeparationChain*> with_null = ptrs;
  with_null.push_back(nullptr);
  EXPECT_THROW(ReplicaBand{with_null}, std::invalid_argument);
  SeparationChain other_n = make_chain(61, 2, Params{4.0, 4.0, true}, 5);
  std::vector<SeparationChain*> bad_n{ptrs[0], &other_n};
  EXPECT_THROW(ReplicaBand{bad_n}, std::invalid_argument);
  SeparationChain other_lambda = make_chain(60, 2, Params{3.0, 4.0, true}, 5);
  std::vector<SeparationChain*> bad_l{ptrs[0], &other_lambda};
  EXPECT_THROW(ReplicaBand{bad_l}, std::invalid_argument);
  SeparationChain other_swaps = make_chain(60, 2, Params{4.0, 4.0, false}, 5);
  std::vector<SeparationChain*> bad_s{ptrs[0], &other_swaps};
  EXPECT_THROW(ReplicaBand{bad_s}, std::invalid_argument);
  std::vector<SeparationChain*> too_wide(17, ptrs[0]);
  EXPECT_THROW(ReplicaBand{too_wide}, std::invalid_argument);
  // Mismatched quota span size.
  ReplicaBand band(ptrs);
  const std::uint64_t quotas[3] = {1, 1, 1};
  EXPECT_THROW(band.run(std::span<const std::uint64_t>(quotas, 3)),
               std::invalid_argument);
}

// Width 12 adds four pipeline-run lanes to the SIMD group: their steps
// and words must land in the same tallies.
TEST(ReplicaBand, StatsAccountForEveryStep) {
  for (const std::size_t width : {std::size_t{8}, std::size_t{12}}) {
    auto chains = make_replicas(width, 120, 2, Params{4.0, 4.0, true}, 53);
    auto ptrs = pointers(chains);
    ReplicaBand band(ptrs, 128);
    band.run(10000);
    const ReplicaBand::Stats& st = band.stats();
    EXPECT_EQ(st.simd_steps + st.scalar_steps, width * 10000u);
    EXPECT_EQ(st.refill_words, 3u * width * 10000u);
    if (ReplicaBand::auto_simd()) {
      EXPECT_TRUE(band.simd_enabled());
      EXPECT_EQ(st.simd_steps, 8u * 10000u);
      // Blocks count the SIMD groups' blocks; pipelines keep their own.
      EXPECT_EQ(st.blocks, (10000u + 127u) / 128u);
    } else {
      EXPECT_EQ(st.simd_steps, 0u);
    }
  }
}

}  // namespace
}  // namespace sops::core
