// Band-equivalence suite: a band of replicas advanced lock-step by
// ReplicaBand must leave every lane byte-identical to a twin advanced
// by the same number of serial step() calls — same positions, colors,
// edge counts, all eight counters, and post-run RNG state — at every
// width, on both execution paths (SIMD groups gathering from each
// lane's grid, and lane pipelines), through ragged per-lane quotas,
// far outliers, page crossings and page-pool growth mid-block. This is
// the contract that lets the ensemble group sweep replicas into bands.
#include "src/core/replica_band.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <unordered_set>
#include <vector>

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
// calls interleaved between segments: the band keeps no copy of any
// lane's configuration, so external mutations need no resync.
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

// Free blobs (λ = γ = 1) diffuse across page edges, and every step of
// the full groups stays on the SIMD path, whatever the blobs' shapes —
// for one SIMD group and for the width-16 interleaved pair.
TEST(ReplicaBand, DriftingBlobsStayOnTheSimdPath) {
  for (const std::size_t width : {std::size_t{8}, std::size_t{16}}) {
    auto banded = make_replicas(width, 40, 2, Params{1.0, 1.0, true}, 41);
    auto serial = make_replicas(width, 40, 2, Params{1.0, 1.0, true}, 41);
    auto ptrs = pointers(banded);
    ReplicaBand band(ptrs);
    band.run(150000);
    if (band.simd_enabled()) {
      EXPECT_EQ(band.stats().simd_steps, width * 150000u);
      EXPECT_EQ(band.stats().scalar_steps, 0u);
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

// One lane carries a far-away outlier at (10^5, 10^5). It just has a
// page of its own, so the whole group stays on the SIMD path across
// three back-to-back run() calls (forced scalar: every step runs
// through the lane pipelines), a step outside the band needs no resync,
// and every lane stays byte-identical to step().
TEST(ReplicaBand, FarOutlierStaysOnTheSimdPath) {
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
  if (band.simd_enabled()) {
    EXPECT_EQ(band.stats().simd_steps, 8u * 20000u);
    EXPECT_EQ(band.stats().scalar_steps, 0u);
  } else {
    EXPECT_EQ(band.stats().simd_steps, 0u);
    EXPECT_EQ(band.stats().scalar_steps, 8u * 20000u);
  }
  banded[0].step();
  serial[0].step();
  band.run(1);
  serial[0].step();
  for (std::size_t r = 1; r < 8; ++r) serial[r].step();
  for (std::size_t r = 0; r < 8; ++r) {
    for (int i = 0; i < 20000; ++i) serial[r].step();
    const std::string what = "outlier lane " + std::to_string(r);
    expect_same_state(serial[r], banded[r], what);
    expect_rng_in_sync(serial[r], banded[r], what);
  }
}

// Every lane is a compact blob plus a dimer. In lanes 0–7 the dimer
// sits about 2^20 / h cells away from its blob and rolls freely (each
// of its moves keeps one neighbor) across its own pages; in lanes 8–15
// it sits beside the blob. Widths 8 and 16 cover the one- and
// two-group walker: at width 16 both groups accept on the same ticks,
// so each group's applies must run whatever the other group did. The
// ragged pass gives even lanes quotas of at most 8 steps and odd lanes
// quotas above 128, so blocks mix finished and running lanes. Every
// step runs on one tier exactly once, and each tick's words are drawn
// once.
TEST(ReplicaBand, FarDimersRollAcrossTheirPagesMidBlock) {
  auto nodes = lattice::compact_blob(60);
  int xmin = nodes[0].x, ymin = nodes[0].y, ymax = nodes[0].y;
  for (const lattice::Node v : nodes) {
    xmin = std::min(xmin, v.x);
    ymin = std::min(ymin, v.y);
    ymax = std::max(ymax, v.y);
  }
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
    std::vector<std::uint64_t> total(width, 0);
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
    std::uint64_t steps = 0;
    for (const std::uint64_t t : total) steps += t;
    EXPECT_EQ(band.stats().simd_steps + band.stats().scalar_steps, steps);
    EXPECT_EQ(band.stats().simd_steps, band.simd_enabled() ? steps : 0u);
    EXPECT_EQ(band.stats().refill_words, 3 * steps);
    for (std::size_t r = 0; r < width; ++r) {
      for (std::uint64_t i = 0; i < total[r]; ++i) serial[r].step();
      const std::string what = "width " + std::to_string(width) +
                               (pass.ragged ? " ragged" : "") +
                               " far dimer lane " + std::to_string(r);
      expect_same_state(serial[r], banded[r], what);
      expect_rng_in_sync(serial[r], banded[r], what);
    }
  }
}

// Every group lane is a small blob in page (0, 0) plus a dimer filling
// the corner of page (1, 1), so its pool holds exactly two pages and
// the first page the dimer rolls into grows — and reallocates — the
// lane's pool, inside one 4096-step block while the sibling lanes keep
// accepting (λ = γ = 1). A SIMD group that kept gathering through the
// lane's old pool would read freed memory, which the sanitizers do not
// see inside vector gathers; only the byte identity with each lane's
// step() twin catches it.
TEST(ReplicaBand, PoolGrowthMidBlockKeepsEveryLaneExact) {
  std::vector<lattice::Node> nodes;
  for (const lattice::Node v : lattice::compact_blob(10)) {
    nodes.push_back(lattice::Node{v.x + 16, v.y + 16});
  }
  nodes.push_back(lattice::Node{62, 63});
  nodes.push_back(lattice::Node{63, 63});
  const Params params{1.0, 1.0, true};
  constexpr std::uint64_t kBlock = ReplicaBand::kMaxBlockSize;
  for (const std::size_t width : {std::size_t{8}, std::size_t{16}}) {
    std::vector<SeparationChain> banded;
    std::vector<SeparationChain> serial;
    for (std::size_t r = 0; r < width; ++r) {
      util::Rng rng(500 + r);
      const auto colors = balanced_random_colors(nodes.size(), 2, rng);
      banded.emplace_back(ParticleSystem(nodes, colors), params, 500 + r);
      serial.emplace_back(ParticleSystem(nodes, colors), params, 500 + r);
    }
    std::vector<const std::uint32_t*> pools;
    for (const SeparationChain& c : banded) {
      ASSERT_EQ(c.system().pooled_pages(), 2u);
      pools.push_back(c.system().cells());
    }
    auto ptrs = pointers(banded);
    ReplicaBand band(ptrs, kBlock);
    band.run(kBlock);
    if (band.simd_enabled()) {
      EXPECT_EQ(band.stats().blocks, 1u);
      EXPECT_EQ(band.stats().simd_steps, width * kBlock);
    }
    for (std::size_t r = 0; r < width; ++r) {
      const std::string what = "width " + std::to_string(width) +
                               " pool-growth lane " + std::to_string(r);
      EXPECT_GT(banded[r].system().pooled_pages(), 2u) << what;
      EXPECT_NE(banded[r].system().cells(), pools[r]) << what;
      for (std::uint64_t i = 0; i < kBlock; ++i) serial[r].step();
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

// The suite's largest band: sixteen lanes of n = 4095, whose index + 1
// needs more than 12 bits. Both interleaved groups must stay on the
// SIMD path and byte-identical to their serial twins.
TEST(ReplicaBand, WideLayoutJustAboveIndexCapacityMatchesStepTwins) {
  auto banded = make_replicas(16, 4095, 2, Params{4.0, 4.0, true}, 67);
  auto serial = make_replicas(16, 4095, 2, Params{4.0, 4.0, true}, 67);
  auto ptrs = pointers(banded);
  ReplicaBand band(ptrs);
  band.run(3000);
  EXPECT_EQ(band.stats().simd_steps, band.simd_enabled() ? 16u * 3000u : 0u);
  for (std::size_t r = 0; r < 16; ++r) {
    for (int i = 0; i < 3000; ++i) serial[r].step();
    const std::string what = "n = 4095 lane " + std::to_string(r);
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
