#include "src/sops/particle_system.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "tests/grid_audit.hpp"

#include "src/core/coloring.hpp"
#include "src/core/markov_chain.hpp"
#include "src/core/replica_band.hpp"
#include "src/core/step_pipeline.hpp"
#include "src/lattice/shapes.hpp"
#include "src/sops/io.hpp"
#include "src/sops/render.hpp"
#include "src/util/rng.hpp"

namespace sops::system {
namespace {

using lattice::Node;

ParticleSystem two_color_triangle() {
  // Triangle: (0,0) color 0, (1,0) color 0, (0,1) color 1.
  const std::vector<Node> nodes{{0, 0}, {1, 0}, {0, 1}};
  const std::vector<Color> colors{0, 0, 1};
  return ParticleSystem(nodes, colors);
}

TEST(ParticleSystemTest, ConstructionBasics) {
  ParticleSystem sys = two_color_triangle();
  EXPECT_EQ(sys.size(), 3u);
  EXPECT_EQ(sys.num_colors(), 2);
  EXPECT_TRUE(sys.occupied(Node{0, 0}));
  EXPECT_FALSE(sys.occupied(Node{5, 5}));
  EXPECT_EQ(sys.particle_at(Node{1, 0}), 1);
  EXPECT_EQ(sys.particle_at(Node{9, 9}), kNoParticle);
  EXPECT_EQ(sys.color(2), 1);
}

TEST(ParticleSystemTest, RejectsBadInput) {
  const std::vector<Node> dup{{0, 0}, {0, 0}};
  EXPECT_THROW(ParticleSystem{dup}, std::invalid_argument);
  const std::vector<Node> one{{0, 0}};
  const std::vector<Color> two_colors{0, 1};
  EXPECT_THROW(ParticleSystem(one, two_colors), std::invalid_argument);
  const std::vector<Color> bad_color{kMaxColors};
  EXPECT_THROW(ParticleSystem(one, bad_color), std::invalid_argument);
  EXPECT_THROW(ParticleSystem{std::vector<Node>{}}, std::invalid_argument);
}

TEST(ParticleSystemTest, EdgeCountsOnTriangle) {
  ParticleSystem sys = two_color_triangle();
  // All three pairs are adjacent: (0,0)-(1,0), (0,0)-(0,1), (1,0)-(0,1).
  EXPECT_EQ(sys.edge_count(), 3);
  // Hetero edges: (0,0)-(0,1) and (1,0)-(0,1).
  EXPECT_EQ(sys.hetero_edge_count(), 2);
  EXPECT_EQ(sys.homo_edge_count(), 1);
}

TEST(ParticleSystemTest, PerimeterIdentityOnTriangle) {
  ParticleSystem sys = two_color_triangle();
  // p = 3n - 3 - e = 9 - 3 - 3 = 3.
  EXPECT_EQ(sys.perimeter_by_identity(), 3);
}

TEST(ParticleSystemTest, NeighborCounts) {
  ParticleSystem sys = two_color_triangle();
  EXPECT_EQ(sys.neighbor_count(Node{0, 0}), 2);
  EXPECT_EQ(sys.neighbor_count_color(Node{0, 0}, 0), 1);
  EXPECT_EQ(sys.neighbor_count_color(Node{0, 0}, 1), 1);
  // Excluding (0,1) removes the color-1 neighbor.
  EXPECT_EQ(sys.neighbor_count(Node{0, 0}, Node{0, 1}), 1);
  EXPECT_EQ(sys.neighbor_count_color(Node{0, 0}, 1, Node{0, 1}), 0);
  // An empty node adjacent to all three particles: (1,1)? neighbors of
  // (1,1) are (2,1),(1,2),(0,2),(0,1),(1,0),(2,0) — contains (0,1),(1,0).
  EXPECT_EQ(sys.neighbor_count(Node{1, 1}), 2);
}

TEST(ParticleSystemTest, ApplyMoveUpdatesEverything) {
  ParticleSystem sys = two_color_triangle();
  // Move particle 2 (color 1) from (0,1) to (1,1)? (1,1) is adjacent to
  // (0,1)? (0,1)+d0 = (1,1). Yes.
  sys.apply_move(2, Node{1, 1});
  EXPECT_EQ(sys.position(2), (Node{1, 1}));
  EXPECT_FALSE(sys.occupied(Node{0, 1}));
  EXPECT_TRUE(sys.occupied(Node{1, 1}));
  // New edges: (1,1)-(1,0) only (and (1,1)-(0,1) gone since (0,1) empty).
  // Edges now: (0,0)-(1,0) homo, (1,0)-(1,1) hetero.
  EXPECT_EQ(sys.edge_count(), 2);
  EXPECT_EQ(sys.hetero_edge_count(), 1);

  // Incremental counts must match a fresh recount.
  const std::int64_t e = sys.edge_count();
  const std::int64_t h = sys.hetero_edge_count();
  sys.recount_edges();
  EXPECT_EQ(sys.edge_count(), e);
  EXPECT_EQ(sys.hetero_edge_count(), h);
}

TEST(ParticleSystemTest, ApplyMoveValidatesPreconditions) {
  ParticleSystem sys = two_color_triangle();
  EXPECT_THROW(sys.apply_move(0, Node{5, 5}), std::invalid_argument);
  EXPECT_THROW(sys.apply_move(0, Node{1, 0}), std::invalid_argument);
}

TEST(ParticleSystemTest, ApplySwapExchangesAndUpdatesHetero) {
  // Row of four: colors 0,0,1,1. Edges: 3 total, 1 hetero (middle).
  const std::vector<Node> nodes{{0, 0}, {1, 0}, {2, 0}, {3, 0}};
  const std::vector<Color> colors{0, 0, 1, 1};
  ParticleSystem sys(nodes, colors);
  EXPECT_EQ(sys.hetero_edge_count(), 1);

  // Swap particles 1 and 2 → colors along the row become 0,1,0,1.
  sys.apply_swap(1, 2);
  EXPECT_EQ(sys.position(1), (Node{2, 0}));
  EXPECT_EQ(sys.position(2), (Node{1, 0}));
  EXPECT_EQ(sys.particle_at(Node{1, 0}), 2);
  EXPECT_EQ(sys.hetero_edge_count(), 3);
  const std::int64_t h = sys.hetero_edge_count();
  sys.recount_edges();
  EXPECT_EQ(sys.hetero_edge_count(), h);
  // Total edges unchanged by swaps.
  EXPECT_EQ(sys.edge_count(), 3);
}

TEST(ParticleSystemTest, SameColorSwapIsNoOp) {
  const std::vector<Node> nodes{{0, 0}, {1, 0}};
  const std::vector<Color> colors{1, 1};
  ParticleSystem sys(nodes, colors);
  sys.apply_swap(0, 1);
  EXPECT_EQ(sys.position(0), (Node{0, 0}));  // implementation skips no-ops
  EXPECT_EQ(sys.hetero_edge_count(), 0);
}

TEST(ParticleSystemTest, SwapValidatesAdjacency) {
  const std::vector<Node> nodes{{0, 0}, {3, 0}};
  const std::vector<Color> colors{0, 1};
  ParticleSystem sys(nodes, colors);
  EXPECT_THROW(sys.apply_swap(0, 1), std::invalid_argument);
}

TEST(ParticleSystemTest, ColorHistogram) {
  const std::vector<Node> nodes{{0, 0}, {1, 0}, {2, 0}, {0, 1}};
  const std::vector<Color> colors{0, 1, 1, 2};
  ParticleSystem sys(nodes, colors);
  const auto hist = sys.color_histogram();
  ASSERT_EQ(hist.size(), 3u);
  EXPECT_EQ(hist[0], 1u);
  EXPECT_EQ(hist[1], 2u);
  EXPECT_EQ(hist[2], 1u);
}

// Property test: random moves and swaps keep the incremental edge
// bookkeeping consistent with a full recount.
TEST(ParticleSystemTest, IncrementalCountsMatchRecountUnderChurn) {
  util::Rng rng(404);
  auto nodes = lattice::compact_blob(40);
  std::vector<Color> colors(40);
  for (auto& c : colors) c = static_cast<Color>(rng.below(2));
  ParticleSystem sys(nodes, colors);

  for (int step = 0; step < 3000; ++step) {
    const auto i = static_cast<ParticleIndex>(rng.below(sys.size()));
    const int dir = static_cast<int>(rng.below(6));
    const Node target = lattice::neighbor(sys.position(i), dir);
    const ParticleIndex j = sys.particle_at(target);
    if (j == kNoParticle) {
      sys.apply_move(i, target);
    } else if (j != i) {
      sys.apply_swap(i, j);
    }
    if (step % 100 == 0) {
      const std::int64_t e = sys.edge_count();
      const std::int64_t h = sys.hetero_edge_count();
      sys.recount_edges();
      ASSERT_EQ(sys.edge_count(), e) << "step " << step;
      ASSERT_EQ(sys.hetero_edge_count(), h) << "step " << step;
    }
  }
}

// Compares two systems' occupancy node by node over the union
// of their bounding boxes plus a one-node rim, so a stale or missing
// entry anywhere — not just at the last mutated node — shows up.
void expect_same_index(const ParticleSystem& a, const ParticleSystem& b,
                       int step) {
  int xmin = a.position(0).x, xmax = xmin, ymin = a.position(0).y, ymax = ymin;
  for (const ParticleSystem* sys : {&a, &b}) {
    for (const Node v : sys->positions()) {
      xmin = std::min(xmin, v.x);
      xmax = std::max(xmax, v.x);
      ymin = std::min(ymin, v.y);
      ymax = std::max(ymax, v.y);
    }
  }
  for (int y = ymin - 1; y <= ymax + 1; ++y) {
    for (int x = xmin - 1; x <= xmax + 1; ++x) {
      const Node v{x, y};
      ASSERT_EQ(a.particle_at(v), b.particle_at(v))
          << "step " << step << " node (" << x << ", " << y << ")";
      ASSERT_EQ(a.occupied(v), b.occupied(v)) << "step " << step;
    }
  }
  for (std::size_t i = 0; i < b.size(); ++i) {
    const auto pi = static_cast<ParticleIndex>(i);
    ASSERT_EQ(b.particle_at(b.position(pi)), pi) << "step " << step;
  }
}

// Twin test for the delta-fed mutators the step kernel and the
// executors drive: against a system mutated by the recounting checked
// overloads, a churn of moves (deltas from a recount oracle) and swaps
// (delta from the hetero recount identity) must stay byte-identical in
// positions and edge bookkeeping, and leave the whole grid equal to the
// oracle's after every mutation.
TEST(ParticleSystemTest, DeltaFedMutatorsMatchCheckedTwins) {
  util::Rng rng(505);
  auto nodes = lattice::compact_blob(40);
  std::vector<Color> colors(40);
  for (auto& c : colors) c = static_cast<Color>(rng.below(3));
  ParticleSystem checked(nodes, colors);
  ParticleSystem fed(nodes, colors);

  for (int step = 0; step < 3000; ++step) {
    const auto i = static_cast<ParticleIndex>(rng.below(checked.size()));
    const int dir = static_cast<int>(rng.below(6));
    const Node target = lattice::neighbor(checked.position(i), dir);
    const ParticleIndex j = checked.particle_at(target);
    if (j == kNoParticle) {
      const std::int64_t e0 = checked.edge_count();
      const std::int64_t h0 = checked.hetero_edge_count();
      checked.apply_move(i, target);
      fed.apply_move(i, target, checked.edge_count() - e0,
                     checked.hetero_edge_count() - h0);
    } else if (j != i) {
      const std::int64_t h0 = checked.hetero_edge_count();
      checked.apply_swap(i, j);
      fed.apply_swap(i, j, checked.hetero_edge_count() - h0);
    }
    ASSERT_EQ(checked.positions(), fed.positions()) << "step " << step;
    ASSERT_EQ(checked.edge_count(), fed.edge_count()) << "step " << step;
    ASSERT_EQ(checked.hetero_edge_count(), fed.hetero_edge_count())
        << "step " << step;
    ASSERT_NO_FATAL_FAILURE(expect_same_index(checked, fed, step));
  }
  testing::expect_grid_consistent(fed, "after churn");
}

// ---------------------------------------------------------------------
// Grid audit: the paged occupancy grid against a from-scratch scan of
// positions() after mutations that exercise every page-management path.

std::vector<Node> shifted(std::vector<Node> nodes, std::int32_t dx,
                          std::int32_t dy) {
  for (Node& v : nodes) v = Node{v.x + dx, v.y + dy};
  return nodes;
}

Node page_of(Node v) {
  return Node{v.x >> grid::kPageShift, v.y >> grid::kPageShift};
}

// A blob straddling the corner where four pages meet, churned by random
// moves and swaps: moves must cross a page edge in each of the six
// directions and through a page corner (both page coordinates change at
// once), and the grid must match the scan after every crossing.
TEST(GridAudit, PageCrossingsInEverySixDirections) {
  util::Rng rng(606);
  const auto nodes = shifted(lattice::compact_blob(40), grid::kPageCore,
                             grid::kPageCore);
  std::vector<Color> colors(nodes.size());
  for (auto& c : colors) c = static_cast<Color>(rng.below(3));
  ParticleSystem sys(nodes, colors);
  testing::expect_grid_consistent(sys, "initial");
  std::array<int, 6> crossings{};
  int corners = 0;
  for (int step = 0; step < 4000; ++step) {
    const auto i = static_cast<ParticleIndex>(rng.below(sys.size()));
    const int dir = static_cast<int>(rng.below(6));
    const Node from = sys.position(i);
    const Node target = lattice::neighbor(from, dir);
    const ParticleIndex j = sys.particle_at(target);
    bool crossed = false;
    if (j == kNoParticle) {
      sys.apply_move(i, target);
      const Node a = page_of(from);
      const Node b = page_of(target);
      if (a != b) {
        crossed = true;
        ++crossings[static_cast<std::size_t>(dir)];
        if (a.x != b.x && a.y != b.y) ++corners;
      }
    } else if (j != i) {
      sys.apply_swap(i, j);
    }
    if (crossed || step % 250 == 0) {
      testing::expect_grid_consistent(sys, "step " + std::to_string(step));
      if (::testing::Test::HasFailure()) return;
    }
  }
  for (int d = 0; d < 6; ++d) {
    EXPECT_GT(crossings[static_cast<std::size_t>(d)], 0) << "direction " << d;
  }
  EXPECT_GT(corners, 0) << "no move crossed a page corner";
}

// A dimer on a page edge: stepping its end across the edge creates the
// neighbour page, stepping back empties and releases it, and stepping
// across again recreates it from the free list — never growing the pool.
TEST(GridAudit, EmptiedPageIsReleasedAndRecreated) {
  const std::vector<Node> nodes{{30, 5}, {31, 5}};
  ParticleSystem sys(nodes);
  EXPECT_EQ(sys.pages().size(), 1u);
  for (int round = 0; round < 3; ++round) {
    sys.apply_move(1, Node{32, 5});
    EXPECT_EQ(sys.pages().size(), 2u) << round;
    testing::expect_grid_consistent(sys, "across, round " +
                                             std::to_string(round));
    sys.apply_move(1, Node{31, 5}, 0, 0);
    EXPECT_EQ(sys.pages().size(), 1u) << "emptied page kept, round " << round;
    testing::expect_grid_consistent(sys, "back, round " +
                                             std::to_string(round));
  }
  EXPECT_EQ(sys.pooled_pages(), 2u);
}

// Recoloring a particle on a page corner must rewrite its copies in the
// aprons of all three neighbouring pages (the alignment chain recolors).
TEST(GridAudit, RecolorUpdatesApronCopies) {
  const std::vector<Node> nodes{{31, 31}, {32, 31}, {31, 32}, {32, 32}};
  const std::vector<Color> colors{0, 1, 1, 0};
  ParticleSystem sys(nodes, colors);
  EXPECT_EQ(sys.pages().size(), 4u);
  for (const Color c : {Color{1}, Color{2}, Color{0}}) {
    sys.apply_recolor(0, c);
    testing::expect_grid_consistent(sys, "recolor " + std::to_string(c));
    const std::int64_t h = sys.hetero_edge_count();
    sys.recount_edges();
    EXPECT_EQ(sys.hetero_edge_count(), h);
  }
}

// Pages at the very edge of the int32 range: the page-coordinate shift
// and pack() must neither overflow nor alias, and the neighbour page
// beyond the range simply never exists. Moves stay one node inside the
// range so no lattice::neighbor computation overflows.
TEST(GridAudit, PagesAtTheEdgeOfTheCoordinateRange) {
  constexpr std::int32_t kMax = std::numeric_limits<std::int32_t>::max();
  constexpr std::int32_t kMin = std::numeric_limits<std::int32_t>::min();
  const std::array<Node, 4> corners{
      {{kMax - 6, kMax - 6}, {kMin + 6, kMin + 6}, {kMax - 6, kMin + 6},
       {kMin + 6, kMax - 6}}};
  util::Rng rng(707);
  for (const Node at : corners) {
    const auto nodes = shifted(lattice::compact_blob(12), at.x, at.y);
    std::vector<Color> colors(nodes.size());
    for (auto& c : colors) c = static_cast<Color>(rng.below(2));
    ParticleSystem sys(nodes, colors);
    const std::string where =
        "corner (" + std::to_string(at.x) + ", " + std::to_string(at.y) + ")";
    testing::expect_grid_consistent(sys, where);
    for (int step = 0; step < 1500; ++step) {
      const auto i = static_cast<ParticleIndex>(rng.below(sys.size()));
      const int dir = static_cast<int>(rng.below(6));
      const Node target = lattice::neighbor(sys.position(i), dir);
      if (target.x == kMax || target.x == kMin || target.y == kMax ||
          target.y == kMin) {
        continue;
      }
      const ParticleIndex j = sys.particle_at(target);
      if (j == kNoParticle) {
        sys.apply_move(i, target);
      } else if (j != i) {
        sys.apply_swap(i, j);
      }
      if (step % 100 == 0) {
        testing::expect_grid_consistent(sys, where + " step " +
                                                 std::to_string(step));
      }
    }
    testing::expect_grid_consistent(sys, where + " end");
    const std::int64_t e = sys.edge_count();
    const std::int64_t h = sys.hetero_edge_count();
    sys.recount_edges();
    EXPECT_EQ(sys.edge_count(), e) << where;
    EXPECT_EQ(sys.hetero_edge_count(), h) << where;
  }
}

// Random trajectories through every executor — step(), StepPipeline and
// a nine-lane ReplicaBand (one 8-lane SIMD group plus a pipeline lane on
// AVX2 hosts) — with segments alternating between them, against serial
// step() twins. Lanes straddle a page corner, sit near ±2^31, or carry a
// far outlier at (10^5, 10^5); in the second pass the outlier lane sits
// inside the SIMD group, which gathers from every lane's grid all the
// same. λ = 1 keeps acceptance high, so blobs spread across page edges.
TEST(GridAudit, TrajectoriesThroughEveryExecutor) {
  constexpr std::int32_t kFar = std::numeric_limits<std::int32_t>::max() - 300;
  const core::Params params{1.0, 2.0, true};
  for (const std::size_t outlier_lane : {std::size_t{8}, std::size_t{3}}) {
    std::vector<core::SeparationChain> lanes;
    std::vector<core::SeparationChain> twins;
    lanes.reserve(9);
    twins.reserve(9);
    for (std::size_t r = 0; r < 9; ++r) {
      util::Rng rng(900 + r);
      std::vector<Node> nodes;
      if (r == outlier_lane) {
        nodes = lattice::random_blob(60, rng);
        nodes.push_back(Node{100000, 100000});
      } else if (r % 3 == 1) {
        nodes = shifted(lattice::random_blob(61, rng), kFar, -kFar);
      } else if (r % 3 == 2) {
        nodes = shifted(lattice::random_blob(61, rng), -kFar, kFar);
      } else {
        nodes = shifted(lattice::random_blob(61, rng), grid::kPageCore,
                        grid::kPageCore);
      }
      const auto colors = core::balanced_random_colors(nodes.size(), 2, rng);
      lanes.emplace_back(ParticleSystem(nodes, colors), params, 900 + r);
      twins.emplace_back(ParticleSystem(nodes, colors), params, 900 + r);
    }
    std::vector<core::SeparationChain*> ptrs;
    for (core::SeparationChain& c : lanes) ptrs.push_back(&c);
    core::ReplicaBand band(ptrs);
    constexpr std::uint64_t kSegment = 3000;
    for (int seg = 0; seg < 6; ++seg) {
      if (seg % 3 == 0) {
        for (core::SeparationChain& c : lanes) {
          for (std::uint64_t i = 0; i < kSegment; ++i) c.step();
        }
      } else if (seg % 3 == 1) {
        for (core::SeparationChain& c : lanes) {
          core::StepPipeline(c).run(kSegment);
        }
      } else {
        band.run(kSegment);
      }
      for (std::size_t r = 0; r < 9; ++r) {
        for (std::uint64_t i = 0; i < kSegment; ++i) twins[r].step();
        const std::string what = "outlier lane " +
                                 std::to_string(outlier_lane) + " segment " +
                                 std::to_string(seg) + " lane " +
                                 std::to_string(r);
        const ParticleSystem& sys = lanes[r].system();
        testing::expect_grid_consistent(sys, what);
        ASSERT_EQ(sys.positions(), twins[r].system().positions()) << what;
        ASSERT_EQ(sys.edge_count(), twins[r].system().edge_count()) << what;
        ASSERT_EQ(sys.hetero_edge_count(),
                  twins[r].system().hetero_edge_count())
            << what;
        ASSERT_EQ(lanes[r].counters().moves_accepted,
                  twins[r].counters().moves_accepted)
            << what;
      }
    }
    if (core::ReplicaBand::auto_simd()) {
      EXPECT_GT(band.stats().simd_steps, 0u);
    }
  }
}

TEST(IoTest, SaveLoadRoundTrip) {
  ParticleSystem sys = two_color_triangle();
  std::stringstream ss;
  save_configuration(sys, ss);
  const ParticleSystem loaded = load_configuration(ss);
  ASSERT_EQ(loaded.size(), sys.size());
  for (std::size_t i = 0; i < sys.size(); ++i) {
    const auto pi = static_cast<ParticleIndex>(i);
    EXPECT_EQ(loaded.position(pi), sys.position(pi));
    EXPECT_EQ(loaded.color(pi), sys.color(pi));
  }
  EXPECT_EQ(loaded.edge_count(), sys.edge_count());
  EXPECT_EQ(loaded.hetero_edge_count(), sys.hetero_edge_count());
}

TEST(IoTest, LoadRejectsMalformed) {
  std::stringstream bad1("1 2\n");
  EXPECT_THROW(load_configuration(bad1), std::runtime_error);
  std::stringstream bad2("0 0 99\n");
  EXPECT_THROW(load_configuration(bad2), std::runtime_error);
  std::stringstream empty("# just a comment\n");
  EXPECT_THROW(load_configuration(empty), std::runtime_error);
}

TEST(IoTest, LoadSkipsCommentsAndBlankLines) {
  std::stringstream ss("# header\n\n0 0 0\n1 0 1\n");
  const ParticleSystem sys = load_configuration(ss);
  EXPECT_EQ(sys.size(), 2u);
  EXPECT_EQ(sys.color(1), 1);
}

TEST(RenderTest, AsciiShowsBothGlyphs) {
  ParticleSystem sys = two_color_triangle();
  const std::string art = render_ascii(sys);
  EXPECT_NE(art.find('o'), std::string::npos);
  EXPECT_NE(art.find('x'), std::string::npos);
}

TEST(RenderTest, ImageHasColoredPixels) {
  ParticleSystem sys = two_color_triangle();
  const util::Image img = render_image(sys, 10.0);
  EXPECT_GT(img.width(), 0u);
  EXPECT_GT(img.height(), 0u);
  // At least one non-white pixel.
  bool colored = false;
  for (std::size_t y = 0; y < img.height() && !colored; ++y) {
    for (std::size_t x = 0; x < img.width() && !colored; ++x) {
      colored = !(img.get(x, y) == util::Rgb{255, 255, 255});
    }
  }
  EXPECT_TRUE(colored);
}

}  // namespace
}  // namespace sops::system
