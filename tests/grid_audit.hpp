// Recompute-from-scratch audit of ParticleSystem's paged occupancy grid:
// every stored cell of every live page — core and apron — is compared
// against the cell a linear scan of positions() says it must hold, every
// particle's address against its own cell, and particle_at() against
// the same scan over each page's extent (plus the bounding box when it
// is small). Coordinates are widened to 64 bits, so pages at the edge
// of the int32 range are checked too.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <utility>

#include "src/sops/particle_system.hpp"

namespace sops::system::testing {

inline void expect_grid_consistent(const ParticleSystem& sys,
                                   const std::string& what) {
  namespace grid = system::grid;
  using Key = std::pair<std::int64_t, std::int64_t>;
  std::map<Key, std::uint32_t> expected;
  std::set<Key> page_keys;
  for (std::size_t i = 0; i < sys.size(); ++i) {
    const lattice::Node v = sys.positions()[i];
    const std::uint32_t own =
        cell::encode(static_cast<std::uint32_t>(i), sys.colors()[i]);
    expected[{v.x, v.y}] = own;
    page_keys.insert({v.x >> grid::kPageShift, v.y >> grid::kPageShift});
    EXPECT_EQ(sys.cells()[sys.addresses()[i]], own)
        << what << ": address of particle " << i;
  }
  const auto cell_of = [&](std::int64_t x, std::int64_t y) -> std::uint32_t {
    const auto it = expected.find({x, y});
    return it == expected.end() ? 0 : it->second;
  };
  const auto in_range = [](std::int64_t c) {
    return c >= std::numeric_limits<std::int32_t>::min() &&
           c <= std::numeric_limits<std::int32_t>::max();
  };

  const auto pages = sys.pages();
  EXPECT_EQ(pages.size(), page_keys.size())
      << what << ": a page whose core emptied survived, or one is missing";
  std::size_t wrong_cells = 0;
  std::size_t wrong_queries = 0;
  std::string first;
  for (const auto& [at, cells] : pages) {
    EXPECT_TRUE(page_keys.contains({at.x, at.y}))
        << what << ": live page (" << at.x << ", " << at.y
        << ") holds no particle";
    for (int r = 0; r < grid::kPageStride; ++r) {
      for (int c = 0; c < grid::kPageStride; ++c) {
        const std::int64_t x =
            static_cast<std::int64_t>(at.x) * grid::kPageCore + c - grid::kApron;
        const std::int64_t y =
            static_cast<std::int64_t>(at.y) * grid::kPageCore + r - grid::kApron;
        if (cells[r * grid::kPageStride + c] != cell_of(x, y)) {
          if (wrong_cells++ == 0) {
            first = "page (" + std::to_string(at.x) + ", " +
                    std::to_string(at.y) + ") node (" + std::to_string(x) +
                    ", " + std::to_string(y) + ")";
          }
        }
        if (!in_range(x) || !in_range(y)) continue;
        const lattice::Node v{static_cast<std::int32_t>(x),
                              static_cast<std::int32_t>(y)};
        const std::uint32_t want = cell_of(x, y);
        const ParticleIndex p = sys.particle_at(v);
        if (p != static_cast<ParticleIndex>(want & cell::kIndexMask) - 1 ||
            sys.occupied(v) != (want != 0)) {
          ++wrong_queries;
        }
      }
    }
  }
  EXPECT_EQ(wrong_cells, 0u) << what << ": stored cells disagree, first at "
                             << first;
  EXPECT_EQ(wrong_queries, 0u) << what << ": particle_at disagrees in pages";

  // Bounding box plus a margin, when it is small enough to scan: this
  // also covers nodes of pages that do not exist.
  std::int64_t xmin = std::numeric_limits<std::int64_t>::max();
  std::int64_t ymin = xmin;
  std::int64_t xmax = std::numeric_limits<std::int64_t>::min();
  std::int64_t ymax = xmax;
  for (const lattice::Node v : sys.positions()) {
    xmin = std::min<std::int64_t>(xmin, v.x);
    xmax = std::max<std::int64_t>(xmax, v.x);
    ymin = std::min<std::int64_t>(ymin, v.y);
    ymax = std::max<std::int64_t>(ymax, v.y);
  }
  constexpr std::int64_t kMargin = 3;
  if ((xmax - xmin + 2 * kMargin) * (ymax - ymin + 2 * kMargin) > 1 << 20) {
    return;
  }
  std::size_t wrong_box = 0;
  for (std::int64_t y = ymin - kMargin; y <= ymax + kMargin; ++y) {
    for (std::int64_t x = xmin - kMargin; x <= xmax + kMargin; ++x) {
      if (!in_range(x) || !in_range(y)) continue;
      const std::uint32_t want = cell_of(x, y);
      const lattice::Node v{static_cast<std::int32_t>(x),
                            static_cast<std::int32_t>(y)};
      if (sys.particle_at(v) !=
          static_cast<ParticleIndex>(want & cell::kIndexMask) - 1) {
        ++wrong_box;
      }
    }
  }
  EXPECT_EQ(wrong_box, 0u) << what << ": particle_at disagrees in the box";
}

}  // namespace sops::system::testing
