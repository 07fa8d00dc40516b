// The triangular lattice G_Δ (Section 2.1 of the paper).
//
// Nodes are addressed in axial coordinates (x, y). With the Euclidean
// embedding (x + y/2, y·√3/2), the six unit directions below are listed
// in counterclockwise order, so direction arithmetic mod 6 walks around
// a node's neighborhood. The identity d(k−1) + d(k+1) = d(k) holds, which
// the edge-ring construction in `EdgeRing` relies on.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <utility>

namespace sops::lattice {

/// A node of G_Δ in axial coordinates.
struct Node {
  std::int32_t x = 0;
  std::int32_t y = 0;

  friend constexpr bool operator==(const Node&, const Node&) = default;
  friend constexpr auto operator<=>(const Node&, const Node&) = default;
};

inline constexpr int kDegree = 6;

/// The six lattice directions in counterclockwise order starting from +x.
inline constexpr std::array<Node, kDegree> kDirections = {{
    {1, 0},    // 0:   0 degrees (E)
    {0, 1},    // 1:  60 degrees (NE)
    {-1, 1},   // 2: 120 degrees (NW)
    {-1, 0},   // 3: 180 degrees (W)
    {0, -1},   // 4: 240 degrees (SW)
    {1, -1},   // 5: 300 degrees (SE)
}};

/// Direction index arithmetic modulo 6 (handles negative offsets).
[[nodiscard]] constexpr int dir_mod(int k) noexcept {
  return ((k % kDegree) + kDegree) % kDegree;
}

[[nodiscard]] constexpr Node neighbor(Node v, int dir) noexcept {
  const Node d = kDirections[static_cast<std::size_t>(dir_mod(dir))];
  return Node{v.x + d.x, v.y + d.y};
}

/// Opposite direction.
[[nodiscard]] constexpr int opposite(int dir) noexcept {
  return dir_mod(dir + 3);
}

/// If `b` is a lattice neighbor of `a`, the direction index from a to b.
[[nodiscard]] std::optional<int> direction_between(Node a, Node b) noexcept;

/// True iff a and b are adjacent in G_Δ.
[[nodiscard]] bool adjacent(Node a, Node b) noexcept;

/// Graph (hex) distance between two nodes.
[[nodiscard]] std::int64_t distance(Node a, Node b) noexcept;

/// Packs a node into a 64-bit key for the hash containers. Injective over
/// the full int32 coordinate range.
[[nodiscard]] constexpr std::uint64_t pack(Node v) noexcept {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(v.x)) << 32) |
         static_cast<std::uint64_t>(static_cast<std::uint32_t>(v.y));
}

[[nodiscard]] constexpr Node unpack(std::uint64_t key) noexcept {
  return Node{static_cast<std::int32_t>(key >> 32),
              static_cast<std::int32_t>(key & 0xffffffffULL)};
}

/// Euclidean embedding of a node (unit edge length).
[[nodiscard]] std::pair<double, double> embed(Node v) noexcept;

/// The 8-node ring around an edge (l, l') of G_Δ, in cyclic order:
///
///     common_a, l_side[0..2], common_b, lp_side[0..2]
///
/// where common_a/common_b are the two nodes adjacent to *both* endpoints
/// (the candidate set S of Properties 4 and 5), l_side are the remaining
/// neighbors of l and lp_side the remaining neighbors of l'. Consecutive
/// ring nodes (cyclically) are adjacent in G_Δ, so local connectivity
/// within N(l ∪ l') reduces to run analysis on this ring.
struct EdgeRing {
  std::array<Node, 8> nodes;

  static constexpr std::size_t kCommonA = 0;  // index of first common nbr
  static constexpr std::size_t kCommonB = 4;  // index of second common nbr

  /// Builds the ring for the edge from l toward direction `dir`.
  /// Counterclockwise around the pair; positions 0 and 4 are the common
  /// neighbors of l and l'.
  static constexpr EdgeRing around(Node l, int dir) noexcept {
    const Node lp = neighbor(l, dir);
    return EdgeRing{{
        neighbor(l, dir + 1),  // common A (== neighbor(lp, dir + 2))
        neighbor(l, dir + 2),
        neighbor(l, dir + 3),
        neighbor(l, dir + 4),
        neighbor(l, dir - 1),  // common B (== neighbor(lp, dir - 2))
        neighbor(lp, dir - 1),
        neighbor(lp, dir),
        neighbor(lp, dir + 1),
    }};
  }
};

}  // namespace sops::lattice
