// Heterogeneous particle-system configurations (Sections 2.2-2.3).
//
// A configuration is a set of occupied nodes of G_Δ plus an immutable
// color per particle. The class maintains, incrementally under moves and
// swaps, the three quantities the stationary distribution depends on:
// the edge count e(σ), the heterogeneous edge count h(σ), and — through
// the hole-free identity e(σ) = 3n − p(σ) − 3 — the perimeter p(σ).
//
// Mutations are restricted to the two Markov-chain primitives:
// `apply_move` (one particle to an adjacent empty node) and `apply_swap`
// (two adjacent particles exchange positions), plus `apply_recolor`
// for chains whose colors are internal state.
//
// Occupancy lives in one structure, a paged dense cell grid, kept
// current by every mutator:
//  - a page is a kPageCore² block of cells in the format of
//    cell_codec.hpp, stored with a kApron-cell apron on every side that
//    copies the neighbouring pages' cores (0 where no neighbour page
//    exists). The apron is as wide as the 10-node gather of a proposal
//    edge reaches, so every gather around a particle stays inside its
//    page and uses the compile-time offsets of grid::kRingOffset;
//  - every particle's cell address (an int32 into the page pool) sits
//    in a SoA beside `positions_`, so the step kernel goes from a
//    particle to its neighborhood without hashing;
//  - a util::FlatMap directory maps page coordinates to pages. Only
//    node queries (`particle_at`, `occupied`), page creation, and moves
//    that cross into a page not yet linked probe it; pages keep links
//    to their eight neighbours;
//  - a page whose core empties returns to a free list.
// There is no bounding box, so nothing is refused, re-centered or
// stale, whatever the configuration's shape.
//
// Global invariants (connectivity, hole-freeness, boundary walk) are
// verified by the functions in invariants.hpp, which intentionally use
// independent algorithms so tests can cross-check the incremental
// bookkeeping.
#pragma once

#include <array>
#include <cassert>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "src/lattice/triangular.hpp"
#include "src/sops/cell_codec.hpp"
#include "src/util/hash_table.hpp"

namespace sops::system {

/// Particle colors c_1, ..., c_k. The paper analyzes k = 2; the chain
/// implementation supports any k <= kMaxColors (Section 5).
using Color = std::uint8_t;
inline constexpr Color kMaxColors = 8;

/// Index of a particle within a ParticleSystem; stable across moves.
using ParticleIndex = std::int32_t;
inline constexpr ParticleIndex kNoParticle = -1;

/// Geometry of the paged occupancy grid (see the file comment).
namespace grid {

inline constexpr int kPageShift = 5;
inline constexpr int kPageCore = 1 << kPageShift;  ///< core cells per axis
inline constexpr int kApron = 2;                   ///< the gather's reach
inline constexpr int kPageStride = kPageCore + 2 * kApron;
inline constexpr std::int32_t kPageCells = kPageStride * kPageStride;

/// Address offset of the lattice displacement d inside one page.
[[nodiscard]] constexpr std::int32_t offset(lattice::Node d) noexcept {
  return d.y * kPageStride + d.x;
}

/// Per-direction offsets of the eight lattice::EdgeRing nodes and of
/// the target l' = l + dir, relative to l's cell.
inline constexpr std::array<std::array<std::int32_t, 8>, 6> kRingOffset =
    [] {
      std::array<std::array<std::int32_t, 8>, 6> t{};
      for (int d = 0; d < 6; ++d) {
        const lattice::EdgeRing ring = lattice::EdgeRing::around({}, d);
        for (std::size_t k = 0; k < 8; ++k) {
          t[static_cast<std::size_t>(d)][k] = offset(ring.nodes[k]);
        }
      }
      return t;
    }();
inline constexpr std::array<std::int32_t, 6> kLpOffset = [] {
  std::array<std::int32_t, 6> t{};
  for (int d = 0; d < 6; ++d) {
    t[static_cast<std::size_t>(d)] = offset(lattice::neighbor({}, d));
  }
  return t;
}();

}  // namespace grid

/// Single-pass snapshot of the closed 10-node neighborhood of a proposal
/// edge (l, l' = l + dir): the 8-node lattice::EdgeRing plus the two
/// endpoints. This is the raw material of the step kernel
/// (src/core/neighborhood.hpp): every quantity Algorithm 1 needs per
/// step is a popcount or nibble match over these two words.
///
/// Node layout (bit i of `occ`, nibble i of `color_nibbles`):
///   0..7  lattice::EdgeRing::around(l, dir).nodes[0..7]
///         (ring indices 0 and 4 are the common neighbors of l and l')
///   8     l
///   9     l'
/// `color_nibbles` holds the color of node i in bits [4i, 4i+4), with
/// 0xF (an impossible color; kMaxColors = 8) where the node is empty,
/// so a nibble match against any real color also filters occupancy.
struct NeighborhoodGather {
  std::uint16_t occ = 0;
  std::uint64_t color_nibbles = 0xFFFFFFFFFFULL;
  ParticleIndex p_at_l = kNoParticle;
  ParticleIndex p_at_lp = kNoParticle;

  static constexpr int kNodeL = 8;
  static constexpr int kNodeLp = 9;
};

class ParticleSystem {
 public:
  /// Builds a configuration from node positions and per-particle colors.
  /// Throws std::invalid_argument on duplicate nodes, size mismatch,
  /// out-of-range colors, or more particles than the page pool can
  /// address. Does NOT require connectivity (the chain's invariants are
  /// checked separately); edge counts are exact regardless.
  ParticleSystem(std::span<const lattice::Node> positions,
                 std::span<const Color> colors);

  /// Convenience: all particles share color 0 (homogeneous system).
  explicit ParticleSystem(std::span<const lattice::Node> positions);

  [[nodiscard]] std::size_t size() const noexcept { return positions_.size(); }
  [[nodiscard]] int num_colors() const noexcept { return num_colors_; }

  [[nodiscard]] lattice::Node position(ParticleIndex i) const {
    return positions_[static_cast<std::size_t>(i)];
  }
  [[nodiscard]] Color color(ParticleIndex i) const {
    return colors_[static_cast<std::size_t>(i)];
  }

  [[nodiscard]] bool occupied(lattice::Node v) const noexcept {
    return particle_at(v) != kNoParticle;
  }

  /// The particle at `v`, or kNoParticle. One directory probe.
  [[nodiscard]] ParticleIndex particle_at(lattice::Node v) const noexcept {
    const std::int32_t* page = directory_.find(lattice::pack(page_of(v)));
    if (page == nullptr) return kNoParticle;
    return static_cast<ParticleIndex>(
               cells_[static_cast<std::size_t>(address_in(*page, v))] &
               cell::kIndexMask) -
           1;
  }

  /// Number of occupied neighbors of `v`, excluding the node `exclude`
  /// if it happens to be adjacent (used for the "as if P were absent"
  /// counts of Algorithm 1). Pass `v` itself as exclude for "no exclude".
  [[nodiscard]] int neighbor_count(lattice::Node v,
                                   lattice::Node exclude) const noexcept;

  /// Same, restricted to neighbors of color `c`.
  [[nodiscard]] int neighbor_count_color(lattice::Node v, Color c,
                                         lattice::Node exclude) const noexcept;

  [[nodiscard]] int neighbor_count(lattice::Node v) const noexcept {
    return neighbor_count(v, v);
  }
  [[nodiscard]] int neighbor_count_color(lattice::Node v,
                                         Color c) const noexcept {
    return neighbor_count_color(v, c, v);
  }

  /// Reads the closed 10-node neighborhood of the edge (l, l + dir)
  /// around any node l, occupied or not: one directory probe per node.
  [[nodiscard]] NeighborhoodGather gather_neighborhood(lattice::Node l,
                                                       int dir) const noexcept;

  /// The same neighborhood around particle `i`'s node: ten direct loads
  /// from its page at compile-time offsets, no probe, no branch.
  [[nodiscard]] NeighborhoodGather gather_neighborhood(
      ParticleIndex i, int dir) const noexcept {
    const std::uint32_t* const c =
        cells_.data() + addr_[static_cast<std::size_t>(i)];
    const auto& ring = grid::kRingOffset[static_cast<std::size_t>(dir)];
    unsigned occ = 1u << NeighborhoodGather::kNodeL;
    std::uint64_t nib = static_cast<std::uint64_t>(c[0] >> cell::kNibbleShift)
                        << (4 * NeighborhoodGather::kNodeL);
    for (std::size_t k = 0; k < 8; ++k) {
      const std::uint32_t v = c[ring[k]];
      occ |= static_cast<unsigned>(v != 0) << k;
      nib |= static_cast<std::uint64_t>(v >> cell::kNibbleShift) << (4 * k);
    }
    const std::uint32_t lp = c[grid::kLpOffset[static_cast<std::size_t>(dir)]];
    occ |= static_cast<unsigned>(lp != 0) << NeighborhoodGather::kNodeLp;
    nib |= static_cast<std::uint64_t>(lp >> cell::kNibbleShift)
           << (4 * NeighborhoodGather::kNodeLp);
    NeighborhoodGather g;
    g.occ = static_cast<std::uint16_t>(occ);
    g.color_nibbles ^= nib;
    g.p_at_l = i;
    g.p_at_lp = static_cast<ParticleIndex>(lp & cell::kIndexMask) - 1;
    return g;
  }

  /// e(σ): number of lattice edges with both endpoints occupied.
  [[nodiscard]] std::int64_t edge_count() const noexcept { return edges_; }
  /// h(σ): number of heterogeneous (bichromatic) edges.
  [[nodiscard]] std::int64_t hetero_edge_count() const noexcept {
    return hetero_edges_;
  }
  /// a(σ) = e(σ) − h(σ): homogeneous edges.
  [[nodiscard]] std::int64_t homo_edge_count() const noexcept {
    return edges_ - hetero_edges_;
  }

  /// p(σ) via the identity e(σ) = 3n − p(σ) − 3. Valid only for connected,
  /// hole-free configurations (Lemma 9's domain); invariants.hpp provides
  /// the independent boundary-walk perimeter for verification.
  [[nodiscard]] std::int64_t perimeter_by_identity() const noexcept {
    return 3 * static_cast<std::int64_t>(size()) - 3 - edges_;
  }

  /// Moves particle `i` to node `to`. Precondition (checked): `to` is
  /// unoccupied and adjacent to the particle's current node. Recounts
  /// e(σ)/h(σ) around both nodes.
  void apply_move(ParticleIndex i, lattice::Node to);

  /// Same move, but with caller-supplied e(σ)/h(σ) deltas instead of the
  /// two 6-neighbor recounts (the step kernel already knows both deltas
  /// from its gather). The caller is responsible for their correctness;
  /// adjacency and emptiness of `to` are asserted, not checked.
  void apply_move(ParticleIndex i, lattice::Node to, std::int64_t edge_delta,
                  std::int64_t hetero_delta) {
    // Checked against the proposer's page (core or apron), so the
    // assert costs no directory probe.
    assert(lattice::adjacent(position(i), to) &&
           cells_[static_cast<std::size_t>(
               addr_[static_cast<std::size_t>(i)] +
               grid::offset({to.x - position(i).x, to.y - position(i).y}))] ==
               0);
    relocate(i, to);
    edges_ += edge_delta;
    hetero_edges_ += hetero_delta;
  }

  /// Swaps the positions of two adjacent particles (checked), recounting
  /// h(σ) around both nodes.
  void apply_swap(ParticleIndex i, ParticleIndex j);

  /// apply_swap with a caller-supplied h(σ) delta instead of the two
  /// before/after recounts; adjacency is asserted, not checked. The
  /// delta of a heterogeneous swap is a pure function of the gathered
  /// neighborhood: exactly −NeighborhoodView::swap_exponent(). Same-color
  /// swaps are a configuration no-op (delta ignored).
  void apply_swap(ParticleIndex i, ParticleIndex j, std::int64_t hetero_delta) {
    assert(lattice::adjacent(position(i), position(j)));
    if (colors_[static_cast<std::size_t>(i)] ==
        colors_[static_cast<std::size_t>(j)]) {
      return;  // configuration unchanged, exactly like apply_swap
    }
    exchange(i, j);
    hetero_edges_ += hetero_delta;
  }

  /// Recolors particle `i` in place (spin/orientation flip for chains
  /// whose colors are mutable internal state rather than immutable
  /// species labels). Positions and e(σ) are untouched; h(σ) is updated
  /// incrementally. Same-color recolors are a no-op.
  void apply_recolor(ParticleIndex i, Color c);

  /// Per-color particle counts.
  [[nodiscard]] std::vector<std::size_t> color_histogram() const;

  /// Snapshot of all positions (index order = particle index order).
  [[nodiscard]] const std::vector<lattice::Node>& positions() const noexcept {
    return positions_;
  }
  [[nodiscard]] const std::vector<Color>& colors() const noexcept {
    return colors_;
  }

  /// Recomputes e(σ) and h(σ) from scratch; used by tests to validate the
  /// incremental bookkeeping.
  void recount_edges() noexcept;

  /// The page pool and every particle's cell address in it — the step
  /// executors' vector gathers read the grid through these. Both stay
  /// valid until the next mutation.
  [[nodiscard]] const std::uint32_t* cells() const noexcept {
    return cells_.data();
  }
  [[nodiscard]] const std::int32_t* addresses() const noexcept {
    return addr_.data();
  }

  /// Cumulative page-directory probes; the kernel benchmarks report the
  /// per-step delta.
  [[nodiscard]] std::uint64_t directory_probes() const noexcept {
    return directory_.lookups();
  }

  /// Pages in the pool: live ones plus the free list.
  [[nodiscard]] std::size_t pooled_pages() const noexcept {
    return pages_.size();
  }

  /// Every live page, for audits: its page coordinate (node >> kPageShift
  /// per axis) and its stored cells, kPageStride rows of kPageStride
  /// starting at the apron corner (−kApron, −kApron). Valid until the
  /// next mutation.
  [[nodiscard]] std::vector<std::pair<lattice::Node, const std::uint32_t*>>
  pages() const;

 private:
  struct Page {
    lattice::Node at{};  ///< page coordinate
    std::int32_t count = 0;  ///< particles in the core
    /// Neighbour pages by slot (dy + 1) * 3 + (dx + 1), -1 if absent.
    std::array<std::int32_t, 9> nbr{};
  };

  [[nodiscard]] static constexpr lattice::Node page_of(
      lattice::Node v) noexcept {
    return {v.x >> grid::kPageShift, v.y >> grid::kPageShift};
  }
  [[nodiscard]] static constexpr std::int32_t address_in(
      std::int32_t page, lattice::Node v) noexcept {
    constexpr int kMask = grid::kPageCore - 1;
    return page * grid::kPageCells +
           grid::offset({(v.x & kMask) + grid::kApron,
                         (v.y & kMask) + grid::kApron});
  }

  [[nodiscard]] std::int64_t count_incident_edges(lattice::Node v,
                                                  Color c,
                                                  std::int64_t* hetero) const
      noexcept;

  /// Writes `value` into the cell at address `a` (node `v`) and into
  /// every neighbour page's apron copy of it. A core cell within kApron
  /// of an edge also lives in the apron of the page across that edge.
  void put(std::int32_t a, lattice::Node v, std::uint32_t value) noexcept {
    cells_[static_cast<std::size_t>(a)] = value;
    // Unsigned, so nodes near the int32 limits do not overflow.
    constexpr std::uint32_t kMask = grid::kPageCore - 1;
    constexpr std::uint32_t kA = grid::kApron;
    if ((((static_cast<std::uint32_t>(v.x) + kA) & kMask) < 2 * kA) ||
        (((static_cast<std::uint32_t>(v.y) + kA) & kMask) < 2 * kA))
        [[unlikely]] {
      put_apron(a, v, value);
    }
  }
  void put_apron(std::int32_t a, lattice::Node v, std::uint32_t value) noexcept;
  /// Moves particle `i`'s cell to the adjacent empty node `to`.
  void relocate(ParticleIndex i, lattice::Node to) {
    const auto ui = static_cast<std::size_t>(i);
    const lattice::Node from = positions_[ui];
    if ((((from.x ^ to.x) | (from.y ^ to.y)) >> grid::kPageShift) != 0)
        [[unlikely]] {
      relocate_across(i, to);
      return;
    }
    const std::int32_t a = addr_[ui];
    const std::int32_t b = a + grid::offset({to.x - from.x, to.y - from.y});
    put(a, from, 0);
    put(b, to, own_cell(i));
    positions_[ui] = to;
    addr_[ui] = b;
  }
  /// relocate() into the adjacent page: takes it from the source page's
  /// links (creating it if absent), then releases the source page if it
  /// emptied.
  void relocate_across(ParticleIndex i, lattice::Node to);
  /// The cell that holds particle `i`. Encoded rather than read back,
  /// so a mutator's grid writes are pure stores.
  [[nodiscard]] std::uint32_t own_cell(ParticleIndex i) const noexcept {
    return cell::encode(static_cast<std::uint32_t>(i),
                        colors_[static_cast<std::size_t>(i)]);
  }
  /// Exchanges the cells of particles `i` and `j`.
  void exchange(ParticleIndex i, ParticleIndex j) noexcept {
    const auto ui = static_cast<std::size_t>(i);
    const auto uj = static_cast<std::size_t>(j);
    const std::int32_t ai = addr_[ui];
    const std::int32_t aj = addr_[uj];
    const lattice::Node pi = positions_[ui];
    const lattice::Node pj = positions_[uj];
    put(ai, pi, own_cell(j));
    put(aj, pj, own_cell(i));
    positions_[ui] = pj;
    positions_[uj] = pi;
    addr_[ui] = aj;
    addr_[uj] = ai;
  }
  /// Takes a page for page coordinate `at` from the free list (or grows
  /// the pool), links its neighbours and copies their cores into its
  /// apron.
  std::int32_t create_page(lattice::Node at);
  void release_page(std::int32_t p);

  std::vector<lattice::Node> positions_;
  std::vector<Color> colors_;
  std::vector<std::int32_t> addr_;   ///< cell address of each particle
  std::vector<std::uint32_t> cells_; ///< page pool, kPageCells per page
  std::vector<Page> pages_;
  std::vector<std::int32_t> free_pages_;
  util::FlatMap<std::int32_t> directory_;  ///< page coordinate -> page
  std::int64_t edges_ = 0;
  std::int64_t hetero_edges_ = 0;
  int num_colors_ = 1;
};

}  // namespace sops::system
