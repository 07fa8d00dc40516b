#include "src/sops/particle_system.hpp"

#include <algorithm>
#include <cassert>
#include <climits>
#include <stdexcept>

namespace sops::system {

using lattice::kDegree;
using lattice::Node;

ParticleSystem::ParticleSystem(std::span<const Node> positions,
                               std::span<const Color> colors)
    : positions_(positions.begin(), positions.end()),
      colors_(colors.begin(), colors.end()),
      addr_(positions.size()) {
  if (positions_.size() != colors_.size()) {
    throw std::invalid_argument("ParticleSystem: positions/colors size mismatch");
  }
  if (positions_.empty()) {
    throw std::invalid_argument("ParticleSystem: empty system");
  }
  // Every live page holds a particle, and a crossing move creates its
  // target page before it releases its source: the pool never exceeds
  // n + 1 pages, whose int32 addresses must not overflow.
  if (positions_.size() + 1 >
      static_cast<std::size_t>(INT32_MAX / grid::kPageCells)) {
    throw std::invalid_argument("ParticleSystem: too many particles");
  }
  for (std::size_t i = 0; i < positions_.size(); ++i) {
    if (colors_[i] >= kMaxColors) {
      throw std::invalid_argument("ParticleSystem: color out of range");
    }
    num_colors_ = std::max(num_colors_, static_cast<int>(colors_[i]) + 1);
    const Node v = positions_[i];
    const std::int32_t* found = directory_.find(lattice::pack(page_of(v)));
    const std::int32_t page = found ? *found : create_page(page_of(v));
    const std::int32_t a = address_in(page, v);
    if (cells_[static_cast<std::size_t>(a)] != 0) {
      throw std::invalid_argument("ParticleSystem: duplicate node");
    }
    ++pages_[static_cast<std::size_t>(page)].count;
    addr_[i] = a;
    put(a, v, own_cell(static_cast<ParticleIndex>(i)));
  }
  recount_edges();
}

ParticleSystem::ParticleSystem(std::span<const Node> positions)
    : ParticleSystem(positions,
                     std::vector<Color>(positions.size(), Color{0})) {}

int ParticleSystem::neighbor_count(Node v, Node exclude) const noexcept {
  int count = 0;
  for (int k = 0; k < kDegree; ++k) {
    const Node u = lattice::neighbor(v, k);
    if (u == exclude) continue;
    if (occupied(u)) ++count;
  }
  return count;
}

int ParticleSystem::neighbor_count_color(Node v, Color c,
                                         Node exclude) const noexcept {
  int count = 0;
  for (int k = 0; k < kDegree; ++k) {
    const Node u = lattice::neighbor(v, k);
    if (u == exclude) continue;
    const ParticleIndex p = particle_at(u);
    if (p != kNoParticle && colors_[static_cast<std::size_t>(p)] == c) ++count;
  }
  return count;
}

NeighborhoodGather ParticleSystem::gather_neighborhood(Node l,
                                                       int dir) const noexcept {
  const lattice::EdgeRing ring = lattice::EdgeRing::around(l, dir);
  std::array<Node, 10> nodes{};
  std::copy(ring.nodes.begin(), ring.nodes.end(), nodes.begin());
  nodes[NeighborhoodGather::kNodeL] = l;
  nodes[NeighborhoodGather::kNodeLp] = lattice::neighbor(l, dir);
  NeighborhoodGather g;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const ParticleIndex p = particle_at(nodes[i]);
    if (i == NeighborhoodGather::kNodeL) g.p_at_l = p;
    if (i == NeighborhoodGather::kNodeLp) g.p_at_lp = p;
    if (p == kNoParticle) continue;
    g.occ = static_cast<std::uint16_t>(g.occ | (1u << i));
    g.color_nibbles ^= static_cast<std::uint64_t>(
                           colors_[static_cast<std::size_t>(p)] ^ 0xFu)
                       << (4 * i);
  }
  return g;
}

std::int64_t ParticleSystem::count_incident_edges(
    Node v, Color c, std::int64_t* hetero) const noexcept {
  std::int64_t total = 0;
  std::int64_t het = 0;
  for (int k = 0; k < kDegree; ++k) {
    const ParticleIndex p = particle_at(lattice::neighbor(v, k));
    if (p == kNoParticle) continue;
    ++total;
    if (colors_[static_cast<std::size_t>(p)] != c) ++het;
  }
  if (hetero != nullptr) *hetero = het;
  return total;
}

void ParticleSystem::apply_move(ParticleIndex i, Node to) {
  const Node from = position(i);
  if (!lattice::adjacent(from, to)) {
    throw std::invalid_argument("apply_move: target not adjacent");
  }
  if (occupied(to)) {
    throw std::invalid_argument("apply_move: target occupied");
  }
  const Color c = color(i);

  std::int64_t het_old = 0;
  const std::int64_t deg_old = count_incident_edges(from, c, &het_old);

  relocate(i, to);

  std::int64_t het_new = 0;
  const std::int64_t deg_new = count_incident_edges(to, c, &het_new);

  edges_ += deg_new - deg_old;
  hetero_edges_ += het_new - het_old;
}

void ParticleSystem::apply_swap(ParticleIndex i, ParticleIndex j) {
  const Node a = position(i);
  const Node b = position(j);
  if (!lattice::adjacent(a, b)) {
    throw std::invalid_argument("apply_swap: particles not adjacent");
  }
  const Color ci = color(i);
  const Color cj = color(j);
  if (ci == cj) return;  // configuration unchanged

  // Heterogeneous-edge delta: recount the edges incident to the two nodes
  // before and after. The (a,b) edge itself stays heterogeneous; edges
  // counted from both endpoints would double-count only (a,b).
  const auto local_hetero = [&]() {
    std::int64_t het = 0;
    std::int64_t dummy_total [[maybe_unused]] = 0;
    std::int64_t h = 0;
    dummy_total = count_incident_edges(a, color(particle_at(a)), &h);
    het += h;
    dummy_total = count_incident_edges(b, color(particle_at(b)), &h);
    het += h;
    return het;  // counts edge (a,b) twice; consistent before/after
  };

  const std::int64_t het_before = local_hetero();

  exchange(i, j);

  const std::int64_t het_after = local_hetero();
  hetero_edges_ += het_after - het_before;
}

void ParticleSystem::apply_recolor(ParticleIndex i, Color c) {
  if (c >= kMaxColors) {
    throw std::invalid_argument("apply_recolor: color out of range");
  }
  const Color old = color(i);
  if (old == c) return;  // configuration unchanged
  const Node v = position(i);
  std::int64_t het_old = 0;
  std::int64_t het_new = 0;
  (void)count_incident_edges(v, old, &het_old);
  (void)count_incident_edges(v, c, &het_new);
  colors_[static_cast<std::size_t>(i)] = c;
  put(addr_[static_cast<std::size_t>(i)], v, own_cell(i));
  hetero_edges_ += het_new - het_old;
  if (static_cast<int>(c) + 1 > num_colors_) num_colors_ = c + 1;
}

std::vector<std::size_t> ParticleSystem::color_histogram() const {
  std::vector<std::size_t> hist(static_cast<std::size_t>(num_colors_), 0);
  for (Color c : colors_) ++hist[c];
  return hist;
}

void ParticleSystem::recount_edges() noexcept {
  std::int64_t edges = 0;
  std::int64_t hetero = 0;
  for (std::size_t i = 0; i < positions_.size(); ++i) {
    // Count each edge once: from the endpoint with the smaller packed key.
    const Node v = positions_[i];
    for (int k = 0; k < kDegree; ++k) {
      const Node u = lattice::neighbor(v, k);
      if (lattice::pack(u) <= lattice::pack(v)) continue;
      const auto p = static_cast<ParticleIndex>(
                         cells_[static_cast<std::size_t>(
                             addr_[i] + grid::kLpOffset[
                                            static_cast<std::size_t>(k)])] &
                         cell::kIndexMask) -
                     1;
      if (p == kNoParticle) continue;
      ++edges;
      if (colors_[static_cast<std::size_t>(p)] != colors_[i]) ++hetero;
    }
  }
  edges_ = edges;
  hetero_edges_ = hetero;
}

std::vector<std::pair<Node, const std::uint32_t*>> ParticleSystem::pages()
    const {
  std::vector<std::pair<Node, const std::uint32_t*>> out;
  directory_.for_each([&](std::uint64_t, std::int32_t p) {
    out.emplace_back(pages_[static_cast<std::size_t>(p)].at,
                     cells_.data() +
                         static_cast<std::size_t>(p) * grid::kPageCells);
  });
  return out;
}

void ParticleSystem::put_apron(std::int32_t a, Node v,
                               std::uint32_t value) noexcept {
  constexpr int kMask = grid::kPageCore - 1;
  const int lx = v.x & kMask;
  const int ly = v.y & kMask;
  const int hx = (lx >= grid::kPageCore - grid::kApron) - (lx < grid::kApron);
  const int hy = (ly >= grid::kPageCore - grid::kApron) - (ly < grid::kApron);
  const Page& page = pages_[static_cast<std::size_t>(a / grid::kPageCells)];
  const auto copy = [&](int dx, int dy) {
    const std::int32_t q =
        page.nbr[static_cast<std::size_t>((dy + 1) * 3 + dx + 1)];
    if (q < 0) return;
    const std::int32_t local = a % grid::kPageCells -
                               grid::offset({dx * grid::kPageCore,
                                             dy * grid::kPageCore});
    cells_[static_cast<std::size_t>(q * grid::kPageCells + local)] = value;
  };
  if (hx != 0) copy(hx, 0);
  if (hy != 0) copy(0, hy);
  if (hx != 0 && hy != 0) copy(hx, hy);
}

void ParticleSystem::relocate_across(ParticleIndex i, Node to) {
  const auto ui = static_cast<std::size_t>(i);
  const Node from = positions_[ui];
  const std::int32_t a = addr_[ui];
  const std::int32_t p = a / grid::kPageCells;
  const Node at = page_of(to);
  const Node pat = pages_[static_cast<std::size_t>(p)].at;
  std::int32_t q = pages_[static_cast<std::size_t>(p)].nbr[static_cast<std::size_t>(
      (at.y - pat.y + 1) * 3 + (at.x - pat.x + 1))];
  if (q < 0) q = create_page(at);
  const std::int32_t b = address_in(q, to);
  put(a, from, 0);
  put(b, to, own_cell(i));
  ++pages_[static_cast<std::size_t>(q)].count;
  if (--pages_[static_cast<std::size_t>(p)].count == 0) release_page(p);
  positions_[ui] = to;
  addr_[ui] = b;
}

std::int32_t ParticleSystem::create_page(Node at) {
  std::int32_t p;
  if (free_pages_.empty()) {
    p = static_cast<std::int32_t>(pages_.size());
    pages_.emplace_back();
    cells_.resize(cells_.size() + grid::kPageCells);
  } else {
    p = free_pages_.back();
    free_pages_.pop_back();
  }
  Page& page = pages_[static_cast<std::size_t>(p)];
  page.at = at;
  page.count = 0;
  page.nbr.fill(-1);
  directory_.insert(lattice::pack(at), p);
  for (int dy = -1; dy <= 1; ++dy) {
    for (int dx = -1; dx <= 1; ++dx) {
      if (dx == 0 && dy == 0) continue;
      const std::int32_t* q =
          directory_.find(lattice::pack({at.x + dx, at.y + dy}));
      if (q == nullptr) continue;
      const auto slot = static_cast<std::size_t>((dy + 1) * 3 + dx + 1);
      page.nbr[slot] = *q;
      pages_[static_cast<std::size_t>(*q)].nbr[8 - slot] = p;
    }
  }
  // The core starts empty (a released page's core already is); the
  // apron copies whatever the linked neighbours' cores hold.
  std::uint32_t* const c = cells_.data() + static_cast<std::size_t>(p) * grid::kPageCells;
  for (int ly = -grid::kApron; ly < grid::kPageCore + grid::kApron; ++ly) {
    for (int lx = -grid::kApron; lx < grid::kPageCore + grid::kApron; ++lx) {
      const int dx = (lx >= grid::kPageCore) - (lx < 0);
      const int dy = (ly >= grid::kPageCore) - (ly < 0);
      const std::int32_t local =
          grid::offset({lx + grid::kApron, ly + grid::kApron});
      if (dx == 0 && dy == 0) {
        c[local] = 0;
        continue;
      }
      const std::int32_t q = page.nbr[static_cast<std::size_t>((dy + 1) * 3 + dx + 1)];
      c[local] = q < 0 ? 0
                       : cells_[static_cast<std::size_t>(
                             q * grid::kPageCells + local -
                             grid::offset({dx * grid::kPageCore,
                                           dy * grid::kPageCore}))];
    }
  }
  return p;
}

void ParticleSystem::release_page(std::int32_t p) {
  // The core is empty, so every neighbour's apron copy of it is 0
  // already; only the links and the directory entry go.
  const Page& page = pages_[static_cast<std::size_t>(p)];
  for (std::size_t slot = 0; slot < page.nbr.size(); ++slot) {
    const std::int32_t q = page.nbr[slot];
    if (q >= 0) pages_[static_cast<std::size_t>(q)].nbr[8 - slot] = -1;
  }
  directory_.erase(lattice::pack(page.at));
  free_pages_.push_back(p);
}

}  // namespace sops::system
