#include "src/lattice/triangular.hpp"

#include <cmath>
#include <cstdlib>

namespace sops::lattice {

std::optional<int> direction_between(Node a, Node b) noexcept {
  const Node delta{b.x - a.x, b.y - a.y};
  for (int k = 0; k < kDegree; ++k) {
    if (kDirections[static_cast<std::size_t>(k)] == delta) return k;
  }
  return std::nullopt;
}

bool adjacent(Node a, Node b) noexcept {
  // The six neighbors are exactly the nodes at hex distance 1; the
  // arithmetic test avoids direction_between's data-dependent branches
  // on the mutators' precondition checks.
  return distance(a, b) == 1;
}

std::int64_t distance(Node a, Node b) noexcept {
  // Axial-coordinate hex distance: (|dx| + |dy| + |dx + dy|) / 2.
  const std::int64_t dx = static_cast<std::int64_t>(b.x) - a.x;
  const std::int64_t dy = static_cast<std::int64_t>(b.y) - a.y;
  return (std::llabs(dx) + std::llabs(dy) + std::llabs(dx + dy)) / 2;
}

std::pair<double, double> embed(Node v) noexcept {
  constexpr double kHalfSqrt3 = 0.86602540378443864676;
  return {static_cast<double>(v.x) + 0.5 * static_cast<double>(v.y),
          kHalfSqrt3 * static_cast<double>(v.y)};
}

}  // namespace sops::lattice
