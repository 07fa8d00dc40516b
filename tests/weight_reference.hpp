// Reference twins of core::move_weight / core::swap_weight: each
// recounts the neighbor sets of Algorithm 1 with per-node
// ParticleSystem queries instead of the single-gather step kernel, so
// tests can check the kernel's weights bit for bit.
#pragma once

#include <cmath>
#include <stdexcept>

#include "src/core/markov_chain.hpp"

namespace sops::core::testing {

/// λ^(e'−e) · γ^(e'_i−e_i) for the move of the particle at `l` toward
/// `dir` (target must be empty).
inline double move_weight_reference(const system::ParticleSystem& sys,
                                    const Params& p, lattice::Node l,
                                    int dir) {
  const lattice::Node lp = lattice::neighbor(l, dir);
  if (sys.occupied(lp)) {
    throw std::invalid_argument("move_weight: target occupied");
  }
  const system::ParticleIndex pi = sys.particle_at(l);
  if (pi == system::kNoParticle) {
    throw std::invalid_argument("move_weight: no particle at l");
  }
  const system::Color ci = sys.color(pi);
  // e and e_i: P's neighbors when contracted at l (l' is empty, so no
  // exclusion needed). e' and e'_i: neighbors P would have at l',
  // excluding P itself at l.
  const int e = sys.neighbor_count(l);
  const int ei = sys.neighbor_count_color(l, ci);
  const int ep = sys.neighbor_count(lp, /*exclude=*/l);
  const int epi = sys.neighbor_count_color(lp, ci, /*exclude=*/l);
  return std::pow(p.lambda, ep - e) * std::pow(p.gamma, epi - ei);
}

/// γ^(...) for the swap of the particles at `l` and `l + dir` (target
/// must be occupied).
inline double swap_weight_reference(const system::ParticleSystem& sys,
                                    const Params& p, lattice::Node l,
                                    int dir) {
  const lattice::Node lp = lattice::neighbor(l, dir);
  const system::ParticleIndex pi = sys.particle_at(l);
  const system::ParticleIndex qi = sys.particle_at(lp);
  if (pi == system::kNoParticle || qi == system::kNoParticle) {
    throw std::invalid_argument("swap_weight: both nodes must be occupied");
  }
  const system::Color ci = sys.color(pi);
  const system::Color cj = sys.color(qi);
  // Exponent per Algorithm 1, line 10. N_i(l') \ {P} excludes P (adjacent
  // to l'); N_j(l) \ {Q} excludes Q (adjacent to l). The un-excluded
  // counts N_i(l) and N_j(l') are taken literally.
  const int ni_lp = sys.neighbor_count_color(lp, ci, /*exclude=*/l);
  const int ni_l = sys.neighbor_count_color(l, ci);
  const int nj_l = sys.neighbor_count_color(l, cj, /*exclude=*/lp);
  const int nj_lp = sys.neighbor_count_color(lp, cj);
  return std::pow(p.gamma, (ni_lp - ni_l) + (nj_l - nj_lp));
}

}  // namespace sops::core::testing
