#include "src/core/markov_chain.hpp"

#include <cmath>
#include <stdexcept>

#include "src/core/neighborhood.hpp"
#include "src/core/step_pipeline.hpp"

namespace sops::core {

using lattice::Node;
using system::Color;
using system::ParticleIndex;
using system::ParticleSystem;

double move_weight(const ParticleSystem& sys, const Params& p, Node l,
                   int dir) {
  const NeighborhoodView nb = NeighborhoodView::gather(sys, l, dir);
  if (nb.lp_occupied()) {
    throw std::invalid_argument("move_weight: target occupied");
  }
  if (!nb.l_occupied()) {
    throw std::invalid_argument("move_weight: no particle at l");
  }
  const Color ci = nb.color_at(NeighborhoodView::kNodeL);
  return std::pow(p.lambda, nb.e_prime() - nb.e()) *
         std::pow(p.gamma, nb.e_prime_i(ci) - nb.e_i(ci));
}

double swap_weight(const ParticleSystem& sys, const Params& p, Node l,
                   int dir) {
  const NeighborhoodView nb = NeighborhoodView::gather(sys, l, dir);
  if (!nb.l_occupied() || !nb.lp_occupied()) {
    throw std::invalid_argument("swap_weight: both nodes must be occupied");
  }
  return std::pow(p.gamma, nb.swap_exponent());
}

SeparationChain::SeparationChain(ParticleSystem sys, Params params,
                                 std::uint64_t seed)
    : sys_(std::move(sys)), params_(params), rng_(seed) {
  if (!(params_.lambda > 0.0) || !(params_.gamma > 0.0)) {
    throw std::invalid_argument("SeparationChain: lambda and gamma must be > 0");
  }
  for (int k = -kMaxExp; k <= kMaxExp; ++k) {
    pow_lambda_[static_cast<std::size_t>(k + kMaxExp)] =
        std::pow(params_.lambda, k);
    pow_gamma_[static_cast<std::size_t>(k + kMaxExp)] =
        std::pow(params_.gamma, k);
  }
}

bool SeparationChain::step() {
  const auto pi = static_cast<ParticleIndex>(rng_.below(sys_.size()));
  const int dir = static_cast<int>(rng_.below(6));
  const double q = rng_.uniform_open();
  return step_with(pi, dir, q);
}

bool SeparationChain::step_reference() {
  ++counters_.steps;
  const auto pi = static_cast<ParticleIndex>(rng_.below(sys_.size()));
  const int dir = static_cast<int>(rng_.below(6));
  const double q = rng_.uniform_open();

  const Node l = sys_.position(pi);
  const Node lp = lattice::neighbor(l, dir);
  const ParticleIndex qi = sys_.particle_at(lp);

  if (qi == system::kNoParticle) {
    ++counters_.move_proposals;
    const Color ci = sys_.color(pi);
    const int e = sys_.neighbor_count(l);
    if (e == 5) {
      ++counters_.rejected_five;
      return false;
    }
    if (!move_preserves_invariants_reference(sys_, l, dir)) {
      ++counters_.rejected_locality;
      return false;
    }
    const int ei = sys_.neighbor_count_color(l, ci);
    const int ep = sys_.neighbor_count(lp, /*exclude=*/l);
    const int epi = sys_.neighbor_count_color(lp, ci, /*exclude=*/l);
    if (q >= pow_lambda(ep - e) * pow_gamma(epi - ei)) {
      ++counters_.rejected_metropolis;
      return false;
    }
    sys_.apply_move(pi, lp);
    ++counters_.moves_accepted;
    return true;
  }

  if (!params_.swaps_enabled) return false;
  ++counters_.swap_proposals;
  const Color ci = sys_.color(pi);
  const Color cj = sys_.color(qi);
  const int ni_lp = sys_.neighbor_count_color(lp, ci, /*exclude=*/l);
  const int ni_l = sys_.neighbor_count_color(l, ci);
  const int nj_l = sys_.neighbor_count_color(l, cj, /*exclude=*/lp);
  const int nj_lp = sys_.neighbor_count_color(lp, cj);
  const int exponent = (ni_lp - ni_l) + (nj_l - nj_lp);
  if (q >= pow_gamma(exponent)) return false;
  sys_.apply_swap(pi, qi);
  ++counters_.swaps_accepted;
  return ci != cj;
}

void SeparationChain::run(std::uint64_t iterations) {
  StepPipeline(*this).run(iterations);
}

void SeparationChain::run_reference(std::uint64_t iterations) {
  for (std::uint64_t i = 0; i < iterations; ++i) step_reference();
}

SeparationChain make_compression_chain(std::span<const Node> positions,
                                       double lambda, std::uint64_t seed) {
  return SeparationChain(ParticleSystem(positions),
                         Params{lambda, /*gamma=*/1.0, /*swaps=*/false}, seed);
}

}  // namespace sops::core
