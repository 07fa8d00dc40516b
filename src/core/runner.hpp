// Checkpointed execution of the separation chain, recording the scalar
// observables the paper's figures are built from.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "src/core/markov_chain.hpp"

namespace sops::core {

/// Scalar observables of a configuration at one instant of the run.
struct Measurement {
  std::uint64_t iteration = 0;
  std::int64_t perimeter = 0;      ///< p(σ) via e = 3n − p − 3
  std::int64_t edges = 0;          ///< e(σ)
  std::int64_t hetero_edges = 0;   ///< h(σ)
  double perimeter_ratio = 0.0;    ///< p(σ) / p_min(n) — the compression gauge
  double hetero_fraction = 0.0;    ///< h(σ) / e(σ) — the integration gauge
};

/// Reads the observables off the chain's current configuration.
[[nodiscard]] Measurement measure(const SeparationChain& chain);

/// Same, with the caller supplying p_min(n). n is fixed for a chain's
/// lifetime, so loops (run_with_checkpoints, sample_equilibrium) compute
/// p_min once per call instead of re-deriving the integer square root
/// per measurement. Must be passed system::p_min(chain.system().size()).
[[nodiscard]] Measurement measure(const SeparationChain& chain,
                                  std::int64_t pmin);

/// Runs the chain to each absolute iteration in `checkpoints` (must be
/// nondecreasing; a leading 0 records the initial state) and returns one
/// Measurement per checkpoint. The optional callback fires at each
/// checkpoint with the live chain (for rendering snapshots etc.).
///
/// Both drivers construct one core::StepPipeline for the whole call and
/// reuse its buffers across segments.
std::vector<Measurement> run_with_checkpoints(
    SeparationChain& chain, std::span<const std::uint64_t> checkpoints,
    const std::function<void(const SeparationChain&, std::uint64_t)>&
        on_checkpoint = {});

/// Equilibrium sampling: runs `burn_in` steps, then records `samples`
/// measurements `interval` steps apart, invoking `on_sample` (if set)
/// with the live chain at each sample point.
std::vector<Measurement> sample_equilibrium(
    SeparationChain& chain, std::uint64_t burn_in, std::uint64_t interval,
    std::size_t samples,
    const std::function<void(const SeparationChain&)>& on_sample = {});

}  // namespace sops::core
