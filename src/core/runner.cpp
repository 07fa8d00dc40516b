#include "src/core/runner.hpp"

#include <stdexcept>

#include "src/core/step_pipeline.hpp"
#include "src/sops/invariants.hpp"

namespace sops::core {

Measurement measure(const SeparationChain& chain) {
  return measure(chain, system::p_min(chain.system().size()));
}

Measurement measure(const SeparationChain& chain, std::int64_t pmin) {
  const auto& sys = chain.system();
  Measurement m;
  m.iteration = chain.counters().steps;
  m.edges = sys.edge_count();
  m.hetero_edges = sys.hetero_edge_count();
  m.perimeter = sys.perimeter_by_identity();
  m.perimeter_ratio = pmin > 0 ? static_cast<double>(m.perimeter) /
                                     static_cast<double>(pmin)
                               : 1.0;
  m.hetero_fraction = m.edges > 0 ? static_cast<double>(m.hetero_edges) /
                                        static_cast<double>(m.edges)
                                  : 0.0;
  return m;
}

// Both drivers below own one StepPipeline for the whole call, so the
// refill/decode buffers are allocated once and reused across every
// segment between checkpoints/samples.

std::vector<Measurement> run_with_checkpoints(
    SeparationChain& chain, std::span<const std::uint64_t> checkpoints,
    const std::function<void(const SeparationChain&, std::uint64_t)>&
        on_checkpoint) {
  StepPipeline pipeline(chain);
  const std::int64_t pmin = system::p_min(chain.system().size());
  std::vector<Measurement> out;
  out.reserve(checkpoints.size());
  for (const std::uint64_t target : checkpoints) {
    const std::uint64_t now = chain.counters().steps;
    if (target < now) {
      throw std::invalid_argument("run_with_checkpoints: checkpoints must be nondecreasing");
    }
    pipeline.run(target - now);
    out.push_back(measure(chain, pmin));
    if (on_checkpoint) on_checkpoint(chain, target);
  }
  return out;
}

std::vector<Measurement> sample_equilibrium(
    SeparationChain& chain, std::uint64_t burn_in, std::uint64_t interval,
    std::size_t samples,
    const std::function<void(const SeparationChain&)>& on_sample) {
  StepPipeline pipeline(chain);
  const std::int64_t pmin = system::p_min(chain.system().size());
  pipeline.run(burn_in);
  std::vector<Measurement> out;
  out.reserve(samples);
  for (std::size_t s = 0; s < samples; ++s) {
    if (s > 0) pipeline.run(interval);
    out.push_back(measure(chain, pmin));
    if (on_sample) on_sample(chain);
  }
  return out;
}

}  // namespace sops::core
