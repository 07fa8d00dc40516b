// The separation chain behind the ChainModel seam — the paper's own
// model, wrapped so the generic stack drives it exactly as core/runner
// did: one persistent StepPipeline per trajectory, p_min computed once,
// Measurement math byte-identical to core::measure.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/core/markov_chain.hpp"
#include "src/model/model.hpp"

namespace sops::model {

inline constexpr std::string_view kSeparationTag = "separation";

/// Wraps an already-constructed chain.
[[nodiscard]] std::unique_ptr<ChainModel> make_separation(
    core::SeparationChain chain);

/// Downcast for separation-specific on_sample hooks (certificates,
/// renders): the wrapped live chain, or ModelError if `model` is not
/// the separation model.
[[nodiscard]] const core::SeparationChain& separation_chain(
    const ChainModel& model);

/// Serializes raw separation state into the model's state-line grammar:
///   params <λ> <γ> <0|1>
///   rng <hex16> ×4
///   counters <u64> ×8
///   particles <n>
///   p <x> <y> <color> ×n
/// Shared with the checkpoint codec, which uses it to lift v1 snapshot
/// bodies (the same fields, typed) into v2 model-state blocks.
[[nodiscard]] std::vector<std::string> encode_separation_state(
    double lambda, double gamma, bool swaps_enabled,
    const util::Rng::State& rng,
    const core::SeparationChain::Counters& counters,
    std::span<const lattice::Node> positions,
    std::span<const system::Color> colors);

/// Registers the "separation" factory: params blob=N (required),
/// colors=K (default 2), swaps=0|1 (default 1); each task builds its
/// blob and coloring from its own seed. Idempotent.
void register_separation_model();

}  // namespace sops::model
