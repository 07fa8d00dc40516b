#include "src/model/separation.hpp"

#include <string_view>
#include <utility>

#include "src/core/coloring.hpp"
#include "src/core/step_pipeline.hpp"
#include "src/lattice/shapes.hpp"
#include "src/model/registry.hpp"
#include "src/model/state.hpp"
#include "src/sops/invariants.hpp"

namespace sops::model {

namespace {

class SeparationModel final : public ChainModel {
 public:
  explicit SeparationModel(core::SeparationChain chain)
      : chain_(std::move(chain)),
        pmin_(system::p_min(chain_.system().size())) {}

  [[nodiscard]] std::string_view tag() const noexcept override {
    return kSeparationTag;
  }

  void run(std::uint64_t iterations) override {
    // One pipeline per trajectory, created lazily so it binds the
    // chain at its final (heap) address.
    if (!pipeline_) pipeline_ = std::make_unique<core::StepPipeline>(chain_);
    pipeline_->run(iterations);
  }

  [[nodiscard]] std::uint64_t steps() const noexcept override {
    return chain_.counters().steps;
  }

  [[nodiscard]] core::Measurement measure() const override {
    return core::measure(chain_, pmin_);
  }

  [[nodiscard]] std::vector<std::string> observable_names() const override {
    return {"iteration",       "perimeter", "edges",
            "hetero_edges",    "perimeter_ratio",
            "hetero_fraction"};
  }

  [[nodiscard]] std::vector<std::string> save_state() const override {
    return encode_separation_state(
        chain_.params().lambda, chain_.params().gamma,
        chain_.params().swaps_enabled, chain_.rng_state(), chain_.counters(),
        chain_.system().positions(), chain_.system().colors());
  }

  // Bandable: the band and the pipeline both rebuild their derived
  // occupancy state at every entry, so alternating band steps with
  // run()/measure() keeps every path byte-identical.
  [[nodiscard]] core::SeparationChain* band_chain() noexcept override {
    return &chain_;
  }

  [[nodiscard]] const core::SeparationChain& chain() const noexcept {
    return chain_;
  }

 private:
  core::SeparationChain chain_;
  std::int64_t pmin_;
  std::unique_ptr<core::StepPipeline> pipeline_;
};

std::unique_ptr<ChainModel> restore_separation(
    std::span<const std::string> lines) {
  namespace st = sops::model::state;
  std::size_t at = 0;
  const auto params =
      st::expect(st::line_at(lines, at++, "params"), "params", 4);
  const double lambda = st::get_double(params[1], "params");
  const double gamma = st::get_double(params[2], "params");
  bool swaps_enabled = false;
  if (params[3] == "1") {
    swaps_enabled = true;
  } else if (params[3] == "0") {
    swaps_enabled = false;
  } else {
    throw ModelError("params: swaps flag must be 0 or 1");
  }

  const auto rng_toks = st::expect(st::line_at(lines, at++, "rng"), "rng", 5);
  util::Rng::State rng{};
  for (std::size_t i = 0; i < 4; ++i) {
    rng[i] = st::get_hex16(rng_toks[1 + i], "rng");
  }
  if (rng == util::Rng::State{}) {
    throw ModelError(
        "rng state is all-zero — not a live chain state "
        "(stateless completion snapshot, or corrupt)");
  }

  const auto cnt =
      st::expect(st::line_at(lines, at++, "counters"), "counters", 9);
  core::SeparationChain::Counters counters;
  counters.steps = st::get_u64(cnt[1], "counters");
  counters.move_proposals = st::get_u64(cnt[2], "counters");
  counters.moves_accepted = st::get_u64(cnt[3], "counters");
  counters.rejected_five = st::get_u64(cnt[4], "counters");
  counters.rejected_locality = st::get_u64(cnt[5], "counters");
  counters.rejected_metropolis = st::get_u64(cnt[6], "counters");
  counters.swap_proposals = st::get_u64(cnt[7], "counters");
  counters.swaps_accepted = st::get_u64(cnt[8], "counters");

  const auto head =
      st::expect(st::line_at(lines, at++, "particles"), "particles", 2);
  const std::uint64_t count = st::get_u64(head[1], "particles");
  if (count == 0) throw ModelError("snapshot carries no particles");
  std::vector<lattice::Node> positions;
  std::vector<system::Color> colors;
  positions.reserve(count);
  colors.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    const auto p = st::expect(st::line_at(lines, at++, "p"), "p", 4);
    const std::int64_t x = st::get_i64(p[1], "p");
    const std::int64_t y = st::get_i64(p[2], "p");
    if (x < INT32_MIN || x > INT32_MAX || y < INT32_MIN || y > INT32_MAX) {
      throw ModelError("p: particle coordinate out of int32 range");
    }
    const std::uint64_t color = st::get_u64(p[3], "p");
    if (color >= system::kMaxColors) {
      throw ModelError("p: particle color out of range");
    }
    positions.push_back(lattice::Node{static_cast<std::int32_t>(x),
                                      static_cast<std::int32_t>(y)});
    colors.push_back(static_cast<system::Color>(color));
  }
  if (at != lines.size()) {
    throw ModelError("state: trailing content after particle list");
  }

  // The seed only re-derives the ctor RNG, whose state is immediately
  // overwritten with the saved mid-stream state.
  core::SeparationChain chain(system::ParticleSystem(positions, colors),
                              core::Params{lambda, gamma, swaps_enabled},
                              counters.steps + 1);
  chain.set_rng_state(rng);
  chain.set_counters(counters);
  return make_separation(std::move(chain));
}

std::unique_ptr<ChainModel> build_separation(
    std::span<const std::string> params, const TaskPoint& t) {
  std::uint64_t blob = 0;
  std::uint64_t n_colors = 2;
  std::uint64_t swaps = 1;
  bool blob_set = false;
  for (const std::string& p : params) {
    const std::size_t eq = p.find('=');
    const std::string key = eq == std::string::npos ? p : p.substr(0, eq);
    const std::string value = eq == std::string::npos ? "" : p.substr(eq + 1);
    if (key == "blob") {
      blob = state::parse_u64_param("params: blob", value);
      blob_set = true;
    } else if (key == "colors") {
      n_colors = state::parse_u64_param("params: colors", value);
    } else if (key == "swaps") {
      swaps = state::parse_u64_param("params: swaps", value);
    } else {
      throw ModelError("params: unknown key '" + key +
                       "' (recognized: blob, colors, swaps)");
    }
  }
  if (!blob_set) throw ModelError("params: missing required 'blob=' entry");
  if (blob == 0 || blob > 20000) {
    throw ModelError("params: blob: blob=" + std::to_string(blob) +
                     " outside the supported range [1, 20000]");
  }
  if (n_colors == 0 || n_colors > 16 || n_colors > blob) {
    throw ModelError("params: colors: colors=" + std::to_string(n_colors) +
                     " outside the supported range [1, min(16, blob)]");
  }
  if (swaps > 1) {
    throw ModelError("params: swaps: swaps=" + std::to_string(swaps) +
                     " must be 0 or 1");
  }
  util::Rng rng(t.seed);
  const auto nodes = lattice::random_blob(static_cast<std::size_t>(blob), rng);
  const auto colors = core::balanced_random_colors(
      static_cast<std::size_t>(blob), static_cast<std::size_t>(n_colors),
      rng);
  return make_separation(
      core::SeparationChain(system::ParticleSystem(nodes, colors),
                            core::Params{t.lambda, t.gamma, swaps == 1},
                            t.seed));
}

}  // namespace

std::unique_ptr<ChainModel> make_separation(core::SeparationChain chain) {
  return std::make_unique<SeparationModel>(std::move(chain));
}

const core::SeparationChain& separation_chain(const ChainModel& model) {
  const auto* sep = dynamic_cast<const SeparationModel*>(&model);
  if (sep == nullptr) {
    throw ModelError("separation_chain: model is '" + std::string(model.tag()) +
                     "', not separation");
  }
  return sep->chain();
}

std::vector<std::string> encode_separation_state(
    double lambda, double gamma, bool swaps_enabled,
    const util::Rng::State& rng,
    const core::SeparationChain::Counters& counters,
    std::span<const lattice::Node> positions,
    std::span<const system::Color> colors) {
  std::vector<std::string> out;
  out.reserve(4 + positions.size());
  {
    std::string line = "params ";
    state::put_double(line, lambda);
    line += ' ';
    state::put_double(line, gamma);
    line += ' ';
    line += swaps_enabled ? '1' : '0';
    out.push_back(std::move(line));
  }
  {
    std::string line = "rng";
    for (const std::uint64_t w : rng) {
      line += ' ';
      state::put_hex16(line, w);
    }
    out.push_back(std::move(line));
  }
  {
    std::string line = "counters";
    for (const std::uint64_t v :
         {counters.steps, counters.move_proposals, counters.moves_accepted,
          counters.rejected_five, counters.rejected_locality,
          counters.rejected_metropolis, counters.swap_proposals,
          counters.swaps_accepted}) {
      line += ' ';
      state::put_u64(line, v);
    }
    out.push_back(std::move(line));
  }
  {
    std::string line = "particles ";
    state::put_u64(line, positions.size());
    out.push_back(std::move(line));
  }
  for (std::size_t i = 0; i < positions.size(); ++i) {
    std::string line = "p ";
    state::put_i64(line, positions[i].x);
    line += ' ';
    state::put_i64(line, positions[i].y);
    line += ' ';
    state::put_u64(line, colors[i]);
    out.push_back(std::move(line));
  }
  return out;
}

void register_separation_model() {
  Factory factory;
  factory.tag = std::string(kSeparationTag);
  factory.build = build_separation;
  factory.restore = restore_separation;
  register_model(std::move(factory));
}

}  // namespace sops::model
