#include "trace.hpp"

#include <utility>

#include "src/core/markov_chain.hpp"

namespace perfbench {

void Trace::span(std::string_view name, double start, double end) {
  const std::thread::id self = std::this_thread::get_id();
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto [it, fresh] = threads_.emplace(self, threads_.size());
  spans_.push_back({std::string(name), {start, end, it->second}});
}

void Trace::count(std::string_view name, double value) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end()) it = counters_.emplace(std::string(name), 0.0).first;
  it->second += value;
}

std::vector<Interval> Trace::spans(std::string_view name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Interval> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(s.at);
  }
  return out;
}

double Trace::total(std::string_view name) const {
  double sum = 0.0;
  for (const Interval& iv : spans(name)) sum += iv.end - iv.start;
  return sum;
}

double Trace::counter(std::string_view name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0.0 : it->second;
}

namespace {

class TracedModel final : public sops::model::ChainModel {
 public:
  TracedModel(std::unique_ptr<sops::model::ChainModel> inner, Trace& trace)
      : inner_(std::move(inner)), trace_(trace) {
    if (const sops::core::SeparationChain* c = inner_->band_chain()) {
      at_build_ = c->counters();
    }
  }

  ~TracedModel() override {
    const sops::core::SeparationChain* c = inner_->band_chain();
    if (c == nullptr) return;
    const auto& now = c->counters();
    trace_.count("core.steps", static_cast<double>(now.steps - at_build_.steps));
    trace_.count("core.move_proposals",
                 static_cast<double>(now.move_proposals - at_build_.move_proposals));
    trace_.count("core.moves_accepted",
                 static_cast<double>(now.moves_accepted - at_build_.moves_accepted));
    trace_.count("core.swap_proposals",
                 static_cast<double>(now.swap_proposals - at_build_.swap_proposals));
    trace_.count("core.swaps_accepted",
                 static_cast<double>(now.swaps_accepted - at_build_.swaps_accepted));
  }

  [[nodiscard]] std::string_view tag() const noexcept override {
    return inner_->tag();
  }
  void run(std::uint64_t iterations) override {
    timed(&trace_, "core.run", [&] { inner_->run(iterations); });
  }
  [[nodiscard]] std::uint64_t steps() const noexcept override {
    return inner_->steps();
  }
  [[nodiscard]] sops::core::Measurement measure() const override {
    return timed(&trace_, "model.measure", [&] { return inner_->measure(); });
  }
  [[nodiscard]] std::vector<std::string> observable_names() const override {
    return inner_->observable_names();
  }
  [[nodiscard]] std::vector<std::string> save_state() const override {
    std::vector<std::string> lines =
        timed(&trace_, "model.save_state", [&] { return inner_->save_state(); });
    std::size_t bytes = 0;
    for (const std::string& line : lines) bytes += line.size() + 1;
    trace_.count("checkpoint.snapshots", 1.0);
    trace_.count("checkpoint.bytes", static_cast<double>(bytes));
    return lines;
  }
  void set_pipeline_block(std::size_t block) override {
    inner_->set_pipeline_block(block);
  }
  [[nodiscard]] sops::core::SeparationChain* band_chain() noexcept override {
    return inner_->band_chain();
  }
  [[nodiscard]] const sops::model::ChainModel& inner() const { return *inner_; }

 private:
  std::unique_ptr<sops::model::ChainModel> inner_;
  Trace& trace_;
  sops::core::SeparationChain::Counters at_build_{};
};

}  // namespace

ModelFactory traced_factory(ModelFactory make, Trace* trace) {
  if (trace == nullptr) return make;
  return [make = std::move(make), trace](const sops::engine::Task& task)
             -> std::unique_ptr<sops::model::ChainModel> {
    std::unique_ptr<sops::model::ChainModel> inner =
        timed(trace, "model.build", [&] { return make(task); });
    return std::make_unique<TracedModel>(std::move(inner), *trace);
  };
}

const sops::model::ChainModel& untraced(const sops::model::ChainModel& m) {
  if (const auto* traced = dynamic_cast<const TracedModel*>(&m)) return traced->inner();
  return m;
}

void TaskSink::record(const Record& r) {
  const double end = trace_.now();
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    auto [it, fresh] = last_wall_.emplace(std::this_thread::get_id(), -1.0);
    if (!fresh && it->second == r.wall_seconds) return;
    it->second = r.wall_seconds;
  }
  trace_.span("engine.task", end - r.wall_seconds, end);
}

LayerSample layer_sample(const Trace& trace, std::size_t threads) {
  LayerSample s;
  const std::vector<Interval> passes = trace.spans("engine.pass");
  const std::vector<Interval> tasks = trace.spans("engine.task");
  // A task waited from its pass's start: the last pass that began
  // before the task ended (passes run one after another).
  for (const Interval& t : tasks) {
    const Interval* owner = nullptr;
    for (const Interval& p : passes) {
      if (p.start <= t.end && (owner == nullptr || p.start > owner->start)) owner = &p;
    }
    if (owner != nullptr) s.queue_wait_s += std::max(0.0, t.start - owner->start);
  }
  const double busy = busy_seconds(tasks);
  s.tasks = static_cast<double>(tasks.size());
  s.idle_s = idle_seconds(threads, passes, tasks);
  s.scaling_efficiency = busy + s.idle_s > 0 ? busy / (busy + s.idle_s) : 0.0;
  s.build_s = trace.total("model.build");

  // Task time outside the model and kernel spans on the task's own
  // thread: the engine/checkpoint work around each trajectory.
  std::vector<Interval> inner;
  for (const char* name :
       {"model.build", "core.run", "model.measure", "model.save_state"}) {
    const std::vector<Interval> v = trace.spans(name);
    inner.insert(inner.end(), v.begin(), v.end());
  }
  for (const Interval& t : tasks) {
    std::vector<Interval> children;
    for (const Interval& c : inner) {
      if (c.thread == t.thread && c.end >= t.start && c.start <= t.end) {
        children.push_back(c);
      }
    }
    s.task_self_s += self_time(t, children);
  }
  // Banded lanes advance inside ReplicaBand, not ChainModel::run, so a
  // pass with no "core.run" spans spent its task self time in the band.
  s.core_busy_s = trace.spans("core.run").empty() ? s.task_self_s
                                                  : trace.total("core.run");

  s.core_steps = trace.counter("core.steps");
  const double moves = trace.counter("core.move_proposals");
  const double swaps = trace.counter("core.swap_proposals");
  s.move_accept_rate = moves > 0 ? trace.counter("core.moves_accepted") / moves : 0;
  s.swap_accept_rate = swaps > 0 ? trace.counter("core.swaps_accepted") / swaps : 0;
  s.swap_fraction = s.core_steps > 0 ? swaps / s.core_steps : 0;
  return s;
}

}  // namespace perfbench
