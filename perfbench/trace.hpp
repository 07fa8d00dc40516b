// In-memory tracing for the benchmark's traced passes. Spans are taken
// around the calls the benchmark itself makes into each layer: a
// ChainModel wrapper times model build/run/measure/save_state, a
// ProgressSink subclass records each pool task's interval, and the
// workloads time their own calls into checkpoint, shard and service.
// Kernel counters come from SeparationChain::counters() as each wrapped
// model is destroyed. Nothing here reaches inside the library.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bench_stats.hpp"
#include "src/engine/ensemble.hpp"
#include "src/engine/progress.hpp"
#include "src/model/model.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds elapsed since `since`.
[[nodiscard]] inline double seconds_since(Clock::time_point since) {
  return std::chrono::duration<double>(Clock::now() - since).count();
}

class Trace {
 public:
  Trace() = default;
  Trace(const Trace&) = delete;
  Trace& operator=(const Trace&) = delete;

  /// Seconds since the trace was created.
  [[nodiscard]] double now() const { return seconds_since(origin_); }

  /// Records a span [start, end] named `name` on the calling thread.
  void span(std::string_view name, double start, double end);

  /// Adds `value` to the named counter.
  void count(std::string_view name, double value);

  /// Spans named `name`, as intervals tagged with dense thread ordinals.
  [[nodiscard]] std::vector<Interval> spans(std::string_view name) const;

  /// Sum of the durations of the spans named `name`.
  [[nodiscard]] double total(std::string_view name) const;

  /// A counter's value (0 if never counted).
  [[nodiscard]] double counter(std::string_view name) const;

 private:
  struct Span {
    std::string name;
    Interval at;
  };

  Clock::time_point origin_ = Clock::now();
  mutable std::mutex mutex_;  ///< guards everything below
  std::vector<Span> spans_;
  std::map<std::string, double, std::less<>> counters_;
  std::map<std::thread::id, std::size_t> threads_;
};

/// Times `fn()` as a span named `name` when `trace` is set.
template <typename Fn>
decltype(auto) timed(Trace* trace, std::string_view name, Fn&& fn) {
  if (trace == nullptr) return fn();
  struct Guard {
    Trace* trace;
    std::string_view name;
    double start;
    ~Guard() { trace->span(name, start, trace->now()); }
  } guard{trace, name, trace->now()};
  return fn();
}

using ModelFactory =
    std::function<std::unique_ptr<sops::model::ChainModel>(
        const sops::engine::Task&)>;

/// `make` unchanged when `trace` is null; otherwise a factory whose
/// build is a "model.build" span and whose models record "core.run",
/// "model.measure" and "model.save_state" spans, count snapshots
/// ("checkpoint.snapshots", "checkpoint.bytes" of state lines) and, on
/// destruction, fold the chain's acceptance counters into "core.*"
/// counters.
[[nodiscard]] ModelFactory traced_factory(ModelFactory make, Trace* trace);

/// The model a traced_factory wrapper stands for (`m` itself when it is
/// not a wrapper), for on_sample hooks that downcast to a concrete model.
[[nodiscard]] const sops::model::ChainModel& untraced(const sops::model::ChainModel& m);

/// Records every pool task as an "engine.task" span on its worker.
/// Lanes of one replica band report the band's shared wall time, so a
/// record repeating its thread's previous wall time is the same task.
class TaskSink final : public sops::engine::ProgressSink {
 public:
  explicit TaskSink(Trace& trace) : trace_(trace) {}
  void record(const Record& r) override;

 private:
  Trace& trace_;
  std::mutex mutex_;  ///< guards last_wall_
  std::map<std::thread::id, double> last_wall_;
};

/// Per-layer numbers of the traced pool passes ("engine.pass" spans,
/// run one after another) on `threads` workers, derived from the spans
/// and counters above. Idle time and efficiency sum over the passes.
struct LayerSample {
  double core_steps = 0, core_busy_s = 0;
  double move_accept_rate = 0, swap_accept_rate = 0, swap_fraction = 0;
  double build_s = 0;
  double tasks = 0, queue_wait_s = 0, idle_s = 0, scaling_efficiency = 0;
  double task_self_s = 0;  ///< Σ task time outside model/core spans
};

[[nodiscard]] LayerSample layer_sample(const Trace& trace, std::size_t threads);

}  // namespace perfbench
