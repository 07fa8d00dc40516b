#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <stdexcept>
#include <thread>
#include <utility>

#include "bench_stats.hpp"
#include "src/checkpoint/runner.hpp"
#include "src/checkpoint/snapshot.hpp"
#include "src/core/coloring.hpp"
#include "src/core/markov_chain.hpp"
#include "src/core/observables.hpp"
#include "src/core/replica_band.hpp"
#include "src/core/runner.hpp"
#include "src/engine/ensemble.hpp"
#include "src/engine/thread_pool.hpp"
#include "src/lattice/shapes.hpp"
#include "src/metrics/phase.hpp"
#include "src/model/registry.hpp"
#include "src/model/separation.hpp"
#include "src/service/client.hpp"
#include "src/service/protocol.hpp"
#include "src/service/server.hpp"
#include "src/shard/harness.hpp"
#include "src/shard/wire.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using sops::engine::ChainJob;
using sops::engine::Task;
using sops::engine::TaskResult;
using sops::engine::ThreadPool;
using sops::shard::JobSpec;

unsigned pool_threads() { return std::max(1u, std::thread::hardware_concurrency()); }

std::uint64_t scaled(const Options& o, double base) {
  return std::max<std::uint64_t>(1, static_cast<std::uint64_t>(std::llround(base * o.scale)));
}

/// One particle configuration: the paper's random blob, two balanced colors.
struct Config {
  std::vector<sops::lattice::Node> nodes;
  std::vector<sops::system::Color> colors;
};

Config random_config(std::size_t n, std::uint64_t seed) {
  sops::util::Rng rng(seed);
  Config c;
  c.nodes = sops::lattice::random_blob(n, rng);
  c.colors = sops::core::balanced_random_colors(n, 2, rng);
  return c;
}

sops::core::SeparationChain make_chain(const Config& c, const Task& t) {
  return sops::core::SeparationChain(
      sops::system::ParticleSystem(c.nodes, c.colors),
      sops::core::Params{t.lambda, t.gamma, true}, t.seed);
}

/// Per-task configurations shared by a job's model factory.
using Configs = std::shared_ptr<const std::vector<Config>>;

ModelFactory separation_factory(Configs configs) {
  return [configs](const Task& t) {
    return sops::model::make_separation(make_chain((*configs)[t.index], t));
  };
}

/// Median of each per-layer value over the traced passes.
class LayerBag {
 public:
  void add(const std::string& name, double value) { values_[name].push_back(value); }

  void add(const LayerSample& s) {
    add("core.steps", s.core_steps);
    add("core.busy_s", s.core_busy_s);
    add("core.steps_per_busy_s", s.core_busy_s > 0 ? s.core_steps / s.core_busy_s : 0);
    add("core.move_accept_rate", s.move_accept_rate);
    add("core.swap_accept_rate", s.swap_accept_rate);
    add("core.swap_fraction", s.swap_fraction);
    add("model.build_s", s.build_s);
    add("engine.tasks", s.tasks);
    add("engine.queue_wait_s", s.queue_wait_s);
    add("engine.idle_s", s.idle_s);
    add("engine.scaling_efficiency", s.scaling_efficiency);
  }

  [[nodiscard]] std::vector<Metric> metrics() const {
    std::vector<Metric> out;
    for (const auto& [name, unit] : layer_catalogue()) {
      const auto it = values_.find(name);
      out.push_back({name, it == values_.end() ? 0.0 : median(it->second), unit});
    }
    return out;
  }

 private:
  std::map<std::string, std::vector<double>> values_;
};

void check(Report& r, bool ok, const std::string& what) {
  ++r.attempted;
  if (!ok) {
    ++r.failed;
    r.failures.push_back(what);
  }
}

/// Peak resident set of this process image. getrusage's ru_maxrss
/// survives exec, so it would report the launcher's peak when that was
/// larger; the kernel's per-image high-water mark (VmHWM) starts fresh.
double peak_rss_mb() {
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    double kib = -1.0;
    while (std::fgets(line, sizeof line, f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
    }
    std::fclose(f);
    if (kib > 0) return kib / 1024.0;
  }
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // KiB
}

/// Prints one sample list to stderr, so a run's pass-to-pass spread is
/// visible next to its medians.
void log_samples(const char* name, const std::vector<double>& values) {
  std::fprintf(stderr, "perfbench: %s:", name);
  for (const double v : values) std::fprintf(stderr, " %.4g", v);
  std::fprintf(stderr, "\n");
}

/// Times fresh set-ups and reports their median as `setup_s`. A
/// sub-millisecond set-up timed in one burst reads the host as it was
/// in that instant, which swings run to run; so a burst runs before the
/// first pass and another between passes, and the median covers the
/// whole run as `wall_s` does. A burst is kMinSetupReps set-ups (one
/// between passes), and more, up to kMaxBurstReps, while it is under
/// kBurstBudgetS. Each set-up is torn down, untimed, before the next.
constexpr std::size_t kMinSetupReps = 5;
constexpr double kBurstBudgetS = 0.05;
constexpr std::size_t kMaxBurstReps = 20;
/// Passes run even past the measurement budget.
constexpr std::size_t kMinPasses = 2;

class SetupTimer {
 public:
  /// The first burst; returns the last set-up, which the workload uses.
  template <typename Make>
  auto first(Make& make) {
    return burst(make, kMinSetupReps);
  }

  /// A burst between passes; its set-ups are thrown away.
  template <typename Make>
  void again(Make& make) {
    (void)burst(make, 1);
  }

  [[nodiscard]] double median_s() const {
    log_samples("setup_s", times_);
    return median(times_);
  }

 private:
  template <typename Make>
  auto burst(Make& make, std::size_t min_reps) {
    double total = 0.0;
    decltype(make()) state;
    for (std::size_t r = 0; r < min_reps || (total < kBurstBudgetS && r < kMaxBurstReps);
         ++r) {
      state.reset();
      const auto start = Clock::now();
      state = make();
      times_.push_back(seconds_since(start));
      total += times_.back();
    }
    return state;
  }

  std::vector<double> times_;
};

/// Calls pass(i, traced) until the measurement budget would be
/// overrun by another pass as long as the longest so far (at least
/// kMinPasses times), with a set-up burst between passes. Traced runs
/// trace every second pass, so traced and untraced passes interleave.
template <typename Make, typename Pass>
void pass_loop(const Options& options, SetupTimer& setup, Make& make, Pass&& pass) {
  const auto start = Clock::now();
  double longest = 0.0;
  for (std::size_t i = 0;; ++i) {
    if (i >= kMinPasses && seconds_since(start) + longest > options.seconds) break;
    if (i > 0) setup.again(make);
    const auto t = Clock::now();
    pass(i, options.trace && i % 2 == 1);
    longest = std::max(longest, seconds_since(t));
  }
}

/// Runs one pool pass, timing it into `wall` and, when traced, as the
/// "engine.pass" span that layer_sample measures the pool over.
template <typename Fn>
auto timed_pass(Trace* trace, double& wall, Fn&& fn) {
  const auto start = Clock::now();
  auto out = timed(trace, "engine.pass", std::forward<Fn>(fn));
  wall = seconds_since(start);
  return out;
}

/// One pass's copy of a job; when traced, its models report to `trace`
/// and its pool tasks to `sink`.
struct PassJob {
  std::unique_ptr<Trace> trace;
  std::unique_ptr<TaskSink> sink;
  ChainJob job;
};

PassJob pass_job(const ChainJob& job, bool traced) {
  PassJob p;
  if (traced) {
    p.trace = std::make_unique<Trace>();
    p.sink = std::make_unique<TaskSink>(*p.trace);
  }
  p.job = job;
  p.job.make_model = traced_factory(job.make_model, p.trace.get());
  return p;
}

/// Encodes a result document, timing it into the trace.
std::string encode_doc(const JobSpec& spec, const std::vector<TaskResult>& results,
                       Trace* trace) {
  return timed(trace, "shard.encode", [&] { return sops::shard::encode(spec, results); });
}

/// Ensemble ESS (min over observables of the per-chain sum) and the
/// sampled chain steps per effective sample.
struct EssSummary {
  double ess = 0.0;
  double iat_steps = 0.0;
};

EssSummary ensemble_ess(const std::vector<TaskResult>& results,
                        const std::vector<std::uint64_t>& intervals) {
  std::vector<std::vector<double>> per_chain;
  double sampled_steps = 0.0;
  for (const TaskResult& r : results) {
    std::vector<double> perimeter, hetero;
    for (const sops::core::Measurement& m : r.series) {
      perimeter.push_back(static_cast<double>(m.perimeter));
      hetero.push_back(m.hetero_fraction);
    }
    per_chain.push_back({sops::core::effective_sample_size(perimeter),
                         sops::core::effective_sample_size(hetero)});
    sampled_steps += static_cast<double>(intervals[r.task.index] * r.series.size());
  }
  EssSummary out;
  out.ess = ess_min_of_sums(per_chain);
  out.iat_steps = out.ess > 0 ? sampled_steps / out.ess : 0.0;
  return out;
}

void add_observables(LayerBag& bag, const std::vector<TaskResult>& results,
                     const std::vector<std::uint64_t>& intervals) {
  const EssSummary e = ensemble_ess(results, intervals);
  bag.add("observables.ess", e.ess);
  bag.add("observables.iat_steps", e.iat_steps);
}

/// Adds a traced pass's result-document size and encode time.
void add_doc(LayerBag& bag, const Trace& trace, double bytes) {
  bag.add("shard.bytes", bytes);
  bag.add("shard.encode_s", trace.total("shard.encode"));
}

void add_overhead(LayerBag& bag, const std::vector<double>& plain,
                  const std::vector<double>& traced) {
  if (plain.empty() || traced.empty()) return;
  bag.add("trace.overhead_pct", 100.0 * (median(traced) / median(plain) - 1.0));
}

/// Fills the report: the per-layer metrics when traced, otherwise the
/// end-to-end metrics every workload shares. `walls` are the untraced
/// passes' times, `steps` the chain steps of one pass.
void finish(Report& report, const Options& o, LayerBag& bag, double setup_s,
            const std::vector<double>& walls, const std::vector<double>& traced_walls,
            double steps) {
  log_samples("wall_s", walls);
  if (o.trace) {
    add_overhead(bag, walls, traced_walls);
    bag.add("host.ref_rate", host_ref_rate());
    report.metrics = bag.metrics();
    return;
  }
  const double wall = median(walls);
  report.metrics = {{"setup_s", setup_s, "s"},
                    {"wall_s", wall, "s"},
                    {"steps_per_s", steps / wall, "1/s"},
                    {"peak_rss_mb", peak_rss_mb(), "MB"}};
}

// ---------------------------------------------------------------------
// fig3_grid: Figure 3's 16-cell phase diagram from one shared n = 100
// start, one final measurement classified per cell. Nearly all time is
// the scalar kernel across the four acceptance regimes; 16 uneven cells
// on the pool expose load balance. No band, checkpoint or service.

struct Fig3 {
  JobSpec spec;
  ChainJob job;
  std::shared_ptr<std::vector<sops::metrics::Phase>> phases;
  std::unique_ptr<ThreadPool> pool;
};

Report run_fig3(const Options& o) {
  Report report;
  const auto make = [&] {
    auto f = std::make_unique<Fig3>();
    sops::engine::GridSpec grid;
    grid.lambdas = {1.1, 2.0, 4.0, 6.0};
    grid.gammas = {0.5, 1.0, 2.0, 4.0};
    grid.base_seed = o.seed;
    grid.derive_seeds = false;  // Figure 3: one shared start for every cell
    auto configs = std::make_shared<std::vector<Config>>(
        grid.lambdas.size() * grid.gammas.size(), random_config(100, o.seed));
    f->job.make_model = separation_factory(configs);
    f->job.checkpoints = {scaled(o, 3e6)};
    f->phases = std::make_shared<std::vector<sops::metrics::Phase>>(configs->size());
    f->job.on_sample = [phases = f->phases](const Task& t,
                                            const sops::model::ChainModel& m) {
      const auto& chain = sops::model::separation_chain(untraced(m));
      (*phases)[t.index] = sops::metrics::classify(chain.system());
    };
    f->spec = sops::shard::grid_job("perfbench_fig3_grid", grid, f->job);
    f->pool = std::make_unique<ThreadPool>(pool_threads());
    return f;
  };
  SetupTimer setup;
  auto state = setup.first(make);
  Fig3& f = *state;

  const auto pass = [&](ThreadPool& pool, PassJob& p, double& wall) {
    std::vector<TaskResult> results = timed_pass(p.trace.get(), wall, [&] {
      return sops::engine::run_chain_ensemble(pool, f.spec.tasks, p.job,
                                              p.sink.get());
    });
    for (TaskResult& r : results) {
      const auto phase = static_cast<int>((*f.phases)[r.task.index]);
      r.aux = {static_cast<double>(phase)};
    }
    return encode_doc(f.spec, results, p.trace.get());
  };

  const double steps = static_cast<double>(f.spec.tasks.size() * f.job.checkpoints[0]);
  // One serial pass per run: the reference every nproc-thread pass must
  // match byte for byte, and the 1-thread throughput. Its pool is the
  // gate's, not the workload's, so it is started outside the set-up.
  double serial_wall = 0.0;
  ThreadPool serial_pool(1);
  PassJob serial = pass_job(f.job, false);
  const std::string reference = pass(serial_pool, serial, serial_wall);

  std::vector<double> walls, traced_walls;
  LayerBag bag;
  pass_loop(o, setup, make, [&](std::size_t, bool traced) {
    double wall = 0.0;
    PassJob p = pass_job(f.job, traced);
    const std::string doc = pass(*f.pool, p, wall);
    check(report, doc == reference,
          "fig3_grid: " + std::to_string(pool_threads()) +
              "-thread document differs from the serial pass");
    (traced ? traced_walls : walls).push_back(wall);
    if (p.trace) {
      bag.add(layer_sample(*p.trace, f.pool->size()));
      add_doc(bag, *p.trace, static_cast<double>(doc.size()));
    }
  });

  bag.add("engine.serial_steps_per_s", steps / serial_wall);
  finish(report, o, bag, setup.median_s(), walls, traced_walls, steps);
  return report;
}

// ---------------------------------------------------------------------
// replica_ensemble: the Theorem 13/14 equilibrium protocol at a
// separated-compressed point (λ = γ = 4) and an integrated one (γ = 1,
// where every swap is accepted), 16 derived-seed replicas each, run
// through ReplicaBand. n is large enough that the band arena takes the
// compact cell layout.

constexpr std::size_t kReplicaN = 2000;

struct Replica {
  JobSpec spec;
  ChainJob job;
  Configs configs;
  std::unique_ptr<ThreadPool> pool;
};

constexpr std::size_t kBandWidth = 8;  // one AVX2 gather group
/// Fixed, so the work does not depend on the host: two points of 16
/// replicas at width 8 make four band tasks, one per thread on a 4-core
/// host (a larger host leaves threads idle).
constexpr std::size_t kReplicasPerPoint = 16;

/// Replays `task` on a bare SeparationChain with plain run() calls and
/// compares every measurement with the banded series.
bool replay_matches(const Replica& r, const TaskResult& banded) {
  const Task& t = banded.task;
  sops::core::SeparationChain chain = make_chain((*r.configs)[t.index], t);
  std::vector<sops::core::Measurement> series;
  chain.run(r.job.burn_in);
  for (std::size_t s = 0; s < r.job.samples; ++s) {
    if (s > 0) chain.run(r.job.interval);
    series.push_back(sops::core::measure(chain));
  }
  if (series.size() != banded.series.size()) return false;
  for (std::size_t i = 0; i < series.size(); ++i) {
    const sops::core::Measurement& a = series[i];
    const sops::core::Measurement& b = banded.series[i];
    if (a.iteration != b.iteration || a.perimeter != b.perimeter ||
        a.edges != b.edges || a.hetero_edges != b.hetero_edges ||
        std::memcmp(&a.perimeter_ratio, &b.perimeter_ratio, sizeof(double)) != 0 ||
        std::memcmp(&a.hetero_fraction, &b.hetero_fraction, sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

/// Drives the first band of each point directly through ReplicaBand and
/// reads its kernel counters.
void band_probe(const Replica& r, const Options& o, LayerBag& bag) {
  double simd = 0, scalar = 0, rebuilds = 0;
  for (std::size_t first = 0; first < r.spec.tasks.size(); first += kReplicasPerPoint) {
    std::vector<sops::core::SeparationChain> chains;
    chains.reserve(kBandWidth);
    for (std::size_t k = 0; k < kBandWidth; ++k) {
      const Task& t = r.spec.tasks[first + k];
      chains.push_back(make_chain((*r.configs)[t.index], t));
    }
    std::vector<sops::core::SeparationChain*> lanes;
    for (auto& c : chains) lanes.push_back(&c);
    sops::core::ReplicaBand band(lanes);
    band.run(scaled(o, 2e5));
    simd += static_cast<double>(band.stats().simd_steps);
    scalar += static_cast<double>(band.stats().scalar_steps);
    rebuilds += static_cast<double>(band.stats().arena_rebuilds);
    std::fprintf(stderr, "perfbench: band arena layout %s\n",
                 band.arena_compact() ? "compact" : "wide");
  }
  bag.add("core.band_simd_fraction", simd + scalar > 0 ? simd / (simd + scalar) : 0.0);
  bag.add("core.band_arena_rebuilds", rebuilds);
}

Report run_replica(const Options& o) {
  Report report;
  const auto make = [&] {
    auto r = std::make_unique<Replica>();
    sops::engine::GridSpec grid;
    grid.lambdas = {4.0};
    grid.gammas = {4.0, 1.0};
    grid.replicas = kReplicasPerPoint;
    grid.base_seed = o.seed;
    r->job.burn_in = scaled(o, 1e6);
    r->job.interval = scaled(o, 2e4);
    r->job.samples = 200;
    r->job.replica_band = kBandWidth;
    r->spec = sops::shard::grid_job("perfbench_replica_ensemble", grid, r->job);
    auto configs = std::make_shared<std::vector<Config>>();
    for (const Task& t : r->spec.tasks) configs->push_back(random_config(kReplicaN, t.seed));
    r->configs = configs;
    r->job.make_model = separation_factory(configs);
    r->pool = std::make_unique<ThreadPool>(pool_threads());
    return r;
  };
  SetupTimer setup;
  auto state = setup.first(make);
  Replica& r = *state;
  const double steps = static_cast<double>(
      r.spec.tasks.size() * (r.job.burn_in + (r.job.samples - 1) * r.job.interval));
  const std::vector<std::uint64_t> intervals(r.spec.tasks.size(), r.job.interval);

  std::string reference;
  double ess = 0.0;
  std::vector<double> walls, traced_walls;
  LayerBag bag;
  pass_loop(o, setup, make, [&](std::size_t, bool traced) {
    PassJob p = pass_job(r.job, traced);
    double wall = 0.0;
    const std::vector<TaskResult> results = timed_pass(p.trace.get(), wall, [&] {
      return sops::engine::run_chain_ensemble(*r.pool, r.spec.tasks, p.job,
                                              p.sink.get());
    });
    (traced ? traced_walls : walls).push_back(wall);

    const std::string doc = encode_doc(r.spec, results, p.trace.get());
    if (reference.empty()) {
      reference = doc;
      ess = ensemble_ess(results, intervals).ess;
      for (std::size_t first = 0; first < results.size();
           first += kReplicasPerPoint) {
        check(report, replay_matches(r, results[first]),
              "replica_ensemble: lane " + std::to_string(first) +
                  " differs from its plain SeparationChain::run replay");
      }
    }
    check(report, doc == reference, "replica_ensemble: pass document differs");
    if (p.trace) {
      bag.add(layer_sample(*p.trace, r.pool->size()));
      add_doc(bag, *p.trace, static_cast<double>(doc.size()));
      add_observables(bag, results, intervals);
      band_probe(r, o, bag);
    }
  });

  bag.add("observables.ess_per_s", ess / median(walls));
  finish(report, o, bag, setup.median_s(), walls, traced_walls, steps);
  return report;
}

// ---------------------------------------------------------------------
// checkpointed_sweep: the Theorem 13 sweep over n (λ = 4, γ = 6,
// n-scaled burn-in and spacing, bench_thm13_compression's --full
// protocol) through checkpoint::run_tasks with partial snapshots every
// `every` steps, then the resume pass over the partial snapshots a
// mid-run crash left. The runner ignores replica_band, so this is the
// band's no-change control on the same equilibrium protocol.
//
// Each n runs kSweepReplicas seeds, largest n first: with one chain
// per n the pass time was the n = 200 chain's alone, i.e. one core's
// speed, which swung ±20% between passes on a shared host; sixteen
// tasks spread over the pool average over every core.

const std::vector<std::size_t> kSweepNs{200, 100, 50, 25};
constexpr std::size_t kSweepReplicas = 4;

/// Throws once a run would carry the chain past `crash_at` steps: a
/// process dying mid-task, after its last partial snapshot.
class CrashingModel final : public sops::model::ChainModel {
 public:
  CrashingModel(std::unique_ptr<sops::model::ChainModel> inner, std::uint64_t crash_at)
      : inner_(std::move(inner)), crash_at_(crash_at) {}
  [[nodiscard]] std::string_view tag() const noexcept override { return inner_->tag(); }
  void run(std::uint64_t iterations) override {
    if (inner_->steps() + iterations > crash_at_) throw std::runtime_error("simulated crash");
    inner_->run(iterations);
  }
  [[nodiscard]] std::uint64_t steps() const noexcept override { return inner_->steps(); }
  [[nodiscard]] sops::core::Measurement measure() const override { return inner_->measure(); }
  [[nodiscard]] std::vector<std::string> observable_names() const override {
    return inner_->observable_names();
  }
  [[nodiscard]] std::vector<std::string> save_state() const override {
    return inner_->save_state();
  }

 private:
  std::unique_ptr<sops::model::ChainModel> inner_;
  std::uint64_t crash_at_;
};

struct Sweep {
  JobSpec spec;
  ChainJob job;
  Configs configs;
  std::uint64_t every = 0;
  std::unique_ptr<ThreadPool> pool;
};

std::uint64_t sweep_end(const ChainJob& job, const Task& t) {
  const sops::engine::ChainProtocol p = sops::engine::resolve_protocol(job, t);
  return p.burn_in + (p.samples - 1) * p.interval;
}

void fresh_dir(const fs::path& dir) {
  fs::remove_all(dir);
  fs::create_directories(dir);
}

std::vector<TaskResult> run_checkpointed(Sweep& s, ChainJob& job, const fs::path& dir,
                                         bool resume, sops::engine::ProgressSink* sink,
                                         sops::checkpoint::RunStats* stats = nullptr) {
  const sops::engine::TaskFn fn = sops::engine::make_task_fn(job);
  return sops::checkpoint::run_tasks(*s.pool, s.spec.tasks, s.spec, &job, fn,
                                     {dir.string(), s.every, resume}, sink, {}, stats);
}

Report run_sweep(const Options& o) {
  Report report;
  const auto make = [&] {
    auto s = std::make_unique<Sweep>();
    const double lambda = 4.0, gamma = 6.0;
    const std::uint64_t burn_base = scaled(o, 2e4), spacing_base = scaled(o, 200);
    const std::size_t samples = 200;
    s->spec.name = "perfbench_checkpointed_sweep";
    s->spec.grid.lambdas = {lambda};
    s->spec.grid.gammas = {gamma};
    s->spec.grid.base_seed = o.seed;
    s->spec.grid.derive_seeds = false;  // seeds are seed + n + 1000·replica
    s->spec.grid.replicas = kSweepReplicas;
    s->spec.samples = samples;
    s->spec.params = {"sweep=n", "ns=200,100,50,25",
                      "burn_base=" + std::to_string(burn_base),
                      "spacing_base=" + std::to_string(spacing_base)};
    auto configs = std::make_shared<std::vector<Config>>();
    for (const std::size_t n : kSweepNs) {
      for (std::size_t r = 0; r < kSweepReplicas; ++r) {
        Task t;
        t.index = s->spec.tasks.size();
        t.replica = r;
        t.lambda = lambda;
        t.gamma = gamma;
        t.seed = o.seed + n + 1000 * r;
        s->spec.tasks.push_back(t);
        configs->push_back(random_config(n, t.seed));
      }
    }
    s->configs = configs;
    s->job.make_model = separation_factory(configs);
    s->job.protocol = [=](const Task& t) {
      const std::uint64_t n = kSweepNs[t.index / kSweepReplicas];
      sops::engine::ChainProtocol p;
      p.burn_in = burn_base * n;
      p.interval = spacing_base * n;
      p.samples = samples;
      return p;
    };
    // Below half the n = 25 protocol (1.5M steps), so every task has a
    // partial snapshot when the crash comes, and no multiple of any
    // sample spacing: the runner skips snapshot points that fall on a
    // measurement.
    s->every = scaled(o, 6.17e5);
    s->pool = std::make_unique<ThreadPool>(pool_threads());
    return s;
  };
  SetupTimer setup;
  auto state = setup.first(make);
  Sweep& s = *state;
  const fs::path base = fs::path(o.work_dir) / "ckpt";
  double steps = 0.0;
  std::vector<std::uint64_t> intervals;
  for (const Task& t : s.spec.tasks) {
    steps += static_cast<double>(sweep_end(s.job, t));
    intervals.push_back(sops::engine::resolve_protocol(s.job, t).interval);
  }

  // The crash: every task dies halfway through its protocol, leaving
  // its last partial snapshot behind.
  const fs::path crashed = base / "crashed";
  fresh_dir(crashed);
  {
    ChainJob job = s.job;
    job.make_model = [&s](const Task& t) -> std::unique_ptr<sops::model::ChainModel> {
      return std::make_unique<CrashingModel>(s.job.make_model(t), sweep_end(s.job, t) / 2);
    };
    bool crashed_as_planned = false;
    try {
      (void)run_checkpointed(s, job, crashed, false, nullptr);
    } catch (const std::runtime_error& e) {
      crashed_as_planned = std::string(e.what()) == "simulated crash";
    }
    check(report, crashed_as_planned, "checkpointed_sweep: the crash pass did not crash");
  }

  std::string reference;
  double ess = 0.0;
  std::vector<double> walls, resume_walls, traced_walls;
  LayerBag bag;
  pass_loop(o, setup, make, [&](std::size_t, bool traced) {
    PassJob p = pass_job(s.job, traced);
    const fs::path full = base / "full";
    fresh_dir(full);
    double wall = 0.0;
    const std::vector<TaskResult> results = timed_pass(p.trace.get(), wall, [&] {
      return run_checkpointed(s, p.job, full, false, p.sink.get());
    });
    (traced ? traced_walls : walls).push_back(wall);
    const std::string doc = encode_doc(s.spec, results, p.trace.get());
    if (reference.empty()) {
      reference = doc;
      ess = ensemble_ess(results, intervals).ess;
    }
    check(report, doc == reference, "checkpointed_sweep: pass document differs");

    const fs::path resumed = base / "resumed";
    fresh_dir(resumed);
    for (const auto& entry : fs::directory_iterator(crashed)) {
      fs::copy_file(entry.path(), resumed / entry.path().filename());
    }
    sops::checkpoint::RunStats stats;
    const auto start = Clock::now();
    const std::vector<TaskResult> resumed_results =
        run_checkpointed(s, s.job, resumed, true, nullptr, &stats);
    resume_walls.push_back(seconds_since(start));
    check(report,
          stats.resumed == s.spec.tasks.size() &&
              sops::shard::encode(s.spec, resumed_results) == reference,
          "checkpointed_sweep: resumed result differs from the uninterrupted one");

    if (p.trace) {
      const LayerSample ls = layer_sample(*p.trace, s.pool->size());
      bag.add(ls);
      bag.add("checkpoint.snapshots", p.trace->counter("checkpoint.snapshots"));
      bag.add("checkpoint.bytes", p.trace->counter("checkpoint.bytes"));
      bag.add("checkpoint.self_s", ls.task_self_s);
      double restore_s = 0.0;
      for (const auto& entry : fs::directory_iterator(crashed)) {
        const auto t = Clock::now();
        (void)sops::checkpoint::restore_model(
            sops::checkpoint::read_snapshot(entry.path()));
        restore_s += seconds_since(t);
      }
      bag.add("checkpoint.restore_s", restore_s);
      add_doc(bag, *p.trace, static_cast<double>(doc.size()));
      add_observables(bag, results, intervals);
    }
  });

  log_samples("resume_s", resume_walls);
  bag.add("checkpoint.resume_s", median(resume_walls));
  bag.add("observables.ess_per_s", ess / median(walls));
  finish(report, o, bag, setup.median_s(), walls, traced_walls, steps);
  return report;
}

// ---------------------------------------------------------------------
// service_jobs: a closed loop against an in-process SweepServer on an
// AF_UNIX socket. `nproc` clients each submit a sweep, poll it to
// completion and fetch the result before sending the next. Every layer
// of a job's path is on the clock: framing, queueing, engine dispatch,
// model build, shard encode/decode, and the kernel. Every payload is
// checked against an in-process run of the same spec.
//
// Jobs are sized so that a job runs for about 15 ms on a 4-core host:
// with jobs of a few hundred microseconds, the 1 ms status poll and the
// per-job fork-join set the pace and the pass time spread 40-50%
// between runs.

constexpr std::size_t kJobsPerPass = 200;  // the least with ten samples beyond p95

JobSpec service_job(std::uint64_t seed, const Options& o) {
  sops::engine::GridSpec grid;
  grid.lambdas = {2.5};
  grid.gammas = {3.0};
  grid.replicas = 4;
  grid.base_seed = seed;
  ChainJob protocol;
  protocol.checkpoints = {scaled(o, 2.5e5)};
  return sops::shard::grid_job("service_sweep", grid, protocol,
                               {"blob=32", "colors=2", "swaps=1"});
}

/// The same spec run in-process through the engine: make_model from the
/// model registry, as the server's generic sweep does.
std::string run_in_process(ThreadPool& pool, const JobSpec& spec, Trace* trace) {
  ChainJob job;
  job.model = spec.model;
  job.checkpoints = spec.checkpoints;
  job.make_model = traced_factory(
      [&spec](const Task& t) {
        return sops::model::build_from_spec(
            spec.model, spec.params,
            {t.index, t.replica, t.lambda, t.gamma, t.seed});
      },
      trace);
  const std::unique_ptr<TaskSink> sink =
      trace ? std::make_unique<TaskSink>(*trace) : nullptr;
  const std::vector<TaskResult> results = timed(trace, "engine.pass", [&] {
    return sops::engine::run_chain_ensemble(pool, spec.tasks, job, sink.get());
  });
  return encode_doc(spec, results, trace);
}

struct Service {
  std::vector<JobSpec> specs;
  std::unique_ptr<sops::service::SweepServer> server;
  std::vector<std::unique_ptr<sops::service::Client>> clients;
  std::unique_ptr<ThreadPool> pool;  ///< in-process reference runs

  ~Service() {
    clients.clear();
    if (server) {
      server->request_stop();
      server->wait();
    }
  }
};

template <typename T>
void append(std::vector<T>& to, const std::vector<T>& from) {
  to.insert(to.end(), from.begin(), from.end());
}

struct JobTally {
  std::vector<double> latency_ms, submit_ms, result_ms;
  std::uint64_t refused = 0, protocol_errors = 0;
  std::vector<std::string> failures;

  void merge(const JobTally& t) {
    append(latency_ms, t.latency_ms);
    append(submit_ms, t.submit_ms);
    append(result_ms, t.result_ms);
    refused += t.refused;
    protocol_errors += t.protocol_errors;
    append(failures, t.failures);
  }
};

/// One client's closed loop over the jobs it claims from `next`.
void client_loop(sops::service::Client& client, const Service& svc,
                 const std::vector<std::string>& reference,
                 std::atomic<std::size_t>& next, JobTally& tally) {
  using sops::service::Client;
  for (std::size_t k; (k = next.fetch_add(1)) < svc.specs.size();) {
    const auto start = Clock::now();
    try {
      const Client::Submitted sub = client.submit(svc.specs[k]);
      tally.submit_ms.push_back(1e3 * seconds_since(start));
      if (!sub.accepted) {
        ++tally.refused;
        tally.failures.push_back("service_jobs: job " + std::to_string(k) +
                                 " refused: " + sub.reason);
        continue;
      }
      while (!sops::service::is_terminal(client.status(sub.job_id).state)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      const auto fetch = Clock::now();
      const sops::shard::ShardFile file = client.result(sub.job_id);
      tally.result_ms.push_back(1e3 * seconds_since(fetch));
      tally.latency_ms.push_back(1e3 * seconds_since(start));
      if (sops::shard::encode(file.job, file.results, file.manifest) != reference[k]) {
        tally.failures.push_back("service_jobs: job " + std::to_string(k) +
                                 " payload differs from the in-process run");
      }
    } catch (const sops::service::Refused& e) {
      ++tally.refused;
      tally.failures.push_back(std::string("service_jobs: ") + e.what());
    } catch (const sops::service::ProtocolError& e) {
      ++tally.protocol_errors;
      tally.failures.push_back(std::string("service_jobs: ") + e.what());
    } catch (const std::exception& e) {
      tally.failures.push_back(std::string("service_jobs: ") + e.what());
    }
  }
}

Report run_service(const Options& o) {
  Report report;
  const unsigned clients = pool_threads();
  std::size_t servers = 0;  // each set-up's server binds a socket of its own
  const auto make = [&] {
    const std::string socket = o.work_dir + "/svc" + std::to_string(servers++) + ".sock";
    auto svc = std::make_unique<Service>();
    for (std::size_t k = 0; k < kJobsPerPass; ++k) {
      svc->specs.push_back(service_job(o.seed + k, o));
    }
    sops::service::ServerConfig config;
    config.socket_path = socket;
    config.io_threads = clients;
    config.pool_threads = pool_threads();
    svc->server = std::make_unique<sops::service::SweepServer>(config);
    svc->server->start();
    for (unsigned c = 0; c < clients; ++c) {
      svc->clients.push_back(std::make_unique<sops::service::Client>(socket));
    }
    svc->pool = std::make_unique<ThreadPool>(pool_threads());
    return svc;
  };
  SetupTimer setup;
  auto state = setup.first(make);
  Service& svc = *state;

  std::vector<std::string> reference;
  for (const JobSpec& spec : svc.specs) {
    reference.push_back(run_in_process(*svc.pool, spec, nullptr));
  }

  std::vector<double> walls, traced_walls, latency_ms;
  LayerBag bag;
  pass_loop(o, setup, make, [&](std::size_t, bool traced) {
    std::vector<JobTally> tallies(clients);
    std::atomic<std::size_t> next{0};
    const auto start = Clock::now();
    {
      std::vector<std::jthread> threads;
      for (unsigned c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
          client_loop(*svc.clients[c], svc, reference, next, tallies[c]);
        });
      }
    }
    const double wall = seconds_since(start);
    (traced ? traced_walls : walls).push_back(wall);
    JobTally all;
    for (const JobTally& t : tallies) all.merge(t);
    report.attempted += svc.specs.size();
    report.failed += all.failures.size();
    append(report.failures, all.failures);
    if (!traced) append(latency_ms, all.latency_ms);
    if (traced) {
      const auto median_or_0 = [](const std::vector<double>& v) {
        return v.empty() ? 0.0 : median(v);
      };
      bag.add("service.submit_rtt_ms", median_or_0(all.submit_ms));
      bag.add("service.result_rtt_ms", median_or_0(all.result_ms));
      bag.add("service.refused", static_cast<double>(all.refused));
      bag.add("service.protocol_errors", static_cast<double>(all.protocol_errors));
      // The server's layers are out of the benchmark's reach; the same
      // jobs run in-process give their engine/model/core/shard numbers.
      Trace trace;
      double bytes = 0.0;
      for (const JobSpec& spec : svc.specs) {
        bytes += static_cast<double>(
            run_in_process(*svc.pool, spec, &trace).size());
      }
      bag.add(layer_sample(trace, svc.pool->size()));
      add_doc(bag, trace, bytes);
    }
  });

  if (!tail_supported(latency_ms.size(), 0.95)) {
    throw std::runtime_error("service_jobs: too few jobs for a p95 latency");
  }
  bag.add("service.jobs_per_s",
          static_cast<double>(svc.specs.size()) / median(walls));
  bag.add("service.job_latency_p50_ms", percentile(latency_ms, 0.5));
  bag.add("service.job_latency_p95_ms", percentile(latency_ms, 0.95));
  double steps = 0.0;
  for (const JobSpec& spec : svc.specs) {
    steps += static_cast<double>(spec.tasks.size() * spec.checkpoints.back());
  }
  finish(report, o, bag, setup.median_s(), walls, traced_walls, steps);
  return report;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{"fig3_grid", "replica_ensemble",
                                              "checkpointed_sweep", "service_jobs"};
  return names;
}

const std::vector<std::pair<std::string, std::string>>& layer_catalogue() {
  static const std::vector<std::pair<std::string, std::string>> catalogue{
      {"core.steps", "count"},
      {"core.busy_s", "s"},
      {"core.steps_per_busy_s", "1/s"},
      {"core.move_accept_rate", "ratio"},
      {"core.swap_accept_rate", "ratio"},
      {"core.swap_fraction", "ratio"},
      {"core.band_simd_fraction", "ratio"},
      {"core.band_arena_rebuilds", "count"},
      {"model.build_s", "s"},
      {"engine.tasks", "count"},
      {"engine.queue_wait_s", "s"},
      {"engine.idle_s", "s"},
      {"engine.scaling_efficiency", "ratio"},
      {"engine.serial_steps_per_s", "1/s"},
      {"checkpoint.snapshots", "count"},
      {"checkpoint.bytes", "bytes"},
      {"checkpoint.self_s", "s"},
      {"checkpoint.restore_s", "s"},
      {"checkpoint.resume_s", "s"},
      {"shard.bytes", "bytes"},
      {"shard.encode_s", "s"},
      {"service.submit_rtt_ms", "ms"},
      {"service.result_rtt_ms", "ms"},
      {"service.refused", "count"},
      {"service.protocol_errors", "count"},
      {"service.jobs_per_s", "1/s"},
      {"service.job_latency_p50_ms", "ms"},
      {"service.job_latency_p95_ms", "ms"},
      {"observables.ess", "count"},
      {"observables.iat_steps", "steps"},
      {"observables.ess_per_s", "1/s"},
      {"host.ref_rate", "1/s"},
      {"trace.overhead_pct", "%"},
  };
  return catalogue;
}

Report run_workload(const Options& options) {
  if (options.workload == "fig3_grid") return run_fig3(options);
  if (options.workload == "replica_ensemble") return run_replica(options);
  if (options.workload == "checkpointed_sweep") return run_sweep(options);
  if (options.workload == "service_jobs") return run_service(options);
  throw std::invalid_argument("unknown workload '" + options.workload + "'");
}

namespace {
std::atomic<std::uint64_t> ref_sink{0};
}  // namespace

double host_ref_rate(std::size_t reps) {
  constexpr std::uint64_t kIters = 20'000'000;
  std::vector<double> rates;
  for (std::size_t r = 0; r < reps; ++r) {
    const auto start = Clock::now();
    std::uint64_t x = 0x9E3779B97F4A7C15ull + r, acc = 0;
    for (std::uint64_t i = 0; i < kIters; ++i) {
      x += 0x9E3779B97F4A7C15ull;  // splitmix64
      std::uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
      z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
      acc ^= z ^ (z >> 31);
    }
    const double s = seconds_since(start);
    ref_sink.store(acc, std::memory_order_relaxed);  // keeps the loop live
    rates.push_back(static_cast<double>(kIters) / s);
  }
  return median(rates);
}

}  // namespace perfbench
