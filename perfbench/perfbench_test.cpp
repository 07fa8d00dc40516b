// Unit tests of the benchmark's own helpers, and the repeatability of
// the exact counts a traced run reports.

#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <string>
#include <unistd.h>
#include <vector>

#include "bench_stats.hpp"
#include "src/model/separation.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

TEST(Percentile, NearestRank) {
  std::vector<double> v;
  for (int i = 1; i <= 20; ++i) v.push_back(i);
  EXPECT_EQ(percentile(v, 0.5), 10);
  EXPECT_EQ(percentile(v, 0.95), 19);
  EXPECT_EQ(percentile(v, 1.0), 20);
  EXPECT_EQ(median({3, 1, 2}), 2);
  EXPECT_EQ(median({4, 1, 2, 3}), 2.5);
}

TEST(Percentile, TenSamplesBeyondRule) {
  // p95 of 200 samples leaves exactly 10 beyond it; 199 leaves 9.
  EXPECT_EQ(samples_beyond(200, 0.95), 10u);
  EXPECT_TRUE(tail_supported(200, 0.95));
  EXPECT_EQ(samples_beyond(199, 0.95), 9u);
  EXPECT_FALSE(tail_supported(199, 0.95));
  // p50 needs only 20 samples; p99 needs 1000.
  EXPECT_TRUE(tail_supported(20, 0.5));
  EXPECT_FALSE(tail_supported(19, 0.5));
  EXPECT_FALSE(tail_supported(999, 0.99));
  EXPECT_TRUE(tail_supported(1000, 0.99));
  EXPECT_EQ(samples_beyond(0, 0.95), 0u);
}

TEST(SelfTime, ChildrenOnSeveralThreadsCountOnce) {
  // A pass span on thread 0 whose tasks ran on threads 1 and 2. The
  // overlapping children cover [1, 6] and [8, 9]; one child sticks out
  // past the parent's end and is clipped.
  const Interval parent{0, 10, 0};
  const std::vector<Interval> children{
      {1, 4, 1}, {2, 6, 2}, {8, 9, 1}, {9.5, 12, 2}};
  EXPECT_DOUBLE_EQ(self_time(parent, children), 10 - (5 + 1 + 0.5));
  EXPECT_DOUBLE_EQ(self_time(parent, {}), 10);
  EXPECT_DOUBLE_EQ(union_length({{0, 2, 0}, {1, 3, 1}, {5, 6, 0}}), 4);
}

TEST(Idle, ThreadsTimesMakespanMinusBusy) {
  // Two threads over a 10 s pass: thread 0 busy [0, 10], thread 1 ran
  // two tasks [0, 4] and [3, 6] (overlap counted once) — 16 s busy.
  const std::vector<Interval> pass{{0, 10, 0}};
  std::vector<Interval> tasks{{0, 10, 1}, {0, 4, 2}, {3, 6, 2}};
  EXPECT_DOUBLE_EQ(busy_seconds(tasks), 16);
  EXPECT_DOUBLE_EQ(idle_seconds(2, pass, tasks), 4);
  EXPECT_DOUBLE_EQ(idle_seconds(1, pass, tasks), 0);  // floored at zero
  // A second 5 s pass adds 2 × 5 s of capacity and 5 s of busy time.
  const std::vector<Interval> passes{{0, 10, 0}, {20, 25, 0}};
  tasks.push_back({20, 25, 1});
  EXPECT_DOUBLE_EQ(idle_seconds(2, passes, tasks), 30 - 21);
}

TEST(Ess, MinOfSumsNotSumOfMins) {
  const std::vector<std::vector<double>> per_chain{{10, 1}, {1, 10}, {5, 4}};
  // Sums per observable: 16 and 15; the sum of per-chain minima is 6.
  EXPECT_DOUBLE_EQ(ess_min_of_sums(per_chain), 15);
  EXPECT_DOUBLE_EQ(ess_min_of_sums({}), 0);
  const std::vector<std::vector<double>> ragged{{1, 2}, {3}};
  EXPECT_THROW((void)ess_min_of_sums(ragged), std::invalid_argument);
}

// Small, fast runs of the real workloads: one untraced and one traced
// pass each.
Report run_small(const std::string& workload, bool trace) {
  sops::model::register_separation_model();
  Options o;
  o.workload = workload;
  o.seed = 7;
  o.seconds = 0;
  o.trace = trace;
  o.scale = 0.01;
  o.work_dir = "perfbench-test-work-" + std::to_string(::getpid());
  std::filesystem::create_directories(o.work_dir);
  Report r = run_workload(o);
  std::filesystem::remove_all(o.work_dir);
  return r;
}

std::map<std::string, double> by_name(const Report& r) {
  std::map<std::string, double> m;
  for (const Metric& x : r.metrics) m[x.name] = x.value;
  return m;
}

class Workload : public ::testing::TestWithParam<std::string> {};

TEST_P(Workload, ExactCountsRepeatAtAFixedSeed) {
  const Report a = run_small(GetParam(), true);
  const Report b = run_small(GetParam(), true);
  ASSERT_TRUE(a.correct()) << (a.failures.empty() ? "" : a.failures.front());
  ASSERT_TRUE(b.correct());
  const auto ma = by_name(a), mb = by_name(b);
  ASSERT_EQ(ma.size(), layer_catalogue().size());
  for (const auto& [name, unit] : layer_catalogue()) EXPECT_EQ(ma.count(name), 1u) << name;
  for (const char* exact : {"core.steps", "observables.ess", "checkpoint.snapshots",
                            "checkpoint.bytes", "shard.bytes", "engine.tasks"}) {
    EXPECT_EQ(ma.at(exact), mb.at(exact)) << exact;
  }
  EXPECT_GT(ma.at("core.steps"), 0);
  EXPECT_GT(ma.at("shard.bytes"), 0);
  EXPECT_GT(ma.at("host.ref_rate"), 0);
  const bool sweep = GetParam() == "checkpointed_sweep";
  EXPECT_EQ(ma.at("checkpoint.bytes") > 0, sweep);
  EXPECT_EQ(ma.at("observables.ess") > 0, sweep || GetParam() == "replica_ensemble");
  EXPECT_EQ(ma.at("core.band_simd_fraction") + ma.at("core.band_arena_rebuilds") > 0,
            GetParam() == "replica_ensemble");
}

TEST_P(Workload, UntracedRunReportsTheSharedEndToEndMetrics) {
  const Report r = run_small(GetParam(), false);
  ASSERT_TRUE(r.correct());
  std::vector<std::string> names;
  for (const Metric& m : r.metrics) {
    names.push_back(m.name);
    EXPECT_GT(m.value, 0) << m.name;
  }
  EXPECT_EQ(names, (std::vector<std::string>{"setup_s", "wall_s", "steps_per_s", "peak_rss_mb"}));
}

INSTANTIATE_TEST_SUITE_P(All, Workload, ::testing::ValuesIn(workload_names()));

}  // namespace
}  // namespace perfbench
