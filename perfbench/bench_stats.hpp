// Summary statistics and span arithmetic the benchmark reports with.
// Kept free of any sops dependency so the unit tests pin the rules
// (tail percentiles, self time, ESS aggregation, idle time) on their own.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace perfbench {

/// Median of a sample (mean of the two middle values for even sizes).
/// Requires a nonempty sample.
[[nodiscard]] double median(std::vector<double> values);

/// Nearest-rank percentile: the smallest value with at least `p` of the
/// sample at or below it (p in (0, 1]). Requires a nonempty sample.
[[nodiscard]] double percentile(std::vector<double> values, double p);

/// Samples strictly beyond the nearest-rank `p` percentile of a sample
/// of size `n`: n − ceil(p·n).
[[nodiscard]] std::size_t samples_beyond(std::size_t n, double p);

/// True when a sample of size `n` leaves at least ten samples beyond
/// its `p` percentile — the rule for reporting that percentile at all.
[[nodiscard]] bool tail_supported(std::size_t n, double p);

/// A closed time interval in seconds, tagged with the thread it ran on.
struct Interval {
  double start = 0.0;
  double end = 0.0;
  std::size_t thread = 0;
};

/// Total length covered by the union of `intervals` (overlaps counted
/// once, threads ignored).
[[nodiscard]] double union_length(std::vector<Interval> intervals);

/// A span's self time: its duration minus the part of its interval
/// that `children` cover. Children may run on any thread and may
/// overlap; each is clipped to the parent's interval first.
[[nodiscard]] double self_time(const Interval& parent,
                               std::span<const Interval> children);

/// Busy time of a pool: per thread, the union of the task intervals run
/// on it, summed over threads.
[[nodiscard]] double busy_seconds(std::span<const Interval> tasks);

/// Idle capacity of a pool of `threads` workers over `passes` run one
/// after another: threads × Σ pass durations − busy_seconds(tasks),
/// floored at zero (clock granularity can push busy past capacity).
[[nodiscard]] double idle_seconds(std::size_t threads,
                                  std::span<const Interval> passes,
                                  std::span<const Interval> tasks);

/// Effective samples of an ensemble: for each observable, the ESS of
/// every chain summed over chains; the result is the smallest such sum.
/// `per_chain[c][o]` is chain c's ESS for observable o; every chain
/// must list the same observables. 0 for an empty ensemble.
[[nodiscard]] double ess_min_of_sums(
    std::span<const std::vector<double>> per_chain);

}  // namespace perfbench
