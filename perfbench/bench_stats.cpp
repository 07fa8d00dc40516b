#include "bench_stats.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <stdexcept>

namespace perfbench {

double median(std::vector<double> values) {
  if (values.empty()) throw std::invalid_argument("median: empty sample");
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

namespace {

std::size_t nearest_rank(std::size_t n, double p) {
  const auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(n)));
  return std::clamp<std::size_t>(rank, 1, n);
}

}  // namespace

double percentile(std::vector<double> values, double p) {
  if (values.empty()) throw std::invalid_argument("percentile: empty sample");
  std::sort(values.begin(), values.end());
  return values[nearest_rank(values.size(), p) - 1];
}

std::size_t samples_beyond(std::size_t n, double p) {
  return n == 0 ? 0 : n - nearest_rank(n, p);
}

bool tail_supported(std::size_t n, double p) {
  return samples_beyond(n, p) >= 10;
}

double union_length(std::vector<Interval> intervals) {
  std::sort(intervals.begin(), intervals.end(),
            [](const Interval& a, const Interval& b) { return a.start < b.start; });
  double total = 0.0;
  double open = 0.0, close = 0.0;
  bool have = false;
  for (const Interval& iv : intervals) {
    if (iv.end <= iv.start) continue;
    if (have && iv.start <= close) {
      close = std::max(close, iv.end);
      continue;
    }
    if (have) total += close - open;
    open = iv.start;
    close = iv.end;
    have = true;
  }
  if (have) total += close - open;
  return total;
}

double self_time(const Interval& parent, std::span<const Interval> children) {
  std::vector<Interval> clipped;
  clipped.reserve(children.size());
  for (const Interval& c : children) {
    clipped.push_back({std::max(c.start, parent.start),
                       std::min(c.end, parent.end), c.thread});
  }
  return (parent.end - parent.start) - union_length(std::move(clipped));
}

double busy_seconds(std::span<const Interval> tasks) {
  std::map<std::size_t, std::vector<Interval>> by_thread;
  for (const Interval& t : tasks) by_thread[t.thread].push_back(t);
  double busy = 0.0;
  for (auto& [thread, list] : by_thread) busy += union_length(std::move(list));
  return busy;
}

double idle_seconds(std::size_t threads, std::span<const Interval> passes,
                    std::span<const Interval> tasks) {
  double makespan = 0.0;
  for (const Interval& p : passes) makespan += p.end - p.start;
  return std::max(0.0, static_cast<double>(threads) * makespan - busy_seconds(tasks));
}

double ess_min_of_sums(std::span<const std::vector<double>> per_chain) {
  if (per_chain.empty()) return 0.0;
  std::vector<double> sums(per_chain.front().size(), 0.0);
  for (const std::vector<double>& chain : per_chain) {
    if (chain.size() != sums.size()) {
      throw std::invalid_argument("ess_min_of_sums: ragged observables");
    }
    for (std::size_t o = 0; o < sums.size(); ++o) sums[o] += chain[o];
  }
  return sums.empty() ? 0.0 : *std::min_element(sums.begin(), sums.end());
}

}  // namespace perfbench
