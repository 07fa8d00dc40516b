// The benchmark's four workloads. Each builds its inputs from the seed,
// times its set-up, runs passes of fixed work until the measurement
// budget is spent, checks every pass's output, and reports either the
// end-to-end metrics (untraced) or the per-layer metrics (traced).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;      ///< measurement budget for the pass loop
  bool trace = false;         ///< per-layer run: alternate traced passes
  double scale = 1.0;         ///< work per pass (tests shrink it)
  std::string work_dir;       ///< scratch for snapshots and the socket
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< one line per failed operation
  std::vector<Metric> metrics;        ///< end-to-end, or per-layer when traced
  [[nodiscard]] bool correct() const { return attempted > 0 && failed == 0; }
};

/// Workload names in documentation order.
[[nodiscard]] const std::vector<std::string>& workload_names();

/// Every per-layer metric's (name, unit), in report order. A traced
/// run reports all of them; layers a workload does not reach read 0.
[[nodiscard]] const std::vector<std::pair<std::string, std::string>>&
layer_catalogue();

/// Runs one workload. Throws std::invalid_argument for an unknown name.
[[nodiscard]] Report run_workload(const Options& options);

/// Iterations per second of a fixed integer loop that shares no code
/// with the simulator: a host-speed probe for telling drift apart from
/// a regression. Median of `reps` timings.
[[nodiscard]] double host_ref_rate(std::size_t reps = 5);

}  // namespace perfbench
