// perfbench: the repository's end-to-end benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// Prints a host fingerprint line, then, as the last line of stdout, one
// JSON object {"correct", "attempted", "failed", "metrics"}: end-to-end
// metrics untraced, per-layer metrics traced. Exits 0 only when every
// operation passed its correctness gate; 2 on usage errors.

#include <unistd.h>

#include <cpuid.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>

#include "src/core/replica_band.hpp"
#include "src/model/separation.hpp"
#include "workloads.hpp"

namespace {

constexpr int kUsageError = 2;

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string cpu_brand() {
  unsigned regs[12] = {};
  for (unsigned leaf = 0; leaf < 3; ++leaf) {
    if (__get_cpuid(0x80000002u + leaf, &regs[4 * leaf], &regs[4 * leaf + 1],
                    &regs[4 * leaf + 2], &regs[4 * leaf + 3]) == 0) {
      return "unknown";
    }
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string s(brand);
  while (!s.empty() && s.back() == ' ') s.pop_back();
  return s;
}

/// One JSON line describing the host the numbers came from.
void print_host(double ref_rate) {
  __builtin_cpu_init();
  const char* tier = __builtin_cpu_supports("avx512f") ? "avx512"
                     : __builtin_cpu_supports("avx2") ? "avx2"
                                                      : "scalar";
  const char* force_scalar = std::getenv("SOPS_FORCE_SCALAR");
  std::printf(
      "{\"host\": {\"cpu\": %s, \"simd\": %s, \"band_simd\": %s, \"nproc\": %u, "
      "\"SOPS_FORCE_SCALAR\": %s, \"compiler\": %s, \"ref_rate\": %s}}\n",
      json_string(cpu_brand()).c_str(), json_string(tier).c_str(),
      sops::core::ReplicaBand::auto_simd() ? "true" : "false",
      std::thread::hardware_concurrency(),
      force_scalar ? json_string(force_scalar).c_str() : "null",
      json_string("gcc " __VERSION__).c_str(), json_number(ref_rate).c_str());
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1\n",
               why);
  return kUsageError;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      options.trace = value == "1";
      if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && (*end != '\0' || value.empty())) {
      return usage(("bad value for " + flag).c_str());
    }
  }
  if (!have_workload) return usage("--workload is required");

  // Snapshots and the service socket live under the working directory;
  // keep the path short, since AF_UNIX paths are limited to ~100 bytes.
  options.work_dir = ".bench_build/work-" + std::to_string(::getpid());
  int status = 0;
  try {
    std::filesystem::create_directories(options.work_dir);
    sops::model::register_separation_model();
    print_host(perfbench::host_ref_rate());
    const perfbench::Report report = perfbench::run_workload(options);
    for (const std::string& f : report.failures) {
      std::fprintf(stderr, "perfbench: FAILED %s\n", f.c_str());
    }
    std::string metrics;
    for (const perfbench::Metric& m : report.metrics) {
      if (!metrics.empty()) metrics += ", ";
      metrics += json_string(m.name) + ": {\"value\": " + json_number(m.value) +
                 ", \"unit\": " + json_string(m.unit) + "}";
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {%s}}\n",
                report.correct() ? "true" : "false",
                static_cast<unsigned long long>(report.attempted),
                static_cast<unsigned long long>(report.failed), metrics.c_str());
    status = report.correct() ? 0 : 1;
  } catch (const std::invalid_argument& e) {
    status = usage(e.what());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    status = 1;
  }
  std::error_code ignored;
  std::filesystem::remove_all(options.work_dir, ignored);
  return status;
}
