// Shared plumbing for the benchmark harness: wall clock, medians, and the
// per-run report every workload fills in and main() prints as JSON.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace fedms {}

namespace perfbench {

using namespace ::fedms;

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Median of the samples (mean of the two middles for even counts); 0 for
// an empty set.
double median(std::vector<double> values);

// What the workload was built from; printed with the result so every
// figure can be traced to its inputs.
using Info = std::map<std::string, std::string>;

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// One run's outcome. `attempted` counts the workload's operations (a
// federated round, or one defense-matrix cell); `failed` counts the ones
// that threw. A failing correctness check clears `correct` and records
// why.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> failures;
  std::vector<std::string> checks;  // every check that ran, pass or fail
  std::map<std::string, std::vector<double>> samples;  // raw, per round
  Info info;

  void metric(const std::string& name, double value,
              const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  // Records a named check's verdict; `detail` explains a failure.
  void check(const std::string& name, bool ok, const std::string& detail) {
    checks.push_back(name + (ok ? ": ok" : ": FAILED"));
    if (!ok) {
      correct = false;
      failures.push_back(name + ": " + detail);
    }
  }
};

// Fixed inputs of one invocation.
struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

// Peak resident set of the calling process, MB.
double peak_rss_mb();

}  // namespace perfbench
