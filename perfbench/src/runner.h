// One benchmark run: set up, warm up, measure in a closed loop, then
// unmount, remount, time recovery, fsck and re-read everything.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  // Traced run: half the time untraced (the overhead baseline), half
  // traced; reports the per-layer metrics instead of the end-to-end ones.
  bool trace = false;
  bool tiny = false;  // self-test sizes
  std::string spans_out;  // traced run: span dump path (empty = none)
  bool flip_byte = false;  // self-test: corrupt one live byte before the check
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunReport {
  bool correct = false;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t check_errors = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  // human-readable detail lines
};

[[nodiscard]] bool known_workload(const std::string& name);
RunReport run_benchmark(const RunConfig& cfg);
// The result object: {"correct", "attempted", "failed", "metrics"}.
std::string report_json(const RunReport& r);

}  // namespace perfbench
