// Figure/table harness: sweeps (backend x thread count) and prints the
// series a paper figure shows.  Every data point builds a fresh SimWorld
// and backend so no virtual-time reservations leak between points.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "baselines/fs_backend.h"
#include "common/table.h"
#include "workloads/fxmark.h"

namespace simurgh::bench {

struct SweepPoint {
  int threads = 0;
  double value = 0;  // ops/sec unless stated otherwise
};

struct SweepSeries {
  std::string backend;
  std::vector<SweepPoint> points;
};

// True when SIMURGH_BENCH_SMOKE is set (CI's bench-smoke label): benches
// shrink to a sliver and only prove they still run end to end.
bool bench_smoke();

// Scale knob: SIMURGH_BENCH_SCALE (default 1.0) multiplies op counts and
// file-set sizes; use >1 for longer, more stable runs.
double bench_scale();

// Median across reps — the gating statistic every BENCH_*.json uses (a
// best-of-reps min rewards one lucky scheduling window; the median is what
// a re-run actually reproduces).
double median(std::vector<double> v);

// Wall-clock nanoseconds per op over [a, b).
double ns_per_op(std::chrono::steady_clock::time_point a,
                 std::chrono::steady_clock::time_point b, std::uint64_t n);

// Minimal flat-JSON number scraper (committed BENCH_*.json baselines):
// finds "key": <number> and returns the number, or nan.
double json_number(const std::string& text, const std::string& key);

// Thread counts of the paper's sweeps (1..10 on the 10-core Xeon);
// {1, 2} in smoke mode.
std::vector<int> sweep_threads();

// Runs one FxMark panel across backends and thread counts.
std::vector<SweepSeries> sweep_fxmark(FxOp op, FxConfig base,
                                      const std::vector<Backend>& backends,
                                      const std::vector<int>& threads);

// Renders a sweep as a table: one row per backend, one column per count.
Table sweep_table(const std::string& title,
                  const std::vector<SweepSeries>& series,
                  const std::vector<int>& threads);

}  // namespace simurgh::bench
