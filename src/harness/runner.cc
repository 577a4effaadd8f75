#include "harness/runner.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>

namespace simurgh::bench {

bool bench_smoke() {
  // pmlint: allow(env-read) bench sizing only; the file system never reads it
  const char* s = std::getenv("SIMURGH_BENCH_SMOKE");
  return s != nullptr && s[0] != '\0' && s[0] != '0';
}

double bench_scale() {
  // pmlint: allow(env-read) bench sizing only; the file system never reads it
  if (const char* s = std::getenv("SIMURGH_BENCH_SCALE")) {
    const double v = std::atof(s);
    if (v > 0) return v;
  }
  // Smoke runs (CI's bench-smoke label) only prove the binary still works;
  // shrink every workload to a sliver.
  if (bench_smoke()) return 0.02;
  return 1.0;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

double ns_per_op(std::chrono::steady_clock::time_point a,
                 std::chrono::steady_clock::time_point b, std::uint64_t n) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count() /
         static_cast<double>(n);
}

double json_number(const std::string& text, const std::string& key) {
  const std::string needle = "\"" + key + "\"";
  const std::size_t k = text.find(needle);
  if (k == std::string::npos) return std::nan("");
  const std::size_t colon = text.find(':', k);
  if (colon == std::string::npos) return std::nan("");
  return std::strtod(text.c_str() + colon + 1, nullptr);
}

std::vector<int> sweep_threads() {
  if (bench_smoke()) return {1, 2};
  return {1, 2, 4, 6, 8, 10};
}

std::vector<SweepSeries> sweep_fxmark(FxOp op, FxConfig base,
                                      const std::vector<Backend>& backends,
                                      const std::vector<int>& threads) {
  std::vector<SweepSeries> out;
  for (Backend b : backends) {
    SweepSeries series;
    series.backend = backend_name(b);
    for (int n : threads) {
      sim::SimWorld world;
      auto fs = make_backend(b, world);
      FxConfig cfg = base;
      cfg.threads = n;
      series.points.push_back({n, run_fxmark(*fs, op, cfg)});
    }
    out.push_back(std::move(series));
  }
  return out;
}

Table sweep_table(const std::string& title,
                  const std::vector<SweepSeries>& series,
                  const std::vector<int>& threads) {
  Table t(title);
  std::vector<std::string> header{"backend"};
  for (int n : threads) header.push_back(std::to_string(n) + "T");
  t.header(std::move(header));
  for (const SweepSeries& s : series) {
    std::vector<std::string> row{s.backend};
    for (const SweepPoint& p : s.points)
      row.push_back(p.value > 0 ? Table::num(p.value) : "n/a");
    t.row(std::move(row));
  }
  return t;
}

}  // namespace simurgh::bench
