// Path-resolution microbenchmark for the shared DRAM lookup cache
// (core/lookup_cache.h): real wall-clock time of the real FileSystem, not
// the virtual-clock model.  A/B compares warm depth-8 walks with the cache
// on vs off (the acceptance bar is >= 2x), reports the warm hit rate
// (bar: > 90%), exercises the epoch-conflict path with a concurrent
// renamer, and writes BENCH_pathwalk.json next to the working directory.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_env.h"
#include "core/fs.h"
#include "harness/runner.h"

using namespace simurgh;

namespace {

using Clock = std::chrono::steady_clock;

// Times `iters` stats of every path in `paths` (cache pre-warmed by one
// untimed pass when `warm` is set).
double time_stats(core::Process& p, const std::vector<std::string>& paths,
                  int iters, bool warm) {
  if (warm)
    for (const auto& s : paths) SIMURGH_CHECK(p.stat(s).is_ok());
  const auto t0 = Clock::now();
  std::uint64_t n = 0;
  for (int i = 0; i < iters; ++i)
    for (const auto& s : paths) {
      SIMURGH_CHECK(p.stat(s).is_ok());
      ++n;
    }
  return bench::ns_per_op(t0, Clock::now(), n);
}

}  // namespace

int main() {
  nvmm::Device dev(256ull << 20);
  nvmm::Device shm(16ull << 20);
  auto fs = core::FileSystem::format(dev, shm);
  auto proc = fs->open_process(1000, 1000);
  core::Process& p = *proc;

  // Depth-8 tree: /p1/p2/.../p8 holding 64 files.
  std::string dir;
  for (int d = 1; d <= 8; ++d) {
    dir += "/p" + std::to_string(d);
    SIMURGH_CHECK(p.mkdir(dir).is_ok());
  }
  std::vector<std::string> deep;
  for (int i = 0; i < 64; ++i) {
    deep.push_back(dir + "/f" + std::to_string(i));
    auto fd = p.open(deep.back(), core::kOpenCreate | core::kOpenWrite);
    SIMURGH_CHECK(fd.is_ok());
    SIMURGH_CHECK(p.close(*fd).is_ok());
  }

  // Smoke mode (CI's bench-smoke label) only proves the binary runs.
  const bool smoke = bench::bench_smoke();
  const int iters = smoke ? 50 : 2000;  // x64 paths = 128k stats per arm
  // Best-of-N, interleaved to defeat drift.  Smoke keeps the full rep count:
  // each rep is well under a millisecond there, and a single sample is noisy
  // enough to flap around the 2x acceptance bar on a loaded CI machine.
  const int reps = 5;

  // --- A/B: warm depth-8 walks, cache off vs on ---
  fs->set_lookup_cache_enabled(true);
  fs->lookup_cache().clear();
  fs->lookup_cache().reset_stats();
  fs->path_cache().clear();
  fs->path_cache().reset_stats();
  const double ns_cold = time_stats(p, deep, 1, /*warm=*/false);
  fs->lookup_cache().reset_stats();
  fs->path_cache().reset_stats();

  // Interleave the arms and keep the best of each: the numbers of interest
  // are the code paths' cost, not whatever else the machine was doing.  The
  // pass/fail ratio is judged per rep — the two arms of one rep run adjacent
  // in time, so background load inflates both and cancels out of the ratio,
  // where a cross-rep min/min can pair a quiet uncached sample with a noisy
  // cached one and flap around the bar on a busy CI machine.  The gate takes
  // the MEDIAN per-rep ratio: the max would cherry-pick the single most
  // favorable rep and let a real cache regression pass on one rep whose
  // uncached arm caught background load.
  double ns_off = 1e300, ns_on = 1e300;
  std::vector<double> ratios;
  for (int r = 0; r < reps; ++r) {
    fs->set_lookup_cache_enabled(false);
    const double off = time_stats(p, deep, iters, /*warm=*/true);
    fs->set_lookup_cache_enabled(true);  // contents survived the A arm
    const double on = time_stats(p, deep, iters, /*warm=*/true);
    ns_off = std::min(ns_off, off);
    ns_on = std::min(ns_on, on);
    ratios.push_back(off / on);
  }
  std::sort(ratios.begin(), ratios.end());
  const double median_ratio = ratios[ratios.size() / 2];
  const double best_ratio = ratios.back();
  // Each warm stat is one directory-path hit (the entry for /p1/.../p8,
  // shared by all 64 files) plus one per-component probe for the leaf.
  // The warm hit rate counts both layers.
  const core::LookupCacheStats wlc = fs->lookup_cache().stats();
  const core::LookupCacheStats wpc = fs->path_cache().stats();
  core::LookupCacheStats warm;
  warm.hits = wlc.hits + wpc.hits;
  warm.misses = wlc.misses + wpc.misses;
  warm.conflicts = wlc.conflicts + wpc.conflicts;
  warm.fills = wlc.fills + wpc.fills;
  const double hit_rate =
      static_cast<double>(warm.hits) /
      static_cast<double>(warm.hits + warm.misses + warm.conflicts);
  const double fp_hit_rate =
      static_cast<double>(wpc.hits) /
      static_cast<double>(wpc.hits + wpc.misses + wpc.conflicts);
  const double speedup = median_ratio;

  // --- churn: stat threads racing a renamer; conflicts must stay safe ---
  fs->lookup_cache().reset_stats();
  fs->path_cache().reset_stats();
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> churn_stats{0};
  std::thread renamer([&] {
    auto rp = fs->open_process(1000, 1000);
    const std::string a = dir + "/flip_a", b = dir + "/flip_b";
    auto fd = rp->open(a, core::kOpenCreate | core::kOpenWrite);
    SIMURGH_CHECK(fd.is_ok());
    SIMURGH_CHECK(rp->close(*fd).is_ok());
    while (!stop.load(std::memory_order_relaxed)) {
      SIMURGH_CHECK(rp->rename(a, b).is_ok());
      SIMURGH_CHECK(rp->rename(b, a).is_ok());
    }
  });
  std::vector<std::thread> statters;
  for (int t = 0; t < 4; ++t)
    statters.emplace_back([&] {
      auto sp = fs->open_process(1000, 1000);
      std::uint64_t ok = 0;
      for (int i = 0; i < (smoke ? 500 : 50000); ++i) {
        // Either name may or may not exist at any instant, but a hit must
        // never be stale: a successful stat always carries a live inode.
        for (const char* leaf : {"/flip_a", "/flip_b"}) {
          auto st = sp->stat(dir + leaf);
          if (st.is_ok()) {
            SIMURGH_CHECK(st->inode != 0);
            ++ok;
          }
        }
      }
      churn_stats.fetch_add(ok, std::memory_order_relaxed);
    });
  for (auto& t : statters) t.join();
  stop.store(true);
  renamer.join();
  const core::LookupCacheStats clc = fs->lookup_cache().stats();
  const core::LookupCacheStats cpc = fs->path_cache().stats();
  core::LookupCacheStats churn;
  churn.conflicts = clc.conflicts + cpc.conflicts;

  std::printf("depth-8 warm stat:  uncached %.0f ns/op, cached %.0f ns/op "
              "(cold fill pass %.0f) -> %.2fx median-rep (best %.2fx)\n",
              ns_off, ns_on, ns_cold, speedup, best_ratio);
  std::printf("warm hit rate: %.2f%%  (hits %llu, misses %llu, conflicts "
              "%llu, fills %llu; directory-path layer %.2f%%)\n",
              hit_rate * 100.0, (unsigned long long)warm.hits,
              (unsigned long long)warm.misses,
              (unsigned long long)warm.conflicts,
              (unsigned long long)warm.fills, fp_hit_rate * 100.0);
  std::printf("rename churn: %llu live stats, %llu epoch conflicts, no "
              "stale hit observed\n",
              (unsigned long long)churn_stats.load(),
              (unsigned long long)churn.conflicts);
  std::printf("expectation: >=2x warm speedup, >90%% warm hit rate\n");

  std::FILE* out = std::fopen("BENCH_pathwalk.json", "w");
  if (out != nullptr) {
    std::fprintf(out, "{\n");
    bench_env_fields(out);
    std::fprintf(
        out,
        "  \"bench\": \"path_lookup\",\n"
        "  \"tree\": {\"depth\": 8, \"files\": 64},\n"
        "  \"warm_ns_per_op_uncached\": %.1f,\n"
        "  \"warm_ns_per_op_cached\": %.1f,\n"
        "  \"cold_fill_ns_per_op\": %.1f,\n"
        "  \"speedup_median_rep\": %.2f,\n"
        "  \"speedup_best_rep\": %.2f,\n"
        "  \"speedup_min_over_min\": %.2f,\n"
        "  \"warm_hit_rate\": %.4f,\n"
        "  \"warm_hit_rate_pathcache\": %.4f,\n"
        "  \"warm_hits\": %llu,\n"
        "  \"warm_misses\": %llu,\n"
        "  \"warm_conflicts\": %llu,\n"
        "  \"churn_conflicts\": %llu,\n"
        "  \"pass_speedup_2x\": %s,\n"
        "  \"pass_hit_rate_90\": %s\n"
        "}\n",
        ns_off, ns_on, ns_cold, speedup, best_ratio, ns_off / ns_on, hit_rate,
        fp_hit_rate,
        (unsigned long long)warm.hits, (unsigned long long)warm.misses,
        (unsigned long long)warm.conflicts,
        (unsigned long long)churn.conflicts,
        speedup >= 2.0 ? "true" : "false",
        hit_rate > 0.9 ? "true" : "false");
    std::fclose(out);
  }
  // Smoke mode gates only on correctness (hit rate): sanitizer builds run
  // this label too, and their instrumentation compresses the cached vs
  // uncached gap right onto the 2x bar — the perf acceptance belongs to the
  // full run on an uninstrumented build.
  if (smoke) return hit_rate > 0.9 ? 0 : 1;
  return speedup >= 2.0 && hit_rate > 0.9 ? 0 : 1;
}
