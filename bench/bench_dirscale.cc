// Giant-directory scaling microbenchmark: lookup+insert throughput in ONE
// directory swept from 10^3 to 10^6 entries, with the bucketed hash-block
// fan-out (DESIGN.md §10) as the A/B arm — split (default policy) vs
// pre-split (split disabled, the single-chain layout every directory had
// before the fan-out).  Entries are hard links to one seed file so the
// sweep measures directory-chain cost, not inode/data allocation.
//
// Lookups run with the DRAM path-lookup cache disabled: the cache would
// absorb repeated stats of a small working set and hide exactly the
// per-chain probe cost this bench exists to measure (the cache's own value
// is bench_path_lookup's subject).  Inserts keep the cache on — their
// directory cost (slot-probe across the governing chain) dominates either
// way.
//
// Like bench_multimount, every point runs `reps` interleaved repetitions
// and the headline gates judge the MEDIAN per-rep ratio (both arms of a
// rep run adjacent in time, so background noise mostly cancels).  A
// second section drives a thread sweep of mixed create/stat/unlink churn
// against the SAME split directory; on this host the parallel ceiling is
// min(threads, n_cpus), so that gate only rejects collapse (>=0.5x).
// A third section pins per-bucket epoch selectivity via FsStat: post-split
// inserts must bump only bucket-scoped epochs, never the whole directory.
// Writes BENCH_dirscale.json.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bench_env.h"
#include "core/dir_block.h"
#include "core/fs.h"
#include "harness/runner.h"

using namespace simurgh;

namespace {

using Clock = std::chrono::steady_clock;

double secs_since(Clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::duration<double>>(
             Clock::now() - t0)
      .count();
}

std::string ename(std::uint64_t i) { return "e" + std::to_string(i); }

struct ArmSample {
  double insert_ops_per_sec = 0.0;
  double lookup_ops_per_sec = 0.0;
  double combined_ops_per_sec = 0.0;  // (inserts+lookups) / total time
  std::uint64_t chain_blocks = 0;
  std::uint64_t depth = 0;
};

// Builds a directory of `n` link entries under one arm and measures the
// build (insert) and `lookups` random stats (lookup) phases.
ArmSample run_arm(std::uint64_t n, std::uint64_t lookups, bool split) {
  nvmm::Device dev(n >= 500'000 ? (1ull << 30) : (256ull << 20));
  nvmm::Device shm(16ull << 20);
  auto fs = core::FileSystem::format(dev, shm);
  // The default policy is the split arm; bucket_bits == 0 restores the
  // pre-fan-out single-chain layout.
  if (!split) fs->dirops().set_split_params(4, 0);
  auto p = fs->open_process(1000, 1000);
  SIMURGH_CHECK(p->mkdir("/d").is_ok());
  {
    auto fd = p->open("/d/seed", core::kOpenCreate | core::kOpenWrite);
    SIMURGH_CHECK(fd.is_ok());
    SIMURGH_CHECK(p->close(*fd).is_ok());
  }

  ArmSample s;
  const auto t_ins = Clock::now();
  for (std::uint64_t i = 0; i < n; ++i)
    SIMURGH_CHECK(p->link("/d/seed", "/d/" + ename(i)).is_ok());
  const double ins_secs = secs_since(t_ins);
  s.insert_ops_per_sec = static_cast<double>(n) / ins_secs;

  fs->set_lookup_cache_enabled(false);
  std::mt19937_64 rng(0x5172'6768ull ^ n ^ (split ? 1 : 0));
  std::uniform_int_distribution<std::uint64_t> pick(0, n - 1);
  const auto t_lk = Clock::now();
  for (std::uint64_t i = 0; i < lookups; ++i)
    SIMURGH_CHECK(p->stat("/d/" + ename(pick(rng))).is_ok());
  const double lk_secs = secs_since(t_lk);
  s.lookup_ops_per_sec = static_cast<double>(lookups) / lk_secs;
  fs->set_lookup_cache_enabled(true);

  s.combined_ops_per_sec =
      static_cast<double>(n + lookups) / (ins_secs + lk_secs);
  core::Inode* d = fs->inode_at(p->stat("/d")->inode);
  s.chain_blocks = fs->dirops().chain_length(*d);
  s.depth = fs->dirops().dir_depth(*d);
  return s;
}

// Thread sweep: aggregate mixed create/stat/unlink churn in one shared
// split directory pre-populated with `base` entries.
double run_threads(unsigned n_threads, std::uint64_t base, int iters) {
  nvmm::Device dev(256ull << 20);
  nvmm::Device shm(16ull << 20);
  auto fs = core::FileSystem::format(dev, shm);
  auto p = fs->open_process(1000, 1000);
  SIMURGH_CHECK(p->mkdir("/d").is_ok());
  {
    auto fd = p->open("/d/seed", core::kOpenCreate | core::kOpenWrite);
    SIMURGH_CHECK(fd.is_ok());
    SIMURGH_CHECK(p->close(*fd).is_ok());
  }
  for (std::uint64_t i = 0; i < base; ++i)
    SIMURGH_CHECK(p->link("/d/seed", "/d/" + ename(i)).is_ok());

  std::vector<std::thread> threads;
  std::vector<std::uint64_t> ops(n_threads, 0);
  const auto t0 = Clock::now();
  for (unsigned t = 0; t < n_threads; ++t)
    threads.emplace_back([&, t] {
      auto proc = fs->open_process(1000, 1000);
      const std::string mine = "/d/w" + std::to_string(t) + "_";
      for (int i = 0; i < iters; ++i) {
        const std::string f = mine + std::to_string(i % 61);
        auto fd = proc->open(f, core::kOpenCreate | core::kOpenWrite);
        SIMURGH_CHECK(fd.is_ok());
        SIMURGH_CHECK(proc->close(*fd).is_ok());
        SIMURGH_CHECK(
            proc->stat("/d/" + ename((t * 2654435761u + i) % base)).is_ok());
        SIMURGH_CHECK(proc->unlink(f).is_ok());
        ops[t] += 3;
      }
    });
  for (auto& th : threads) th.join();
  const double secs = secs_since(t0);
  std::uint64_t total = 0;
  for (std::uint64_t o : ops) total += o;
  return static_cast<double>(total) / secs;
}

struct EntryPoint {
  std::uint64_t entries = 0;
  ArmSample split, presplit;       // median rep (by combined rate)
  double speedup_insert = 0.0;     // median per-rep ratio
  double speedup_lookup = 0.0;
  double speedup_combined = 0.0;
};

ArmSample median_sample(const std::vector<ArmSample>& reps) {
  std::vector<double> rates;
  for (const ArmSample& s : reps) rates.push_back(s.combined_ops_per_sec);
  const double med = bench::median(rates);
  for (const ArmSample& s : reps)
    if (s.combined_ops_per_sec == med) return s;
  return reps.front();
}

}  // namespace

int main() {
  const bool smoke = bench::bench_smoke();
  const int reps = smoke ? 1 : 3;
  const std::vector<std::uint64_t> entry_sweep =
      smoke ? std::vector<std::uint64_t>{1'000}
            : std::vector<std::uint64_t>{1'000, 10'000, 100'000, 1'000'000};
  const std::vector<unsigned> thread_sweep =
      smoke ? std::vector<unsigned>{1, 2} : std::vector<unsigned>{1, 2, 4};
  const unsigned n_cpus = std::max(1u, std::thread::hardware_concurrency());

  // ---- entry sweep, split vs pre-split, interleaved reps ----
  std::vector<EntryPoint> points;
  for (const std::uint64_t n : entry_sweep) {
    const std::uint64_t lookups = smoke ? 500 : std::min<std::uint64_t>(n, 20'000);
    std::vector<ArmSample> sp, pre;
    std::vector<double> r_ins, r_lk, r_comb;
    for (int r = 0; r < reps; ++r) {
      sp.push_back(run_arm(n, lookups, /*split=*/true));
      pre.push_back(run_arm(n, lookups, /*split=*/false));
      r_ins.push_back(sp.back().insert_ops_per_sec /
                      pre.back().insert_ops_per_sec);
      r_lk.push_back(sp.back().lookup_ops_per_sec /
                     pre.back().lookup_ops_per_sec);
      r_comb.push_back(sp.back().combined_ops_per_sec /
                       pre.back().combined_ops_per_sec);
    }
    EntryPoint pt;
    pt.entries = n;
    pt.split = median_sample(sp);
    pt.presplit = median_sample(pre);
    pt.speedup_insert = bench::median(r_ins);
    pt.speedup_lookup = bench::median(r_lk);
    pt.speedup_combined = bench::median(r_comb);
    points.push_back(pt);
    std::printf(
        "%8llu entries: split %8.0f ins/s %8.0f lk/s (depth %llu, %llu "
        "blocks) | pre-split %8.0f ins/s %8.0f lk/s (%llu blocks) | "
        "speedup ins %.1fx lk %.1fx combined %.1fx\n",
        (unsigned long long)n, pt.split.insert_ops_per_sec,
        pt.split.lookup_ops_per_sec, (unsigned long long)pt.split.depth,
        (unsigned long long)pt.split.chain_blocks,
        pt.presplit.insert_ops_per_sec, pt.presplit.lookup_ops_per_sec,
        (unsigned long long)pt.presplit.chain_blocks, pt.speedup_insert,
        pt.speedup_lookup, pt.speedup_combined);
  }

  // ---- thread sweep over one shared split directory ----
  const std::uint64_t churn_base = smoke ? 1'000 : 100'000;
  const int churn_iters = smoke ? 50 : 5'000;
  std::vector<std::vector<double>> thread_samples(thread_sweep.size());
  for (int r = 0; r < reps; ++r)
    for (std::size_t i = 0; i < thread_sweep.size(); ++i)
      thread_samples[i].push_back(
          run_threads(thread_sweep[i], churn_base, churn_iters));
  std::vector<double> thread_medians;
  for (std::size_t i = 0; i < thread_sweep.size(); ++i) {
    thread_medians.push_back(bench::median(thread_samples[i]));
    std::printf("%u thread%s: %8.0f ops/s aggregate median in one shared "
                "%llu-entry dir\n",
                thread_sweep[i], thread_sweep[i] == 1 ? " " : "s",
                thread_medians[i], (unsigned long long)churn_base);
  }
  std::vector<double> collapse_ratios;
  for (int r = 0; r < reps; ++r)
    collapse_ratios.push_back(thread_samples.back()[r] /
                              thread_samples.front()[r]);
  const double no_collapse = bench::median(collapse_ratios);

  // ---- per-bucket epoch selectivity ----
  std::uint64_t scoped_delta = 0, full_delta = 0;
  {
    nvmm::Device dev(256ull << 20);
    nvmm::Device shm(16ull << 20);
    auto fs = core::FileSystem::format(dev, shm);
    auto p = fs->open_process(1000, 1000);
    SIMURGH_CHECK(p->mkdir("/d").is_ok());
    auto fd = p->open("/d/seed", core::kOpenCreate | core::kOpenWrite);
    SIMURGH_CHECK(fd.is_ok());
    SIMURGH_CHECK(p->close(*fd).is_ok());
    for (std::uint64_t i = 0; i < 5'000; ++i)
      SIMURGH_CHECK(p->link("/d/seed", "/d/" + ename(i)).is_ok());
    SIMURGH_CHECK(fs->dirops().dir_depth(
                      *fs->inode_at(p->stat("/d")->inode)) > 0);
    const core::FsStat before = fs->fsstat();
    for (std::uint64_t i = 0; i < 1'000; ++i)
      SIMURGH_CHECK(p->link("/d/seed", "/d/post_" + std::to_string(i)).is_ok());
    const core::FsStat after = fs->fsstat();
    scoped_delta = after.dir_epoch_bumps_scoped - before.dir_epoch_bumps_scoped;
    full_delta = after.dir_epoch_bumps_full - before.dir_epoch_bumps_full;
  }
  std::printf("epoch selectivity: 1000 post-split inserts -> %llu "
              "bucket-scoped bumps, %llu whole-directory bumps\n",
              (unsigned long long)scoped_delta,
              (unsigned long long)full_delta);

  const double speedup_at_max = points.back().speedup_combined;
  const bool pass_speedup = smoke || speedup_at_max >= 10.0;
  const bool pass_no_collapse = no_collapse >= 0.5;
  const bool pass_epochs = scoped_delta >= 1'000 && full_delta == 0;
  std::printf("gates: %.1fx combined speedup at %llu entries (need >=10), "
              "%u-thread no-collapse %.2fx (need >=0.5), epoch selectivity "
              "%s — on %u cpu%s\n",
              speedup_at_max, (unsigned long long)entry_sweep.back(),
              thread_sweep.back(), no_collapse,
              pass_epochs ? "pass" : "FAIL", n_cpus, n_cpus == 1 ? "" : "s");

  std::FILE* out = std::fopen("BENCH_dirscale.json", "w");
  if (out != nullptr) {
    std::fprintf(out, "{\n");
    bench_env_fields(out);
    std::fprintf(out,
                 "  \"bench\": \"dirscale\",\n"
                 "  \"workload\": \"N hard links into one directory, then "
                 "random uncached stats; split (bucketed fan-out, default "
                 "policy) vs pre-split (single chain) arms\",\n"
                 "  \"reps\": %d,\n"
                 "  \"n_cpus\": %u,\n"
                 "  \"entry_points\": [\n",
                 reps, n_cpus);
    for (std::size_t i = 0; i < points.size(); ++i) {
      const EntryPoint& pt = points[i];
      std::fprintf(
          out,
          "    {\"entries\": %llu,\n"
          "     \"split\": {\"insert_ops_per_sec\": %.0f, "
          "\"lookup_ops_per_sec\": %.0f, \"chain_blocks\": %llu, "
          "\"depth\": %llu},\n"
          "     \"presplit\": {\"insert_ops_per_sec\": %.0f, "
          "\"lookup_ops_per_sec\": %.0f, \"chain_blocks\": %llu},\n"
          "     \"speedup_insert_median_rep\": %.2f,\n"
          "     \"speedup_lookup_median_rep\": %.2f,\n"
          "     \"speedup_combined_median_rep\": %.2f}%s\n",
          (unsigned long long)pt.entries, pt.split.insert_ops_per_sec,
          pt.split.lookup_ops_per_sec,
          (unsigned long long)pt.split.chain_blocks,
          (unsigned long long)pt.split.depth, pt.presplit.insert_ops_per_sec,
          pt.presplit.lookup_ops_per_sec,
          (unsigned long long)pt.presplit.chain_blocks, pt.speedup_insert,
          pt.speedup_lookup, pt.speedup_combined,
          i + 1 < points.size() ? "," : "");
    }
    std::fprintf(out,
                 "  ],\n"
                 "  \"thread_points\": [\n");
    for (std::size_t i = 0; i < thread_sweep.size(); ++i)
      std::fprintf(out,
                   "    {\"threads\": %u, \"ops_per_sec\": %.0f}%s\n",
                   thread_sweep[i], thread_medians[i],
                   i + 1 < thread_sweep.size() ? "," : "");
    std::fprintf(
        out,
        "  ],\n"
        "  \"thread_no_collapse_median_rep\": %.3f,\n"
        "  \"epoch_bumps_scoped_per_1000_postsplit_inserts\": %llu,\n"
        "  \"epoch_bumps_full_per_1000_postsplit_inserts\": %llu,\n"
        "  \"scaling_ceiling_note\": \"ideal thread scaling is "
        "min(threads, n_cpus)/1; on a 1-cpu host all thread counts "
        "time-slice one core and ~1.0x is the physical ceiling\",\n"
        "  \"pass_speedup_10x_at_max_entries\": %s,\n"
        "  \"pass_thread_no_collapse\": %s,\n"
        "  \"pass_epoch_selectivity\": %s\n"
        "}\n",
        no_collapse, (unsigned long long)scoped_delta,
        (unsigned long long)full_delta, pass_speedup ? "true" : "false",
        pass_no_collapse ? "true" : "false", pass_epochs ? "true" : "false");
    std::fclose(out);
  }
  // Smoke proves the binary end to end (every op SIMURGH_CHECKed); the
  // perf gates belong to the full run on an uninstrumented build.
  if (smoke) return 0;
  return (pass_speedup && pass_no_collapse && pass_epochs) ? 0 : 1;
}
