// Multi-mount scaling microbenchmark: aggregate ops/s of a mixed
// metadata+data workload with 1, 2, 4, 8 and 16 FileSystem instances
// attached to one nvmm+shm device pair (the paper's N coordinator-free
// processes, §4).  Every mount runs one driver thread in its own
// directory, so the numbers isolate the cost of the *shared* coordination
// state — mount registry heartbeats, the striped shm block reservations,
// the striped free-object stacks and the one cache-generation word every
// operation polls.  `shard_invalidations` counts whole-cache drops after
// that word moved (its name predates the single generation).
//
// Like bench_path_lookup, every mount count runs `reps` interleaved
// repetitions and the scaling gate judges the MEDIAN per-rep ratio: the
// arms of one rep run adjacent in time, so background load inflates all
// of them and mostly cancels out of the ratio, while a best-rep pick
// would cherry-pick the one quiet sample.  Reported throughput per point
// is the median rep too.
//
// The hardware-parallelism ceiling is min(n_mounts, n_cpus): on a 1-CPU
// host every mount count time-slices one core and the ideal aggregate
// scaling is 1.0x, so the gate asks only that added mounts do not
// COLLAPSE aggregate throughput (coordination overhead, not parallel
// speedup — the latter needs cores).  The JSON records n_cpus so readers
// can judge the points against the right ceiling.  Writes
// BENCH_multimount.json.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_env.h"
#include "core/fs.h"
#include "harness/runner.h"

using namespace simurgh;

namespace {

using Clock = std::chrono::steady_clock;

// One driver: create+write+stat+unlink churn under `dir`.  Returns the
// number of file-system operations performed.
std::uint64_t drive(core::FileSystem& fs, const std::string& dir, int iters) {
  auto p = fs.open_process(1000, 1000);
  SIMURGH_CHECK(p->mkdir(dir).is_ok());
  char buf[4096];
  std::memset(buf, 'm', sizeof buf);
  std::uint64_t ops = 1;
  for (int i = 0; i < iters; ++i) {
    const std::string f = dir + "/f" + std::to_string(i % 64);
    auto fd = p->open(f, core::kOpenCreate | core::kOpenWrite);
    SIMURGH_CHECK(fd.is_ok());
    SIMURGH_CHECK(p->write(*fd, buf, sizeof buf).is_ok());
    SIMURGH_CHECK(p->close(*fd).is_ok());
    SIMURGH_CHECK(p->stat(f).is_ok());
    ops += 4;
    if (i % 4 == 3) {
      SIMURGH_CHECK(p->unlink(f).is_ok());
      ++ops;
    }
  }
  return ops;
}

// Shared-state contention telemetry summed over every mount of one run
// (see FsStat in core/fs.h — all four should stay near zero when the
// sharding does its job and no peer recovers or dies).
struct Contention {
  std::uint64_t obj_cas_retries = 0;
  std::uint64_t obj_stripe_steals = 0;
  std::uint64_t reserve_slot_probes = 0;
  std::uint64_t shard_invalidations = 0;
};

struct Sample {
  double ops_per_sec = 0.0;
  Contention contention;
};

Sample run_scale(unsigned n_mounts, int iters) {
  nvmm::Device dev(512ull << 20);
  nvmm::Device shm(16ull << 20);
  std::vector<std::unique_ptr<core::FileSystem>> mounts;
  mounts.push_back(core::FileSystem::format(dev, shm));
  for (unsigned m = 1; m < n_mounts; ++m)
    mounts.push_back(core::FileSystem::mount(dev, shm));

  std::vector<std::uint64_t> ops(n_mounts, 0);
  std::vector<std::thread> threads;
  const auto t0 = Clock::now();
  for (unsigned m = 0; m < n_mounts; ++m)
    threads.emplace_back([&, m] {
      ops[m] = drive(*mounts[m], "/m" + std::to_string(m), iters);
    });
  for (auto& t : threads) t.join();
  const double secs =
      std::chrono::duration_cast<std::chrono::duration<double>>(Clock::now() -
                                                                t0)
          .count();

  Sample s;
  std::uint64_t total = 0;
  for (std::uint64_t o : ops) total += o;
  s.ops_per_sec = static_cast<double>(total) / secs;
  for (auto& fs : mounts) {
    const core::FsStat st = fs->fsstat();
    s.contention.obj_cas_retries += st.obj_cas_retries;
    s.contention.obj_stripe_steals += st.obj_stripe_steals;
    s.contention.reserve_slot_probes += st.reserve_slot_probes;
    s.contention.shard_invalidations += st.shard_invalidations;
    fs->unmount();
  }
  return s;
}

struct Point {
  unsigned mounts;
  double ops_per_sec;      // median rep
  double best_ops_per_sec;  // best rep, for context only
  Contention contention;    // from the median rep
};

}  // namespace

int main() {
  const bool smoke = bench::bench_smoke();
  const int iters = smoke ? 50 : 20000;
  const int reps = smoke ? 1 : 5;
  const std::vector<unsigned> mount_counts = {1u, 2u, 4u, 8u, 16u};
  const unsigned n_cpus = std::max(1u, std::thread::hardware_concurrency());

  // samples[point][rep]
  std::vector<std::vector<Sample>> samples(mount_counts.size());
  for (int r = 0; r < reps; ++r)
    for (std::size_t i = 0; i < mount_counts.size(); ++i)
      samples[i].push_back(run_scale(mount_counts[i], iters));

  std::vector<Point> points;
  for (std::size_t i = 0; i < mount_counts.size(); ++i) {
    std::vector<double> rates;
    for (const Sample& s : samples[i]) rates.push_back(s.ops_per_sec);
    const double med = bench::median(rates);
    Point pt{mount_counts[i], med, *std::max_element(rates.begin(),
                                                     rates.end()), {}};
    // Telemetry from the rep whose rate is the median (ties: first).
    for (const Sample& s : samples[i])
      if (s.ops_per_sec == med) { pt.contention = s.contention; break; }
    points.push_back(pt);
  }

  // Per-rep 1->4 ratio; both arms of a rep ran adjacent in time.
  std::vector<double> ratios_1_to_4;
  for (int r = 0; r < reps; ++r)
    ratios_1_to_4.push_back(samples[2][r].ops_per_sec /
                            samples[0][r].ops_per_sec);
  const double scaling_1_to_4 = bench::median(ratios_1_to_4);
  const double scaling_1_to_16 =
      points.back().ops_per_sec / points.front().ops_per_sec;

  for (const Point& pt : points)
    std::printf("%2u mount%s: %8.0f ops/s aggregate median (best %8.0f, "
                "%7.0f per mount; cas_retries %llu steals %llu probes %llu "
                "invals %llu)\n",
                pt.mounts, pt.mounts == 1 ? " " : "s", pt.ops_per_sec,
                pt.best_ops_per_sec, pt.ops_per_sec / pt.mounts,
                (unsigned long long)pt.contention.obj_cas_retries,
                (unsigned long long)pt.contention.obj_stripe_steals,
                (unsigned long long)pt.contention.reserve_slot_probes,
                (unsigned long long)pt.contention.shard_invalidations);
  std::printf("1 -> 4 mount aggregate scaling: %.2fx median-rep "
              "(1 -> 16: %.2fx) on %u cpu%s — parallel ceiling is "
              "min(mounts, cpus)\n",
              scaling_1_to_4, scaling_1_to_16, n_cpus,
              n_cpus == 1 ? "" : "s");

  std::FILE* out = std::fopen("BENCH_multimount.json", "w");
  if (out != nullptr) {
    std::fprintf(out, "{\n");
    bench_env_fields(out);
    std::fprintf(out,
                 "  \"bench\": \"multimount\",\n"
                 "  \"workload\": \"create+write4k+stat+unlink churn, one "
                 "thread per mount\",\n"
                 "  \"iters_per_mount\": %d,\n"
                 "  \"reps\": %d,\n"
                 "  \"n_cpus\": %u,\n"
                 "  \"points\": [\n",
                 iters, reps, n_cpus);
    for (std::size_t i = 0; i < points.size(); ++i)
      std::fprintf(out,
                   "    {\"mounts\": %u, \"ops_per_sec\": %.0f, "
                   "\"best_ops_per_sec\": %.0f, \"obj_cas_retries\": %llu, "
                   "\"obj_stripe_steals\": %llu, \"reserve_slot_probes\": "
                   "%llu, \"shard_invalidations\": %llu}%s\n",
                   points[i].mounts, points[i].ops_per_sec,
                   points[i].best_ops_per_sec,
                   (unsigned long long)points[i].contention.obj_cas_retries,
                   (unsigned long long)points[i].contention.obj_stripe_steals,
                   (unsigned long long)
                       points[i].contention.reserve_slot_probes,
                   (unsigned long long)
                       points[i].contention.shard_invalidations,
                   i + 1 < points.size() ? "," : "");
    std::fprintf(out,
                 "  ],\n"
                 "  \"aggregate_scaling_1_to_4_median_rep\": %.3f,\n"
                 "  \"aggregate_scaling_1_to_16\": %.3f,\n"
                 "  \"scaling_ceiling_note\": \"ideal aggregate scaling is "
                 "min(mounts, n_cpus)/1; on a 1-cpu host all mount counts "
                 "time-slice one core and ~1.0x is the physical "
                 "ceiling\",\n"
                 "  \"pass_no_collapse_1_to_4\": %s\n"
                 "}\n",
                 scaling_1_to_4, scaling_1_to_16,
                 scaling_1_to_4 >= 0.5 ? "true" : "false");
    std::fclose(out);
  }
  // Smoke proves the binary end to end (every op SIMURGH_CHECKed); the
  // perf gate belongs to the full run on an uninstrumented build.  The
  // full-mode bar is no-collapse: with fewer cores than mounts the extra
  // mounts buy no parallelism, so the gate asks the shared coordination
  // state not to eat more than half the single-mount throughput.
  if (smoke) return 0;
  return scaling_1_to_4 >= 0.5 ? 0 : 1;
}
