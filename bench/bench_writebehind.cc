// Write-behind tier benchmark (core/write_behind.h): wall-clock latency and
// throughput of the write+fsync hot loop for both durability classes, at
// 256 B and 4 KB blocks, 1 and 4 threads, with the group-commit interval
// pinned to the paper-shaped T = 100 µs.
//
//   strict  every op pays nt-copy + fence + size stamp before returning
//   group   ops ack from the DRAM staging tier; fsync is absorbed into the
//           epoch cadence (fsyncs_absorbed per op is reported — it should
//           be ~1.0: every fsync folded into the 100 µs group commit)
//
// The bench enables the nvmm Optane wall-clock timing model (persist.h):
// with the counter-only emulation a fence is free, so strict-vs-staged
// comparisons would measure bookkeeping, not durability cost.  Both classes
// run under the same model — strict pays its fences at modeled media
// latency/bandwidth, the staging tier pays them on the persister thread.
// Set SIMURGH_NVMM_OPTANE=0 to measure the raw emulated-DRAM numbers.
//
// Run FROM THE REPO ROOT; writes BENCH_writebehind.json to the cwd.
// Median-rep gated like the other BENCH files: without SIMURGH_BENCH_SMOKE
// the run exits nonzero unless the 4 KB single-thread group-class
// throughput is >= 3x strict (the tier's headline acceptance bar).
//
// SIMURGH_BENCH_SMOKE=1 shrinks the loops and always exits 0.
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_env.h"
#include "core/fs.h"
#include "harness/runner.h"
#include "core/write_behind.h"

using namespace simurgh;

namespace {

using Clock = std::chrono::steady_clock;

struct World {
  std::unique_ptr<nvmm::Device> dev, shm;
  std::unique_ptr<core::FileSystem> fs;
  std::unique_ptr<core::Process> proc;

  World() {
    dev = std::make_unique<nvmm::Device>(768ull << 20);
    shm = std::make_unique<nvmm::Device>(16ull << 20);
    fs = core::FileSystem::format(*dev, *shm);
    proc = fs->open_process(1000, 1000);
    core::WriteBehind* wb = fs->write_behind();
    SIMURGH_CHECK(wb != nullptr);
    // The acceptance configuration: T = 100 µs (the default), with the
    // staging cap lifted above the working set so the numbers measure the
    // tier, not the backpressure fallback (which BENCH-gating would hide).
    wb->set_interval_us(100);
    wb->set_max_staged_bytes(256ull << 20);
    // Pre-fault the staging arena (setup, untimed): first-touch page
    // faults would otherwise dominate the staged hot path whenever the
    // producer bursts ahead of the persister's chunk recycling.
    wb->prewarm_chunks(128ull << 20);
  }
};

struct Sample {
  double ns_per_op = 0;       // aggregate wall / total ops
  double mops = 0;            // throughput, million write+fsync pairs /s
  double absorbed_per_op = 0; // fsyncs_absorbed delta / ops
};

// One rep: `threads` workers, each write+fsync `ops` times into a private
// fresh file of class `cls` (strict files simply never get a class).
Sample run_rep(core::FileSystem& fs, core::Durability cls, int threads,
               std::size_t block_bytes, std::uint64_t ops) {
  std::vector<std::unique_ptr<core::Process>> procs;
  std::vector<int> fds(threads);
  for (int t = 0; t < threads; ++t) {
    procs.push_back(fs.open_process(1000, 1000));
    const std::string path = "/wb" + std::to_string(t);
    auto fd = procs[t]->open(path, core::kOpenCreate | core::kOpenWrite |
                                       core::kOpenAppend);
    SIMURGH_CHECK(fd.is_ok());
    fds[t] = *fd;
    if (cls != core::Durability::strict)
      SIMURGH_CHECK(procs[t]->set_durability(path, cls).is_ok());
  }
  const std::uint64_t absorbed0 = fs.fsstat().fsyncs_absorbed;
  std::vector<char> block(block_bytes, 'w');
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> ts;
  const auto worker = [&](int t) {
    ready.fetch_add(1);
    while (!go.load(std::memory_order_acquire)) {
    }
    for (std::uint64_t i = 0; i < ops; ++i) {
      SIMURGH_CHECK(
          procs[t]->write(fds[t], block.data(), block.size()).is_ok());
      SIMURGH_CHECK(procs[t]->fsync(fds[t]).is_ok());
    }
  };
  for (int t = 0; t < threads; ++t) ts.emplace_back(worker, t);
  while (ready.load() != threads) {
  }
  const auto t0 = Clock::now();
  go.store(true, std::memory_order_release);
  for (auto& th : ts) th.join();
  const auto t1 = Clock::now();
  const std::uint64_t total = ops * static_cast<std::uint64_t>(threads);
  Sample s;
  s.ns_per_op = bench::ns_per_op(t0, t1, total);
  s.mops = 1000.0 / s.ns_per_op;
  s.absorbed_per_op =
      static_cast<double>(fs.fsstat().fsyncs_absorbed - absorbed0) /
      static_cast<double>(total);
  // Teardown outside the timed window: unlink drains any staged remainder.
  for (int t = 0; t < threads; ++t) {
    SIMURGH_CHECK(procs[t]->close(fds[t]).is_ok());
    SIMURGH_CHECK(procs[t]->unlink("/wb" + std::to_string(t)).is_ok());
  }
  return s;
}

Sample median_sample(std::vector<Sample> reps) {
  std::vector<double> ns;
  for (const Sample& s : reps) ns.push_back(s.ns_per_op);
  const double med = bench::median(ns);
  for (const Sample& s : reps)
    if (s.ns_per_op == med) return s;
  return reps.front();
}

const char* cls_name(core::Durability d) {
  switch (d) {
    case core::Durability::strict: return "strict";
    case core::Durability::group: return "group";
  }
  return "?";
}

}  // namespace

int main() {
  // Before any persist-primitive call: the model config is latched at first
  // use.  setenv with overwrite=0 keeps an explicit user override in force.
  setenv("SIMURGH_NVMM_OPTANE", "1", 0);
  const bool smoke = bench::bench_smoke();
  const std::uint64_t ops = smoke ? 48 : 4096;
  const int reps = smoke ? 1 : 5;
  const std::vector<core::Durability> classes = {core::Durability::strict,
                                                 core::Durability::group};
  const std::vector<std::size_t> blocks = {256, 4096};
  const std::vector<int> threads = smoke ? std::vector<int>{1}
                                         : std::vector<int>{1, 4};

  // Fresh mount per class x block x thread arm: staging state, extent
  // caches, and allocator reservations start identical for every arm.
  struct Arm {
    core::Durability cls;
    std::size_t block;
    int threads;
    Sample s;
  };
  std::vector<Arm> arms;
  for (core::Durability cls : classes)
    for (std::size_t b : blocks)
      for (int t : threads) {
        World w;
        std::vector<Sample> rs;
        for (int r = 0; r < reps; ++r)
          rs.push_back(run_rep(*w.fs, cls, t, b, ops));
        arms.push_back(Arm{cls, b, t, median_sample(std::move(rs))});
      }

  auto find = [&](core::Durability cls, std::size_t b, int t) -> const Arm& {
    for (const Arm& a : arms)
      if (a.cls == cls && a.block == b && a.threads == t) return a;
    return arms.front();
  };

  for (const Arm& a : arms)
    std::printf("%-6s %4zuB x%d: %8.0f ns/op  %6.2f Mops/s  "
                "(%.2f fsyncs absorbed/op)\n",
                cls_name(a.cls), a.block, a.threads, a.s.ns_per_op, a.s.mops,
                a.s.absorbed_per_op);

  // Acceptance bar: 4 KB write+fsync, 1 thread, group vs strict >= 3x
  // throughput at T = 100 µs.
  const Arm& s1 = find(core::Durability::strict, 4096, 1);
  const Arm& g1 = find(core::Durability::group, 4096, 1);
  const double speedup = s1.s.ns_per_op / g1.s.ns_per_op;
  std::printf("group vs strict (4KB x1): %.2fx  (bar >= 3x: %s)\n", speedup,
              speedup >= 3.0 ? "PASS" : "FAIL");

  // Cross-check against the strict data path's own bench: the strict arm
  // here is append + fsync, so it must sit in the same regime as
  // BENCH_datapath.json's plain append (reported, not gated — the fence
  // per op and separate runs make a hard bar flappy).
  double datapath_append = std::nan("");
  if (std::FILE* f = std::fopen("BENCH_datapath.json", "r")) {
    std::string text;
    char chunk[4096];
    std::size_t got;
    while ((got = std::fread(chunk, 1, sizeof chunk, f)) > 0)
      text.append(chunk, got);
    std::fclose(f);
    datapath_append = bench::json_number(text, "append1_ns_per_op");
    if (datapath_append == datapath_append)
      std::printf("strict 4KB x1 vs datapath append: %.0f vs %.0f ns/op "
                  "(%.2fx)\n",
                  s1.s.ns_per_op, datapath_append,
                  s1.s.ns_per_op / datapath_append);
  }

  std::FILE* out = std::fopen("BENCH_writebehind.json", "w");
  if (out != nullptr) {
    std::fprintf(out, "{\n");
    bench_env_fields(out);
    std::fprintf(out,
                 "  \"bench\": \"writebehind\",\n"
                 "  \"optane_model\": true,\n"
                 "  \"interval_us\": 100,\n"
                 "  \"ops_per_thread\": %llu,\n"
                 "  \"reps\": %d,\n",
                 (unsigned long long)ops, reps);
    for (const Arm& a : arms)
      std::fprintf(out,
                   "  \"%s_%zu_t%d_ns_per_op\": %.1f,\n"
                   "  \"%s_%zu_t%d_mops\": %.3f,\n"
                   "  \"%s_%zu_t%d_fsyncs_absorbed_per_op\": %.3f,\n",
                   cls_name(a.cls), a.block, a.threads, a.s.ns_per_op,
                   cls_name(a.cls), a.block, a.threads, a.s.mops,
                   cls_name(a.cls), a.block, a.threads, a.s.absorbed_per_op);
    if (datapath_append == datapath_append)
      std::fprintf(out, "  \"datapath_append1_ns_per_op\": %.1f,\n",
                   datapath_append);
    std::fprintf(out,
                 "  \"group_vs_strict_4k_t1\": %.2f,\n"
                 "  \"pass_group_3x\": %s,\n"
                 "  \"smoke\": %s\n}\n",
                 speedup, speedup >= 3.0 ? "true" : "false",
                 smoke ? "true" : "false");
    std::fclose(out);
  }
  if (smoke) return 0;
  return speedup >= 3.0 ? 0 : 1;
}
