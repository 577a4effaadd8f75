// Service-mode data-path overhead: the DESIGN.md §13 acceptance gate.
//
// Service mode arbitrates namespace/allocation mutations through the owner
// mount, but 4 KB reads and writes keep the direct NVMM path — so their
// latency from a CLIENT mount must stay within 1.15x of plain decentralized
// mode.  Two arms over identical worlds:
//
//   direct    one mount, no service mode — the paper's baseline data path.
//   service   two mounts, the first owns the arbiter seat, and the CLIENT
//             (second mount) runs the same 4 KB loops.
//
// Each arm preallocates the file (so the measured loops are pure overwrite/
// read with no carve traffic), then times ops/rep overwrites and reads;
// the gating statistic is the median across reps.  The client's FsStat
// svc_requests delta across the measured loops is reported as proof the
// data path generated no per-op ring traffic.
//
// Run FROM THE REPO ROOT; writes BENCH_service.json to the cwd.
// SIMURGH_BENCH_SMOKE=1 shrinks the loops and skips the gate (CI liveness
// only); the full run exits non-zero when a ratio exceeds 1.15.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_env.h"
#include "core/fs.h"
#include "harness/runner.h"

using namespace simurgh;

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::size_t kBlock = 4096;

struct World {
  std::unique_ptr<nvmm::Device> dev, shm;
  std::unique_ptr<core::FileSystem> fs_owner;   // also the only fs in direct
  std::unique_ptr<core::FileSystem> fs_client;  // null in the direct arm
  std::unique_ptr<core::Process> proc;          // runs the measured loops

  explicit World(bool service) {
    dev = std::make_unique<nvmm::Device>(768ull << 20);
    shm = std::make_unique<nvmm::Device>(16ull << 20);
    fs_owner = core::FileSystem::format(*dev, *shm);
    if (service) {
      if (!fs_owner->enable_service_mode().is_ok()) std::abort();
      fs_client = core::FileSystem::mount(*dev, *shm);
      if (!fs_client->enable_service_mode().is_ok()) std::abort();
      proc = fs_client->open_process(1000, 1000);
    } else {
      proc = fs_owner->open_process(1000, 1000);
    }
  }
  core::FileSystem& measured_fs() {
    return fs_client ? *fs_client : *fs_owner;
  }
};

struct ArmResult {
  double write_ns = 0;
  double read_ns = 0;
  std::uint64_t svc_requests_during_io = 0;
};

// One world, `reps` reps of ops-sized 4 KB overwrite + read loops.
ArmResult run_arm(bool service, std::uint64_t ops, int reps,
                  std::uint64_t file_blocks) {
  World w(service);
  core::Process& p = *w.proc;
  auto fd = p.open("/bench", core::kOpenCreate | core::kOpenRead |
                                 core::kOpenWrite);
  if (!fd.is_ok()) std::abort();
  std::vector<char> block(kBlock, 'b');
  // Preallocate: every measured op lands on an existing extent, so the
  // loops carry no allocation (and in the service arm, no carve) traffic.
  for (std::uint64_t b = 0; b < file_blocks; ++b)
    if (!p.pwrite(*fd, block.data(), kBlock, b * kBlock).is_ok())
      std::abort();

  const std::uint64_t req_before = w.measured_fs().fsstat().svc_requests;
  std::vector<double> wns, rns;
  std::uint64_t x = 88172645463325252ull;  // xorshift block picker
  for (int r = 0; r < reps; ++r) {
    auto t0 = Clock::now();
    for (std::uint64_t i = 0; i < ops; ++i) {
      x ^= x << 13; x ^= x >> 7; x ^= x << 17;
      const std::uint64_t b = x % file_blocks;
      if (!p.pwrite(*fd, block.data(), kBlock, b * kBlock).is_ok())
        std::abort();
    }
    auto t1 = Clock::now();
    wns.push_back(bench::ns_per_op(t0, t1, ops));

    t0 = Clock::now();
    for (std::uint64_t i = 0; i < ops; ++i) {
      x ^= x << 13; x ^= x >> 7; x ^= x << 17;
      const std::uint64_t b = x % file_blocks;
      if (!p.pread(*fd, block.data(), kBlock, b * kBlock).is_ok())
        std::abort();
    }
    t1 = Clock::now();
    rns.push_back(bench::ns_per_op(t0, t1, ops));
  }
  ArmResult res;
  res.write_ns = bench::median(wns);
  res.read_ns = bench::median(rns);
  res.svc_requests_during_io =
      w.measured_fs().fsstat().svc_requests - req_before;
  return res;
}

}  // namespace

int main() {
  const bool smoke = bench::bench_smoke();
  const std::uint64_t ops = smoke ? 64 : 20'000;
  const int reps = smoke ? 2 : 5;
  const std::uint64_t file_blocks = smoke ? 16 : 1024;  // 64 KB / 4 MB file

  const ArmResult direct = run_arm(/*service=*/false, ops, reps, file_blocks);
  const ArmResult service = run_arm(/*service=*/true, ops, reps, file_blocks);

  const double wr_ratio = service.write_ns / direct.write_ns;
  const double rd_ratio = service.read_ns / direct.read_ns;
  const bool pass = wr_ratio <= 1.15 && rd_ratio <= 1.15;

  std::printf("4K overwrite: direct %.0f ns/op, service-client %.0f ns/op "
              "(ratio %.3f)\n",
              direct.write_ns, service.write_ns, wr_ratio);
  std::printf("4K read:      direct %.0f ns/op, service-client %.0f ns/op "
              "(ratio %.3f)\n",
              direct.read_ns, service.read_ns, rd_ratio);
  std::printf("client ring requests during measured IO: %llu\n",
              (unsigned long long)service.svc_requests_during_io);
  std::printf("bar (both ratios <= 1.15): %s\n", pass ? "PASS" : "FAIL");

  std::FILE* out = std::fopen("BENCH_service.json", "w");
  if (out != nullptr) {
    std::fprintf(out, "{\n");
    bench_env_fields(out);
    std::fprintf(out,
                 "  \"bench\": \"service\",\n"
                 "  \"workload\": \"random 4 KB overwrite + read on a "
                 "preallocated file; direct mount vs service-mode client\",\n"
                 "  \"block_bytes\": %zu,\n"
                 "  \"ops_per_rep\": %llu,\n"
                 "  \"reps\": %d,\n"
                 "  \"direct_write_ns_per_op\": %.1f,\n"
                 "  \"direct_read_ns_per_op\": %.1f,\n"
                 "  \"service_write_ns_per_op\": %.1f,\n"
                 "  \"service_read_ns_per_op\": %.1f,\n"
                 "  \"write_ratio_median_rep\": %.3f,\n"
                 "  \"read_ratio_median_rep\": %.3f,\n"
                 "  \"client_ring_requests_during_io\": %llu,\n"
                 "  \"pass_ratio_1_15\": %s,\n"
                 "  \"smoke\": %s\n}\n",
                 kBlock, (unsigned long long)ops, reps, direct.write_ns,
                 direct.read_ns, service.write_ns, service.read_ns, wr_ratio,
                 rd_ratio,
                 (unsigned long long)service.svc_requests_during_io,
                 pass ? "true" : "false", smoke ? "true" : "false");
    std::fclose(out);
  }
  if (smoke) return 0;
  return pass ? 0 : 1;
}
