// Shared vocabulary of the perfbench workloads: op classes, the content
// pattern every written byte follows, the mounted world a workload runs
// in, and the Workload interface the runner drives.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "common/hash.h"
#include "core/fs.h"
#include "nvmm/device.h"

namespace perfbench {

namespace core = simurgh::core;
namespace nvmm = simurgh::nvmm;
using Clock = std::chrono::steady_clock;

inline std::uint64_t ns_between(Clock::time_point a,
                                Clock::time_point b) noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

// Every workload op belongs to exactly one class; latencies are reported
// per class and over all ops.
enum class OpClass : std::uint8_t { read = 0, write = 1, lookup = 2, mutate = 3 };
constexpr int kClasses = 4;
constexpr const char* kClassNames[kClasses] = {"read", "write", "lookup",
                                               "mutate"};

// One issued op as the runner sees it.  `ns` covers only the file-system
// calls; building the payload and checking what came back lie outside it.
struct Op {
  OpClass cls = OpClass::read;
  std::uint64_t ns = 0;
  bool ok = true;  // no unexpected error and every byte read matched
  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_written = 0;
};

// ---- content pattern ----
// Byte `off` of a file version is a function of (file id, generation,
// offset), so a read can be checked without keeping the data: a lost write,
// a misplaced block, stale data from a recycled block and a flipped bit all
// break it.  Generated eight bytes at a time.
inline std::uint64_t pattern_key(std::uint64_t fid, std::uint64_t gen) {
  return simurgh::mix64(fid * 0x100000001b3ull ^ (gen << 20) ^ 0x5bd1e995ull);
}
void fill_pattern(void* dst, std::size_t n, std::uint64_t key,
                  std::uint64_t off);
[[nodiscard]] bool check_pattern(const void* src, std::size_t n,
                                 std::uint64_t key, std::uint64_t off);

// Flips one byte of the device copy of `expected` (the first bytes of a
// live file's data, which the pattern makes unique) — the self-test's
// stand-in for media corruption.  Returns whether the bytes were found.
bool flip_device_byte(nvmm::Device& dev, const void* expected,
                      std::size_t len);

// ---- the mounted world ----
// One NVMM device and one shared-DRAM device.  `owner` formatted them; in
// service mode `client` is a second mount of the same devices in the same
// process and the measured Process lives on it.
struct World {
  World(std::size_t nvmm_bytes, bool service);
  ~World();
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  [[nodiscard]] core::FileSystem& measured() {
    return client ? *client : *owner;
  }
  // Clean unmount of every mount (client first); Processes go first.
  void unmount_all();

  std::unique_ptr<nvmm::Device> dev, shm;
  std::unique_ptr<core::FileSystem> owner;
  std::unique_ptr<core::FileSystem> client;
  std::unique_ptr<core::Process> populate;  // setup-time process (owner)
  std::unique_ptr<core::Process> proc;      // the measured client process
};

constexpr std::uint32_t kUid = 1000;
constexpr std::uint32_t kGid = 1000;

class Tracer;

struct VerifyResult {
  std::uint64_t checked = 0;     // files (and directories) re-read
  std::uint64_t mismatches = 0;  // wrong bytes, sizes, names or errors
};

// A workload: a seeded op generator with a model of the expected file
// system state.  The runner calls setup() once, step() in a closed loop,
// then release() before remounting and verify() against the new mount.
class Workload {
 public:
  virtual ~Workload() = default;

  // Maps the devices, formats, populates.  No warm-up (the runner does it).
  virtual void setup() = 0;
  [[nodiscard]] virtual std::uint64_t warmup_ops() const = 0;
  // Issues one op; `tr` is null in untraced runs.
  virtual Op step(Tracer* tr) = 0;

  [[nodiscard]] virtual World& world() = 0;
  // Closes every descriptor the workload holds and unmounts cleanly.
  virtual void release() = 0;
  // Re-reads every live file (and listing) through `p`, a process on a
  // fresh mount of the same devices.
  virtual VerifyResult verify(core::Process& p) = 0;
  // Sum of live file sizes in the model.
  [[nodiscard]] virtual std::uint64_t live_user_bytes() const = 0;
  // Self-test hook: corrupts one byte of a live file's data on the device.
  virtual bool flip_live_byte() = 0;

  // Application counters (minikv); zero elsewhere.
  [[nodiscard]] virtual std::uint64_t app_flushes() const { return 0; }
  [[nodiscard]] virtual std::uint64_t app_compactions() const { return 0; }
};

// Factories; `tiny` shrinks every size for the self-test.
std::unique_ptr<Workload> make_smallfile(std::uint64_t seed, bool tiny,
                                         bool service);
std::unique_ptr<Workload> make_bigfile(std::uint64_t seed, bool tiny);
std::unique_ptr<Workload> make_kv(std::uint64_t seed, bool tiny);

}  // namespace perfbench
