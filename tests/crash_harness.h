// Crash-state exploration harness (the driver half of crash-image testing).
//
// Workflow per §4.3 operation:
//
//   CrashHarness h;
//   h.setup([](core::Process& p) { ...build the durable pre state... });
//   h.run_op([](core::Process& p) { ...the one operation under test... });
//   h.explore("create /d/f");
//
// run_op() snapshots the namespace (the *pre* oracle state), attaches a
// nvmm::ShadowLog to the device, runs the operation, and snapshots again
// (the *post* state).  explore() then enumerates crash images at every
// fence boundary the operation produced: for a boundary with k
// flushed-but-unfenced lines it materializes all 2^k line subsets when
// k <= Options::exhaustive_max_lines, and a seeded random sample of
// subsets (always including "none" and "all") beyond that.  Each image is
// mounted — which runs full recovery, since the image necessarily carries
// clean_shutdown == 0 — then audited with the fsck checker (core/check.h),
// and finally compared against the atomicity oracle: the recovered
// namespace must equal the pre-op or the post-op snapshot exactly, or a
// state the op committed between its operations if it runs several
// (timestamps excluded; §4.3 operations are all-or-nothing).
//
// Failures fire gtest assertions tagged with the context string, the fence
// index and the subset mask, which together with Options::seed reproduce
// the exact image.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/check.h"
#include "core/fs.h"
#include "nvmm/device.h"
#include "nvmm/shadow.h"

namespace simurgh::testing {

// One namespace node as the oracle sees it.  Times are deliberately
// excluded: the paper's atomicity claims cover structure and data, and
// lazy atime/mtime are volatile-updated.
struct NsEntry {
  std::uint32_t type = 0;          // kModeDir / kModeFile / kModeSymlink
  std::uint32_t nlink = 0;
  std::uint64_t size = 0;
  std::uint64_t content_hash = 0;  // file bytes / symlink target; 0 for dirs

  bool operator==(const NsEntry&) const = default;
};

// path -> entry, ordered so mismatch reporting is deterministic.
using NsSnapshot = std::map<std::string, NsEntry>;

// Walks `/` of a quiescent mount through a root-credential process.
NsSnapshot snapshot_namespace(core::FileSystem& fs);

// First difference between two snapshots, for assertion messages.
std::string snapshot_diff(const NsSnapshot& a, const NsSnapshot& b);

struct CrashStats {
  std::uint64_t fences = 0;             // fence boundaries explored
  std::uint64_t images = 0;             // crash images materialized
  std::uint64_t exhaustive_windows = 0; // windows covered with all 2^k
  std::uint64_t sampled_windows = 0;    // windows covered by sampling
  std::uint64_t lines_logged = 0;       // distinct lines across all windows
  std::uint64_t max_window_lines = 0;
  std::uint64_t recovered_to_pre = 0;   // oracle outcomes per image
  std::uint64_t recovered_to_post = 0;
  // Aggregated over every image's auto-recovery (RecoveryReport).
  std::uint64_t objects_committed = 0;
  std::uint64_t objects_reclaimed = 0;
  std::uint64_t link_counts_repaired = 0;

  CrashStats& operator+=(const CrashStats& o) noexcept;
};

std::ostream& operator<<(std::ostream& os, const CrashStats& s);

class CrashHarness {
 public:
  struct Options {
    // Small device: every crash image is a full-device materialization, so
    // size directly multiplies exploration cost.  Must still satisfy
    // FileSystem::format's minimum and hold the op's working set.
    std::size_t nvmm_bytes = 24ull << 20;
    std::size_t shm_bytes = 4ull << 20;
    // Windows with <= this many lines are enumerated exhaustively (2^k
    // images); larger ones are sampled.
    std::size_t exhaustive_max_lines = 10;
    std::size_t samples_per_window = 48;
    std::uint64_t seed = 0x51'6d'75'72'67'68ull;  // reproducible sampling
  };

  CrashHarness();
  explicit CrashHarness(const Options& opts);
  ~CrashHarness();

  CrashHarness(const CrashHarness&) = delete;
  CrashHarness& operator=(const CrashHarness&) = delete;

  // Durable preparation, not traced.  May be called once before run_op.
  void setup(const std::function<void(core::Process&)>& fn);

  // Runs `op` under store tracing, bracketing it with the pre/post oracle
  // snapshots.  The op must succeed (assertion on Status-like returns is
  // the caller's job; the harness only requires it not to throw).
  void run_op(const std::function<void(core::Process&)>& op);

  // Enumerates and verifies crash images; gtest failures carry `context`.
  // An op of several operations passes the namespace states it commits
  // between them in `between`: an image may recover to one of those too.
  void explore(const std::string& context,
               const std::vector<NsSnapshot>& between = {});

  // Verifies `n` seeded random images (for multi-op fuzz sequences where
  // exhaustive per-window enumeration would explode): each picks a random
  // fence boundary and a random line subset.  Oracle states are provided
  // by the caller (one snapshot per committed point of the sequence).
  void explore_sampled(const std::string& context, std::size_t n,
                       const std::vector<NsSnapshot>& oracle_states);

  [[nodiscard]] const NsSnapshot& pre() const noexcept { return pre_; }
  [[nodiscard]] const NsSnapshot& post() const noexcept { return post_; }
  [[nodiscard]] const CrashStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const nvmm::ShadowLog& log() const { return *log_; }

  // The live (traced) file system, for snapshots between fuzz ops.
  [[nodiscard]] core::FileSystem& fs() noexcept { return *fs_; }
  [[nodiscard]] core::Process& proc() noexcept { return *proc_; }

 private:
  // Mounts the scratch image (running recovery), fscks it, and matches it
  // against the oracle states.  Returns the matched index or -1.
  int check_image(const std::string& context, const std::string& image_id,
                  const std::vector<const NsSnapshot*>& oracle_states);

  Options opts_;
  std::unique_ptr<nvmm::Device> nvmm_, shm_;
  std::unique_ptr<core::FileSystem> fs_;
  std::unique_ptr<core::Process> proc_;
  std::unique_ptr<nvmm::ShadowLog> log_;
  // Scratch devices every materialized image is mounted from.
  std::unique_ptr<nvmm::Device> scratch_nvmm_, scratch_shm_;
  NsSnapshot pre_, post_;
  CrashStats stats_;
};

}  // namespace simurgh::testing
