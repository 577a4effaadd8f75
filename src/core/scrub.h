// Background CRC scrubber (integrity layer, DESIGN.md §13).
//
// Walks the inode pool at a bounded bandwidth and re-verifies every file
// data block against its CRC32C entry (core/integrity.h) — the detector for
// bit rot the read path never touches.  Each file is checked under its
// shared lock, so a concurrent writer (which stamps entries under the
// exclusive lock) can never be seen mid-update; a block whose entry is 0
// ("no checksum recorded") is skipped.
//
// The background thread demotes itself to SCHED_IDLE (best-effort — the
// call fails without privilege on most CI hosts and the scrubber still
// paces itself via the batch/sleep bandwidth bound below), so scrubbing
// never competes with foreground latency.  Tests drive run_pass()
// synchronously instead.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_annotations.h"

namespace simurgh::core {

class FileSystem;

class Scrubber {
 public:
  struct PassReport {
    std::uint64_t files = 0;
    std::uint64_t blocks = 0;
    std::uint64_t errors = 0;
  };

  explicit Scrubber(FileSystem& fs) : fs_(fs) {}
  ~Scrubber() { stop(); }
  Scrubber(const Scrubber&) = delete;
  Scrubber& operator=(const Scrubber&) = delete;

  // One synchronous full pass over every reachable file block (tests and
  // explicit admin scrubs); also what the background loop repeats.
  PassReport run_pass();

  // Background loop: pass, sleep, repeat.  Idempotent.
  void start(std::uint64_t pass_interval_ms = 1000);
  void stop();

  [[nodiscard]] std::uint64_t passes() const noexcept {
    return passes_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t blocks_checked() const noexcept {
    return blocks_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t errors() const noexcept {
    return errors_.load(std::memory_order_relaxed);
  }
  // Drains the recorded mismatch descriptions (inode offset + block).
  [[nodiscard]] std::vector<std::string> take_errors();

 private:
  void loop(std::uint64_t pass_interval_ms);

  // Bandwidth bound: verify at most kBlocksPerBatch blocks, then sleep
  // kBatchSleepUs — the scrubber's NVMM read rate is capped at roughly
  // batch/sleep regardless of scheduler class.
  static constexpr std::uint64_t kBlocksPerBatch = 256;
  static constexpr std::uint64_t kBatchSleepUs = 1000;

  FileSystem& fs_;
  std::thread thread_;
  common::Mutex mu_;
  std::condition_variable_any cv_;  // waits on common::MutexLock
  bool stop_requested_ GUARDED_BY(mu_) = false;
  std::vector<std::string> error_log_ GUARDED_BY(mu_);

  std::atomic<std::uint64_t> passes_{0};
  std::atomic<std::uint64_t> blocks_{0};
  std::atomic<std::uint64_t> errors_{0};
};

}  // namespace simurgh::core
