// Background CRC scrubber implementation (see scrub.h).
#include "core/scrub.h"

#include <pthread.h>
#include <sched.h>

#include <chrono>
#include <cstdio>
#include <vector>

#include "alloc/obj_alloc.h"
#include "core/fs.h"
#include "core/inode.h"
#include "core/shm.h"

namespace simurgh::core {

Scrubber::PassReport Scrubber::run_pass() {
  PassReport rep;
  if (!fs_.crc().attached()) return rep;
  std::uint64_t since_sleep = 0;

  // Snapshot the candidate files first: the pool scan itself is cheap, and
  // verifying outside it keeps each file's shared lock off the scan loop.
  std::vector<std::uint64_t> files;
  fs_.pool(kPoolInode).scan([&](std::uint64_t off, std::uint32_t flags) {
    if (flags != alloc::kObjValid) return;
    if (fs_.inode_at(off)->is_file()) files.push_back(off);
  });

  for (const std::uint64_t ino_off : files) {
    // The inode may have been freed (or recycled as a directory) since the
    // snapshot; re-validate under the same shared lock writers exclude.
    SharedFileLock lk(fs_.file_locks(), fs_.file_locks().slot_for(ino_off));
    if (fs_.pool(kPoolInode).flags_of(ino_off) != alloc::kObjValid) continue;
    Inode* ino = fs_.inode_at(ino_off);
    if (!ino->is_file()) continue;
    ++rep.files;
    ExtentMap map(fs_.dev(), fs_.pool(kPoolExtent), *ino, ino_off);
    map.for_each([&](const Extent& e) {
      for (std::uint64_t b = 0; b < e.n_blocks; ++b) {
        const std::uint64_t dev_off = e.dev_off + b * alloc::kBlockSize;
        ++rep.blocks;
        if (!fs_.crc().verify(dev_off)) {
          ++rep.errors;
          char msg[96];
          std::snprintf(msg, sizeof(msg),
                        "crc mismatch: inode %#llx block %#llx",
                        static_cast<unsigned long long>(ino_off),
                        static_cast<unsigned long long>(dev_off));
          common::MutexLock g(mu_);
          error_log_.emplace_back(msg);
        }
        if (++since_sleep >= kBlocksPerBatch) {
          since_sleep = 0;
          // Bandwidth bound.  The pause can land while this file's shared
          // lock is held — a writer to the same giant file then waits out
          // one batch sleep; kBatchSleepUs stays small relative to the
          // file-lock lease so a sleeping scrubber never reads as dead.
          std::this_thread::sleep_for(
              std::chrono::microseconds(kBatchSleepUs));
        }
      }
    });
  }

  passes_.fetch_add(1, std::memory_order_relaxed);
  blocks_.fetch_add(rep.blocks, std::memory_order_relaxed);
  errors_.fetch_add(rep.errors, std::memory_order_relaxed);
  return rep;
}

std::vector<std::string> Scrubber::take_errors() {
  common::MutexLock g(mu_);
  std::vector<std::string> out;
  out.swap(error_log_);
  return out;
}

void Scrubber::start(std::uint64_t pass_interval_ms) {
  if (thread_.joinable()) return;
  {
    common::MutexLock g(mu_);
    stop_requested_ = false;
  }
  thread_ = std::thread([this, pass_interval_ms] {
    // Best-effort SCHED_IDLE: scrub cycles only ever fill otherwise-idle
    // CPU.  Unprivileged hosts refuse the switch; the bandwidth bound in
    // run_pass still paces the NVMM traffic, so failure is ignored.
    sched_param sp{};
    (void)pthread_setschedparam(pthread_self(), SCHED_IDLE, &sp);
    loop(pass_interval_ms);
  });
}

void Scrubber::stop() {
  if (!thread_.joinable()) return;
  {
    common::MutexLock g(mu_);
    stop_requested_ = true;
  }
  cv_.notify_all();
  thread_.join();
}

void Scrubber::loop(std::uint64_t pass_interval_ms) {
  for (;;) {
    {
      common::MutexLock g(mu_);
      cv_.wait_for(g, std::chrono::milliseconds(pass_interval_ms));
      if (stop_requested_) return;
    }
    run_pass();
  }
}

}  // namespace simurgh::core
