// Per-process open-file maps (§4.3 "Open file map").
//
// Each client process owns a map from file descriptor to {open mode, file
// position, inode pointer}.  Descriptor slots are claimed and released with
// CAS, so concurrent open()/close() from many threads of one process never
// take a lock — the paper's "lockless allocation for concurrent
// multithreaded open/close".
//
// Lock discipline: this file intentionally declares no capabilities
// (common/thread_annotations.h) — every shared field is an atomic whose
// lock-freedom is the point; there is no mutex for GUARDED_BY to name.
#pragma once

#include <atomic>
#include <cstdint>
#include <type_traits>

#include "common/status.h"

namespace simurgh::core {

// Open flags (our own constants; the preload shim maps O_* onto these).
constexpr int kOpenRead = 0x1;
constexpr int kOpenWrite = 0x2;
constexpr int kOpenCreate = 0x4;
constexpr int kOpenExcl = 0x8;
constexpr int kOpenTrunc = 0x10;
constexpr int kOpenAppend = 0x20;
// O_SYNC / O_DSYNC: every write through this descriptor commits with strict
// durability regardless of the file's durability class (write_behind.h).
constexpr int kOpenSync = 0x40;

// Per-file durability class (write_behind.h).  `strict` is the default and
// today's behavior: data + size stamp are durable before the write returns.
// `group` stages writes in DRAM and group-commits a mount-wide epoch every
// T µs / B bytes.
enum class Durability : std::uint8_t { strict = 0, group = 1 };

struct OpenFile {
  // 0 = free slot; 1 = being initialized; otherwise the inode offset.
  std::atomic<std::uint64_t> inode_off{0};
  std::atomic<std::uint64_t> pos{0};
  int flags = 0;
};
// No per-slot heap members: a Process (and its 4096-slot table) is built
// per service-ring request, so a slot must cost nothing to destroy.
static_assert(std::is_trivially_destructible_v<OpenFile>);

class OpenFileMap {
 public:
  static constexpr int kMaxFds = 4096;
  static constexpr std::uint64_t kClaimed = 1;  // initialization sentinel

  // Claims a descriptor; returns -1 when the table is exhausted.
  int alloc(std::uint64_t inode_off, int flags) {
    for (int fd = 0; fd < kMaxFds; ++fd) {
      std::uint64_t expected = 0;
      if (files_[fd].inode_off.compare_exchange_strong(
              expected, kClaimed, std::memory_order_acq_rel)) {
        files_[fd].pos.store(0, std::memory_order_relaxed);
        files_[fd].flags = flags;
        files_[fd].inode_off.store(inode_off, std::memory_order_release);
        return fd;
      }
    }
    return -1;
  }

  // nullptr for invalid / closed descriptors.
  OpenFile* get(int fd) {
    if (fd < 0 || fd >= kMaxFds) return nullptr;
    const std::uint64_t ino =
        files_[fd].inode_off.load(std::memory_order_acquire);
    return ino > kClaimed ? &files_[fd] : nullptr;
  }

  Status close(int fd) {
    OpenFile* f = get(fd);
    if (f == nullptr) return Status(Errc::bad_fd);
    f->inode_off.store(0, std::memory_order_release);
    return Status::ok();
  }

 private:
  OpenFile files_[kMaxFds];
};

}  // namespace simurgh::core
