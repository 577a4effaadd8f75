// Inodes and extent maps.
//
// A Simurgh inode has no inode number: its NVMM offset is its unique id and
// directly addresses it (§4.3 "Inode").  The inode embeds a small extent
// array; large or fragmented files spill into chained extent blocks drawn
// from the extent pool.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "core/layout.h"
#include "nvmm/persist.h"

namespace simurgh::core {

// mode bits: type in the upper nibble (POSIX-style), permissions in the
// lower 12 bits (rwxrwxrwx + setuid/setgid/sticky).
constexpr std::uint32_t kModeTypeMask = 0xF000;
constexpr std::uint32_t kModeFile = 0x8000;
constexpr std::uint32_t kModeDir = 0x4000;
constexpr std::uint32_t kModeSymlink = 0xA000;
constexpr std::uint32_t kPermMask = 0x0FFF;

struct Extent {
  std::uint64_t file_block = 0;  // first logical 4 KB block covered
  std::uint64_t dev_off = 0;     // device offset of the first block
  std::uint64_t n_blocks = 0;
};

constexpr unsigned kInlineExtents = 6;
constexpr unsigned kInlineSymlinkMax = 143;  // fits the extent area

struct Inode {
  std::atomic<std::uint32_t> mode{0};
  // Atomic (relaxed) because lock-free walkers and stat() read them while
  // chown or the free-scrub writes them.
  std::atomic<std::uint32_t> uid{0};
  std::atomic<std::uint32_t> gid{0};
  std::atomic<std::uint32_t> nlink{0};
  std::atomic<std::uint64_t> size{0};
  std::atomic<std::uint64_t> atime_ns{0};
  std::atomic<std::uint64_t> mtime_ns{0};
  std::atomic<std::uint64_t> ctime_ns{0};
  // Directories: first hash block.  Symlinks: unused.
  nvmm::atomic_pptr<struct DirBlock> dir;
  // Files: extent spill chain (after the inline array fills).
  nvmm::atomic_pptr<struct ExtentBlock> ext_spill;
  // Extent-map mutation epoch for the DRAM extent cache (extent_cache.h):
  // odd while a mutator is inside the map, bumped to the next even value
  // when it leaves (ExtentEpochGuard).  Volatile semantics like
  // DirBlock::epoch — the value survives in NVMM but is never *relied on*
  // across a crash (recovery clears the DRAM caches).  New files stamp it
  // from Superblock::file_epoch_gen so a recycled inode offset can never
  // replay an epoch some cache entry was filled against.
  std::atomic<std::uint64_t> ext_epoch{0};
  union {
    Extent extents[kInlineExtents];  // regular files
    char symlink[kInlineSymlinkMax + 1];  // short symlink targets
  };

  Inode() : extents{} {}

  [[nodiscard]] std::uint32_t type() const noexcept {
    return mode.load(std::memory_order_acquire) & kModeTypeMask;
  }
  [[nodiscard]] bool is_dir() const noexcept { return type() == kModeDir; }
  [[nodiscard]] bool is_file() const noexcept { return type() == kModeFile; }
  [[nodiscard]] bool is_symlink() const noexcept {
    return type() == kModeSymlink;
  }
  [[nodiscard]] std::uint32_t perms() const noexcept {
    return mode.load(std::memory_order_acquire) & kPermMask;
  }
};
static_assert(sizeof(Inode) <= kInodePayload);

// Persist width of a write's metadata commit: size + atime + mtime are
// adjacent in Inode and, with the pool's 256-byte stride, share one cache
// line — flushing sizeof(Inode) would cost four lines for the same commit.
// Shared by the strict write path (data.cc) and the write-behind epoch
// drain (write_behind.cc), which must stamp identically.
constexpr std::size_t kSizeStampBytes =
    sizeof(std::uint64_t) * 3;  // size, atime_ns, mtime_ns
static_assert(offsetof(Inode, atime_ns) == offsetof(Inode, size) + 8);
static_assert(offsetof(Inode, mtime_ns) == offsetof(Inode, size) + 16);
static_assert(offsetof(Inode, size) / 64 ==
              (offsetof(Inode, size) + kSizeStampBytes - 1) / 64);

// Atomic max for the size field (appends race truncates and each other).
inline void inode_size_max(std::atomic<std::uint64_t>& size,
                           std::uint64_t want) noexcept {
  std::uint64_t cur = size.load(std::memory_order_relaxed);
  while (cur < want &&
         !size.compare_exchange_weak(cur, want, std::memory_order_acq_rel)) {
  }
}

// Brackets an extent-map mutation: pre-bump makes the epoch odd (readers
// stop trusting cached views), post-bump publishes the next even value.
// The caller holds the file's exclusive write lock (or has otherwise
// serialized mutators); the guard only makes the mutation *visible* to the
// lock-free cache probes in extent_cache.h.
class ExtentEpochGuard {
 public:
  explicit ExtentEpochGuard(Inode& ino) noexcept : ino_(ino) {
    ino_.ext_epoch.fetch_add(1, std::memory_order_acq_rel);
  }
  ~ExtentEpochGuard() {
    ino_.ext_epoch.fetch_add(1, std::memory_order_acq_rel);
  }
  ExtentEpochGuard(const ExtentEpochGuard&) = delete;
  ExtentEpochGuard& operator=(const ExtentEpochGuard&) = delete;

 private:
  Inode& ino_;
};

struct ExtentBlock {
  nvmm::pptr<ExtentBlock> next;
  std::uint64_t n = 0;
  static constexpr unsigned kCapacity =
      (kExtentPayload - 16) / sizeof(Extent);
  Extent extents[kCapacity];
};
static_assert(sizeof(ExtentBlock) <= kExtentPayload);

// Extent-map operations (inode.cc).  The caller holds the file's write lock
// for mutations; lookups are safe concurrently with appends because extents
// are published with release stores after being fully written.
class ExtentMap {
 public:
  ExtentMap(nvmm::Device& dev, alloc::ObjectAllocator& ext_pool,
            Inode& inode, std::uint64_t inode_off)
      : dev_(dev), pool_(ext_pool), ino_(inode), ino_off_(inode_off) {}

  // Device offset of logical 4 KB block `file_block`, or 0 if a hole.
  [[nodiscard]] std::uint64_t find(std::uint64_t file_block) const;

  // Registers [file_block, +n) at dev_off, merging with the trailing extent
  // when contiguous.  Flushes the extent but fences only a new spill block's
  // publication: the caller's next fence orders the extent before the size
  // commit that makes its blocks readable.
  Status append(std::uint64_t file_block, std::uint64_t dev_off,
                std::uint64_t n_blocks);

  // Number of mapped blocks at/after `from_block` (truncate support);
  // invokes fn(dev_off, n_blocks) for each removed run and unmaps them.
  // The cleared extents are flushed, not fenced: an unlinked inode's clears
  // ride the next fence, and truncate fences after its call.
  template <typename Fn>
  void drop_from(std::uint64_t from_block, Fn&& fn);

  // Iterate all extents: fn(const Extent&).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (unsigned i = 0; i < kInlineExtents; ++i)
      if (ino_.extents[i].n_blocks != 0) fn(ino_.extents[i]);
    nvmm::pptr<ExtentBlock> b = ino_.ext_spill.load();
    while (b) {
      const ExtentBlock* eb = b.in(dev_);
      // Slots clipped away by drop_from stay in place with n_blocks == 0;
      // skip them like find() does, or truncate+rewrite cycles would leak
      // zero-length extents into every walker (and the DRAM extent views).
      for (std::uint64_t i = 0; i < eb->n; ++i)
        if (eb->extents[i].n_blocks != 0) fn(eb->extents[i]);
      b = eb->next;
    }
  }

  // Releases every extent block back to the pool (unlink path: the inode
  // is already unreachable in the durable image, so nothing is fenced).
  void free_spill_chain();

 private:
  nvmm::Device& dev_;
  alloc::ObjectAllocator& pool_;
  Inode& ino_;
  std::uint64_t ino_off_;
};

template <typename Fn>
void ExtentMap::drop_from(std::uint64_t from_block, Fn&& fn) {
  auto clip = [&](Extent& e) {
    if (e.n_blocks == 0) return;
    if (e.file_block >= from_block) {
      fn(e.dev_off, e.n_blocks);
      e = Extent{};
    } else if (e.file_block + e.n_blocks > from_block) {
      const std::uint64_t keep = from_block - e.file_block;
      fn(e.dev_off + keep * alloc::kBlockSize, e.n_blocks - keep);
      e.n_blocks = keep;
    }
  };
  for (unsigned i = 0; i < kInlineExtents; ++i) clip(ino_.extents[i]);
  nvmm::persist(ino_.extents, sizeof ino_.extents);
  nvmm::pptr<ExtentBlock> b = ino_.ext_spill.load();
  while (b) {
    ExtentBlock* eb = b.in(dev_);
    for (std::uint64_t i = 0; i < eb->n; ++i) clip(eb->extents[i]);
    // Give trailing cleared slots back: append() only adds at `n`, so
    // without this every append+trim cycle would burn a fresh slot.
    while (eb->n > 0 && eb->extents[eb->n - 1].n_blocks == 0) --eb->n;
    nvmm::persist_obj(*eb);
    b = eb->next;
  }
}

}  // namespace simurgh::core
