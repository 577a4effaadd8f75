// Segmented concurrent block allocator (§4.2 "Block allocation").
//
// The device's data area is divided into `2 x n_cores` segments, each owning
// a contiguous block range, so concurrent threads rarely collide
// (Hoard-style).  Each segment is guarded by a lease lock
// (common/lease.h): a waiter that observes the lease expired concludes the
// holder crashed and steals the lock — the decentralized crash-detection
// rule of the paper (no kernel, no daemon).
//
// Free space is one NVMM allocation bitmap, 1 bit per data block (set = in
// use), laid out at the start of the range format() is given; the data
// blocks follow it.  An allocation takes the first free run of the segment,
// in address order, that fits and carves from the run's tail; it sets the
// run's bits and a free clears them, with atomic word RMWs because one word
// can hold the bits of two segments.  Neither flushes nor fences: the
// bitmap is derived state.  Nothing else is stored: a segment's free count
// is a popcount of its bits, so no shutdown can leave a stale counter
// behind.  Allocation picks the segment `(hint / align) % n_segments` so
// blocks of one file cluster in one segment and files spread across
// segments; a busy segment is skipped in favor of the next (paper's
// contention-avoidance hop).
//
// Derived NVMM state — recover() re-derives it after any unclean shutdown,
// so no operation flushes or fences it, and a durable copy matters only to
// a clean image, which mounts without recovery:
//   - this allocation bitmap: rebuild_bitmap() rewrites it from the mark;
//     format(), rebuild_bitmap() and the last clean unmount
//     (persist_bitmap(), from FileSystem::unmount's last-out step) flush it;
//   - the CRC32C table (core/integrity.h): recovery re-stamps every
//     reachable file block; the last clean unmount flushes it
//     (CrcTable::persist_all());
//   - the directory and extent epochs and their generators (DirBlock::
//     epoch, Inode::ext_epoch, Superblock::{dir,file}_epoch_gen): they
//     validate DRAM caches only, which every mount and every recover()
//     starts empty, so nothing persists them.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>

#include "alloc/shm_state.h"
#include "common/lease.h"
#include "common/status.h"
#include "nvmm/device.h"
#include "nvmm/persist.h"

namespace simurgh::alloc {

constexpr std::uint64_t kBlockSize = 4096;

// Persistent per-segment state: the segment's lease lock, on a cache line
// of its own — the lock word is CASed on every direct allocation and free,
// and without the padding two mounts working disjoint segments still
// ping-pong the line holding both headers.
//
// The header doubles as the lock-discipline capability: its embedded
// lease lock is the runtime lock, and lock_segment()/
// unlock_segment() below are the only acquire/release points, so
// alloc_from() can state REQUIRES(seg) and the analysis proves no
// allocation scans a segment's bits outside its lock.  The attribute is
// compile-time only — sizeof stays 64 (static_assert below).
struct alignas(64) CAPABILITY("segment_lease") SegmentHeader {
  common::LeaseLock lock;
};
static_assert(sizeof(SegmentHeader) == 64);

// Persistent allocator header (lives where the caller says, typically right
// after the superblock).
struct BlockAllocHeader {
  std::uint64_t magic = 0;
  std::uint64_t n_segments = 0;
  std::uint64_t data_off = 0;    // first data block, device offset
  std::uint64_t n_blocks = 0;    // data blocks after the bitmap
  std::uint64_t bitmap_off = 0;  // 1 bit per data block, 1 = in use
  // SegmentHeader[n_segments] follows at the next 64-byte boundary (the
  // headers are cache-line aligned; see SegmentHeader).
};

// Per-process DRAM counters; bumped relaxed (allocators of different
// threads share one instance, and a lost increment is acceptable).
struct BlockAllocStats {
  std::atomic<std::uint64_t> allocs{0};
  std::atomic<std::uint64_t> frees{0};
  std::atomic<std::uint64_t> segment_hops{0};  // busy-segment skips
  std::atomic<std::uint64_t> lock_steals{0};   // expired leases taken over
  std::atomic<std::uint64_t> reserve_hits{0};     // served without any lock
  std::atomic<std::uint64_t> reserve_refills{0};  // chunk carves
  std::atomic<std::uint64_t> reserve_drains{0};   // remainders returned
  // Shm reservation slots probed while claiming/rebinding a thread slot
  // (shm_thread_slot, which scans from slot 0): about the number of slots
  // already claimed, once per thread's first claim.
  std::atomic<std::uint64_t> reserve_slot_probes{0};
};

// Arbitration hook for reservation-chunk carves (service mode, DESIGN.md
// §13).  When installed, every refill chunk the allocator would have carved
// with its own segment locks is requested through the proxy instead — on a
// service-mode client that routes a kCarve to the owner mount, so the owner
// arbitrates block grants the same way it arbitrates namespace mutations.
// The proxy returning busy (service shutting down / owner unreachable with
// no seat to take) makes the allocator fall back to the direct path: a
// grant the owner never saw is still crash-safe (recovery's
// rebuild_bitmap), just unarbitrated.
class CarveProxy {
 public:
  virtual ~CarveProxy() = default;
  // Grants `n_blocks` contiguous blocks; returns the run's device offset.
  virtual Result<std::uint64_t> carve(std::uint64_t n_blocks,
                                      std::uint64_t hint) = 0;
};

class BlockAllocator {
 public:
  // Formats the allocator over device blocks [area_off, area_off+len) with
  // its persistent header at `header_off`.  The bitmap takes the first
  // blocks of the range; data_off() and n_blocks_total() describe the rest.
  static BlockAllocator format(nvmm::Device& dev, std::uint64_t header_off,
                               std::uint64_t area_off, std::uint64_t area_len,
                               unsigned n_segments);
  // Attaches to an already formatted allocator (normal mount).
  static BlockAllocator attach(nvmm::Device& dev, std::uint64_t header_off);

  // Allocates `n_blocks` contiguous blocks; returns the device offset of
  // the first block.  `hint` (typically the file's inode offset) selects
  // the starting segment.
  Result<std::uint64_t> alloc(std::uint64_t n_blocks, std::uint64_t hint);

  // Clears the blocks' bits under the lock of the segment that owns the
  // first block.
  void free(std::uint64_t block_off, std::uint64_t n_blocks);

  [[nodiscard]] std::uint64_t free_blocks() const noexcept;
  [[nodiscard]] unsigned n_segments() const noexcept;
  [[nodiscard]] std::uint64_t data_off() const noexcept {
    return header().data_off;
  }
  [[nodiscard]] std::uint64_t n_blocks_total() const noexcept {
    return header().n_blocks;
  }

  // Lease after which a lock holder counts as crashed.  Short values are
  // used by the crash tests; production default is 100 ms.  The object
  // allocators over this one read it too.
  void set_lease_ns(std::uint64_t ns) noexcept { lease_ns_ = ns; }
  [[nodiscard]] std::uint64_t lease_ns() const noexcept { return lease_ns_; }

  BlockAllocStats& stats() noexcept { return *stats_; }

  // Installs (or, with nullptr, removes) the carve arbitration proxy.  The
  // pointer must outlive every allocation made while it is installed —
  // FileSystem clears it before tearing the service endpoint down.
  void set_carve_proxy(CarveProxy* proxy) noexcept {
    carve_proxy_->store(proxy, std::memory_order_release);
  }
  // Owner-side execution of an arbitrated carve: a plain direct allocation,
  // public so the service dispatcher can grant without re-entering the
  // proxy (which would route the request back to itself).
  Result<std::uint64_t> carve_grant(std::uint64_t n_blocks,
                                    std::uint64_t hint) {
    return alloc_direct(n_blocks, hint);
  }

  // ---- per-thread block reservations (data-path fast lane) ----
  //
  // With shm state attached, small allocations (≤ kReserveServeMax blocks)
  // are served from a per-thread chunk of kReserveChunk blocks carved under
  // ONE segment-lock acquisition and handed out in ascending address order
  // (so consecutive appends of one thread form one extent per chunk).
  // Larger requests and frees keep the direct path, and so does every
  // request of an allocator with no shm state.
  //
  // Each reservation is a fixed shm slot stamped with the {mount, thread}
  // tokens of its owner, so N concurrent mounts share the accounting, and a
  // survivor can free a dead mount's carved remainders via
  // reclaim_mount_reservations() without a remount (the decentralized
  // crash rule, §4.2).  A slot whose lock nobody took for a whole lease
  // (its thread exited, or sat idle that long) is adopted, remainder
  // included, by the next thread that claims a slot.  Reservations are
  // volatile: the carve sets the chunk's bits, but the remainder is
  // referenced by no inode, so after a crash recovery's rebuild_bitmap
  // returns it.
  static constexpr std::uint64_t kReserveChunk = 64;  // 256 KB
  static constexpr std::uint64_t kReserveServeMax = 8;
  static_assert(kReserveServeMax < kReserveChunk);

  // Attaches the shm reservation slots (`shared` lives in the shm device's
  // header) and tags every future carve with `mount_token` (nonzero).  Call
  // before the first alloc().
  void attach_shared_state(ShmAllocShared* shared,
                           std::uint64_t mount_token) noexcept;

  // Survivor-side reclaim: frees every shm reservation slot owned by
  // `dead_mount_token` (its process is gone; lease-expired).  Returns the
  // number of blocks freed.
  std::uint64_t reclaim_mount_reservations(std::uint64_t dead_mount_token);

  // Survivor-side reclaim: clears segment locks whose holder's lease
  // expired (eager form of the steal in lock_segment).  Returns the number
  // of locks cleared.
  unsigned reap_expired_segment_locks();

  // Clean shutdown: frees the unused remainder of every slot this mount
  // owns (including slots of exited threads).  Peers' chunks are still
  // live; last-out can sweep stragglers with drain_all=true.
  void drain_reservations(bool drain_all = false);
  // Recovery: forget all reservations WITHOUT touching the device — the
  // caller is about to rebuild_bitmap, which reclaims the blocks.
  void invalidate_reservations() noexcept;
  // Blocks carved into reservations but not yet handed out; counted as free
  // by free_blocks() so accounting stays exact.
  [[nodiscard]] std::uint64_t reserved_unused_blocks() const noexcept;
  // Walks every reservation's unused remainder: fn(dev_off, n_blocks).
  // Each reservation is briefly locked; for quiescent inspection (fsck).
  void for_each_reservation(
      const std::function<void(std::uint64_t, std::uint64_t)>& fn) const;

  // Recovery: rewrites the bitmap from a caller-provided "block in use"
  // predicate (mark phase done by the FS sweep) and persists it with one
  // fence.
  template <typename InUseFn>
  void rebuild_bitmap(InUseFn&& in_use);
  // Flushes the whole bitmap and fences once (one line per 512 blocks).
  // rebuild_bitmap ends with it, and the last clean unmount calls it: a
  // clean image mounts without recovery and reads the bitmap as it is.
  void persist_bitmap() const noexcept;

  // Read-only walk of every maximal free run within a segment, in address
  // order: fn(run_dev_off, n_blocks).  Quiescent-state inspection only
  // (fsck); does not lock.
  template <typename Fn>
  void for_each_free_range(Fn&& fn) const {
    for (unsigned s = 0; s < n_segments(); ++s) {
      const BlockRange seg = segment_blocks(s);
      for (BlockRange r = next_free_run(seg.first, seg.end); r.first < seg.end;
           r = next_free_run(r.end, seg.end))
        fn(data_off() + r.first * kBlockSize, r.end - r.first);
    }
  }

 private:
  BlockAllocator(nvmm::Device& dev, std::uint64_t header_off)
      : dev_(&dev),
        header_off_(header_off),
        stats_(std::make_unique<BlockAllocStats>()) {}

  [[nodiscard]] BlockAllocHeader& header() const noexcept {
    return *reinterpret_cast<BlockAllocHeader*>(dev_->at(header_off_));
  }
  [[nodiscard]] SegmentHeader* segments() const noexcept {
    // 64-byte aligned so the alignas(64) per-segment headers actually land
    // on cache-line boundaries in the device mapping (header offsets are
    // page-aligned by the callers).
    const std::uint64_t base =
        (header_off_ + sizeof(BlockAllocHeader) + 63) / 64 * 64;
    return reinterpret_cast<SegmentHeader*>(dev_->at(base));
  }
  [[nodiscard]] std::uint64_t per_segment() const noexcept;  // in blocks
  [[nodiscard]] unsigned segment_of(std::uint64_t block_off) const noexcept;
  [[nodiscard]] std::atomic<std::uint64_t>* bitmap() const noexcept {
    return reinterpret_cast<std::atomic<std::uint64_t>*>(
        dev_->at(header().bitmap_off));
  }
  // Data blocks [first, end), as block indices.
  struct BlockRange {
    std::uint64_t first, end;
  };
  [[nodiscard]] BlockRange segment_blocks(unsigned s) const noexcept;
  // The first maximal free run in [b, end), or {end, end}.
  [[nodiscard]] BlockRange next_free_run(std::uint64_t b,
                                         std::uint64_t end) const noexcept;

  // Spin-acquire with lease stealing; returns true if the lock was stolen.
  // (A lease steal IS an acquisition by the thief: the previous holder died
  // and will never release, so the capability transfers.)
  bool lock_segment(SegmentHeader& seg) ACQUIRE(seg);
  void unlock_segment(SegmentHeader& seg) noexcept RELEASE(seg);
  bool try_lock_segment(SegmentHeader& seg) TRY_ACQUIRE(true, seg);

  // First fit in the segment's bits: callers must hold the segment lock.
  Result<std::uint64_t> alloc_from(SegmentHeader& seg, std::uint64_t n)
      REQUIRES(seg);

  // The pre-reservation allocation path (two-pass segment walk).
  Result<std::uint64_t> alloc_direct(std::uint64_t n_blocks,
                                     std::uint64_t hint);
  // Reservation refill: through the carve proxy when installed (service
  // mode), alloc_direct otherwise.
  Result<std::uint64_t> carve(std::uint64_t n_blocks, std::uint64_t hint);
  Result<std::uint64_t> alloc_reserved(std::uint64_t n_blocks,
                                       std::uint64_t hint);
  // Claims (or revalidates) this thread's shm reservation slot; nullptr if
  // every slot is owned and in use (caller falls back to the direct path).
  ShmReservation* shm_thread_slot();
  // Frees every shm slot matching `tok` (0 = every claimed slot); returns
  // the number of blocks freed.
  std::uint64_t reclaim_shm_slots(std::uint64_t tok, bool match_all);

  nvmm::Device* dev_;
  std::uint64_t header_off_;
  std::uint64_t lease_ns_ = 100'000'000;  // 100 ms
  // Heap-held so the allocator stays movable (atomics pin the struct).
  std::unique_ptr<BlockAllocStats> stats_;
  // Heap-held for the same movability reason; read on every refill carve.
  std::unique_ptr<std::atomic<CarveProxy*>> carve_proxy_ =
      std::make_unique<std::atomic<CarveProxy*>>(nullptr);
  ShmAllocShared* shared_ = nullptr;  // null: no reservations
  std::uint64_t mount_token_ = 0;
  // Segment placement: alloc_direct rotates each mount's segment walk by
  // this bias, which decides where the mount's pool segments and file
  // blocks land (set by attach_shared_state from the mount token; 0 for
  // raw single-mount allocators).  It is kept for placement, not
  // contention: without it smallfile's recovery and lookups got slower
  // (DESIGN.md §9.3).
  unsigned segment_bias_ = 0;
};

template <typename InUseFn>
void BlockAllocator::rebuild_bitmap(InUseFn&& in_use) {
  // Reservations reference blocks that are about to read free (no inode
  // references them, so in_use() says free); forget them first so nothing
  // double-hands them out afterwards.
  invalidate_reservations();
  // Recovery runs single-threaded before any peer can allocate (the mount
  // registry serialises it behind the recovering token), so it resets the
  // segment locks and rewrites the bits without taking them.
  const BlockAllocHeader& h = header();
  SegmentHeader* segs = segments();
  for (unsigned s = 0; s < h.n_segments; ++s)
    segs[s].lock.owner.store(0, std::memory_order_relaxed);
  std::atomic<std::uint64_t>* words = bitmap();
  const std::uint64_t n_words = (h.n_blocks + 63) / 64;
  for (std::uint64_t w = 0; w < n_words; ++w) {
    std::uint64_t bits = 0;
    for (std::uint64_t b = w * 64; b < std::min(h.n_blocks, w * 64 + 64); ++b)
      if (in_use(h.data_off + b * kBlockSize)) bits |= 1ull << (b % 64);
    words[w].store(bits);
  }
  persist_bitmap();
}

}  // namespace simurgh::alloc
