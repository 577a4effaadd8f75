// Segmented concurrent block allocator (§4.2 "Block allocation").
//
// The device's data area is divided into `2 x n_cores` segments, each owning
// a contiguous block range with its own free list, so concurrent threads
// rarely collide (Hoard-style).  Each segment is guarded by a lease lock
// (common/lease.h): a waiter that observes the lease expired concludes the
// holder crashed and steals the lock — the decentralized crash-detection
// rule of the paper (no kernel, no daemon).
//
// Free space is kept as an address-ordered linked list of free *ranges*
// threaded through the free blocks themselves (a free range's first block
// stores {next, n_blocks}), allocated first-fit and coalesced on free.
// Allocation picks the segment `(hint / align) % n_segments` so blocks of
// one file cluster in one segment and files spread across segments; a busy
// segment is skipped in favor of the next (paper's contention-avoidance
// hop).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>

#include "alloc/shm_state.h"
#include "common/lease.h"
#include "common/status.h"
#include "nvmm/device.h"
#include "nvmm/persist.h"
#include "nvmm/pptr.h"

namespace simurgh::alloc {

constexpr std::uint64_t kBlockSize = 4096;

// Persistent per-segment state.  One segment header IS a free-list head —
// the striping unit of the block tier — so each gets its own cache line:
// the lock word is CASed on every direct allocation and free, and without
// the padding two mounts working disjoint segments still ping-pong the
// line holding both headers.
//
// The header doubles as the lock-discipline capability: its embedded
// lease lock is the runtime lock, and lock_segment()/
// unlock_segment() below are the only acquire/release points, so
// alloc_from()/free_into() can state REQUIRES(seg) and the analysis proves
// no free-list mutation happens outside the segment lock.  The attribute is
// compile-time only — sizeof stays 64 (static_assert below).
struct alignas(64) CAPABILITY("segment_lease") SegmentHeader {
  common::LeaseLock lock;
  nvmm::atomic_pptr<struct FreeRange> free_head;
  std::atomic<std::uint64_t> free_blocks{0};
};
static_assert(sizeof(SegmentHeader) == 64);
static_assert(offsetof(SegmentHeader, free_head) == 16);

// Stored in the first block of every free range.
struct FreeRange {
  nvmm::pptr<FreeRange> next;
  std::uint64_t n_blocks = 0;
};

// Persistent allocator header (lives where the caller says, typically right
// after the superblock).
struct BlockAllocHeader {
  std::uint64_t magic = 0;
  std::uint64_t n_segments = 0;
  std::uint64_t data_off = 0;   // first block, device offset
  std::uint64_t n_blocks = 0;   // total blocks in the data area
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
// rebuild_free_lists sweep), just unarbitrated.
class CarveProxy {
 public:
  virtual ~CarveProxy() = default;
  // Grants `n_blocks` contiguous blocks; returns the run's device offset.
  virtual Result<std::uint64_t> carve(std::uint64_t n_blocks,
                                      std::uint64_t hint) = 0;
};

class BlockAllocator {
 public:
  // Formats the allocator over device blocks [data_off, data_off+len) with
  // its persistent header at `header_off`.
  static BlockAllocator format(nvmm::Device& dev, std::uint64_t header_off,
                               std::uint64_t data_off, std::uint64_t data_len,
                               unsigned n_segments);
  // Attaches to an already formatted allocator (normal mount).
  static BlockAllocator attach(nvmm::Device& dev, std::uint64_t header_off);

  // Allocates `n_blocks` contiguous blocks; returns the device offset of
  // the first block.  `hint` (typically the file's inode offset) selects
  // the starting segment.
  Result<std::uint64_t> alloc(std::uint64_t n_blocks, std::uint64_t hint);

  // Returns blocks to the segment that owns their address range.
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
  // survivor can return a dead mount's carved remainders to the free lists
  // via reclaim_mount_reservations() without a remount (the decentralized
  // crash rule, §4.2).  A slot whose lock nobody took for a whole lease
  // (its thread exited, or sat idle that long) is adopted, remainder
  // included, by the next thread that claims a slot.  Reservations are
  // volatile: the carve durably removes the chunk from a free list, but the
  // remainder is referenced by no inode, so after a crash recovery's
  // rebuild_free_lists sweep returns it.
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
  // number of blocks returned to the free lists.
  std::uint64_t reclaim_mount_reservations(std::uint64_t dead_mount_token);

  // Survivor-side reclaim: clears segment locks whose holder's lease
  // expired (eager form of the steal in lock_segment).  Returns the number
  // of locks cleared.
  unsigned reap_expired_segment_locks();

  // Clean shutdown: returns the unused remainder of every slot this mount
  // owns to the free lists (including slots of exited threads).  Peers'
  // chunks are still live; last-out can sweep stragglers with
  // drain_all=true.
  void drain_reservations(bool drain_all = false);
  // Recovery: forget all reservations WITHOUT touching the device — the
  // caller is about to rebuild_free_lists, which reclaims the blocks.
  void invalidate_reservations() noexcept;
  // Blocks carved into reservations but not yet handed out; counted as free
  // by free_blocks() so accounting stays exact.
  [[nodiscard]] std::uint64_t reserved_unused_blocks() const noexcept;
  // Walks every reservation's unused remainder: fn(dev_off, n_blocks).
  // Each reservation is briefly locked; for quiescent inspection (fsck).
  void for_each_reservation(
      const std::function<void(std::uint64_t, std::uint64_t)>& fn) const;

  // Recovery: rebuild every segment's free list from a caller-provided
  // "block in use" predicate (mark phase done by the FS sweep).
  template <typename InUseFn>
  void rebuild_free_lists(InUseFn&& in_use);

  // Read-only walk of every free range: fn(segment_index, range_dev_off,
  // n_blocks).  Quiescent-state inspection only (fsck); does not lock.
  template <typename Fn>
  void for_each_free_range(Fn&& fn) const {
    const BlockAllocHeader& h = header();
    const SegmentHeader* segs = segments();
    for (unsigned s = 0; s < h.n_segments; ++s) {
      nvmm::pptr<FreeRange> cur = segs[s].free_head.load();
      while (cur) {
        const FreeRange* range = cur.in(*dev_);
        fn(s, cur.raw(), range->n_blocks);
        cur = range->next;
      }
    }
  }

  // Free-block counter of one segment (fsck cross-checks it against the
  // segment's actual free-range list).
  [[nodiscard]] std::uint64_t segment_free_blocks(unsigned s) const noexcept {
    return segments()[s].free_blocks.load(std::memory_order_acquire);
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
  [[nodiscard]] unsigned segment_of(std::uint64_t block_off) const noexcept;

  // Spin-acquire with lease stealing; returns true if the lock was stolen.
  // (A lease steal IS an acquisition by the thief: the previous holder died
  // and will never release, so the capability transfers.)
  bool lock_segment(SegmentHeader& seg) ACQUIRE(seg);
  void unlock_segment(SegmentHeader& seg) noexcept RELEASE(seg);
  bool try_lock_segment(SegmentHeader& seg) TRY_ACQUIRE(true, seg);

  // Free-list mutation: callers must hold the segment lock.
  Result<std::uint64_t> alloc_from(SegmentHeader& seg, std::uint64_t n)
      REQUIRES(seg);
  void free_into(SegmentHeader& seg, std::uint64_t block_off, std::uint64_t n)
      REQUIRES(seg);

  // Recovery runs single-threaded before any peer can allocate (the mount
  // registry serialises it behind the recovering token), so
  // rebuild_free_lists legitimately rebuilds free lists without taking the
  // per-segment locks it just reset.  ASSERT_CAPABILITY tells the analysis
  // this quiescence is equivalent to holding the lock; it emits no code.
  static void assume_quiescent(SegmentHeader& seg) ASSERT_CAPABILITY(seg) {
    (void)seg;
  }

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
  // blocks returned to the free lists.
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
void BlockAllocator::rebuild_free_lists(InUseFn&& in_use) {
  // Reservations reference blocks that are about to re-enter the free
  // lists (no inode references them, so in_use() says free); forget them
  // first so nothing double-hands them out afterwards.
  invalidate_reservations();
  BlockAllocHeader& h = header();
  SegmentHeader* segs = segments();
  const std::uint64_t per_seg =
      (h.n_blocks + h.n_segments - 1) / h.n_segments;
  for (unsigned s = 0; s < h.n_segments; ++s) {
    segs[s].lock.owner.store(0, std::memory_order_relaxed);
    segs[s].free_head.store(nvmm::pptr<FreeRange>());
    segs[s].free_blocks.store(0, std::memory_order_relaxed);
  }
  // Sweep the data area, accumulating maximal free runs per segment.
  std::uint64_t run_start = 0, run_len = 0;
  auto flush_run = [&] {
    while (run_len > 0) {
      const std::uint64_t seg_idx = run_start / per_seg;
      const std::uint64_t seg_end = (seg_idx + 1) * per_seg;
      const std::uint64_t take = std::min(run_len, seg_end - run_start);
      assume_quiescent(segs[seg_idx]);  // recovery is single-threaded
      free_into(segs[seg_idx], h.data_off + run_start * kBlockSize, take);
      run_start += take;
      run_len -= take;
    }
  };
  for (std::uint64_t b = 0; b < h.n_blocks; ++b) {
    if (in_use(h.data_off + b * kBlockSize)) {
      flush_run();
    } else {
      if (run_len == 0) run_start = b;
      ++run_len;
    }
  }
  flush_run();
}

}  // namespace simurgh::alloc
