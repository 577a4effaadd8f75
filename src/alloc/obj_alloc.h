// Slab-style metadata object allocator (§4.2 "Data structure allocator").
//
// Fixed-size metadata objects (inodes, file entries, directory hash blocks)
// are carved from pool segments obtained from the block allocator.  Each
// object carries two atomic persistence bits in its header:
//
//      valid dirty   meaning                          recovery action
//        0     0     free                             (none)
//        1     1     allocated, not yet processed     reclaim if unreachable
//        1     0     live object                      keep if reachable
//        0     1     deallocation in progress         finish: zero + clear
//
// Allocation claims an object by CAS-ing 00 -> 11 and persisting the flags;
// when the file-system operation that uses the object completes, it clears
// the dirty bit (commit).  Deallocation clears valid, zeroes the payload,
// then clears dirty — so a crash at any point leaves a state the recovery
// scan maps to exactly one decision (the paper's two-bit protocol).
//
// A volatile free-list caches offsets of free objects so the hot path is
// O(1), falling back to scanning pool segments on refill.  The cache is a
// *hint* store — the on-media flag CAS is the only claim authority — so its
// residency is a deployment choice: a raw single-process allocator keeps a
// mutex-guarded DRAM vector; a mounted file system calls
// attach_shared_cache() to use a LIFO stack in the shm device instead,
// shared by every mount (alloc/shm_state.h).  Without that, mount A's
// private cache happily serves offsets mount B already claimed and every
// alloc burns a failed persist-fenced CAS — or worse, both serve the same
// offset and one spins through a full rescan.  Both residencies are LIFO,
// so a just-freed object is the next one handed out in either mode.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "alloc/block_alloc.h"
#include "alloc/shm_state.h"
#include "common/status.h"
#include "common/thread_annotations.h"

namespace simurgh::alloc {

constexpr std::uint32_t kObjValid = 1u;
constexpr std::uint32_t kObjDirty = 2u;

// Per-process DRAM contention counters, bumped relaxed (lost increments
// acceptable, like BlockAllocStats).  These diagnose cross-mount pressure
// from stats alone: claim_cas_retries counts hints another mount claimed
// first (the on-media flag CAS lost), stripe_steals counts pops the home
// stripe could not serve.
struct ObjAllocStats {
  std::atomic<std::uint64_t> claim_cas_retries{0};
  std::atomic<std::uint64_t> stripe_steals{0};
};

struct ObjectHeader {
  std::atomic<std::uint32_t> flags{0};
  std::uint32_t reserved = 0;
};
static_assert(sizeof(ObjectHeader) == 8);

// Persistent pool descriptor; the FS superblock reserves one per pool.
struct PoolHeader {
  std::uint64_t payload_size = 0;  // bytes usable by the caller
  std::uint64_t stride = 0;        // header + payload, 64B aligned
  std::uint64_t objs_per_segment = 0;
  nvmm::atomic_pptr<struct PoolSegment> seg_head;
};

struct PoolSegment {
  nvmm::pptr<PoolSegment> next;
  std::uint64_t n_objects = 0;
  std::uint64_t n_blocks = 0;  // segment size, for recovery/mark
  // objects follow at 64-byte alignment
};

class ObjectAllocator {
 public:
  // Formats/attaches a pool with objects of `payload_size` bytes.
  static ObjectAllocator format(nvmm::Device& dev, BlockAllocator& blocks,
                                std::uint64_t pool_header_off,
                                std::uint64_t payload_size,
                                std::uint64_t objs_per_segment = 1024);
  static ObjectAllocator attach(nvmm::Device& dev, BlockAllocator& blocks,
                                std::uint64_t pool_header_off);

  // Claims a free object (flags 00 -> 11, persisted) and returns the
  // *payload* device offset, zero-filled.
  Result<std::uint64_t> alloc();

  // Marks the object's operation complete: clears dirty, persists.
  void commit(std::uint64_t payload_off);

  // Two-bit deallocation protocol: valid off -> zero payload -> dirty off.
  void free(std::uint64_t payload_off);

  // Completes a deallocation found half-done after a crash (flags == 01).
  void finish_pending_free(std::uint64_t payload_off);

  [[nodiscard]] std::uint32_t flags_of(std::uint64_t payload_off) const;
  void set_flags(std::uint64_t payload_off, std::uint32_t flags);

  [[nodiscard]] std::uint64_t payload_size() const noexcept {
    return pool().payload_size;
  }

  // Iterates every object slot: fn(payload_off, flags).  Used by recovery
  // and by the mark-and-sweep reachability pass.
  template <typename Fn>
  void scan(Fn&& fn) const {
    const PoolHeader& p = pool();
    nvmm::pptr<PoolSegment> seg = p.seg_head.load();
    while (seg) {
      const PoolSegment* s = seg.in(*dev_);
      const std::uint64_t first = first_obj_off(seg.raw());
      for (std::uint64_t i = 0; i < s->n_objects; ++i) {
        const std::uint64_t obj = first + i * p.stride;
        const auto* hdr = reinterpret_cast<const ObjectHeader*>(dev_->at(obj));
        fn(obj + sizeof(ObjectHeader),
           hdr->flags.load(std::memory_order_acquire));
      }
      seg = s->next;
    }
  }

  // True if `off` lies inside one of this pool's segments (sweep helper).
  [[nodiscard]] bool owns_block(std::uint64_t block_off) const;

  // Iterates pool segments: fn(segment_dev_off, n_blocks).  Recovery marks
  // these blocks as in use before rebuilding the block allocator.
  template <typename Fn>
  void for_each_segment(Fn&& fn) const {
    nvmm::pptr<PoolSegment> seg = pool().seg_head.load();
    while (seg) {
      const PoolSegment* s = seg.in(*dev_);
      fn(seg.raw(), s->n_blocks);
      seg = s->next;
    }
  }

  // Drops the volatile free cache (simulated process restart).  With a
  // shared stack attached this resets the stack — quiescent callers only
  // (recovery, while peers wait on the mount registry's recovering token).
  void drop_volatile_cache();

  // Switches the free cache to a shm-resident striped stack shared by all
  // mounts.  `mount_token` picks this mount's home stripe (other stripes
  // are touched only to steal/spill).  Call before the first alloc();
  // `stack` must outlive the allocator.
  void attach_shared_cache(ObjCacheStack* stack,
                           std::uint64_t mount_token) noexcept {
    stack_ = stack;
    home_stripe_ = static_cast<unsigned>(
        (mount_token * 0x9e3779b97f4a7c15ull >> 56) % kObjCacheStripes);
  }

  ObjAllocStats& stats() noexcept { return *stats_; }

  // Lease for the shared stack's spinlock steals; mirrors the block
  // allocator's lease (FileSystem::set_lease_ns fans out to both).
  void set_lease_ns(std::uint64_t ns) noexcept { lease_ns_ = ns; }

 private:
  ObjectAllocator(nvmm::Device& dev, BlockAllocator& blocks,
                  std::uint64_t pool_header_off)
      : dev_(&dev), blocks_(&blocks), pool_off_(pool_header_off) {}

  [[nodiscard]] PoolHeader& pool() const noexcept {
    return *reinterpret_cast<PoolHeader*>(dev_->at(pool_off_));
  }
  [[nodiscard]] static std::uint64_t first_obj_off(
      std::uint64_t seg_off) noexcept {
    return (seg_off + sizeof(PoolSegment) + 63) / 64 * 64;
  }
  [[nodiscard]] ObjectHeader& header_of(std::uint64_t payload_off) const {
    return *reinterpret_cast<ObjectHeader*>(
        dev_->at(payload_off - sizeof(ObjectHeader)));
  }

  Status grow();
  void refill_cache() REQUIRES(*cache_mu_);
  Result<std::uint64_t> alloc_shared();
  bool refill_shared();

  nvmm::Device* dev_;
  BlockAllocator* blocks_;
  std::uint64_t pool_off_;

  // Volatile free cache (per-mount, rebuilt on attach/refill).  Heap-held
  // so the allocator stays movable.  Unused once stack_ is attached.
  // GUARDED_BY dereferences the unique_ptr: the analysis tracks `*cache_mu_`
  // as the capability expression, which every lock site names too.
  std::unique_ptr<common::Mutex> cache_mu_ = std::make_unique<common::Mutex>();
  std::vector<std::uint64_t> cache_ GUARDED_BY(*cache_mu_);
  ObjCacheStack* stack_ = nullptr;
  unsigned home_stripe_ = 0;
  std::uint64_t lease_ns_ = 100'000'000;  // 100 ms
  // Heap-held so the allocator stays movable.
  std::unique_ptr<ObjAllocStats> stats_ = std::make_unique<ObjAllocStats>();
};

}  // namespace simurgh::alloc
