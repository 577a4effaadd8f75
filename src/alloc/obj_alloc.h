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
// Allocation claims an object by CAS-ing 00 -> 11; when the file-system
// operation that uses the object completes, it clears the dirty bit
// (commit).  Deallocation clears valid, zeroes the payload, then clears
// dirty — so a crash at any point leaves a state the recovery scan maps to
// exactly one decision (the paper's two-bit protocol).
//
// alloc, commit, set_flags and free flush their flag word but do not fence
// (DESIGN.md "Persist budget").  The caller owns the ordering:
//  * a claim and the payload written after it are fenced together before
//    the store that publishes the object; until then an 11 object is
//    unreachable and recovery reclaims it;
//  * commit rides the next fence, since recovery commits a reachable 11;
//  * an object the durable image can still reach is set to 01 and fenced
//    before anything zeroes it, and free / finish_pending_free run only
//    after the store that unlinked it is fenced.
// Because a free's flushes are unfenced, a crash can leave a free (00)
// object whose header line landed but whose payload lines still hold the
// previous owner's bytes: alloc() hands out a zero payload on a live
// mount, but after a crash it promises nothing about the payload, so every
// caller stores each field it relies on.
//
// A volatile free-object cache holds offsets of free objects so the hot
// path is O(1), falling back to scanning pool segments on refill.  The
// cache is one LIFO stack in the shm device, shared by every mount of the
// pool (alloc/shm_state.h), under a thread-local magazine.  Its entries
// are *hints* — the on-media flag CAS is the only claim authority — so a
// hint another mount already claimed costs one failed CAS, never a double
// allocation.  LIFO end to end: a just-freed object is the next one handed
// out.  The caller passes the stack to format()/attach(), so no
// allocation runs without it.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>

#include "alloc/block_alloc.h"
#include "alloc/shm_state.h"
#include "common/status.h"
#include "nvmm/pptr.h"

namespace simurgh::alloc {

constexpr std::uint32_t kObjValid = 1u;
constexpr std::uint32_t kObjDirty = 2u;

// Per-process DRAM contention counters, bumped relaxed (lost increments
// acceptable, like BlockAllocStats).  claim_cas_retries counts hints
// another mount (or thread) claimed first: the on-media flag CAS lost.
// stripe_steals is never incremented (the stack has no stripes); it stays
// because perfbench's tracer still reads it.
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
  // Formats/attaches a pool with objects of `payload_size` bytes.  `cache`
  // is the pool's free-object stack (one per pool, never shared between
  // pools) and must outlive the allocator.  The stack's lease is `blocks`'s
  // lease.
  static ObjectAllocator format(nvmm::Device& dev, BlockAllocator& blocks,
                                ObjCacheStack& cache,
                                std::uint64_t pool_header_off,
                                std::uint64_t payload_size,
                                std::uint64_t objs_per_segment = 1024);
  static ObjectAllocator attach(nvmm::Device& dev, BlockAllocator& blocks,
                                ObjCacheStack& cache,
                                std::uint64_t pool_header_off);

  // Claims a free object (flags 00 -> 11, flushed, not fenced) and returns
  // the *payload* device offset.  The payload is not guaranteed zero after
  // a crash (see the header comment): the caller initialises every field.
  Result<std::uint64_t> alloc();

  // Marks the object's operation complete: clears dirty, flushes.
  void commit(std::uint64_t payload_off);

  // Two-bit deallocation protocol: valid off -> zero payload -> dirty off,
  // each flushed, none fenced.  Only for objects the durable image can no
  // longer reach.
  void free(std::uint64_t payload_off);

  // Completes a deallocation found half-done (flags == 01), unfenced.
  void finish_pending_free(std::uint64_t payload_off);

  [[nodiscard]] std::uint32_t flags_of(std::uint64_t payload_off) const;
  // Stores and flushes the flag word; the caller fences.
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

  // Drops the volatile free cache (simulated process restart) by resetting
  // the shared stack — quiescent callers only (recovery, while peers wait
  // on the mount registry's recovering token).
  void drop_volatile_cache();

  ObjAllocStats& stats() noexcept { return *stats_; }

 private:
  ObjectAllocator(nvmm::Device& dev, BlockAllocator& blocks,
                  ObjCacheStack& cache, std::uint64_t pool_header_off)
      : dev_(&dev), blocks_(&blocks), stack_(&cache),
        pool_off_(pool_header_off) {}

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
  bool refill();

  nvmm::Device* dev_;
  BlockAllocator* blocks_;
  ObjCacheStack* stack_;
  std::uint64_t pool_off_;
  // Heap-held so the allocator stays movable.
  std::unique_ptr<ObjAllocStats> stats_ = std::make_unique<ObjAllocStats>();
};

}  // namespace simurgh::alloc
