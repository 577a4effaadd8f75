#include "alloc/block_alloc.h"

#include <algorithm>
#include <vector>

#include "common/failpoint.h"
#include "common/thread_annotations.h"

namespace simurgh::alloc {

namespace {

constexpr std::uint64_t kMagic = 0x53494d5f424c4b31ull;  // "SIM_BLK1"

}  // namespace

BlockAllocator BlockAllocator::format(nvmm::Device& dev,
                                      std::uint64_t header_off,
                                      std::uint64_t data_off,
                                      std::uint64_t data_len,
                                      unsigned n_segments) {
  SIMURGH_CHECK(n_segments > 0);
  SIMURGH_CHECK(data_off % kBlockSize == 0);
  BlockAllocator a(dev, header_off);
  auto& h = a.header();
  h.magic = kMagic;
  h.n_segments = n_segments;
  h.data_off = data_off;
  h.n_blocks = data_len / kBlockSize;
  nvmm::persist_now(h);

  SegmentHeader* segs = a.segments();
  const std::uint64_t per_seg = (h.n_blocks + n_segments - 1) / n_segments;
  for (unsigned s = 0; s < n_segments; ++s) {
    new (&segs[s]) SegmentHeader();
    const std::uint64_t first = std::min<std::uint64_t>(
        static_cast<std::uint64_t>(s) * per_seg, h.n_blocks);
    const std::uint64_t count = std::min<std::uint64_t>(
        per_seg, h.n_blocks - first);
    if (count > 0) {
      const std::uint64_t range_off = data_off + first * kBlockSize;
      auto* range = reinterpret_cast<FreeRange*>(dev.at(range_off));
      range->next = nvmm::pptr<FreeRange>();
      range->n_blocks = count;
      nvmm::persist_obj(*range);
      segs[s].free_head.store(nvmm::pptr<FreeRange>(range_off));
      segs[s].free_blocks.store(count, std::memory_order_relaxed);
    }
    nvmm::persist_obj(segs[s]);
  }
  nvmm::fence();
  return a;
}

BlockAllocator BlockAllocator::attach(nvmm::Device& dev,
                                      std::uint64_t header_off) {
  BlockAllocator a(dev, header_off);
  SIMURGH_CHECK(a.header().magic == kMagic);
  return a;
}

unsigned BlockAllocator::segment_of(std::uint64_t block_off) const noexcept {
  const BlockAllocHeader& h = header();
  const std::uint64_t idx = (block_off - h.data_off) / kBlockSize;
  const std::uint64_t per_seg =
      (h.n_blocks + h.n_segments - 1) / h.n_segments;
  return static_cast<unsigned>(idx / per_seg);
}

// NO_THREAD_SAFETY_ANALYSIS on the three lock-word bodies: acquisition is a
// CAS on the segment's LeaseLock words (an atomic word is not a capability
// the analysis can track), so the function-level ACQUIRE/RELEASE/
// TRY_ACQUIRE attributes in block_alloc.h are the ground truth callers are
// checked against; the bodies themselves cannot be proven by the analysis.
bool BlockAllocator::try_lock_segment(SegmentHeader& seg)
    NO_THREAD_SAFETY_ANALYSIS {
  return seg.lock.try_lock(common::thread_token());
}

bool BlockAllocator::lock_segment(SegmentHeader& seg)
    NO_THREAD_SAFETY_ANALYSIS {  // see try_lock_segment
  const bool stolen = seg.lock.lock(common::thread_token(), lease_ns_);
  if (stolen) stats_->lock_steals.fetch_add(1, std::memory_order_relaxed);
  return stolen;
}

void BlockAllocator::unlock_segment(SegmentHeader& seg) noexcept
    NO_THREAD_SAFETY_ANALYSIS {  // see try_lock_segment
  seg.lock.unlock(common::thread_token());
}

Result<std::uint64_t> BlockAllocator::alloc(std::uint64_t n_blocks,
                                            std::uint64_t hint) {
  SIMURGH_CHECK(n_blocks > 0);
  if (shared_ != nullptr && n_blocks <= kReserveServeMax) {
    auto r = alloc_reserved(n_blocks, hint);
    if (r.is_ok()) {
      stats_->allocs.fetch_add(1, std::memory_order_relaxed);
      return r;
    }
    // no_space from a refill can still be served piecemeal below.
  }
  auto r = alloc_direct(n_blocks, hint);
  if (r.is_ok()) stats_->allocs.fetch_add(1, std::memory_order_relaxed);
  return r;
}

Result<std::uint64_t> BlockAllocator::alloc_direct(std::uint64_t n_blocks,
                                                   std::uint64_t hint) {
  BlockAllocHeader& h = header();
  SegmentHeader* segs = segments();
  // Mount affinity: rotate the walk by this mount's segment bias so peers
  // with similar hints (e.g. both hammering pool growth off low pool-header
  // offsets) start on different segment locks and free-list heads.  Within
  // one mount the hint still clusters a file's blocks in one segment.
  const unsigned start = static_cast<unsigned>(
      (segment_bias_ + hint / kBlockSize) % h.n_segments);

  // First pass: prefer an immediately free segment (the "move to the next
  // segment if busy" rule).  Second pass: wait on each in turn.
  for (int pass = 0; pass < 2; ++pass) {
    for (unsigned i = 0; i < h.n_segments; ++i) {
      SegmentHeader& seg = segs[(start + i) % h.n_segments];
      if (pass == 0) {
        if (!try_lock_segment(seg)) {
          stats_->segment_hops.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
      } else {
        lock_segment(seg);
      }
      auto r = alloc_from(seg, n_blocks);
      unlock_segment(seg);
      if (r.is_ok()) return r;
    }
  }
  return Errc::no_space;
}

Result<std::uint64_t> BlockAllocator::carve(std::uint64_t n_blocks,
                                            std::uint64_t hint) {
  if (CarveProxy* p = carve_proxy_->load(std::memory_order_acquire)) {
    auto r = p->carve(n_blocks, hint);
    // ok and no_space are the arbiter's answer; anything else (busy while
    // the service endpoint shuts down, io after an owner crash with no seat
    // takeable) degrades to the direct path — unarbitrated but crash-safe.
    if (r.is_ok() || r.status().code() == Errc::no_space) return r;
  }
  return alloc_direct(n_blocks, hint);
}

void BlockAllocator::attach_shared_state(ShmAllocShared* shared,
                                         std::uint64_t mount_token) noexcept {
  shared_ = shared;
  mount_token_ = mount_token;
  // Spread mounts across the segment ring (see segment_bias_).
  const unsigned n = n_segments();
  segment_bias_ = n > 0 ? static_cast<unsigned>(
                              (mount_token * 0x9e3779b97f4a7c15ull >> 40) % n)
                        : 0;
}

ShmReservation* BlockAllocator::shm_thread_slot() {
  // The binding (shared region → slot index) is thread-local DRAM; the slot
  // itself is shm.  A survivor that declared this mount dead may have freed
  // the slot behind our back, and another thread may have adopted it while
  // this one sat idle, so every use revalidates {mount, thread} under the
  // slot lock and rebinds on mismatch (alloc_reserved).
  struct Binding {
    ShmAllocShared* shared;
    unsigned idx;
  };
  thread_local std::vector<Binding> bindings;
  const std::uint64_t self = common::thread_token();
  for (auto it = bindings.begin(); it != bindings.end(); ++it) {
    if (it->shared != shared_) continue;
    ShmReservation& slot = shared_->reservations[it->idx];
    const std::uint64_t owner = slot.mount.load(std::memory_order_acquire);
    if (slot.thread.load(std::memory_order_relaxed) == self) {
      if (owner == mount_token_) return &slot;
      // This thread's slot under a *sibling* mount of the same shm region
      // (one process, several FileSystem instances): keep that binding.
      if (owner != 0) continue;
    }
    bindings.erase(it);  // slot was reclaimed or adopted; claim a fresh one
    break;
  }
  // Claim scan from slot 0: it runs once per thread's first claim (and
  // after a rebind), not per allocation.
  unsigned probes = 0;
  for (unsigned i = 0; i < kShmReserveSlots; ++i) {
    ShmReservation& slot = shared_->reservations[i];
    ++probes;
    const std::uint64_t owner = slot.mount.load(std::memory_order_relaxed);
    const std::uint64_t thread = slot.thread.load(std::memory_order_relaxed);
    // Re-adopt a slot this thread already owns for this mount (the binding
    // was dropped, e.g. the thread alternated between two mounts of the
    // same shm region in one process) before burning a fresh one.
    const bool ours = owner == mount_token_ && thread == self;
    // Every reserved alloc stamps the slot lock, so a claimed slot whose
    // lock sat free for a whole lease belongs to a thread that exited (or
    // idled that long).  Adopt it with its remainder: nothing else would
    // reclaim an exited thread's slot before unmount.  An idle owner that
    // comes back fails the {mount, thread} revalidation and rebinds.
    const bool idle =
        owner != 0 && slot.lock.owner.load(std::memory_order_acquire) == 0 &&
        common::lease_expired(slot.lock.stamp_ns, lease_ns_);
    if (owner != 0 && !ours && !idle) continue;
    lock_reservation(slot, self, lease_ns_);
    // Unchanged {mount, thread} under the lock: no racing claimer got here
    // first.
    if (slot.mount.load(std::memory_order_relaxed) == owner &&
        slot.thread.load(std::memory_order_relaxed) == thread) {
      if (!ours) {  // free (its n is 0) or idle: its remainder is ours now
        slot.thread.store(self, std::memory_order_relaxed);
        slot.mount.store(mount_token_, std::memory_order_release);
      }
      unlock_reservation(slot, self);
      if (bindings.size() > 8) bindings.clear();  // stale-region hygiene
      bindings.push_back({shared_, i});
      stats_->reserve_slot_probes.fetch_add(probes,
                                            std::memory_order_relaxed);
      return &slot;
    }
    unlock_reservation(slot, self);
  }
  stats_->reserve_slot_probes.fetch_add(probes, std::memory_order_relaxed);
  return nullptr;  // table full: caller serves directly
}

Result<std::uint64_t> BlockAllocator::alloc_reserved(std::uint64_t n,
                                                     std::uint64_t hint) {
  const std::uint64_t self = common::thread_token();
  ShmReservation* res = shm_thread_slot();
  if (res == nullptr) return alloc_direct(n, hint);
  lock_reservation(*res, self, lease_ns_);
  if (res->mount.load(std::memory_order_relaxed) != mount_token_ ||
      res->thread.load(std::memory_order_relaxed) != self) {
    // Reclaimed or adopted between shm_thread_slot's check and our lock.
    // Serve this call directly; the next call's revalidation rebinds.
    unlock_reservation(*res, self);
    return alloc_direct(n, hint);
  }
  if (res->n.load(std::memory_order_relaxed) >= n) {
    const std::uint64_t off = res->dev_off.load(std::memory_order_relaxed);
    res->dev_off.store(off + n * kBlockSize, std::memory_order_relaxed);
    res->n.fetch_sub(n, std::memory_order_relaxed);
    unlock_reservation(*res, self);
    stats_->reserve_hits.fetch_add(1, std::memory_order_relaxed);
    return off;
  }
  // Return the tail we cannot serve from (the next chunk is not contiguous
  // with it), then refill.  free() nests segment locks inside the slot
  // lock; nothing takes a slot lock while holding a segment lock.
  const std::uint64_t tail_n = res->n.load(std::memory_order_relaxed);
  if (tail_n > 0) {
    const std::uint64_t tail_off =
        res->dev_off.load(std::memory_order_relaxed);
    res->n.store(0, std::memory_order_relaxed);
    free(tail_off, tail_n);
    stats_->reserve_drains.fetch_add(1, std::memory_order_relaxed);
  }
  // Refill with the slot lock dropped: carving the chunk spins on segment
  // locks, and a short slot lease must not expire around that wait.
  unlock_reservation(*res, self);
  auto c = carve(kReserveChunk, hint);
  if (!c.is_ok()) {
    // Near-full device: fall back to exactly what was asked for.
    return carve(n, hint);
  }
  lock_reservation(*res, self, lease_ns_);
  if (res->mount.load(std::memory_order_relaxed) == mount_token_ &&
      res->thread.load(std::memory_order_relaxed) == self &&
      res->n.load(std::memory_order_relaxed) == 0) {
    res->dev_off.store(c.value() + n * kBlockSize, std::memory_order_relaxed);
    res->n.store(kReserveChunk - n, std::memory_order_relaxed);
    unlock_reservation(*res, self);
    stats_->reserve_refills.fetch_add(1, std::memory_order_relaxed);
    return c.value();
  }
  // Lost the slot mid-refill (reclaimed or adopted): keep the first n
  // blocks for the caller, give the remainder straight back.
  unlock_reservation(*res, self);
  free(c.value() + n * kBlockSize, kReserveChunk - n);
  return c.value();
}

std::uint64_t BlockAllocator::reclaim_shm_slots(std::uint64_t tok,
                                                bool match_all) {
  std::uint64_t blocks = 0;
  const std::uint64_t self = common::thread_token();
  for (unsigned i = 0; i < kShmReserveSlots; ++i) {
    ShmReservation& slot = shared_->reservations[i];
    const std::uint64_t owner = slot.mount.load(std::memory_order_acquire);
    if (owner == 0 || (!match_all && owner != tok)) continue;
    lock_reservation(slot, self, lease_ns_);
    const std::uint64_t owner2 = slot.mount.load(std::memory_order_relaxed);
    if (owner2 == 0 || (!match_all && owner2 != tok)) {
      unlock_reservation(slot, self);
      continue;
    }
    const std::uint64_t off = slot.dev_off.load(std::memory_order_relaxed);
    const std::uint64_t len = slot.n.load(std::memory_order_relaxed);
    slot.n.store(0, std::memory_order_relaxed);
    slot.dev_off.store(0, std::memory_order_relaxed);
    slot.thread.store(0, std::memory_order_relaxed);
    slot.mount.store(0, std::memory_order_release);
    unlock_reservation(slot, self);
    if (len > 0) {
      free(off, len);
      blocks += len;
      stats_->reserve_drains.fetch_add(1, std::memory_order_relaxed);
    }
  }
  return blocks;
}

std::uint64_t BlockAllocator::reclaim_mount_reservations(
    std::uint64_t dead_mount_token) {
  if (shared_ == nullptr || dead_mount_token == 0) return 0;
  return reclaim_shm_slots(dead_mount_token, /*match_all=*/false);
}

unsigned BlockAllocator::reap_expired_segment_locks() {
  BlockAllocHeader& h = header();
  SegmentHeader* segs = segments();
  unsigned cleared = 0;
  for (unsigned s = 0; s < h.n_segments; ++s) {
    common::LeaseLock& l = segs[s].lock;
    std::uint64_t owner = l.owner.load(std::memory_order_acquire);
    if (owner == 0 || !common::lease_expired(l.stamp_ns, lease_ns_)) continue;
    // Clearing straight to 0 is steal + immediate release: the holder died
    // inside a critical section that alloc_from/free_into keep crash-
    // consistent (recovery's rebuild sweeps any half-carved range).
    if (l.owner.compare_exchange_strong(owner, 0,
                                        std::memory_order_acq_rel)) {
      ++cleared;
      stats_->lock_steals.fetch_add(1, std::memory_order_relaxed);
    }
  }
  return cleared;
}

Result<std::uint64_t> BlockAllocator::alloc_from(SegmentHeader& seg,
                                                 std::uint64_t n) {
  // First-fit over the address-ordered free-range list.
  nvmm::pptr<FreeRange> prev;
  nvmm::pptr<FreeRange> cur = seg.free_head.load();
  while (cur) {
    FreeRange* range = cur.in(*dev_);
    if (range->n_blocks >= n) {
      const std::uint64_t remaining = range->n_blocks - n;
      // Carve from the *tail* so the list node stays in place unless the
      // range is consumed entirely.
      if (remaining > 0) {
        range->n_blocks = remaining;
        nvmm::persist_obj(*range);
        SIMURGH_FAILPOINT("blockalloc.split");
        seg.free_blocks.fetch_sub(n, std::memory_order_relaxed);
        nvmm::fence();
        return cur.raw() + remaining * kBlockSize;
      }
      // Unlink the whole range.
      const nvmm::pptr<FreeRange> next = range->next;
      if (prev) {
        prev.in(*dev_)->next = next;
        nvmm::persist_obj(*prev.in(*dev_));
      } else {
        seg.free_head.store(next);
        nvmm::persist_obj(seg.free_head);
      }
      SIMURGH_FAILPOINT("blockalloc.unlink");
      seg.free_blocks.fetch_sub(n, std::memory_order_relaxed);
      nvmm::fence();
      return cur.raw();
    }
    prev = cur;
    cur = range->next;
  }
  return Errc::no_space;
}

void BlockAllocator::free(std::uint64_t block_off, std::uint64_t n_blocks) {
  SIMURGH_CHECK(n_blocks > 0);
  SegmentHeader& seg = segments()[segment_of(block_off)];
  lock_segment(seg);
  free_into(seg, block_off, n_blocks);
  unlock_segment(seg);
  stats_->frees.fetch_add(1, std::memory_order_relaxed);
}

void BlockAllocator::free_into(SegmentHeader& seg, std::uint64_t block_off,
                               std::uint64_t n) {
  // Address-ordered insert with two-sided coalescing.
  nvmm::pptr<FreeRange> prev;
  nvmm::pptr<FreeRange> cur = seg.free_head.load();
  while (cur && cur.raw() < block_off) {
    prev = cur;
    cur = cur.in(*dev_)->next;
  }
  auto* node = reinterpret_cast<FreeRange*>(dev_->at(block_off));
  node->next = cur;
  node->n_blocks = n;

  bool merged_prev = false;
  if (prev) {
    FreeRange* p = prev.in(*dev_);
    if (prev.raw() + p->n_blocks * kBlockSize == block_off) {
      p->n_blocks += n;
      // Forward-merge with cur if now adjacent.
      if (cur && prev.raw() + p->n_blocks * kBlockSize == cur.raw()) {
        p->n_blocks += cur.in(*dev_)->n_blocks;
        p->next = cur.in(*dev_)->next;
      }
      nvmm::persist_obj(*p);
      merged_prev = true;
    }
  }
  if (!merged_prev) {
    if (cur && block_off + n * kBlockSize == cur.raw()) {
      node->n_blocks += cur.in(*dev_)->n_blocks;
      node->next = cur.in(*dev_)->next;
    }
    nvmm::persist_obj(*node);
    if (prev) {
      prev.in(*dev_)->next = nvmm::pptr<FreeRange>(block_off);
      nvmm::persist_obj(*prev.in(*dev_));
    } else {
      seg.free_head.store(nvmm::pptr<FreeRange>(block_off));
      nvmm::persist_obj(seg.free_head);
    }
  }
  seg.free_blocks.fetch_add(n, std::memory_order_relaxed);
  nvmm::fence();
}

void BlockAllocator::drain_reservations(bool drain_all) {
  if (shared_ == nullptr) return;
  // Own slots always; every claimed slot when last-out sweeps stragglers.
  reclaim_shm_slots(mount_token_, drain_all);
}

void BlockAllocator::invalidate_reservations() noexcept {
  if (shared_ == nullptr) return;
  // Forget the ranges but keep slot claims: live peer threads rebind via
  // revalidation; the caller is about to rebuild the free lists.
  const std::uint64_t self = common::thread_token();
  for (ShmReservation& slot : shared_->reservations) {
    lock_reservation(slot, self, lease_ns_);
    slot.n.store(0, std::memory_order_relaxed);
    unlock_reservation(slot, self);
  }
}

std::uint64_t BlockAllocator::reserved_unused_blocks() const noexcept {
  if (shared_ == nullptr) return 0;
  // Derived from the slots instead of a shared hot-path counter; exact
  // whenever no reservation is mid-refill (every accounting caller).
  std::uint64_t total = 0;
  for (const ShmReservation& slot : shared_->reservations)
    total += slot.n.load(std::memory_order_acquire);
  return total;
}

void BlockAllocator::for_each_reservation(
    const std::function<void(std::uint64_t, std::uint64_t)>& fn) const {
  if (shared_ == nullptr) return;
  const std::uint64_t self = common::thread_token();
  for (ShmReservation& slot : shared_->reservations) {
    lock_reservation(slot, self, lease_ns_);
    const std::uint64_t len = slot.n.load(std::memory_order_relaxed);
    if (len > 0) fn(slot.dev_off.load(std::memory_order_relaxed), len);
    unlock_reservation(slot, self);
  }
}

std::uint64_t BlockAllocator::free_blocks() const noexcept {
  const BlockAllocHeader& h = header();
  const SegmentHeader* segs = segments();
  std::uint64_t total = 0;
  for (unsigned s = 0; s < h.n_segments; ++s)
    total += segs[s].free_blocks.load(std::memory_order_relaxed);
  // Reserved-but-unused blocks are still free space — they are just parked
  // in a thread's reservation slot rather than on a segment list.
  return total + reserved_unused_blocks();
}

unsigned BlockAllocator::n_segments() const noexcept {
  return static_cast<unsigned>(header().n_segments);
}

}  // namespace simurgh::alloc
