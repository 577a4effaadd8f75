#include "alloc/obj_alloc.h"

#include <atomic>
#include <cstring>
#include <vector>

#include "common/failpoint.h"
#include "common/lease.h"

namespace simurgh::alloc {

namespace {

// Thread-local hint magazine over a shared free-object stack: one stack
// lock acquisition moves a whole batch, and a free recycles through the
// local magazine without touching shm at all (still LIFO end to end).
// Magazine hints are invisible to other mounts and die with the thread —
// both harmless: the on-media CAS is the claim authority, and a refill
// scan re-finds any lost offset.  Keyed by the stack pointer, so threads
// driving several mounts of one shm region share a magazine per pool.
constexpr unsigned kMagazineBatch = 16;
constexpr std::size_t kMagazineMax = 2 * kMagazineBatch;

struct Magazine {
  const ObjCacheStack* stack;
  std::uint64_t epoch;
  std::vector<std::uint64_t> hints;  // back = most recently freed
};

Magazine& magazine_for(const ObjCacheStack* s) {
  thread_local std::vector<Magazine> mags;
  const std::uint64_t epoch = s->epoch.load(std::memory_order_acquire);
  for (auto& m : mags) {
    if (m.stack != s) continue;
    if (m.epoch != epoch) {  // stack was reset (or the address recycled)
      m.hints.clear();
      m.epoch = epoch;
    }
    return m;
  }
  mags.push_back(Magazine{s, epoch, {}});
  return mags.back();
}

}  // namespace

ObjectAllocator ObjectAllocator::format(nvmm::Device& dev,
                                        BlockAllocator& blocks,
                                        ObjCacheStack& cache,
                                        std::uint64_t pool_header_off,
                                        std::uint64_t payload_size,
                                        std::uint64_t objs_per_segment) {
  ObjectAllocator a(dev, blocks, cache, pool_header_off);
  PoolHeader& p = a.pool();
  p.payload_size = payload_size;
  p.stride = (sizeof(ObjectHeader) + payload_size + 63) / 64 * 64;
  p.objs_per_segment = objs_per_segment;
  p.seg_head.store(nvmm::pptr<PoolSegment>());
  nvmm::persist_now(p);
  return a;
}

ObjectAllocator ObjectAllocator::attach(nvmm::Device& dev,
                                        BlockAllocator& blocks,
                                        ObjCacheStack& cache,
                                        std::uint64_t pool_header_off) {
  ObjectAllocator a(dev, blocks, cache, pool_header_off);
  SIMURGH_CHECK(a.pool().stride != 0);
  return a;
}

Status ObjectAllocator::grow() {
  PoolHeader& p = pool();
  // A fragmented device may hold no free run as long as a full segment:
  // halve the segment until one fits, down to one object.  Each segment
  // records its own size.
  std::uint64_t n_objects = p.objs_per_segment;
  std::uint64_t n_blocks = 0;
  Result<std::uint64_t> r = Errc::no_space;
  for (;;) {
    n_blocks = (first_obj_off(0) + n_objects * p.stride + kBlockSize - 1) /
               kBlockSize;
    r = blocks_->alloc(n_blocks, pool_off_);
    if (r.is_ok() || r.code() != Errc::no_space || n_objects == 1) break;
    n_objects /= 2;
  }
  SIMURGH_ASSIGN_OR_RETURN(const std::uint64_t seg_off, r);
  std::memset(dev_->at(seg_off), 0, n_blocks * kBlockSize);
  // The zeroed object headers must be durable before the head can publish
  // the segment: these blocks are recycled, and a crash image holding a
  // published head over unflushed zeros would replay whatever two-bit flags
  // the previous owner left in them.  The fence in the publish loop below
  // orders this flush before the head store.
  nvmm::persist(dev_->at(seg_off), n_blocks * kBlockSize);
  auto* seg = reinterpret_cast<PoolSegment*>(dev_->at(seg_off));
  seg->n_objects = n_objects;
  seg->n_blocks = n_blocks;
  // Publish with a CAS push; the segment list is only ever prepended.  The
  // header must be durable *before* the head can point at it, and the head
  // must be durable before any object from the segment can be handed out —
  // otherwise a crash image can hold a published head with a torn header
  // (a zero-length segment) or live objects inside an unpublished segment.
  nvmm::pptr<PoolSegment> head = p.seg_head.load();
  do {
    seg->next = head;
    nvmm::persist_obj(*seg);
    nvmm::fence();
  } while (!p.seg_head.compare_exchange(head, nvmm::pptr<PoolSegment>(seg_off)));
  nvmm::persist_obj(p.seg_head);
  nvmm::fence();
  return Status::ok();
}

bool ObjectAllocator::refill() {
  // Push candidates (flags == 00) without claiming them; duplicates across
  // refilling mounts are harmless — the popper must win the flag CAS.  A
  // full stack ends the scan early: whatever did not fit is found again by
  // the next refill.
  const std::uint64_t self = common::thread_token();
  const std::uint64_t lease_ns = blocks_->lease_ns();
  std::uint64_t batch[64];
  unsigned pending = 0;
  bool any = false;
  bool full = false;
  scan([&](std::uint64_t payload_off, std::uint32_t flags) {
    if (full || flags != 0) return;
    batch[pending++] = payload_off;
    if (pending < std::size(batch)) return;
    const unsigned put = stack_->push_batch(batch, pending, self, lease_ns);
    any |= put > 0;
    full = put < pending;
    pending = 0;
  });
  if (!full && pending > 0)
    any |= stack_->push_batch(batch, pending, self, lease_ns) > 0;
  return any;
}

Result<std::uint64_t> ObjectAllocator::alloc() {
  // Serve from the thread-local magazine, batch-refilled off the shared
  // stack, racing peers for the on-media claim.  Every grow() adds fresh
  // free objects, so each trip around the loop makes global progress until
  // the device is full.
  const std::uint64_t self = common::thread_token();
  Magazine& mag = magazine_for(stack_);
  for (;;) {
    while (!mag.hints.empty()) {
      const std::uint64_t off = mag.hints.back();
      mag.hints.pop_back();
      ObjectHeader& hdr = header_of(off);
      std::uint32_t expected = 0;
      if (hdr.flags.compare_exchange_strong(expected, kObjValid | kObjDirty,
                                            std::memory_order_acq_rel)) {
        // Flushed, not fenced: the caller's fence before its publish orders
        // the claim with the payload (an unpublished 11 is reclaimed).
        nvmm::persist_obj(hdr.flags);
        SIMURGH_FAILPOINT("objalloc.claimed");
        return off;
      }
      // A peer mount claimed this hint first (or it was never free).
      stats_->claim_cas_retries.fetch_add(1, std::memory_order_relaxed);
    }
    std::uint64_t batch[kMagazineBatch];
    const unsigned got =
        stack_->pop_batch(batch, kMagazineBatch, self, blocks_->lease_ns());
    if (got > 0) {
      // batch[0] is the most recently freed; append in reverse so the
      // magazine's back keeps the LIFO order.
      for (unsigned i = got; i > 0; --i) mag.hints.push_back(batch[i - 1]);
      continue;
    }
    if (refill()) continue;
    if (Status st = grow(); !st.is_ok()) return st.code();
    refill();
  }
}

void ObjectAllocator::commit(std::uint64_t payload_off) {
  ObjectHeader& hdr = header_of(payload_off);
  hdr.flags.fetch_and(~kObjDirty, std::memory_order_release);
  nvmm::persist_obj(hdr.flags);
}

void ObjectAllocator::free(std::uint64_t payload_off) {
  ObjectHeader& hdr = header_of(payload_off);
  // Step 1: unset valid, set dirty ("deallocation in progress").
  hdr.flags.store(kObjDirty, std::memory_order_release);
  nvmm::persist_obj(hdr.flags);
  SIMURGH_FAILPOINT("objalloc.free.valid_cleared");
  finish_pending_free(payload_off);
}

void ObjectAllocator::finish_pending_free(std::uint64_t payload_off) {
  // Step 2: zero the payload so stale pointers read as null.  Lock-free
  // walkers may still be value-validating this object (the paper's probes
  // hold no locks), so the scrub is word-wise atomic rather than memset —
  // a racing reader sees either the old word or zero, never a torn value.
  auto* words =
      reinterpret_cast<std::atomic<std::uint64_t>*>(dev_->at(payload_off));
  const std::size_t n_words = pool().payload_size / 8;
  for (std::size_t i = 0; i < n_words; ++i)
    words[i].store(0, std::memory_order_relaxed);
  auto* tail = reinterpret_cast<std::atomic<unsigned char>*>(words + n_words);
  for (std::size_t i = 0; i < pool().payload_size % 8; ++i)
    tail[i].store(0, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
  nvmm::persist(dev_->at(payload_off), pool().payload_size);
  SIMURGH_FAILPOINT("objalloc.free.zeroed");
  // Step 3: unset dirty — object is free again.
  ObjectHeader& hdr = header_of(payload_off);
  hdr.flags.store(0, std::memory_order_release);
  nvmm::persist_obj(hdr.flags);
  // Recycle through the local magazine; spill the oldest half to the shared
  // stack once it overfills (dropped-when-full is fine there — a refill
  // scan finds the object again).
  Magazine& mag = magazine_for(stack_);
  mag.hints.push_back(payload_off);
  if (mag.hints.size() > kMagazineMax) {
    stack_->push_batch(mag.hints.data(), kMagazineBatch,
                       common::thread_token(), blocks_->lease_ns());
    mag.hints.erase(mag.hints.begin(), mag.hints.begin() + kMagazineBatch);
  }
}

std::uint32_t ObjectAllocator::flags_of(std::uint64_t payload_off) const {
  return header_of(payload_off).flags.load(std::memory_order_acquire);
}

void ObjectAllocator::set_flags(std::uint64_t payload_off,
                                std::uint32_t flags) {
  ObjectHeader& hdr = header_of(payload_off);
  hdr.flags.store(flags, std::memory_order_release);
  nvmm::persist_obj(hdr.flags);
}

void ObjectAllocator::drop_volatile_cache() {
  magazine_for(stack_).hints.clear();  // this thread's magazine only;
  stack_->reset();  // peers' stale magazines lose the claim CAS anyway
}

}  // namespace simurgh::alloc
