// Allocator coordination state resident in the volatile shared-DRAM device.
//
// The paper's deployment model is N independent processes mounting one NVMM
// region with no server (§4).  Any mutable allocator state that more than
// one mount can reach therefore must live where every mount — and every
// *survivor* of a crashed mount — can see it.  Two pieces qualify:
//
//   * Block reservations (block_alloc.h "per-thread block reservations"):
//     a chunk carved out of a segment's persistent free list and handed out
//     lock-free.  If the carving mount dies, the unused remainder is
//     referenced by no inode and sits on no free list; survivors must be
//     able to find it and give it back without a full remount.  Each
//     reservation is a fixed shm slot stamped with the owning mount's
//     token, guarded by a slot lease lock (common/lease.h, the same
//     decentralized crash rule as allocator segment locks).
//
//   * The object allocator's free-object cache (obj_alloc.h): offsets of
//     free pool objects.  The on-media two-bit CAS claim remains the only
//     authority — a cached offset is a *hint* — so sharing one bounded
//     stack between all mounts is safe by construction.  It is the only
//     free-object cache: a raw allocator in a test gets a heap-resident
//     one.  The stack is deliberately LIFO: a just-freed object is the
//     next one handed out, which keeps recycling prompt and the object's
//     cache lines hot.  A full stack drops the push (the scan refill finds
//     the object again later); an empty one sends the caller to the refill
//     scan.
//
// Sharding (NOVA-style per-CPU partitioning, ported to the cross-mount
// tier): one spinlocked LIFO per pool serialises every mount behind a
// single cache line, so the per-pool stack is striped into kObjCacheStripes
// independent, cache-line-aligned stripes.  Each mount homes on one stripe
// (chosen from its attachment token) and touches the others only to steal
// on a miss or spill on overflow — two mounts on different stripes never
// share an allocator cache line on the hot path.  Reservation slots get the
// same treatment: the slot array is carved into per-mount home ranges so
// slot claims scan (and CAS-collide over) kShmReserveSlots/kShmReserveHomes
// slots instead of the whole table.
//
// Everything here is volatile: a fresh boot reformats the shm device and
// recovery re-derives all of it from NVMM.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "common/lease.h"
#include "common/thread_annotations.h"

namespace simurgh::alloc {

// One thread's block reservation, visible to every mount.  `mount` is the
// owning FileSystem's attachment token (0 = slot free); a survivor that
// declares that mount dead reclaims the slot under the slot lock.  Padded
// to a cache line: the slot lock is CASed on every reserved allocation,
// and two adjacent threads' slots must not false-share.
//
// The slot struct itself is the capability (its embedded `lock` is the
// runtime lock): lock_reservation()/unlock_reservation() below are the only
// acquire/release points.  The fields stay plain atomics rather than
// GUARDED_BY members because survivors legitimately read `mount`/`n`
// lock-free (reserved_unused_blocks() sums, liveness probes) — the lock
// only serialises *mutation* of a claimed slot.  The attribute adds no
// bytes (static_assert below still pins the layout).
struct alignas(64) CAPABILITY("shm_reservation_lease") ShmReservation {
  common::LeaseLock lock;
  std::atomic<std::uint64_t> mount{0};          // owning mount token
  std::atomic<std::uint64_t> thread{0};         // owning thread token
  std::atomic<std::uint64_t> dev_off{0};        // next block to hand out
  std::atomic<std::uint64_t> n{0};              // blocks remaining
};
static_assert(sizeof(ShmReservation) == 64);
static_assert(offsetof(ShmReservation, mount) == 16);

constexpr unsigned kShmReserveSlots = 256;
// Home ranges: slot claims start inside the mount's own 1/kShmReserveHomes
// of the table and wrap only when it is exhausted, so mounts stop scanning
// (and CAS-colliding over) one shared prefix of the array.
constexpr unsigned kShmReserveHomes = 8;
constexpr unsigned kShmReserveHomeSlots = kShmReserveSlots / kShmReserveHomes;
static_assert(kShmReserveSlots % kShmReserveHomes == 0);

inline unsigned shm_reserve_home(std::uint64_t mount_token) noexcept {
  // Attachment tokens are clock-derived odd numbers; mix before reducing so
  // near-simultaneous attaches do not pile onto one home range.
  return static_cast<unsigned>((mount_token * 0x9e3779b97f4a7c15ull >> 56) %
                               kShmReserveHomes);
}

// The critical sections behind slot and stripe locks are a handful of
// loads/stores, so a holder whose lease expired can only be a process that
// died inside one: the steal needs no repair beyond taking the lock.
//
// NO_THREAD_SAFETY_ANALYSIS on the bodies: the acquisition is a CAS on the
// embedded LeaseLock's raw atomic words (an atomic is not a capability), so
// the analysis cannot see the acquire/release happen — the ACQUIRE/RELEASE
// attributes on these wrappers are the ground truth callers are checked
// against.
inline void lock_reservation(ShmReservation& r, std::uint64_t self,
                             std::uint64_t lease_ns) noexcept
    ACQUIRE(r) NO_THREAD_SAFETY_ANALYSIS {
  r.lock.lock(self, lease_ns);
}

inline void unlock_reservation(ShmReservation& r, std::uint64_t self) noexcept
    RELEASE(r) NO_THREAD_SAFETY_ANALYSIS {
  r.lock.unlock(self);
}

// One stripe of a pool's free-object cache: a bounded LIFO guarded by its
// own lease lock, aligned so stripes never share a cache line.
// Entries are hints: the popper must still win the on-media flag CAS, so
// the worst a lease steal from a *stalled* (not dead) holder can do is
// duplicate or drop a hint — pops additionally discard zero reads so a torn
// `n` can never surface offset 0 as an object.
constexpr unsigned kObjCacheStripes = 8;
constexpr std::uint32_t kObjCacheStripeSlots = 512;  // per stripe
// Total capacity matches the pre-striping single stack (4096 per pool).
constexpr std::uint32_t kObjCacheSlots =
    kObjCacheStripes * kObjCacheStripeSlots;

// The stripe is a capability like ShmReservation, but its lock never
// escapes: pop_some()/push_some() acquire and release internally (balanced
// on every path), so no REQUIRES contracts exist for callers to satisfy and
// the member functions need no acquire/release annotations.  The attribute
// documents that `n`/`slots` mutation is lock-serialised; looks_empty()
// and looks_full() read `n` lock-free by design (hints, see above).
struct alignas(64) CAPABILITY("obj_cache_stripe_lease") ObjCacheStripe {
  common::LeaseLock lock;
  std::atomic<std::uint32_t> n{0};
  std::atomic<std::uint64_t> slots[kObjCacheStripeSlots];

  void reset() noexcept {
    lock.reset();
    n.store(0, std::memory_order_relaxed);
    for (auto& s : slots) s.store(0, std::memory_order_relaxed);
  }

  // Unsynchronised peek; callers treat the answer as a hint (a stripe can
  // drain or fill between the load and the lock).
  [[nodiscard]] bool looks_empty() const noexcept {
    return n.load(std::memory_order_relaxed) == 0;
  }
  [[nodiscard]] bool looks_full() const noexcept {
    return n.load(std::memory_order_relaxed) >= kObjCacheStripeSlots;
  }

  unsigned pop_some(std::uint64_t* out, unsigned max, std::uint64_t self,
                    std::uint64_t lease_ns) noexcept {
    lock.lock(self, lease_ns);
    std::uint32_t i = n.load(std::memory_order_relaxed);
    unsigned got = 0;
    while (i > 0 && got < max) {
      const std::uint64_t v = slots[--i].load(std::memory_order_relaxed);
      if (v != 0) out[got++] = v;
    }
    n.store(i, std::memory_order_relaxed);
    lock.unlock(self);
    return got;
  }

  unsigned push_some(const std::uint64_t* in, unsigned count,
                     std::uint64_t self, std::uint64_t lease_ns) noexcept {
    lock.lock(self, lease_ns);
    std::uint32_t i = n.load(std::memory_order_relaxed);
    unsigned put = 0;
    while (put < count && i < kObjCacheStripeSlots)
      slots[i++].store(in[put++], std::memory_order_relaxed);
    n.store(i, std::memory_order_relaxed);
    lock.unlock(self);
    return put;
  }
};
static_assert(offsetof(ObjCacheStripe, n) == 16);

// A pool's striped free-object cache: kObjCacheStripes independent LIFOs.
// Every operation names a *home* stripe (the caller's mount affinity); the
// other stripes are touched only to steal on a miss or spill on overflow,
// in ascending distance from home so neighbours absorb imbalance first.
// LIFO order is preserved within a stripe, which is where it matters — a
// mount recycles through its own home stripe, so its just-freed object is
// still the next one it is handed.
struct ObjCacheStack {
  // Identity stamp, renewed on every reset.  Thread-local magazines
  // (obj_alloc.cc) remember it and self-invalidate when it moves — both
  // after recovery and when a torn-down file system's heap address is
  // reused by a fresh one, where stale DRAM hints would otherwise point
  // into an unrelated device image.  Set-level: a reset quiesces every
  // stripe at once.
  std::atomic<std::uint64_t> epoch{0};
  ObjCacheStripe stripes[kObjCacheStripes];

  // Quiescent re-initialisation (shm format, recovery).
  void reset() noexcept {
    for (auto& s : stripes) s.reset();
    epoch.store(common::monotonic_ns(), std::memory_order_release);
    std::atomic_thread_fence(std::memory_order_release);
  }

  // Pops up to `max` hints, home stripe first, stealing from the others in
  // ring order on a miss.  `steals` (optional) counts pops that had to
  // leave the home stripe.
  unsigned pop_batch(std::uint64_t* out, unsigned max, unsigned home,
                     std::uint64_t self, std::uint64_t lease_ns,
                     std::uint64_t* steals = nullptr) noexcept {
    for (unsigned d = 0; d < kObjCacheStripes; ++d) {
      ObjCacheStripe& s = stripes[(home + d) % kObjCacheStripes];
      if (d > 0 && s.looks_empty()) continue;  // skip the lock on a dry peer
      const unsigned got = s.pop_some(out, max, self, lease_ns);
      if (got > 0) {
        if (d > 0 && steals != nullptr) *steals += got;
        return got;
      }
    }
    return 0;
  }

  bool pop(std::uint64_t& off_v, unsigned home, std::uint64_t self,
           std::uint64_t lease_ns, std::uint64_t* steals = nullptr) noexcept {
    return pop_batch(&off_v, 1, home, self, lease_ns, steals) == 1;
  }

  // Pushes up to `count` hints into the home stripe, spilling overflow to
  // the neighbours.  Returns how many were accepted; the rest is dropped —
  // a refill scan finds those objects again.
  unsigned push_batch(const std::uint64_t* in, unsigned count, unsigned home,
                      std::uint64_t self, std::uint64_t lease_ns) noexcept {
    unsigned put = 0;
    for (unsigned d = 0; d < kObjCacheStripes && put < count; ++d) {
      ObjCacheStripe& s = stripes[(home + d) % kObjCacheStripes];
      if (s.looks_full()) continue;
      put += s.push_some(in + put, count - put, self, lease_ns);
    }
    return put;
  }

  bool push(std::uint64_t off_v, unsigned home, std::uint64_t self,
            std::uint64_t lease_ns) noexcept {
    return push_batch(&off_v, 1, home, self, lease_ns) == 1;
  }
};

constexpr unsigned kShmNumPools = 4;  // mirrors core::kNumPools

// The allocator block of the shm header (core/layout.h embeds one).
// Blocks carved into reservations but not yet handed out stay visible via
// the slots' `n` fields (summed by reserved_unused_blocks()), so
// free_blocks() accounting stays exact across mounts with no shared
// hot-path counter.
struct ShmAllocShared {
  ShmReservation reservations[kShmReserveSlots];
  ObjCacheStack obj_stacks[kShmNumPools];

  void reset() noexcept {
    for (auto& r : reservations) {
      r.lock.reset();
      r.mount.store(0, std::memory_order_relaxed);
      r.thread.store(0, std::memory_order_relaxed);
      r.dev_off.store(0, std::memory_order_relaxed);
      r.n.store(0, std::memory_order_relaxed);
    }
    for (auto& s : obj_stacks) s.reset();
  }
};

}  // namespace simurgh::alloc
