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
// Neither is partitioned by mount: a stack lock is taken once per
// magazine batch of hints and the slot table is scanned once per thread's
// first claim, so neither sits on the per-operation path (DESIGN.md §9.3).
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

// The critical sections behind slot and stack locks are a handful of
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

// A pool's free-object cache: one bounded LIFO guarded by a lease lock.
// Entries are hints: the popper must still win the on-media flag CAS, so
// the worst a lease steal from a *stalled* (not dead) holder can do is
// duplicate or drop a hint — pops additionally discard zero reads so a torn
// `n` can never surface offset 0 as an object.
//
// The stack is a capability like ShmReservation, but its lock never
// escapes: pop_batch()/push_batch() acquire and release internally
// (balanced on every path), so no REQUIRES contracts exist for callers to
// satisfy.  The attribute documents that `n`/`slots` mutation is
// lock-serialised.
constexpr std::uint32_t kObjCacheSlots = 4096;  // per pool

struct alignas(64) CAPABILITY("obj_cache_stack_lease") ObjCacheStack {
  // Identity stamp, renewed on every reset.  Thread-local magazines
  // (obj_alloc.cc) remember it and self-invalidate when it moves — both
  // after recovery and when a torn-down file system's heap address is
  // reused by a fresh one, where stale DRAM hints would otherwise point
  // into an unrelated device image.  Every alloc and free reads it, so it
  // keeps a cache line apart from the lock word each batch CASes.
  std::atomic<std::uint64_t> epoch{0};
  alignas(64) common::LeaseLock lock;
  std::atomic<std::uint32_t> n{0};
  std::atomic<std::uint64_t> slots[kObjCacheSlots];

  // Quiescent re-initialisation (shm format, recovery).
  void reset() noexcept {
    lock.reset();
    n.store(0, std::memory_order_relaxed);
    for (auto& s : slots) s.store(0, std::memory_order_relaxed);
    epoch.store(common::monotonic_ns(), std::memory_order_release);
    std::atomic_thread_fence(std::memory_order_release);
  }

  // Pops up to `max` hints, most recently pushed first.
  unsigned pop_batch(std::uint64_t* out, unsigned max, std::uint64_t self,
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

  // Pushes up to `count` hints and returns how many fit; the rest is
  // dropped — a refill scan finds those objects again.
  unsigned push_batch(const std::uint64_t* in, unsigned count,
                      std::uint64_t self, std::uint64_t lease_ns) noexcept {
    lock.lock(self, lease_ns);
    std::uint32_t i = n.load(std::memory_order_relaxed);
    unsigned put = 0;
    while (put < count && i < kObjCacheSlots)
      slots[i++].store(in[put++], std::memory_order_relaxed);
    n.store(i, std::memory_order_relaxed);
    lock.unlock(self);
    return put;
  }
};
static_assert(offsetof(ObjCacheStack, n) == 64 + 16);

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
