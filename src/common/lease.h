// Leases: the crash rule behind every cross-process lock (paper §4.2–4.3).
//
// Simurgh has no kernel and no daemon to notice that a lock holder died.
// Every busy flag therefore carries a timestamp, and a waiter that finds
// the stamp older than the lease concludes the holder crashed, takes the
// lock over, and repairs what the dead holder left.  This header is the
// one place that rule is written down:
//
//   * monotonic_ns() is the one clock every stamp and every check uses;
//   * thread_token() is the owner token a thread writes into lock words;
//   * lease_expired() is the one expiry check;
//   * LeaseLock is the {owner, stamp} lock word pair, with the two rules
//     every lease lock follows — stamp before claim, and a steal claims
//     the stamp first.
//
// Locks with their own word shape (the per-file reader/writer word, the
// directory line busy bits, the service seat) keep their words but follow
// the same two rules through lease_expired() and claim_expired_stamp().
// DESIGN.md §9.6 lists every lease word, who steals it and what the thief
// repairs.
#pragma once

#include <sched.h>
#include <time.h>

#include <atomic>
#include <cstdint>

namespace simurgh::common {

// CLOCK_MONOTONIC in nanoseconds.  A stamp written in an earlier boot (an
// NVMM lock word) can read ahead of this clock; lease_expired() treats such
// a stamp as expired.
inline std::uint64_t monotonic_ns() noexcept {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

// Nonzero owner token, distinct per thread (across processes with
// overwhelming probability).
inline std::uint64_t thread_token() noexcept {
  thread_local const std::uint64_t token = monotonic_ns() | 1;
  return token;
}

// True iff the lease stamped in `stamp_ns` is more than `lease_ns` old.
// The stamp is loaded BEFORE the clock is read: a stamp written by this
// boot is then never ahead of `now`, so `now - stamp` cannot wrap and make
// a live holder read as dead.  A stamp from an earlier boot may be ahead;
// the unsigned difference then wraps to a huge age and reads as expired,
// which lets the first mount after a reboot take a dead holder's lock.
// `seen` (optional) receives the stamp that was judged.
inline bool lease_expired(const std::atomic<std::uint64_t>& stamp_ns,
                          std::uint64_t lease_ns,
                          std::uint64_t* seen = nullptr) noexcept {
  const std::uint64_t stamp = stamp_ns.load(std::memory_order_acquire);
  if (seen != nullptr) *seen = stamp;
  return monotonic_ns() - stamp > lease_ns;
}

// The first step of every steal: CAS an expired stamp to now.  Of several
// waiters that judged the same stamp expired, exactly one wins; the others
// then see a fresh stamp.  The winner goes on to claim the lock word.
inline bool claim_expired_stamp(std::atomic<std::uint64_t>& stamp_ns,
                                std::uint64_t lease_ns) noexcept {
  std::uint64_t seen = 0;
  if (!lease_expired(stamp_ns, lease_ns, &seen)) return false;
  return stamp_ns.compare_exchange_strong(seen, monotonic_ns(),
                                          std::memory_order_acq_rel);
}

// Wait policy for every lease-lock loop: 64 pauses, then yield.  The holder
// may be a descheduled peer process (single-core boxes, oversubscribed
// machines), and burning a whole quantum on pause only delays the release
// being waited for.
inline void lease_backoff(unsigned& spins) noexcept {
  if (++spins < 64) {
#if defined(__x86_64__)
    __builtin_ia32_pause();
#endif
  } else {
    ::sched_yield();
  }
}

// An {owner token, stamp} lease lock.  Resident in shm or NVMM: the bytes
// are the two words, so it can replace such a pair in place.
//
// Rules:
//   * Stamp before claim.  A thread that sees owner == 0 stores the stamp,
//     then CASes owner from 0 to itself (acq_rel).  The release publishes
//     the stamp, and waiters load owner with acquire, so a waiter that sees
//     an owner also sees that owner's stamp — never the previous holder's.
//   * A steal claims the stamp first (claim_expired_stamp), then CASes
//     owner from the dead holder to itself.
//   * Release is a CAS from self to 0: a holder whose lease was stolen
//     must not release the thief.
struct LeaseLock {
  std::atomic<std::uint64_t> owner{0};
  std::atomic<std::uint64_t> stamp_ns{0};

  enum class Attempt { busy, taken, stolen };

  // Takes the lock only if it is free.
  bool try_lock(std::uint64_t self) noexcept {
    std::uint64_t cur = owner.load(std::memory_order_acquire);
    if (cur != 0) return false;
    stamp_ns.store(monotonic_ns(), std::memory_order_relaxed);
    return owner.compare_exchange_strong(cur, self, std::memory_order_acq_rel);
  }

  // One non-blocking attempt: take the lock if free, steal it if expired.
  Attempt try_acquire(std::uint64_t self, std::uint64_t lease_ns) noexcept {
    std::uint64_t cur = owner.load(std::memory_order_acquire);
    if (cur == 0) {
      stamp_ns.store(monotonic_ns(), std::memory_order_relaxed);
      return owner.compare_exchange_strong(cur, self,
                                           std::memory_order_acq_rel)
                 ? Attempt::taken
                 : Attempt::busy;
    }
    if (claim_expired_stamp(stamp_ns, lease_ns) &&
        owner.compare_exchange_strong(cur, self, std::memory_order_acq_rel))
      return Attempt::stolen;
    return Attempt::busy;
  }

  // Waits until this thread holds the lock.  Returns true iff it stole the
  // lock from an expired holder; the caller owns the repair.
  bool lock(std::uint64_t self, std::uint64_t lease_ns) noexcept {
    unsigned spins = 0;
    for (;;) {
      const Attempt a = try_acquire(self, lease_ns);
      if (a != Attempt::busy) return a == Attempt::stolen;
      lease_backoff(spins);
    }
  }

  void unlock(std::uint64_t self) noexcept {
    owner.compare_exchange_strong(self, 0, std::memory_order_release);
  }

  // Quiescent re-initialisation (format, recovery); not for a live lock.
  void reset() noexcept {
    owner.store(0, std::memory_order_relaxed);
    stamp_ns.store(0, std::memory_order_relaxed);
  }
};
static_assert(sizeof(LeaseLock) == 16);

}  // namespace simurgh::common
