// Clang Thread Safety Analysis capability macros + annotated lock wrappers.
//
// Simurgh's concurrency story is a zoo of lock shapes: std::mutex for
// mount-private state (write-behind staging, the shadow log, allocator
// caches), {owner, stamp} lease locks in shared memory and NVMM (the
// WbJournal lock, the mount-registry lock, per-reservation, per-stripe and
// per-segment locks), per-file reader/writer lease locks, and per-line busy
// bits in directory blocks.  All of them follow a "who guards what" map
// that used to live only in comments.  This header turns that map into
// compiler-checked annotations:
//
//   * Under clang with -Wthread-safety the annotations are enforced
//     (the `analyze` CMake preset builds with -Wthread-safety
//     -Wthread-safety-beta -Werror).
//   * Under gcc (the default toolchain) every macro expands to nothing, so
//     the annotations cost zero and cannot change codegen or layout —
//     persistent/shm structs annotated CAPABILITY keep their exact bytes.
//
// Two kinds of capability participate:
//
//   1. common::Mutex / common::MutexLock — annotated wrappers over
//      std::mutex / a scoped lock.  libstdc++'s std::mutex carries no
//      annotations, so raw std::mutex members are invisible to the
//      analysis; tools/pmlint additionally rejects raw std::mutex in src/
//      to force adoption of the wrapper.
//
//   2. Lease locks (common/lease.h) — the lock *is* a persistent or
//      shm-resident struct (WbJournal, FileLock, ShmReservation,
//      ObjCacheStripe, SegmentHeader, DirBlock's busy word).  Those structs are annotated
//      CAPABILITY(...) directly (an attribute, not a member: layout is
//      untouched), and their lock/unlock entry points are annotated
//      ACQUIRE(obj)/RELEASE(obj), so "requires the journal lock" is
//      expressible as REQUIRES(j) on the functions that assume it.  The
//      lease-steal path (a survivor displacing a dead holder) is just an
//      acquisition as far as the analysis is concerned — the thief owns
//      the capability afterwards, which is exactly the runtime contract.
//
// Macro set and semantics follow the Clang documentation
// (https://clang.llvm.org/docs/ThreadSafetyAnalysis.html) and mirror
// abseil's base/thread_annotations.h naming.
#pragma once

#include <mutex>

#if defined(__clang__) && defined(__has_attribute)
#define SIMURGH_TSA_HAS(x) __has_attribute(x)
#else
#define SIMURGH_TSA_HAS(x) 0
#endif

#if SIMURGH_TSA_HAS(capability)
#define SIMURGH_TSA(x) __attribute__((x))
#else
#define SIMURGH_TSA(x)
#endif

// A type usable as a capability ("mutex", "lease", ...).  Zero layout
// impact: attributes add no members, so NVMM/shm-resident structs can be
// capabilities.
#define CAPABILITY(x) SIMURGH_TSA(capability(x))

// RAII type that acquires in its constructor and releases in its
// destructor (common::MutexLock, SharedFileLock, LineLock, ...).
#define SCOPED_CAPABILITY SIMURGH_TSA(scoped_lockable)

// Data member readable/writable only while `x` is held.
#define GUARDED_BY(x) SIMURGH_TSA(guarded_by(x))
// Pointer member whose *pointee* is guarded by `x`.
#define PT_GUARDED_BY(x) SIMURGH_TSA(pt_guarded_by(x))

// Function-level contracts.
#define REQUIRES(...) SIMURGH_TSA(requires_capability(__VA_ARGS__))
#define REQUIRES_SHARED(...) \
  SIMURGH_TSA(requires_shared_capability(__VA_ARGS__))
#define ACQUIRE(...) SIMURGH_TSA(acquire_capability(__VA_ARGS__))
#define ACQUIRE_SHARED(...) SIMURGH_TSA(acquire_shared_capability(__VA_ARGS__))
#define RELEASE(...) SIMURGH_TSA(release_capability(__VA_ARGS__))
#define RELEASE_SHARED(...) SIMURGH_TSA(release_shared_capability(__VA_ARGS__))
#define TRY_ACQUIRE(...) SIMURGH_TSA(try_acquire_capability(__VA_ARGS__))
#define EXCLUDES(...) SIMURGH_TSA(locks_excluded(__VA_ARGS__))
#define ASSERT_CAPABILITY(x) SIMURGH_TSA(assert_capability(x))
#define RETURN_CAPABILITY(x) SIMURGH_TSA(lock_returned(x))

// Escape hatch.  Every use in src/ must carry an inline justification
// comment explaining why the analysis cannot model the site (enforced by
// review; grep 'NO_THREAD_SAFETY_ANALYSIS' to audit).
#define NO_THREAD_SAFETY_ANALYSIS SIMURGH_TSA(no_thread_safety_analysis)

namespace simurgh::common {

// std::mutex with capability annotations.  Same cost, same semantics; the
// wrapper exists only so the analysis can see lock/unlock.  Satisfies
// BasicLockable/Lockable, so std::condition_variable_any waits on it (and
// on MutexLock) directly.
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() ACQUIRE() { mu_.lock(); }
  void unlock() RELEASE() { mu_.unlock(); }
  bool try_lock() TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  std::mutex mu_;
};

// Scoped lock over Mutex (the std::lock_guard/std::unique_lock of this
// codebase — libstdc++'s own guards are unannotated).  lock()/unlock() are
// exposed for the condition-variable wait pattern and for windows where a
// long operation deliberately drops the lock (write_behind's
// drain_front_locked); std::condition_variable_any::wait(lk) re-locks
// through these same entry points, so the analysis' view ("held across the
// wait") matches the state on both sides of the wait.
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ACQUIRE(mu) : mu_(mu), held_(true) {
    mu_.lock();
  }
  ~MutexLock() RELEASE() {
    if (held_) mu_.unlock();
  }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  void lock() ACQUIRE() {
    mu_.lock();
    held_ = true;
  }
  void unlock() RELEASE() {
    held_ = false;
    mu_.unlock();
  }
  [[nodiscard]] bool owns_lock() const noexcept { return held_; }

 private:
  Mutex& mu_;
  bool held_;
};

}  // namespace simurgh::common
