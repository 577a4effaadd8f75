// Relaxed-durability write-behind tier (ROADMAP "write-behind tier").
//
// Two per-file durability classes over the strict data path:
//
//   strict  today's behavior (default): data + size stamp durable before
//           the write returns; fsync is a fence.
//   group   writes land in a DRAM staging buffer and are acked immediately;
//           a mount-wide epoch is group-committed to NVMM every T µs or B
//           staged bytes, whichever first.  fsync is ABSORBED into the
//           epoch cadence (counted, not flushed): the class contract is
//           durability within one commit interval, not at fsync return.
//
// Staging is per-EPOCH per-inode: an epoch owns the dirty ranges staged
// while it was open, epochs seal in order and a background persister drains
// them — oldest first — through the same coalesced-persist machinery as the
// strict path (FileSystem::write_file_bytes: extent allocation + one
// nt_copy per run), then makes the whole epoch visible atomically via the
// NVMM epoch journal (layout.h WbJournal): data fence → arm intent record →
// size/mtime stamps → commit record.  A crash recovers to an exact PREFIX
// of committed epochs: un-armed epochs are invisible (no size moved; bytes
// past EOF are undefined until a growth zeroes them, DESIGN.md §13.4), an
// armed epoch is rolled forward (its data, and the zeros of every byte its
// size stamp grows over, are provably durable).
//
// Memory is bounded: once staged residency would exceed the cap, the write
// path flushes that inode's own staged ranges (ordering) and falls back to
// the strict path, counting a backpressure hit.
//
// Residency / ownership:
//   staged data      mount-private DRAM (lost on crash — that is the class
//                    contract; discarded with accounting by recover())
//   epoch journal    NVMM page at kWbJournalOff, shared by all mounts and
//                    serialized by a lease-stamped lock; an armed journal
//                    left by a dead peer is rolled forward by the stealer
//   unmount          drains everything staged before detach
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "core/layout.h"
#include "core/openfile.h"

namespace simurgh::core {

class FileSystem;

// Rolls an armed epoch journal forward on `dev` (recovery, journal-lock
// steal): applies the recorded size/mtime stamps — the arm record proves
// the data beneath them is durable — then commits and disarms.  Returns
// whether an armed epoch was applied.  Safe to re-run (idempotent).
bool wb_journal_roll_forward(nvmm::Device& dev);

// Default journal-lock lease: a holder silent this long is presumed dead
// and its lock is stolen (armed epoch rolled forward by the stealer).
inline constexpr std::uint64_t kWbLeaseNs = 2'000'000'000;

// Like wb_journal_roll_forward, but takes the journal's lease lock first
// (with the dead-holder steal path).  recover() on a shared device must use
// this: a live peer may be mid-drain, and an unlocked roll-forward would
// disarm/commit its armed epoch between the peer's own arm and commit steps.
bool wb_journal_roll_forward_locked(nvmm::Device& dev, std::uint64_t token,
                                    std::uint64_t lease_ns);

// Staging-buffer chunk: contiguous staged writes extend one chunk in place
// until it reaches this size, then a new chunk starts.  Sized under glibc's
// 128 KB mmap threshold so chunks recycle through the malloc arena instead
// of paying mmap/munmap + page-fault churn on every epoch.
inline constexpr std::size_t kStageChunkBytes = 64 * 1024;

class WriteBehind {
 public:
  // Mirrored into FsStat by FileSystem::fsstat().
  struct Counters {
    std::uint64_t fsyncs_absorbed = 0;
    std::uint64_t group_commits = 0;   // epochs committed
    std::uint64_t staged_bytes = 0;    // current staging residency
    std::uint64_t pool_bytes = 0;      // idle recycled-chunk arena residency
    std::uint64_t backpressure_hits = 0;
    std::uint64_t staged_writes = 0;
    std::uint64_t drained_bytes = 0;
    std::uint64_t discarded_bytes = 0;  // recover() accounting
  };

  explicit WriteBehind(FileSystem& fs);
  // Destruction without drain_all() models a crash: the persister stops,
  // staged DRAM state is simply lost.
  ~WriteBehind();
  WriteBehind(const WriteBehind&) = delete;
  WriteBehind& operator=(const WriteBehind&) = delete;

  // ---- class management ----
  void set_durability(std::uint64_t ino_off, Durability d);
  // unlink/last-drop: forgets the class binding (the inode offset may be
  // recycled).  The caller flushes first; any still-staged ranges for the
  // offset are discarded.
  void forget(std::uint64_t ino_off);
  // Data-path gate: true once any file has a non-strict class.  Strict-only
  // workloads pay exactly this one acquire load per op.
  [[nodiscard]] bool active() const noexcept {
    return nonstrict_files_.load(std::memory_order_acquire) != 0;
  }

  // ---- write path ----
  // Stages the write and acks it.  Returns false when the caller must take
  // the strict path: strict class, n == 0, or backpressure (the inode's own
  // staged ranges are flushed first so ordering is preserved).  `append`
  // resolves the position against the effective (staged-inclusive) size
  // under the file lock and reports it via pos_out.
  bool stage_write(std::uint64_t ino_off, const void* buf, std::size_t n,
                   std::uint64_t off, bool append, std::uint64_t* pos_out);

  // ---- read path ----
  // Effective size including staged appends (0 when nothing is staged).
  [[nodiscard]] std::uint64_t staged_size_of(std::uint64_t ino_off);
  // Effective size AND mtime of the staged state — exactly the values the
  // drain will stamp at commit, so stat never pairs a staged size with a
  // stale mtime.  Returns false (outputs untouched) when nothing is staged.
  [[nodiscard]] bool staged_stat_of(std::uint64_t ino_off,
                                    std::uint64_t* size_out,
                                    std::uint64_t* mtime_out);
  // Copies staged bytes intersecting [off, off+n) over buf, oldest epoch
  // first (read-your-writes; newest data wins).
  void overlay_read(std::uint64_t ino_off, void* buf, std::size_t n,
                    std::uint64_t off);

  // ---- sync / lifecycle ----
  // Class-aware fsync: a group inode's fsync is absorbed (counted).
  // Returns false — without counting anything — when the inode is strict
  // (or untracked): the caller owes the file a plain fence.  Folding the
  // class check in here keeps the write+fsync hot loop at one mu_
  // acquisition for the whole fsync.
  [[nodiscard]] bool fsync_inode(std::uint64_t ino_off);
  // Seals + awaits every epoch containing the inode's ranges (backpressure,
  // truncate, unlink, class downgrade to strict).
  Status flush_inode(std::uint64_t ino_off);
  // Seals the open epoch and awaits its commit — what the T-timer does,
  // callable deterministically (crash harness, unmount).
  void commit_epoch_now();
  // unmount: everything staged becomes durable.
  void drain_all();
  // recover() on a live mount models a crash for staged DRAM state: stop
  // the persister and drop every pending epoch, returning the byte count.
  std::uint64_t discard_staged();
  // Restarts the persister after recovery.
  void resume();

  [[nodiscard]] Counters counters();
  void set_lease_ns(std::uint64_t ns) noexcept {
    lease_ns_.store(ns, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t lease_ns() const noexcept {
    return lease_ns_.load(std::memory_order_relaxed);
  }
  // Test/bench knobs; take effect for subsequently staged epochs.  Guarded
  // by mu_ so a live persister never races a knob change.
  void set_interval_us(std::uint64_t us) {
    common::MutexLock lk(mu_);
    interval_us_ = us;
    cv_.notify_all();
  }
  void set_epoch_bytes(std::uint64_t b) {
    common::MutexLock lk(mu_);
    epoch_bytes_ = b;
  }
  void set_max_staged_bytes(std::uint64_t b) {
    common::MutexLock lk(mu_);
    max_staged_bytes_ = b;
  }
  // Pre-faults `bytes` of staging chunks into the recycle pool (bounded by
  // max_staged_bytes).  A page's first touch costs a kernel fault — on the
  // write+fsync hot path that dwarfs the copy itself — so a latency-focused
  // deployment warms its staging arena up front, the way pinned staging
  // rings are preallocated on real NVMM systems.
  void prewarm_chunks(std::uint64_t bytes);

 private:
  // One staged dirty range (arrival order preserves overwrite semantics).
  struct Range {
    std::uint64_t off = 0;
    std::vector<std::byte> data;
  };
  struct StagedFile {
    std::vector<Range> ranges;
    std::uint64_t new_size = 0;  // size after this epoch's writes
    std::uint64_t mtime_ns = 0;
  };
  struct Epoch {
    std::uint64_t seq = 0;  // mount-local, monotonically increasing
    std::uint64_t bytes = 0;
    bool sealed = false;
    std::chrono::steady_clock::time_point opened_at{};
    std::map<std::uint64_t, StagedFile> files;  // ino_off -> staged
  };
  struct FileState {
    Durability cls = Durability::strict;
    std::uint64_t last_epoch = 0;   // newest epoch seq holding its ranges
    std::uint64_t staged_size = 0;  // effective size; 0 = nothing staged
    std::uint64_t mtime_ns = 0;     // mtime of the newest staged write
  };

  Epoch& open_epoch_locked() REQUIRES(mu_);
  void seal_open_locked() REQUIRES(mu_);
  // Chunk pool (mu_): drained staging buffers are kept, not freed — glibc
  // would trim them back to the OS and every restaged byte would then pay
  // a fresh page fault (~µs each; the dominant staging cost once the copy
  // itself is cheap).  Pool residency counts toward max_staged_bytes: the
  // pool IS the staging arena, just idle.
  //
  // The pool is FIFO, deliberately: the persister just READ a drained
  // chunk's lines (copying them to NVMM), so handing that chunk straight
  // back (LIFO) makes every producer store pay a cross-core
  // invalidation.  Cycling through the pool front instead gives the
  // persister's cached copies time to evict before the chunk is reused.
  [[nodiscard]] std::vector<std::byte> take_chunk_locked() REQUIRES(mu_);
  void recycle_chunk_locked(std::vector<std::byte>&& v) REQUIRES(mu_);
  void harvest_chunks_locked(Epoch& e) REQUIRES(mu_);
  // Seals (if needed) and commits epochs until committed_seq_ >= want,
  // draining inline on the calling thread.  `lk` is the caller's scoped
  // lock on mu_ — drain_front_locked drops it around the NVMM drain.
  void drain_until_locked(common::MutexLock& lk, std::uint64_t want)
      REQUIRES(mu_);
  void drain_front_locked(common::MutexLock& lk) REQUIRES(mu_);
  // The crash-atomic drain protocol; runs WITHOUT mu_ (takes file locks).
  void drain_epoch(Epoch& e) EXCLUDES(mu_);
  void persister_main();
  void start_persister();
  void stop_persister();
  void lock_journal(WbJournal& j) ACQUIRE(j);
  void unlock_journal(WbJournal& j) RELEASE(j);

  FileSystem& fs_;
  std::atomic<std::uint64_t> lease_ns_{kWbLeaseNs};
  std::atomic<std::uint64_t> nonstrict_files_{0};

  common::Mutex mu_;
  std::condition_variable_any cv_;  // waits on common::MutexLock
  // An epoch seals at whichever comes first: T µs after it opened, B
  // staged bytes, or a full journal (kWbJournalCap inodes).
  std::uint64_t interval_us_ GUARDED_BY(mu_) = 100;         // T
  std::uint64_t epoch_bytes_ GUARDED_BY(mu_) = 1ull << 20;  // B
  // Backpressure threshold: staging residency cap.
  std::uint64_t max_staged_bytes_ GUARDED_BY(mu_) = 8ull << 20;
  // front oldest; back may be open
  std::deque<std::unique_ptr<Epoch>> epochs_ GUARDED_BY(mu_);
  std::unordered_map<std::uint64_t, FileState> files_ GUARDED_BY(mu_);
  std::uint64_t next_seq_ GUARDED_BY(mu_) = 1;
  std::uint64_t committed_seq_ GUARDED_BY(mu_) = 0;
  // recycled chunks
  std::deque<std::vector<std::byte>> chunk_pool_ GUARDED_BY(mu_);
  std::uint64_t pool_bytes_ GUARDED_BY(mu_) = 0;  // sum of pooled capacities
  // one drain at a time (inline callers + persister)
  bool draining_ GUARDED_BY(mu_) = false;
  bool stop_ GUARDED_BY(mu_) = false;

  // Hot-path counters are plain and mu_-guarded: every update site already
  // holds the lock, and an atomic RMW here would be a full barrier that
  // stalls on the staging copy's outstanding stores mid-bookkeeping.
  std::uint64_t staged_bytes_ GUARDED_BY(mu_) = 0;
  std::uint64_t staged_writes_ GUARDED_BY(mu_) = 0;
  std::uint64_t fsyncs_absorbed_ GUARDED_BY(mu_) = 0;
  std::uint64_t discarded_bytes_ GUARDED_BY(mu_) = 0;
  // Updated off-lock (drain_epoch, backpressure fallback): stay atomic.
  std::atomic<std::uint64_t> group_commits_{0};
  std::atomic<std::uint64_t> backpressure_hits_{0};
  std::atomic<std::uint64_t> drained_bytes_{0};

  std::thread persister_;
};

}  // namespace simurgh::core
