// Write-behind staging tier: epoch group commit + background persister.
// See write_behind.h for the class semantics and layout.h (WbJournal) for
// the crash-atomic drain protocol this file implements.
#include "core/write_behind.h"

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <cstring>

#include "common/lease.h"
#include "core/fs.h"
#include "core/inode.h"
#include "core/shm.h"
#include "nvmm/persist.h"

namespace simurgh::core {

namespace {

WbJournal& journal_at(nvmm::Device& dev) {
  return *reinterpret_cast<WbJournal*>(dev.at(kWbJournalOff));
}

}  // namespace

bool wb_journal_roll_forward(nvmm::Device& dev) {
  WbJournal& j = journal_at(dev);
  if (j.state.load(std::memory_order_acquire) != kWbJournalArmed) return false;
  const std::uint64_t seq = j.epoch_seq;
  bool applied = false;
  if (seq > j.committed_seq.load(std::memory_order_acquire)) {
    // The arm record (persisted after the epoch's data fence) proves every
    // range beneath these stamps is durable: apply them.  Stamps are
    // monotonic (size max) and idempotent, so re-running after a crash
    // mid-roll-forward is safe.
    const std::uint32_t n = std::min(j.n_entries, kWbJournalCap);
    for (std::uint32_t i = 0; i < n; ++i) {
      const WbJournalEntry& e = j.entries[i];
      if (e.ino_off == 0) continue;
      Inode* ino = reinterpret_cast<Inode*>(dev.at(e.ino_off));
      inode_size_max(ino->size, e.new_size);
      ino->mtime_ns.store(e.mtime_ns, std::memory_order_relaxed);
      nvmm::persist(&ino->size, kSizeStampBytes);
    }
    nvmm::fence();
    j.committed_seq.store(seq, std::memory_order_release);
    nvmm::persist(&j.committed_seq, sizeof j.committed_seq);
    nvmm::fence();
    applied = true;
  }
  j.state.store(kWbJournalIdle, std::memory_order_release);
  nvmm::persist(&j.state, sizeof j.state);
  nvmm::fence();
  return applied;
}

WriteBehind::WriteBehind(FileSystem& fs) : fs_(fs) { start_persister(); }

WriteBehind::~WriteBehind() { stop_persister(); }

// ---- class management ----

void WriteBehind::set_durability(std::uint64_t ino_off, Durability d) {
  common::MutexLock lk(mu_);
  auto it = files_.find(ino_off);
  if (it == files_.end()) {
    if (d == Durability::strict) return;  // strict is the absent default
    files_[ino_off].cls = d;
    nonstrict_files_.fetch_add(1, std::memory_order_release);
    return;
  }
  const bool was = it->second.cls != Durability::strict;
  const bool now = d != Durability::strict;
  if (was && !now) nonstrict_files_.fetch_sub(1, std::memory_order_release);
  if (!was && now) nonstrict_files_.fetch_add(1, std::memory_order_release);
  it->second.cls = d;
  // A strict file with nothing in flight needs no tracking at all.
  if (!now && it->second.last_epoch <= committed_seq_) files_.erase(it);
}

void WriteBehind::forget(std::uint64_t ino_off) {
  common::MutexLock lk(mu_);
  auto it = files_.find(ino_off);
  if (it == files_.end()) return;
  if (it->second.cls != Durability::strict)
    nonstrict_files_.fetch_sub(1, std::memory_order_release);
  // The caller flushed before dropping the last link, so pending epochs
  // should not reference this offset; if one does (flush raced a failure),
  // drop the ranges rather than let the drain write through a freed inode.
  for (auto& ep : epochs_) {
    auto fit = ep->files.find(ino_off);
    if (fit == ep->files.end()) continue;
    std::uint64_t bytes = 0;
    for (const Range& r : fit->second.ranges) bytes += r.data.size();
    ep->bytes -= bytes;
    staged_bytes_ -= bytes;
    discarded_bytes_ += bytes;
    ep->files.erase(fit);
  }
  files_.erase(it);
}

// ---- staging ----

WriteBehind::Epoch& WriteBehind::open_epoch_locked() {
  if (epochs_.empty() || epochs_.back()->sealed) {
    auto e = std::make_unique<Epoch>();
    e->seq = next_seq_++;
    e->opened_at = std::chrono::steady_clock::now();
    epochs_.push_back(std::move(e));
  }
  return *epochs_.back();
}

void WriteBehind::seal_open_locked() {
  // Empty epochs seal too: forget() may scrub every staged range out of an
  // open epoch (flush raced an unlink), and an unsealable empty epoch would
  // park the persister in a busy loop at its deadline — seal it and let
  // drain_epoch no-op it so committed_seq_ still advances past its seq.
  if (epochs_.empty()) return;
  epochs_.back()->sealed = true;
}

std::vector<std::byte> WriteBehind::take_chunk_locked() {
  if (chunk_pool_.empty()) return {};
  std::vector<std::byte> v = std::move(chunk_pool_.front());
  chunk_pool_.pop_front();
  pool_bytes_ -= v.capacity();
  v.clear();
  return v;
}

void WriteBehind::recycle_chunk_locked(std::vector<std::byte>&& v) {
  if (v.capacity() < kStageChunkBytes ||
      staged_bytes_ + pool_bytes_ + v.capacity() > max_staged_bytes_)
    return;  // small one-offs (and a full arena) go back to the allocator
  pool_bytes_ += v.capacity();
  chunk_pool_.push_back(std::move(v));
}

void WriteBehind::harvest_chunks_locked(Epoch& e) {
  for (auto& [ino_off, sf] : e.files)
    for (Range& r : sf.ranges) recycle_chunk_locked(std::move(r.data));
}

void WriteBehind::prewarm_chunks(std::uint64_t bytes) {
  common::MutexLock lk(mu_);
  while (staged_bytes_ + pool_bytes_ + kStageChunkBytes <=
             max_staged_bytes_ &&
         bytes >= kStageChunkBytes) {
    std::vector<std::byte> v(kStageChunkBytes);  // value-init touches pages
    v.clear();
    pool_bytes_ += v.capacity();
    chunk_pool_.push_back(std::move(v));
    bytes -= kStageChunkBytes;
  }
}

bool WriteBehind::stage_write(std::uint64_t ino_off, const void* buf,
                              std::size_t n, std::uint64_t off, bool append,
                              std::uint64_t* pos_out) {
  if (n == 0) return false;
  const std::byte* p = static_cast<const std::byte*>(buf);
  bool created = false;
  bool sealed = false;
  {
    // One critical section for the whole staging step — the class check,
    // backpressure check, append-base resolution and the copy itself.  The
    // copy lands directly in the tail range when contiguous (the append
    // pattern), so the hot loop does no per-op allocation at all.
    //
    // No file lock here: the append base is fully determined under mu_.
    // While anything is staged, staged_size is authoritative; on commit the
    // drain CAS-maxes the persisted size up to it BEFORE the mu_-side
    // bookkeeping resets staged_size, so max(psize, staged_size) never
    // goes backwards.  Keeping the producer off the file lock is what lets
    // it run while the persister drains this very inode.
    common::MutexLock lk(mu_);
    auto it = files_.find(ino_off);
    if (it == files_.end() || it->second.cls == Durability::strict)
      return false;
    // Pool residency counts toward the cap (the pool IS the staging arena,
    // just idle — see the header): shed idle pooled chunks back to the
    // allocator before declaring backpressure, so resident memory stays
    // bounded by max_staged_bytes instead of staged + a full pool.
    while (staged_bytes_ + pool_bytes_ + n > max_staged_bytes_ &&
           !chunk_pool_.empty()) {
      pool_bytes_ -= chunk_pool_.front().capacity();
      chunk_pool_.pop_front();
    }
    if (staged_bytes_ + n > max_staged_bytes_) {
      lk.unlock();
      // Bounded memory: flush this inode's own staged ranges first (a
      // strict write must not land before earlier acked staged writes to
      // the same file), then let the caller take the strict path.
      backpressure_hits_.fetch_add(1, std::memory_order_relaxed);
      (void)flush_inode(ino_off);
      return false;
    }
    FileState& st = it->second;
    // While anything is staged, staged_size >= the persisted size and can
    // only be overtaken by paths that flush first (truncate, backpressure,
    // class downgrade), which reset it to 0 — so the NVMM inode line (a
    // cold load) is only touched on the first write after a drain.
    const std::uint64_t psize =
        st.staged_size != 0
            ? st.staged_size
            : fs_.inode_at(ino_off)->size.load(std::memory_order_acquire);
    const std::uint64_t base = std::max(psize, st.staged_size);
    if (append) off = base;
    created = epochs_.empty() || epochs_.back()->sealed;
    Epoch& e = open_epoch_locked();
    StagedFile& sf = e.files[ino_off];
    if (!sf.ranges.empty() &&
        sf.ranges.back().off + sf.ranges.back().data.size() == off &&
        sf.ranges.back().data.size() + n <= kStageChunkBytes) {
      // Contiguous with the tail range and under the chunk cap: extend it
      // in place.  Reserving the whole chunk on first growth makes the
      // per-op cost one memcpy with no reallocation copies or per-op
      // allocation; capping the chunk below glibc's mmap threshold keeps
      // every chunk on the recycled arena path instead of churning
      // mmap/munmap + page faults as one giant vector would.  Chunks stay
      // address-contiguous, so the drain still coalesces them into one
      // write per run.
      std::vector<std::byte>& tail = sf.ranges.back().data;
      if (tail.capacity() < tail.size() + n) tail.reserve(kStageChunkBytes);
      tail.insert(tail.end(), p, p + n);
    } else {
      // New chunk: prefer a recycled one (already mapped and faulted).
      sf.ranges.push_back(Range{off, take_chunk_locked()});
      std::vector<std::byte>& d = sf.ranges.back().data;
      d.insert(d.end(), p, p + n);
    }
    sf.new_size = std::max({sf.new_size, off + n, psize});
    sf.mtime_ns = wall_ns();
    e.bytes += n;
    st.last_epoch = e.seq;
    st.staged_size = std::max(base, off + n);
    st.mtime_ns = sf.mtime_ns;  // stat overlays this until the drain stamps it
    staged_bytes_ += n;
    ++staged_writes_;
    if (e.bytes >= epoch_bytes_ || e.files.size() >= kWbJournalCap) {
      seal_open_locked();
      sealed = true;
    }
  }
  if (pos_out != nullptr) *pos_out = off;
  if (sealed || created)
    cv_.notify_all();  // drain the sealed epoch / arm the T-deadline
  return true;
}

// ---- read path ----

std::uint64_t WriteBehind::staged_size_of(std::uint64_t ino_off) {
  common::MutexLock lk(mu_);
  auto it = files_.find(ino_off);
  return it == files_.end() ? 0 : it->second.staged_size;
}

bool WriteBehind::staged_stat_of(std::uint64_t ino_off,
                                 std::uint64_t* size_out,
                                 std::uint64_t* mtime_out) {
  common::MutexLock lk(mu_);
  auto it = files_.find(ino_off);
  if (it == files_.end() || it->second.staged_size == 0) return false;
  *size_out = it->second.staged_size;
  *mtime_out = it->second.mtime_ns;
  return true;
}

void WriteBehind::overlay_read(std::uint64_t ino_off, void* buf,
                               std::size_t n, std::uint64_t off) {
  common::MutexLock lk(mu_);
  std::byte* out = static_cast<std::byte*>(buf);
  // Oldest epoch first, arrival order within an epoch: the newest staged
  // bytes for any overlapping range land last and win, matching the order
  // the drain will apply them to NVMM.
  for (const auto& ep : epochs_) {
    auto it = ep->files.find(ino_off);
    if (it == ep->files.end()) continue;
    for (const Range& r : it->second.ranges) {
      const std::uint64_t lo = std::max(off, r.off);
      const std::uint64_t hi =
          std::min(off + n, r.off + r.data.size());
      if (lo >= hi) continue;
      std::memcpy(out + (lo - off), r.data.data() + (lo - r.off),
                  static_cast<std::size_t>(hi - lo));
    }
  }
}

// ---- sync ----

bool WriteBehind::fsync_inode(std::uint64_t ino_off) {
  common::MutexLock lk(mu_);
  auto it = files_.find(ino_off);
  if (it == files_.end() || it->second.cls == Durability::strict)
    return false;  // strict/untracked: the caller fences
  // group: the fsync is absorbed into the epoch cadence — counted, never
  // waited on.
  ++fsyncs_absorbed_;
  return true;
}

Status WriteBehind::flush_inode(std::uint64_t ino_off) {
  common::MutexLock lk(mu_);
  auto it = files_.find(ino_off);
  if (it == files_.end() || it->second.last_epoch <= committed_seq_)
    return Status::ok();
  drain_until_locked(lk, it->second.last_epoch);
  return Status::ok();
}

void WriteBehind::commit_epoch_now() {
  common::MutexLock lk(mu_);
  const std::uint64_t want =
      epochs_.empty() ? committed_seq_ : epochs_.back()->seq;
  drain_until_locked(lk, want);
}

void WriteBehind::drain_all() { commit_epoch_now(); }

void WriteBehind::drain_until_locked(common::MutexLock& lk,
                                     std::uint64_t want) {
  if (committed_seq_ >= want) return;
  if (!epochs_.empty()) {
    Epoch& back = *epochs_.back();
    if (!back.sealed && back.seq <= want) seal_open_locked();
  }
  // The waiting thread drains inline rather than handing the work to the
  // persister: a flush (unmount, backpressure, commit_epoch_now) would
  // otherwise pay two context switches per epoch just to watch the
  // persister do the same calls.  `draining_` keeps epoch commits serial
  // in arrival order; if the persister (or another waiter) is mid-drain we
  // wait for it to advance us.
  while (committed_seq_ < want) {
    if (draining_) {
      cv_.wait(lk);
      continue;
    }
    if (epochs_.empty() || !epochs_.front()->sealed) break;
    drain_front_locked(lk);
  }
}

// NO_THREAD_SAFETY_ANALYSIS: hand-over-hand through the caller's scoped
// lock — mu_ is dropped via `lk` (a parameter, so the analysis cannot
// associate it with mu_) around drain_epoch, then re-taken.  The REQUIRES
// on the declaration still makes every caller prove mu_ is held on entry.
void WriteBehind::drain_front_locked(common::MutexLock& lk)
    NO_THREAD_SAFETY_ANALYSIS {
  Epoch* e = epochs_.front().get();
  draining_ = true;
  lk.unlock();
  drain_epoch(*e);  // takes file locks; must not hold mu_
  lk.lock();
  committed_seq_ = e->seq;
  staged_bytes_ -= e->bytes;
  for (const auto& [ino_off, sf] : e->files) {
    auto it = files_.find(ino_off);
    if (it != files_.end() && it->second.last_epoch <= e->seq)
      it->second.staged_size = 0;
  }
  harvest_chunks_locked(*e);
  epochs_.pop_front();
  draining_ = false;
  cv_.notify_all();
}

// The crash-atomic drain (layout.h WbJournal doc).  Runs without mu_:
// sealed epochs are immutable, and file locks order us against strict
// writers / truncate on the same inodes.
void WriteBehind::drain_epoch(Epoch& e) {
  if (e.files.empty()) return;  // fully scrubbed by forget(): nothing durable
  nvmm::Device& dev = fs_.dev();
  // 1. Stream every staged range into place through the strict path's
  //    coalesced-persist machinery (extent allocation + nt_copy per run),
  //    then one fence.  Data durable, invisible: no size has moved.
  std::vector<std::byte> run;  // scratch for coalesced contiguous ranges
  for (auto& [ino_off, sf] : e.files) {
    if ((fs_.pool(kPoolInode).flags_of(ino_off) & alloc::kObjValid) == 0)
      continue;  // unlinked since staging; nothing to write through
    Inode* ino = fs_.inode_at(ino_off);
    ExclusiveFileLock flock(fs_.file_locks(),
                            fs_.file_locks().slot_for(ino_off));
    // Staging already coalesces the append pattern into chunk-sized runs
    // (stage_write tail extension), so most ranges land with one
    // write_file_bytes each.  Only runs of genuinely tiny contiguous
    // ranges — a scatter of small writes the tail extension could not
    // merge — get concatenated first; copying chunk-sized ranges again
    // here would just burn memory bandwidth the producer needs.  Arrival
    // order is preserved either way: a merged run is applied at the first
    // range's slot, and later overlapping ranges still land after it.
    //
    // ENOSPC mid-drain: skip the range (the size stamp still lands; the
    // hole reads back as zeros) — best-effort is the relaxed-class
    // contract, and partial application cannot tear: unreached ranges
    // simply stay holes.
    //
    // The size moves only at the journal commit, so each range grows the
    // file (DESIGN.md §13.4) from the EOF the ranges before it left, and
    // what the size stamp grows over that no range wrote is zeroed last.
    std::uint64_t eof = ino->size.load(std::memory_order_acquire);
    auto stream = [&](const void* buf, std::size_t n, std::uint64_t off) {
      if (fs_.write_file_bytes(*ino, ino_off, buf, n, off, eof).is_ok())
        eof = std::max(eof, off + n);
    };
    std::size_t i = 0;
    while (i < sf.ranges.size()) {
      std::size_t j = i + 1;
      std::uint64_t end = sf.ranges[i].off + sf.ranges[i].data.size();
      if (sf.ranges[i].data.size() < kStageChunkBytes / 4) {
        while (j < sf.ranges.size() && sf.ranges[j].off == end &&
               end - sf.ranges[i].off < kStageChunkBytes) {
          end += sf.ranges[j].data.size();
          ++j;
        }
      }
      if (j == i + 1) {
        stream(sf.ranges[i].data.data(), sf.ranges[i].data.size(),
               sf.ranges[i].off);
      } else {
        run.clear();
        run.reserve(static_cast<std::size_t>(end - sf.ranges[i].off));
        for (std::size_t k = i; k < j; ++k)
          run.insert(run.end(), sf.ranges[k].data.begin(),
                     sf.ranges[k].data.end());
        stream(run.data(), run.size(), sf.ranges[i].off);
      }
      i = j;
    }
    fs_.zero_mapped(*ino, ino_off, eof, sf.new_size);
  }
  nvmm::fence();
  // 2. Arm the intent record.
  WbJournal& j = journal_at(dev);
  lock_journal(j);
  const std::uint64_t gseq =
      j.committed_seq.load(std::memory_order_acquire) + 1;
  std::uint32_t n = 0;
  for (const auto& [ino_off, sf] : e.files) {
    if ((fs_.pool(kPoolInode).flags_of(ino_off) & alloc::kObjValid) == 0)
      continue;
    j.entries[n].ino_off = ino_off;
    j.entries[n].new_size = sf.new_size;
    j.entries[n].mtime_ns = sf.mtime_ns;
    ++n;
  }
  j.n_entries = n;
  j.epoch_seq = gseq;
  nvmm::persist(&j, 64);
  nvmm::persist(j.entries, n * sizeof(WbJournalEntry));
  nvmm::fence();
  j.state.store(kWbJournalArmed, std::memory_order_release);
  nvmm::persist(&j.state, sizeof j.state);
  nvmm::fence();
  // 3. Apply the size/mtime stamps — exactly the strict path's commit
  //    (size max + mtime + one-line persist), now provably after the data
  //    fence.  A crash in here rolls forward from the journal.
  for (std::uint32_t i = 0; i < n; ++i) {
    Inode* ino = fs_.inode_at(j.entries[i].ino_off);
    inode_size_max(ino->size, j.entries[i].new_size);
    ino->mtime_ns.store(j.entries[i].mtime_ns, std::memory_order_relaxed);
    nvmm::persist(&ino->size, kSizeStampBytes);
  }
  nvmm::fence();
  // 4. Commit, then disarm — separate stamps so an armed journal can never
  //    claim a commit that did not happen.
  j.committed_seq.store(gseq, std::memory_order_release);
  nvmm::persist(&j.committed_seq, sizeof j.committed_seq);
  nvmm::fence();
  j.state.store(kWbJournalIdle, std::memory_order_release);
  nvmm::persist(&j.state, sizeof j.state);
  nvmm::fence();
  unlock_journal(j);
  group_commits_.fetch_add(1, std::memory_order_relaxed);
  drained_bytes_.fetch_add(e.bytes, std::memory_order_relaxed);
}

namespace {

// Journal owner token: the mount's; format-time drains predate registration.
std::uint64_t journal_owner(std::uint64_t mount_token) noexcept {
  return mount_token != 0 ? mount_token : 1;
}

}  // namespace

bool wb_journal_roll_forward_locked(nvmm::Device& dev, std::uint64_t token,
                                    std::uint64_t lease_ns) {
  WbJournal& j = journal_at(dev);
  const std::uint64_t self = journal_owner(token);
  // Whether or not the lock was stolen, one roll-forward under it finishes
  // any armed epoch (its holder is dead, or it already disarmed).
  (void)j.lock.lock(self, lease_ns);
  const bool applied = wb_journal_roll_forward(dev);
  j.lock.unlock(self);
  return applied;
}

// NO_THREAD_SAFETY_ANALYSIS on both bodies: the journal lease lock is a CAS
// protocol over raw atomic words (common::LeaseLock) the analysis cannot
// model; the ACQUIRE/RELEASE attributes on the declarations
// (write_behind.h) are the contract callers are checked against.
void WriteBehind::lock_journal(WbJournal& j) NO_THREAD_SAFETY_ANALYSIS {
  // Stole from a dead holder: roll forward any epoch it left armed before
  // draining our own.
  if (j.lock.lock(journal_owner(fs_.mount_token()),
                  lease_ns_.load(std::memory_order_relaxed)))
    (void)wb_journal_roll_forward(fs_.dev());
}

void WriteBehind::unlock_journal(WbJournal& j) NO_THREAD_SAFETY_ANALYSIS {
  j.lock.unlock(journal_owner(fs_.mount_token()));
}

// ---- persister ----

void WriteBehind::persister_main() {
  // Background-priority writeback, like the kernel's flusher threads: the
  // persister soaks otherwise-idle cycles and never competes with
  // foreground writers for the CPU.  Durability stays bounded — flush,
  // backpressure, unmount and drain_all all drain INLINE on the calling
  // thread (drain_until_locked), so a saturated CPU defers background
  // commits without deferring anything a caller is waiting on.  Lowering
  // our own priority needs no privilege; failure just keeps normal prio.
  {
    sched_param sp{};
    (void)pthread_setschedparam(pthread_self(), SCHED_IDLE, &sp);
  }
  common::MutexLock lk(mu_);
  while (!stop_) {
    if (!draining_ && !epochs_.empty() && epochs_.front()->sealed) {
      drain_front_locked(lk);
      continue;
    }
    if (!draining_ && !epochs_.empty() && !epochs_.back()->sealed) {
      const auto deadline = epochs_.back()->opened_at +
                            std::chrono::microseconds(interval_us_);
      if (std::chrono::steady_clock::now() >= deadline) {
        seal_open_locked();
        continue;
      }
      cv_.wait_until(lk, deadline);
      continue;
    }
    cv_.wait(lk);
  }
}

void WriteBehind::start_persister() {
  {
    common::MutexLock lk(mu_);
    stop_ = false;
  }
  if (!persister_.joinable())
    persister_ = std::thread([this] { persister_main(); });
}

void WriteBehind::stop_persister() {
  {
    common::MutexLock lk(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (persister_.joinable()) persister_.join();
  {
    common::MutexLock lk(mu_);
    stop_ = false;
  }
}

// ---- recovery interface ----

std::uint64_t WriteBehind::discard_staged() {
  stop_persister();
  common::MutexLock lk(mu_);
  // The persister is gone, but an inline drainer (flush / commit_epoch_now
  // / unmount) may still be inside drain_epoch with mu_ released, holding a
  // raw pointer into epochs_ — clearing the deque under it would free the
  // epoch it is about to finish committing.  Wait for it to retire first.
  // (Explicit loop, not a wait-predicate lambda: the thread-safety analysis
  // treats a lambda as a separate function that does not hold mu_, so a
  // predicate reading the guarded `draining_` would be a false positive.)
  while (draining_) cv_.wait(lk);
  std::uint64_t bytes = 0;
  for (const auto& e : epochs_) {
    bytes += e->bytes;
    harvest_chunks_locked(*e);
  }
  epochs_.clear();
  for (auto& [ino_off, st] : files_) {
    st.staged_size = 0;
    st.last_epoch = 0;
  }
  committed_seq_ = next_seq_ - 1;  // nothing pending
  staged_bytes_ = 0;
  discarded_bytes_ += bytes;
  cv_.notify_all();
  return bytes;
}

void WriteBehind::resume() { start_persister(); }

WriteBehind::Counters WriteBehind::counters() {
  Counters c;
  common::MutexLock lk(mu_);
  c.fsyncs_absorbed = fsyncs_absorbed_;
  c.group_commits = group_commits_.load(std::memory_order_relaxed);
  c.staged_bytes = staged_bytes_;
  c.pool_bytes = pool_bytes_;
  c.backpressure_hits =
      backpressure_hits_.load(std::memory_order_relaxed);
  c.staged_writes = staged_writes_;
  c.drained_bytes = drained_bytes_.load(std::memory_order_relaxed);
  c.discarded_bytes = discarded_bytes_;
  return c;
}

}  // namespace simurgh::core
