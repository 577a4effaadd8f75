// Direct unit tests for core internals that the POSIX surface only
// exercises indirectly: extent maps, path walking, the open-file map, the
// shared-DRAM lock table, leases, and persist-ordering of the directory
// protocols.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <optional>
#include <thread>
#include <vector>

#include "common/lease.h"
#include "core/fs.h"
#include "core/shm.h"
#include "nvmm/persist.h"

namespace simurgh::core {
namespace {

class CoreUnitTest : public ::testing::Test {
 protected:
  CoreUnitTest()
      : dev_(128ull << 20),
        shm_(8ull << 20),
        fs_(FileSystem::format(dev_, shm_)) {}

  // Allocates a bare file inode straight from the pool.
  std::uint64_t make_inode() {
    auto off = fs_->pool(kPoolInode).alloc();
    EXPECT_TRUE(off.is_ok());
    auto* ino = fs_->inode_at(*off);
    new (ino) Inode();
    ino->mode.store(kModeFile | 0644, std::memory_order_relaxed);
    ino->nlink.store(1, std::memory_order_relaxed);
    fs_->pool(kPoolInode).commit(*off);
    return *off;
  }

  nvmm::Device dev_;
  nvmm::Device shm_;
  std::unique_ptr<FileSystem> fs_;
};

// ---- ExtentMap ----

TEST_F(CoreUnitTest, ExtentMapFindOnEmptyIsHole) {
  const auto ino_off = make_inode();
  ExtentMap map(fs_->dev(), fs_->pool(kPoolExtent), *fs_->inode_at(ino_off),
                ino_off);
  EXPECT_EQ(map.find(0), 0u);
  EXPECT_EQ(map.find(1000), 0u);
}

TEST_F(CoreUnitTest, ExtentMapMergesContiguousAppends) {
  const auto ino_off = make_inode();
  Inode* ino = fs_->inode_at(ino_off);
  ExtentMap map(fs_->dev(), fs_->pool(kPoolExtent), *ino, ino_off);
  auto b0 = fs_->blocks().alloc(4, ino_off);
  ASSERT_TRUE(b0.is_ok());
  ASSERT_TRUE(map.append(0, *b0, 2).is_ok());
  // Contiguous in both file space and device space: must merge.
  ASSERT_TRUE(map.append(2, *b0 + 2 * 4096, 2).is_ok());
  int extents = 0;
  map.for_each([&](const Extent&) { ++extents; });
  EXPECT_EQ(extents, 1);
  EXPECT_EQ(map.find(3), *b0 + 3 * 4096);
}

TEST_F(CoreUnitTest, ExtentMapKeepsDisjointExtentsApart) {
  const auto ino_off = make_inode();
  Inode* ino = fs_->inode_at(ino_off);
  ExtentMap map(fs_->dev(), fs_->pool(kPoolExtent), *ino, ino_off);
  std::vector<std::uint64_t> devs;
  for (int i = 0; i < 10; ++i) {
    auto b = fs_->blocks().alloc(1, ino_off + i * 7777);
    ASSERT_TRUE(b.is_ok());
    devs.push_back(*b);
    ASSERT_TRUE(map.append(i * 5, *b, 1).is_ok());  // holes between
  }
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(map.find(i * 5), devs[i]) << i;
    EXPECT_EQ(map.find(i * 5 + 1), 0u) << i;  // hole after each
  }
  // > kInlineExtents forces the spill chain.
  EXPECT_FALSE(ino->ext_spill.load().is_null());
}

TEST_F(CoreUnitTest, ExtentMapDropFromClipsAndFrees) {
  const auto ino_off = make_inode();
  Inode* ino = fs_->inode_at(ino_off);
  ExtentMap map(fs_->dev(), fs_->pool(kPoolExtent), *ino, ino_off);
  auto b = fs_->blocks().alloc(10, ino_off);
  ASSERT_TRUE(b.is_ok());
  ASSERT_TRUE(map.append(0, *b, 10).is_ok());
  std::uint64_t freed = 0;
  map.drop_from(4, [&](std::uint64_t, std::uint64_t n) { freed += n; });
  EXPECT_EQ(freed, 6u);
  EXPECT_NE(map.find(3), 0u);
  EXPECT_EQ(map.find(4), 0u);
}

// ---- PathWalker ----

TEST_F(CoreUnitTest, WalkerResolveParentOfMissingLeaf) {
  auto proc = fs_->open_process(1000, 1000);
  ASSERT_TRUE(proc->mkdir("/w").is_ok());
  auto rr = fs_->walker().resolve_parent({1000, 1000}, "/w/newname");
  ASSERT_TRUE(rr.is_ok());
  EXPECT_EQ(rr->inode_off, 0u);
  EXPECT_EQ(rr->leaf(), "newname");
  EXPECT_EQ(rr->parent_off, proc->stat("/w")->inode);
}

TEST_F(CoreUnitTest, WalkerRejectsTraversalThroughFiles) {
  auto proc = fs_->open_process(1000, 1000);
  ASSERT_TRUE(proc->open("/f", kOpenCreate | kOpenWrite).is_ok());
  EXPECT_EQ(fs_->walker().resolve({1000, 1000}, "/f/x").code(),
            Errc::not_dir);
}

TEST_F(CoreUnitTest, MayAccessMatrix) {
  Inode ino;
  ino.mode.store(kModeFile | 0640, std::memory_order_relaxed);
  ino.uid = 5;
  ino.gid = 7;
  // Owner: rw-. Group: r--. Other: ---.
  EXPECT_TRUE(may_access(ino, {5, 0}, kMayRead | kMayWrite));
  EXPECT_FALSE(may_access(ino, {5, 0}, kMayExec));
  EXPECT_TRUE(may_access(ino, {9, 7}, kMayRead));
  EXPECT_FALSE(may_access(ino, {9, 7}, kMayWrite));
  EXPECT_FALSE(may_access(ino, {9, 9}, kMayRead));
  EXPECT_TRUE(may_access(ino, {0, 0}, kMayRead | kMayWrite));  // root
}

// ---- OpenFileMap ----

TEST(OpenFileMap, LocklessAllocAndClose) {
  OpenFileMap map;
  const int a = map.alloc(100, kOpenRead);
  const int b = map.alloc(200, kOpenWrite);
  ASSERT_GE(a, 0);
  ASSERT_GE(b, 0);
  EXPECT_NE(a, b);
  EXPECT_EQ(map.get(a)->inode_off.load(), 100u);
  EXPECT_EQ(map.get(b)->flags, kOpenWrite);
  EXPECT_TRUE(map.close(a).is_ok());
  EXPECT_EQ(map.get(a), nullptr);
  EXPECT_FALSE(map.close(a).is_ok());
  // Slot is reusable.
  EXPECT_EQ(map.alloc(300, kOpenRead), a);
}

TEST(OpenFileMap, ConcurrentAllocUniqueDescriptors) {
  OpenFileMap map;
  constexpr int kThreads = 8, kPer = 64;
  std::vector<std::vector<int>> got(kThreads);
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t)
    ts.emplace_back([&, t] {
      for (int i = 0; i < kPer; ++i)
        got[t].push_back(map.alloc(1000 + t, kOpenRead));
    });
  for (auto& th : ts) th.join();
  std::vector<bool> seen(OpenFileMap::kMaxFds, false);
  for (auto& v : got)
    for (int fd : v) {
      ASSERT_GE(fd, 0);
      EXPECT_FALSE(seen[fd]) << "duplicate fd " << fd;
      seen[fd] = true;
    }
}

// ---- FileLockTable ----

TEST_F(CoreUnitTest, FileLockTableKeysByInode) {
  FileLockTable& t = fs_->file_locks();
  FileLock& a = t.slot_for(111);
  FileLock& b = t.slot_for(222);
  FileLock& a2 = t.slot_for(111);
  EXPECT_EQ(&a, &a2);
  EXPECT_NE(&a, &b);
}

TEST_F(CoreUnitTest, FileLockSharedAndExclusive) {
  FileLockTable& t = fs_->file_locks();
  FileLock& l = t.slot_for(333);
  t.lock_shared(l);
  t.lock_shared(l);  // readers coexist
  t.unlock_shared(l);
  t.unlock_shared(l);
  t.lock_exclusive(l);
  t.unlock_exclusive(l);
}

TEST_F(CoreUnitTest, FileLockLeaseStealFromDeadWriter) {
  FileLockTable& t = fs_->file_locks();
  t.set_lease_ns(1'000'000);  // 1 ms
  FileLock& l = t.slot_for(444);
  // Simulate a writer that died: word set, stamp ancient.
  l.word.store(0x8000'0000u, std::memory_order_relaxed);
  l.stamp_ns.store(1, std::memory_order_relaxed);
  t.lock_exclusive(l);  // must steal, not hang
  t.unlock_exclusive(l);
}

// ---- leases (common/lease.h) ----

constexpr std::uint64_t kSecondNs = 1'000'000'000;

// Two threads take one lock once per round, released together onto an idle
// lock that reset() prepares.  Counts the rounds where both were inside at
// once, and the steals: nobody holding the lock is dead, so any steal took
// it from the live winner.  acquire(id) returns whether it stole.
struct RaceResult {
  int both_inside = 0;
  int steals = 0;
};

template <typename Reset, typename Acquire, typename Release>
RaceResult race_on_idle_lock(int rounds, Reset&& reset, Acquire&& acquire,
                             Release&& release) {
  std::atomic<int> go{0}, done{0}, inside{0}, both{0}, steals{0};
  auto worker = [&](int id) {
    for (int r = 1; r <= rounds; ++r) {
      unsigned spins = 0;
      while (go.load(std::memory_order_acquire) < r)
        common::lease_backoff(spins);
      if (acquire(id)) steals.fetch_add(1, std::memory_order_relaxed);
      if (inside.fetch_add(1, std::memory_order_acq_rel) != 0)
        both.fetch_add(1, std::memory_order_relaxed);
      // Stay inside briefly so a thief that entered late is still seen.
      for (int i = 0; i < 64; ++i) (void)inside.load(std::memory_order_relaxed);
      inside.fetch_sub(1, std::memory_order_acq_rel);
      release(id);
      done.fetch_add(1, std::memory_order_acq_rel);
    }
  };
  std::thread a(worker, 0), b(worker, 1);
  for (int r = 1; r <= rounds; ++r) {
    reset();
    go.store(r, std::memory_order_release);
    unsigned spins = 0;
    while (done.load(std::memory_order_acquire) < 2 * r)
      common::lease_backoff(spins);
  }
  a.join();
  b.join();
  return {both.load(), steals.load()};
}

// An idle lock's stamp is either older than the lease or 0 (never used).
constexpr std::uint64_t kIdleStamps[] = {1, 0};
constexpr int kRaceRounds = 10000;

TEST(LeaseLockTest, UnlockByNonOwnerLeavesItHeld) {
  common::LeaseLock l;
  ASSERT_TRUE(l.try_lock(3));
  l.unlock(5);  // a holder whose lease was stolen releasing the thief
  EXPECT_EQ(l.owner.load(), 3u);
  EXPECT_FALSE(l.try_lock(5));
  l.unlock(3);
  EXPECT_EQ(l.owner.load(), 0u);
}

TEST(LeaseLockTest, LockStealsFromDeadHolder) {
  common::LeaseLock l;
  l.owner.store(0xdeadbeef);
  l.stamp_ns.store(1);
  EXPECT_TRUE(l.lock(3, 1'000'000));  // returns true: it stole
  EXPECT_EQ(l.owner.load(), 3u);
  EXPECT_FALSE(common::lease_expired(l.stamp_ns, kSecondNs));
  l.unlock(3);
  EXPECT_FALSE(l.lock(3, 1'000'000));  // free: taken, not stolen
  l.unlock(3);
}

TEST(LeaseLockTest, StampAheadOfTheClockReadsAsExpired) {
  // An NVMM lock word stamped in an earlier boot can be ahead of now.
  const std::uint64_t hour_ahead = common::monotonic_ns() + 3600 * kSecondNs;
  std::atomic<std::uint64_t> stamp{hour_ahead};
  EXPECT_TRUE(common::lease_expired(stamp, kSecondNs));
  stamp.store(common::monotonic_ns());
  EXPECT_FALSE(common::lease_expired(stamp, kSecondNs));
  common::LeaseLock l;
  l.owner.store(0xdeadbeef);
  l.stamp_ns.store(hour_ahead);
  EXPECT_TRUE(l.lock(3, kSecondNs));
}

TEST(LeaseLockTest, SimultaneousFirstAcquirersNeverBothEnter) {
  common::LeaseLock l;
  const std::uint64_t token[2] = {3, 5};
  for (const std::uint64_t idle : kIdleStamps) {
    const RaceResult r = race_on_idle_lock(
        kRaceRounds,
        [&] {
          l.owner.store(0);
          l.stamp_ns.store(idle);
        },
        [&](int id) { return l.lock(token[id], kSecondNs); },
        [&](int id) { l.unlock(token[id]); });
    EXPECT_EQ(r.both_inside, 0) << "idle stamp " << idle;
    EXPECT_EQ(r.steals, 0) << "idle stamp " << idle;
  }
}

TEST_F(CoreUnitTest, FileLockSimultaneousFirstWritersNeverBothEnter) {
  FileLockTable& t = fs_->file_locks();
  t.set_lease_ns(kSecondNs);
  FileLock& l = t.slot_for(666);
  for (const std::uint64_t idle : kIdleStamps) {
    const std::uint64_t steals0 = t.stats().lease_steals.load();
    const RaceResult r = race_on_idle_lock(
        kRaceRounds,
        [&] {
          l.word.store(0);
          l.stamp_ns.store(idle);
        },
        [&](int) {
          t.lock_exclusive(l);
          return false;
        },
        [&](int) { t.unlock_exclusive(l); });
    EXPECT_EQ(r.both_inside, 0) << "idle stamp " << idle;
    EXPECT_EQ(t.stats().lease_steals.load(), steals0) << "idle stamp " << idle;
  }
}

TEST(DirLineLockTest, SimultaneousFirstAcquirersNeverBothEnter) {
  auto blk = std::make_unique<DirBlock>();
  constexpr unsigned kLine = 7;
  std::optional<LineLock> held[2];
  for (const std::uint64_t idle : kIdleStamps) {
    const RaceResult r = race_on_idle_lock(
        kRaceRounds,
        [&] {
          blk->busy.store(0);
          blk->stamp_ns[kLine].store(idle);
        },
        [&](int id) {
          held[id].emplace(blk.get(), kLine, kSecondNs);
          return held[id]->stole_lease();
        },
        [&](int id) { held[id].reset(); });
    EXPECT_EQ(r.both_inside, 0) << "idle stamp " << idle;
    EXPECT_EQ(r.steals, 0) << "idle stamp " << idle;
  }
}

TEST_F(CoreUnitTest, FileLockSweepNeverReleasesALiveLock) {
  FileLockTable& t = fs_->file_locks();
  t.set_lease_ns(50'000'000);  // 50 ms
  FileLock& l = t.slot_for(555);
  std::atomic<bool> stop{false};
  std::thread holder([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      t.lock_exclusive(l);
      t.unlock_exclusive(l);
    }
  });
  unsigned released = 0;
  const auto end = std::chrono::steady_clock::now() +
                   std::chrono::milliseconds(300);
  while (std::chrono::steady_clock::now() < end) released += t.sweep_expired();
  stop.store(true);
  holder.join();
  EXPECT_EQ(released, 0u);
}

// A bare registry over its own shm device (no FileSystem, no heartbeat
// thread): the tests drive every heartbeat themselves.
class MountRegistryTest : public ::testing::Test {
 protected:
  MountRegistryTest() : shm_(1ull << 20) {
    (void)FileLockTable::format(shm_, 0, 64);
    reg_.set_lease_ns(kSecondNs);
  }
  ShmHeader& header() { return *reinterpret_cast<ShmHeader*>(shm_.base()); }

  nvmm::Device shm_;
  MountRegistry reg_{shm_, 0};
};

TEST_F(MountRegistryTest, ReapDeadNeverReapsAHeartbeatingMount) {
  MountRegistry::Attachment a = reg_.attach_mount();
  reg_.finish_recovery(a);
  MountRegistry::Attachment b = reg_.attach_mount();
  std::atomic<bool> stop{false};
  std::thread beat([&] {
    while (!stop.load(std::memory_order_relaxed))
      if (!reg_.heartbeat(b)) reg_.reattach(b);
  });
  unsigned reaped = 0;
  const auto end = std::chrono::steady_clock::now() +
                   std::chrono::milliseconds(300);
  while (std::chrono::steady_clock::now() < end)
    reaped += reg_.reap_dead(a, {});
  stop.store(true);
  beat.join();
  EXPECT_EQ(reaped, 0u);
}

TEST_F(MountRegistryTest, WaitRecoveryDoneNeverTakesOverFromLiveRecoverer) {
  MountRegistry::Attachment a = reg_.attach_mount();  // first in: recovers
  reg_.finish_recovery(a);
  MountRegistry::Attachment b = reg_.attach_mount();
  int took_over = 0;
  for (int trial = 0; trial < 400; ++trial) {
    header().recovering.store(a.token, std::memory_order_release);
    std::thread recoverer([&] {
      const auto end = std::chrono::steady_clock::now() +
                       std::chrono::microseconds(500);
      while (std::chrono::steady_clock::now() < end) (void)reg_.heartbeat(a);
      reg_.finish_recovery(a);
    });
    if (reg_.wait_recovery_done(b)) {
      ++took_over;
      reg_.finish_recovery(b);
    }
    recoverer.join();
  }
  EXPECT_EQ(took_over, 0);
}

// ---- persist ordering through the directory protocols ----

// Records every flush with the number of fences retired before it.
class FlushRecorder final : public nvmm::StoreTracer {
 public:
  struct Flush {
    std::uintptr_t lo, hi;  // [lo, hi)
    std::uint64_t fences_before;
  };
  void on_persist(const void* p, std::size_t len) override {
    const auto lo = reinterpret_cast<std::uintptr_t>(p);
    flushes.push_back({lo, lo + len, fences});
  }
  void on_nt_store(const void*, std::size_t) override {}
  void on_fence(std::uint64_t) override { ++fences; }

  std::vector<Flush> flushes;
  std::uint64_t fences = 0;
};

TEST_F(CoreUnitTest, CreatePersistsEntryBeforePublishing) {
  // Fig. 5a: the inode and the entry are durable before the slot that
  // publishes them — flushed in an earlier fence epoch than the slot — and
  // the slot itself is fenced before open() returns.
  auto proc = fs_->open_process(1000, 1000);
  FlushRecorder rec;
  nvmm::set_store_tracer(&rec);
  const bool opened =
      proc->open("/ordered", kOpenCreate | kOpenWrite).is_ok();
  nvmm::set_store_tracer(nullptr);
  ASSERT_TRUE(opened);

  const std::uint64_t ino_off = proc->stat("/ordered")->inode;
  DirBlock* root_blk =
      fs_->inode_at(fs_->sb().root.load().raw())->dir.load().in(fs_->dev());
  std::uint64_t fe_off = 0;
  for (const DirLine& line : root_blk->lines)
    for (const DirSlot& slot : line.slots) {
      const std::uint64_t off = DirSlot::off_of(slot.v.load());
      if (off != 0 && reinterpret_cast<FileEntry*>(fs_->dev().at(off))
                          ->name_equals("ordered"))
        fe_off = off;
    }
  ASSERT_NE(fe_off, 0u);
  const auto addr = [&](std::uint64_t off) {
    return reinterpret_cast<std::uintptr_t>(fs_->dev().at(off));
  };
  const auto blk_lo = reinterpret_cast<std::uintptr_t>(root_blk);
  const std::uintptr_t blk_hi = blk_lo + sizeof(DirBlock);
  // The slot publish is the create's first flush into the parent's block.
  const auto slot_it = std::find_if(
      rec.flushes.begin(), rec.flushes.end(), [&](const auto& f) {
        return f.lo < blk_hi && f.hi > blk_lo;
      });
  ASSERT_NE(slot_it, rec.flushes.end()) << "the slot was never flushed";
  const std::uint64_t slot_epoch = slot_it->fences_before;

  // Every byte of the inode and of the entry's name is flushed before the
  // slot, in an earlier fence epoch.
  auto covered_before_slot = [&](std::uintptr_t lo, std::uintptr_t hi) {
    std::vector<bool> seen(hi - lo, false);
    for (auto f = rec.flushes.begin(); f != slot_it; ++f) {
      if (f->hi <= lo || f->lo >= hi) continue;
      EXPECT_LT(f->fences_before, slot_epoch)
          << "flush shares the slot's fence epoch";
      for (auto a = std::max(f->lo, lo); a < std::min(f->hi, hi); ++a)
        seen[a - lo] = true;
    }
    return std::count(seen.begin(), seen.end(), false) == 0;
  };
  const std::uintptr_t ino = addr(ino_off);
  const std::uintptr_t fe = addr(fe_off);
  EXPECT_TRUE(covered_before_slot(ino, ino + sizeof(Inode)))
      << "inode not fully flushed before the publish";
  EXPECT_TRUE(covered_before_slot(
      fe, fe + offsetof(FileEntry, name) + sizeof "ordered"))
      << "entry not fully flushed before the publish";
  EXPECT_GT(rec.fences, slot_epoch) << "the slot was not fenced";
}

TEST_F(CoreUnitTest, ReadPathIssuesNoPersists) {
  auto proc = fs_->open_process(1000, 1000);
  auto fd = proc->open("/r", kOpenCreate | kOpenWrite | kOpenRead);
  ASSERT_TRUE(fd.is_ok());
  ASSERT_TRUE(proc->write(*fd, "data", 4).is_ok());
  auto& ps = nvmm::persist_stats();
  ps.reset();
  char buf[4];
  ASSERT_TRUE(proc->pread(*fd, buf, 4, 0).is_ok());
  ASSERT_TRUE(proc->stat("/r").is_ok());
  EXPECT_EQ(ps.fences.load(), 0u);
  EXPECT_EQ(ps.flushed_lines.load(), 0u);
  EXPECT_EQ(ps.nt_bytes.load(), 0u);
}

TEST_F(CoreUnitTest, FsstatTracksAllocations) {
  auto proc = fs_->open_process(1000, 1000);
  // Take the baseline after the first create so lazily grown metadata pool
  // segments (which never shrink) are already accounted.
  auto fd = proc->open("/cap", kOpenCreate | kOpenWrite);
  ASSERT_TRUE(fd.is_ok());
  auto st0 = fs_->fsstat();
  ASSERT_TRUE(proc->fallocate(*fd, 0, 1 << 20).is_ok());
  auto st1 = fs_->fsstat();
  EXPECT_EQ(st0.free_blocks - st1.free_blocks, (1u << 20) / 4096);
  EXPECT_EQ(st1.live_inodes, st0.live_inodes);
  EXPECT_EQ(st1.total_blocks, st0.total_blocks);
  auto fd2 = proc->open("/cap2", kOpenCreate | kOpenWrite);
  ASSERT_TRUE(fd2.is_ok());
  EXPECT_EQ(fs_->fsstat().live_inodes, st0.live_inodes + 1);
}

}  // namespace
}  // namespace simurgh::core
