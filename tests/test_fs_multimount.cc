// Multi-mount decentralization tests: several FileSystem instances attached
// to ONE nvmm+shm device pair, standing in for the paper's N independent
// processes mounting one NVMM region with no server (§4).  Covers the mount
// registry (first-in recovery / last-out clean marking), cross-mount
// namespace and data coherence, the superblock cache generation, shared
// allocator state (reservations + free-object stack), and a kill-one-mount
// storm with lease-based reclaim by the survivor.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "core/check.h"
#include "core/fs.h"

namespace simurgh::testing {
namespace {

using core::kOpenCreate;
using core::kOpenRead;
using core::kOpenWrite;

class MultiMountTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kNvmmSize = 256ull << 20;
  static constexpr std::size_t kShmSize = 16ull << 20;

  void SetUp() override { init({}); }

  void init(const core::FormatOptions& opts) {
    pb_.reset();
    pa_.reset();
    fs_b_.reset();
    fs_a_.reset();
    nvmm_ = std::make_unique<nvmm::Device>(kNvmmSize);
    shm_ = std::make_unique<nvmm::Device>(kShmSize);
    fs_a_ = core::FileSystem::format(*nvmm_, *shm_, opts);
    fs_b_ = core::FileSystem::mount(*nvmm_, *shm_);
    pa_ = fs_a_->open_process(1000, 1000);
    pb_ = fs_b_->open_process(1000, 1000);
  }

  // Whole-system restart: every mount is gone, shm (volatile) is wiped, and
  // the returned mount is first-in over the surviving NVMM image.
  std::unique_ptr<core::FileSystem> restart_all() {
    pb_.reset();
    pa_.reset();
    fs_b_.reset();
    fs_a_.reset();
    shm_->wipe();
    return core::FileSystem::mount(*nvmm_, *shm_);
  }

  core::Process& a() { return *pa_; }
  core::Process& b() { return *pb_; }

  static void write_all(core::Process& p, const std::string& path,
                        const std::string& data) {
    auto fd = p.open(path, kOpenCreate | kOpenWrite);
    ASSERT_TRUE(fd.is_ok());
    auto n = p.write(*fd, data.data(), data.size());
    ASSERT_TRUE(n.is_ok());
    ASSERT_EQ(*n, data.size());
    ASSERT_TRUE(p.close(*fd).is_ok());
  }

  static std::string read_all(core::Process& p, const std::string& path) {
    auto fd = p.open(path, kOpenRead);
    if (!fd.is_ok()) return "<open failed>";
    std::string out;
    char buf[4096];
    for (;;) {
      auto n = p.read(*fd, buf, sizeof buf);
      if (!n.is_ok()) return "<read failed>";
      if (*n == 0) break;
      out.append(buf, *n);
    }
    (void)p.close(*fd);
    return out;
  }

  std::unique_ptr<nvmm::Device> nvmm_;
  std::unique_ptr<nvmm::Device> shm_;
  std::unique_ptr<core::FileSystem> fs_a_;
  std::unique_ptr<core::FileSystem> fs_b_;
  std::unique_ptr<core::Process> pa_;
  std::unique_ptr<core::Process> pb_;
};

// ---- registry lifecycle ----

TEST_F(MultiMountTest, SecondMountAttachesWithoutRecovery) {
  EXPECT_EQ(fs_a_->fsstat().mounts_attached, 2u);
  EXPECT_EQ(fs_b_->fsstat().mounts_attached, 2u);
  EXPECT_NE(fs_a_->mount_token(), fs_b_->mount_token());
  // A live peer means B is not first-in: no recovery ran.
  EXPECT_EQ(fs_b_->last_recovery().directories, 0u);
  ASSERT_TRUE(b().stat("/").is_ok());
}

TEST_F(MultiMountTest, LastOutMarksCleanFirstInRecovers) {
  ASSERT_TRUE(a().mkdir("/d").is_ok());
  fs_a_->unmount();  // not last out: B still attached
  EXPECT_EQ(fs_b_->fsstat().mounts_attached, 1u);
  ASSERT_TRUE(b().stat("/d").is_ok());
  write_all(b(), "/d/f", "after A left");
  fs_b_->unmount();  // last out: marks clean

  auto fs_c = restart_all();
  // Clean shutdown: first-in skips recovery entirely.
  EXPECT_EQ(fs_c->last_recovery().directories, 0u);
  auto pc = fs_c->open_process(1000, 1000);
  EXPECT_EQ(pc->stat("/d/f")->size, std::strlen("after A left"));
}

TEST_F(MultiMountTest, DirtyPeerDeathForcesRecoveryOnNextEra) {
  fs_a_->set_lease_ns(2'000'000);  // 2 ms
  fs_b_->set_lease_ns(2'000'000);
  ASSERT_TRUE(a().mkdir("/d").is_ok());
  // B dies without unmounting: destroy the instance, leave its slot behind.
  pb_.reset();
  fs_b_.reset();
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  // A's background heartbeat thread may have reaped B already; the explicit
  // call then finds nothing left, so the cumulative totals are the contract.
  // >= rather than ==: under load B can stall past the 2 ms lease while
  // still alive, get falsely reaped, reattach, and die — two legitimate
  // reaps of one peer.
  (void)fs_a_->reap_dead_mounts();
  EXPECT_GE(fs_a_->reap_totals().mounts, 1u);
  EXPECT_GE(fs_a_->fsstat().mount_reclaims, 1u);
  // A is now alone, but the era saw a dirty death: last-out must NOT mark
  // clean, so the next first-in runs full recovery.
  fs_a_->unmount();
  auto fs_c = restart_all();
  EXPECT_GE(fs_c->last_recovery().directories, 1u);
  const core::CheckReport cr = core::check_fs(*fs_c);
  EXPECT_TRUE(cr.ok()) << cr.summary();
}

// ---- cross-mount coherence ----

TEST_F(MultiMountTest, NamespaceChangesOnAVisibleOnB) {
  ASSERT_TRUE(a().mkdir("/d").is_ok());
  write_all(a(), "/d/f", "hello");
  auto st = b().stat("/d/f");
  ASSERT_TRUE(st.is_ok());
  EXPECT_EQ(st->size, 5u);

  // Warm B's caches, then rename on A: B must re-resolve, not serve the
  // cached binding (epoch validation against the shared NVMM image).
  ASSERT_TRUE(b().stat("/d/f").is_ok());
  ASSERT_TRUE(a().rename("/d/f", "/d/g").is_ok());
  EXPECT_EQ(b().stat("/d/f").code(), Errc::not_found);
  ASSERT_TRUE(b().stat("/d/g").is_ok());

  ASSERT_TRUE(a().unlink("/d/g").is_ok());
  ASSERT_TRUE(a().rmdir("/d").is_ok());
  EXPECT_EQ(b().stat("/d").code(), Errc::not_found);
}

TEST_F(MultiMountTest, DataWrittenOnAReadableOnB) {
  const std::string v1(8192, 'x');
  write_all(a(), "/f", v1);
  EXPECT_EQ(read_all(b(), "/f"), v1);

  // Extend + overwrite on A after B cached the extent view.
  std::string v2 = v1;
  v2[0] = 'y';
  v2 += std::string(65536, 'z');
  write_all(a(), "/f", v2);
  EXPECT_EQ(read_all(b(), "/f"), v2);
}

TEST_F(MultiMountTest, FsStatConvergesAcrossMounts) {
  for (int i = 0; i < 8; ++i)
    write_all(a(), "/f" + std::to_string(i), std::string(20000, 'd'));
  for (int i = 0; i < 8; ++i)
    write_all(b(), "/g" + std::to_string(i), std::string(20000, 'd'));
  const core::FsStat sa = fs_a_->fsstat();
  const core::FsStat sb = fs_b_->fsstat();
  // Shared accounting (NVMM bitmap + shm reserve_unused) must agree
  // exactly; nothing is squirreled away in mount-private DRAM.
  EXPECT_EQ(sa.free_blocks, sb.free_blocks);
  EXPECT_EQ(sa.live_inodes, sb.live_inodes);
  EXPECT_EQ(sa.total_blocks, sb.total_blocks);
  EXPECT_EQ(sa.mounts_attached, 2u);
  EXPECT_EQ(sb.mounts_attached, 2u);
}

TEST_F(MultiMountTest, ConcurrentCreatesNeverDoubleServeAnInode) {
  // Both mounts hammer the shared free-object stack; the on-media CAS claim
  // must keep every inode unique even when both pop the same hint.
  constexpr int kPerThread = 120;
  auto worker = [&](core::FileSystem& fs, const std::string& prefix) {
    auto p = fs.open_process(1000, 1000);
    for (int i = 0; i < kPerThread; ++i) {
      auto fd = p->open(prefix + std::to_string(i), kOpenCreate | kOpenWrite);
      ASSERT_TRUE(fd.is_ok());
      ASSERT_TRUE(p->close(*fd).is_ok());
    }
  };
  std::thread ta(worker, std::ref(*fs_a_), std::string("/a"));
  std::thread tb(worker, std::ref(*fs_b_), std::string("/b"));
  ta.join();
  tb.join();
  auto entries = a().readdir("/");
  ASSERT_TRUE(entries.is_ok());
  EXPECT_EQ(entries->size(), 2u * kPerThread);
  std::vector<std::uint64_t> inodes;
  for (const auto& e : *entries) inodes.push_back(e.inode);
  std::sort(inodes.begin(), inodes.end());
  EXPECT_EQ(std::unique(inodes.begin(), inodes.end()), inodes.end());
  const core::CheckReport cr = core::check_fs(*fs_a_);
  EXPECT_TRUE(cr.ok()) << cr.summary();
}

// ---- superblock cache generation (recovery without epoch retirement) ----

TEST_F(MultiMountTest, RecoveryOnABumpsGenerationAndClearsBCaches) {
  ASSERT_TRUE(a().mkdir("/d").is_ok());
  write_all(a(), "/d/f", "payload");
  // Warm B and establish that warm stats hit B's caches.
  ASSERT_TRUE(b().stat("/d/f").is_ok());
  const std::uint64_t h0 = fs_b_->fsstat().lookup_hits;
  ASSERT_TRUE(b().stat("/d/f").is_ok());
  const std::uint64_t h1 = fs_b_->fsstat().lookup_hits;
  ASSERT_GT(h1, h0);

  // Recovery on A recycles objects without per-directory epoch retirement,
  // so it must invalidate EVERY mount's DRAM caches, not only A's own.
  // The channel is the NVMM superblock generation B polls per op.
  (void)fs_a_->recover();
  ASSERT_TRUE(b().stat("/d/f").is_ok());  // poll sees the bump, clears, refills
  const std::uint64_t h2 = fs_b_->fsstat().lookup_hits;
  EXPECT_EQ(h2, h1);  // cold again: no hit served from the stale cache
  ASSERT_TRUE(b().stat("/d/f").is_ok());
  EXPECT_GT(fs_b_->fsstat().lookup_hits, h2);  // re-warmed
  EXPECT_EQ(read_all(b(), "/d/f"), "payload");
}

TEST_F(MultiMountTest, LeaseReclaimWithoutHeldLocksKeepsSurvivorCaches) {
  // Three mounts: C dies dirty, A reaps it.  C finished its write before
  // dying — it held no file locks — so the reclaim bumps no cache
  // generation: B's warm caches survive the reap and keep serving
  // validated hits (a peer that DOES die mid-mutation is covered by the
  // storm test below).
  auto fs_c = core::FileSystem::mount(*nvmm_, *shm_);
  auto pc = fs_c->open_process(1000, 1000);
  fs_a_->set_lease_ns(2'000'000);
  fs_b_->set_lease_ns(2'000'000);
  fs_c->set_lease_ns(2'000'000);
  write_all(*pc, "/f", "from c");
  ASSERT_TRUE(b().stat("/f").is_ok());
  const std::uint64_t h0 = fs_b_->fsstat().lookup_hits;
  ASSERT_TRUE(b().stat("/f").is_ok());
  ASSERT_GT(fs_b_->fsstat().lookup_hits, h0);

  pc.reset();
  fs_c.reset();  // dies without unmount
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  // B sat idle past the lease too, so A may co-reap it (a false reap B
  // transparently survives by reattaching); C is the guaranteed victim —
  // though either survivor's background thread may claim the reap.
  (void)fs_a_->reap_dead_mounts();
  ASSERT_GE(fs_a_->reap_totals().mounts + fs_b_->reap_totals().mounts, 1u);

  const std::uint64_t h1 = fs_b_->fsstat().lookup_hits;
  ASSERT_TRUE(b().stat("/f").is_ok());
  EXPECT_GT(fs_b_->fsstat().lookup_hits, h1);  // still warm: no bump
  EXPECT_EQ(fs_b_->fsstat().shard_invalidations, 0u);
  EXPECT_EQ(read_all(b(), "/f"), "from c");
}

// ---- dead-peer resource reclaim ----

TEST_F(MultiMountTest, SurvivorReclaimsDeadMountsBlockReservations) {
  fs_a_->set_lease_ns(2'000'000);
  fs_b_->set_lease_ns(2'000'000);
  // One small write on A carves a reservation chunk; most of it is still
  // unserved when A dies.
  write_all(a(), "/f", std::string(100, 'r'));
  const std::uint64_t free_before = fs_b_->fsstat().free_blocks;
  pa_.reset();
  fs_a_.reset();  // dies without unmount, reservation stranded
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  (void)fs_b_->reap_dead_mounts();
  const core::ReapReport r = fs_b_->reap_totals();
  EXPECT_GE(r.mounts, 1u);  // >=: a falsely reaped, reattached A dies twice
  EXPECT_GT(r.reserved_blocks, 0u);
  // The stranded blocks were freed; accounting is exact
  // (free_blocks already counted reserve_unused, so the total is stable
  // and the blocks are now actually allocatable).
  EXPECT_EQ(fs_b_->fsstat().free_blocks, free_before);
  write_all(b(), "/g", std::string(1 << 20, 'g'));  // uses reclaimed space
  const core::CheckReport cr = core::check_fs(*fs_b_);
  EXPECT_TRUE(cr.ok()) << cr.summary();
}

// ---- the acceptance storm: mixed ops, kill one mount, survivor reclaims ----

TEST_F(MultiMountTest, KillOneMountStormSurvivorReclaimsAndImageChecksClean) {
  // A deliberately tiny lock table so concurrent distinct inodes exhaust
  // the keyed slots and exercise the full-table fallback path.
  core::FormatOptions opts;
  opts.lock_table_slots = 8;
  init(opts);
  // Generous lease: the wall-clock heartbeat thread (~lease/4) keeps both
  // mounts live through the storm even when tsan slows every op.
  fs_a_->set_lease_ns(50'000'000);
  fs_b_->set_lease_ns(50'000'000);

  // Phase 1: concurrent mixed-op storm on both mounts.
  constexpr int kThreadsPerMount = 2;
  constexpr int kIters = 150;
  std::atomic<bool> failed{false};
  auto worker = [&](core::FileSystem& fs, int id) {
    auto p = fs.open_process(1000, 1000);
    const std::string dir = "/w" + std::to_string(id);
    if (!p->mkdir(dir).is_ok()) {
      failed = true;
      return;
    }
    for (int i = 0; i < kIters; ++i) {
      const std::string f = dir + "/f" + std::to_string(i % 10);
      auto fd = p->open(f, kOpenCreate | kOpenWrite);
      if (!fd.is_ok()) {
        failed = true;
        return;
      }
      char buf[512];
      std::memset(buf, 'a' + (i % 26), sizeof buf);
      if (!p->write(*fd, buf, sizeof buf).is_ok() ||
          !p->close(*fd).is_ok()) {
        failed = true;
        return;
      }
      if (i % 7 == 0) (void)p->rename(f, dir + "/r" + std::to_string(i));
      if (i % 11 == 0) (void)p->unlink(dir + "/r" + std::to_string(i - 4));
      if (!p->stat(dir).is_ok()) {
        failed = true;
        return;
      }
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreadsPerMount; ++t) {
    threads.emplace_back(worker, std::ref(*fs_a_), t);
    threads.emplace_back(worker, std::ref(*fs_b_), 100 + t);
  }
  for (auto& t : threads) t.join();
  ASSERT_FALSE(failed.load());

  // Phase 2: one thread of mount A dies mid-allocation, holding its file's
  // exclusive lock and a block-allocator segment lock (the fail point sits
  // right after a carve sets its bits, lease stamps still ticking).
  std::atomic<bool> crashed{false};
  std::thread crasher([&] {
    auto p = fs_a_->open_process(1000, 1000);
    auto fd = p->open("/doomed", kOpenCreate | kOpenWrite);
    if (!fd.is_ok()) return;
    FailPoint::arm("blockalloc.bits_set");
    char buf[4096];
    std::memset(buf, 'd', sizeof buf);
    try {
      // A fresh thread's first allocation refills its reservation, which
      // carves from a segment's bitmap and hits the fail point.
      (void)p->write(*fd, buf, sizeof buf);
    } catch (const CrashedException&) {
      crashed = true;
    }
    FailPoint::disarm();
  });
  crasher.join();
  ASSERT_TRUE(crashed.load());
  // B warms a path while A still lives (no reap can run yet) and after the
  // crasher's last namespace change, so only the reap can cool it.
  ASSERT_TRUE(b().stat("/w100").is_ok());
  ASSERT_TRUE(b().stat("/w100").is_ok());
  const core::FsStat warm = fs_b_->fsstat();
  pa_.reset();
  fs_a_.reset();  // the rest of "process A" dies with it; no unmount

  // Phase 3: B waits out the lease and reclaims everything A stranded
  // (its background heartbeat thread may beat the explicit call to it).
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  (void)fs_b_->reap_dead_mounts();
  const core::ReapReport r = fs_b_->reap_totals();
  EXPECT_GE(r.mounts, 1u);  // >=: a falsely reaped, reattached A dies twice
  EXPECT_GT(r.reserved_blocks, 0u);   // stranded reservation chunks
  EXPECT_GE(r.file_locks, 1u);        // /doomed's exclusive lock
  EXPECT_GE(r.segment_locks, 1u);     // the lock held across the carve
  const core::FsStat sb = fs_b_->fsstat();
  EXPECT_GT(sb.lock_fallback_hits, 0u);  // the 8-slot table overflowed
  EXPECT_GE(sb.mount_reclaims, 1u);
  // The swept lock bumped the cache generation, so B dropped its caches
  // whole: the warm path misses once, then hits again.
  EXPECT_GT(sb.shard_invalidations, warm.shard_invalidations);
  ASSERT_TRUE(b().stat("/w100").is_ok());
  const core::FsStat cold = fs_b_->fsstat();
  EXPECT_EQ(cold.lookup_hits, sb.lookup_hits);
  EXPECT_GT(cold.lookup_misses, sb.lookup_misses);
  ASSERT_TRUE(b().stat("/w100").is_ok());
  EXPECT_GT(fs_b_->fsstat().lookup_hits, cold.lookup_hits);

  // B keeps operating on the reclaimed resources.
  write_all(b(), "/after", std::string(256 << 10, 'b'));
  EXPECT_EQ(read_all(b(), "/after"), std::string(256 << 10, 'b'));

  // B leaves; the era saw a dirty death, so the next first-in recovers the
  // half-finished /doomed write and the image must check out clean.
  fs_b_->unmount();
  auto fs_c = restart_all();
  EXPECT_GE(fs_c->last_recovery().directories, 1u);
  const core::CheckReport cr = core::check_fs(*fs_c);
  EXPECT_TRUE(cr.ok()) << cr.summary();
  auto pc = fs_c->open_process(1000, 1000);
  EXPECT_EQ(pc->stat("/after")->size, 256u << 10);
}

// ---- shared free-object stack ----

TEST_F(MultiMountTest, SharedHintsKeepServingUniqueInodesAfterPeerDeath) {
  fs_a_->set_lease_ns(2'000'000);
  fs_b_->set_lease_ns(2'000'000);
  // Peer churn on its own thread (thread-local hint magazines die with
  // it): create+unlink pushes ~10 magazine spills of freed inodes onto the
  // pool's shared stack, where they sit when B is killed.
  std::atomic<bool> failed{false};
  std::vector<std::uint64_t> freed;
  std::thread churn([&] {
    auto p = fs_b_->open_process(1000, 1000);
    for (int i = 0; i < 200 && !failed; ++i) {
      const std::string path = "/c" + std::to_string(i);
      auto fd = p->open(path, kOpenCreate | kOpenWrite);
      if (!fd.is_ok() || !p->close(*fd).is_ok()) failed = true;
      auto st = p->stat(path);
      if (!st.is_ok()) failed = true;
      else freed.push_back(st->inode);
    }
    for (int i = 0; i < 200 && !failed; ++i)
      if (!p->unlink("/c" + std::to_string(i)).is_ok()) failed = true;
  });
  churn.join();
  ASSERT_FALSE(failed.load());
  pb_.reset();
  fs_b_.reset();  // killed; no unmount
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  (void)fs_a_->reap_dead_mounts();
  EXPECT_GE(fs_a_->reap_totals().mounts, 1u);

  // The survivor pops the dead peer's hints off the shared stack, and
  // every claim still goes through the on-media flag CAS, so no inode can
  // ever be double-served no matter which mount pushed the hint.
  constexpr int kFiles = 700;
  for (int i = 0; i < kFiles; ++i) {
    auto fd = a().open("/s" + std::to_string(i), kOpenCreate | kOpenWrite);
    ASSERT_TRUE(fd.is_ok());
    ASSERT_TRUE(a().close(*fd).is_ok());
  }
  auto entries = a().readdir("/");
  ASSERT_TRUE(entries.is_ok());
  EXPECT_EQ(entries->size(), static_cast<std::size_t>(kFiles));
  std::vector<std::uint64_t> inodes;
  for (const auto& e : *entries) inodes.push_back(e.inode);
  std::sort(inodes.begin(), inodes.end());
  EXPECT_EQ(std::unique(inodes.begin(), inodes.end()), inodes.end());
  std::sort(freed.begin(), freed.end());
  std::vector<std::uint64_t> reused;
  std::set_intersection(inodes.begin(), inodes.end(), freed.begin(),
                        freed.end(), std::back_inserter(reused));
  EXPECT_FALSE(reused.empty());  // a dead peer's hints still serve
  const core::CheckReport cr = core::check_fs(*fs_a_);
  EXPECT_TRUE(cr.ok()) << cr.summary();
}

TEST_F(MultiMountTest, RecoveryRebuildsFreeListsToSameAccounting) {
  // Two mounts with different segment biases churn allocations, one dies
  // dirty; full recovery must rebuild the allocation bitmap to
  // exactly the block accounting the survivor agreed on — the bias only
  // rotates where a mount *starts* carving, never what is free.
  fs_a_->set_lease_ns(2'000'000);
  fs_b_->set_lease_ns(2'000'000);
  for (int i = 0; i < 6; ++i) {
    write_all(a(), "/a" + std::to_string(i), std::string(30000, 'a'));
    write_all(b(), "/b" + std::to_string(i), std::string(30000, 'b'));
  }
  ASSERT_TRUE(a().unlink("/a1").is_ok());
  ASSERT_TRUE(b().unlink("/b1").is_ok());
  pb_.reset();
  fs_b_.reset();  // dirty death with stranded reservations
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  (void)fs_a_->reap_dead_mounts();
  ASSERT_GE(fs_a_->reap_totals().mounts, 1u);
  const std::uint64_t free_expected = fs_a_->fsstat().free_blocks;
  fs_a_->unmount();  // era saw a dirty death: next first-in recovers

  auto fs_c = restart_all();
  EXPECT_GE(fs_c->last_recovery().directories, 1u);
  EXPECT_EQ(fs_c->fsstat().free_blocks, free_expected);
  const core::CheckReport cr = core::check_fs(*fs_c);
  EXPECT_TRUE(cr.ok()) << cr.summary();
  auto pc = fs_c->open_process(1000, 1000);
  EXPECT_EQ(pc->stat("/a0")->size, 30000u);
  EXPECT_EQ(pc->stat("/b5")->size, 30000u);
  EXPECT_EQ(pc->stat("/a1").code(), Errc::not_found);
}

}  // namespace
}  // namespace simurgh::testing
