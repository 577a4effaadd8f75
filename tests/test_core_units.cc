// Direct unit tests for core internals that the POSIX surface only
// exercises indirectly: extent maps, path walking, the open-file map, the
// shared-DRAM lock table, and persist-ordering of the directory protocols.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "core/fs.h"
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

// ---- persist ordering through the directory protocols ----

TEST_F(CoreUnitTest, CreatePersistsEntryBeforePublishing) {
  // Fig. 5a's order is enforced with fences; at minimum a create must
  // issue several flush+fence pairs (inode, entry, slot, commits).
  auto proc = fs_->open_process(1000, 1000);
  auto& ps = nvmm::persist_stats();
  ps.reset();
  ASSERT_TRUE(proc->open("/ordered", kOpenCreate | kOpenWrite).is_ok());
  EXPECT_GE(ps.fences.load(), 4u);
  EXPECT_GE(ps.flushed_lines.load(), 8u);
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
