// Write-behind tier (core/write_behind.h): durability-class semantics,
// telemetry pinning, and crash-image proofs.
//
// The unit half scripts exact write/fsync sequences and pins the FsStat
// counters they must produce (fsyncs_absorbed, group_commits, staged_bytes,
// writeback_backpressure_hits), plus read-your-writes overlays, append
// positions, backpressure fallback, unmount drain, recover() discard
// accounting, O_SYNC strictness, and the fsck armed-journal check.
//
// The crash half runs the epoch drain protocol under the store-tracing
// harness with the commit timer frozen and the seal caps lifted, so every
// drain happens inline on the traced thread (commit_epoch_now),
// deterministically, and proves the paper-shape guarantee: every crash
// image recovers to an exact PREFIX of the group-committed epochs — epoch
// k visible implies every epoch < k visible, and no image shows a torn
// range.  The suite stages appends/extends (the pattern the size-stamp gate
// makes atomic); in-place overwrites of already durable bytes carry the
// same torn-write caveat as POSIX strict writes and are exercised by the
// overlay unit tests instead.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <iostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/check.h"
#include "core/fs.h"
#include "core/layout.h"
#include "core/write_behind.h"
#include "crash_harness.h"
#include "fs_fixture.h"

namespace simurgh::testing {
namespace {

using core::Durability;
using core::kOpenAppend;
using core::kOpenCreate;
using core::kOpenRead;
using core::kOpenSync;
using core::kOpenWrite;

std::string pattern(char c, std::size_t n) { return std::string(n, c); }

class WriteBehindTest : public FsTest {
 protected:
  void SetUp() override {
    FsTest::SetUp();
    wb_ = fs_->write_behind();
    ASSERT_NE(wb_, nullptr);
    // Freeze the T-timer: epochs commit only when a test asks
    // (commit_epoch_now / flush), so every counter is exact.
    wb_->set_interval_us(60'000'000);
  }

  int open_rw(const std::string& path, int extra = 0) {
    auto fd = p().open(path, kOpenCreate | kOpenRead | kOpenWrite | extra);
    EXPECT_TRUE(fd.is_ok());
    return fd.is_ok() ? *fd : -1;
  }

  std::string read_all(const std::string& path) {
    auto fd = p().open(path, kOpenRead);
    EXPECT_TRUE(fd.is_ok());
    if (!fd.is_ok()) return {};
    auto st = p().fstat(*fd);
    EXPECT_TRUE(st.is_ok());
    std::string buf(st->size, '\0');
    auto r = p().pread(*fd, buf.data(), buf.size(), 0);
    EXPECT_TRUE(r.is_ok());
    buf.resize(r.is_ok() ? *r : 0);
    EXPECT_TRUE(p().close(*fd).is_ok());
    return buf;
  }

  core::WriteBehind* wb_ = nullptr;
};

// ---- class management & hot-path gating ----

TEST_F(WriteBehindTest, StrictByDefaultNeverStages) {
  EXPECT_FALSE(wb_->active());
  const int fd = open_rw("/f");
  const std::string data = pattern('x', 300);
  ASSERT_TRUE(p().write(fd, data.data(), data.size()).is_ok());
  ASSERT_TRUE(p().fsync(fd).is_ok());
  ASSERT_TRUE(p().close(fd).is_ok());
  const auto c = wb_->counters();
  EXPECT_EQ(c.staged_writes, 0u);
  EXPECT_EQ(c.staged_bytes, 0u);
  EXPECT_EQ(c.fsyncs_absorbed, 0u);
  EXPECT_FALSE(wb_->active());
}

TEST_F(WriteBehindTest, SetDurabilityErrors) {
  ASSERT_TRUE(p().mkdir("/d").is_ok());
  EXPECT_EQ(p().set_durability("/d", Durability::group).code(), Errc::is_dir);
  EXPECT_EQ(p().set_durability("/missing", Durability::group).code(),
            Errc::not_found);
  const int fd = open_rw("/f");
  ASSERT_TRUE(p().close(fd).is_ok());
  auto ro = p().open("/f", kOpenRead);
  ASSERT_TRUE(ro.is_ok());
  EXPECT_EQ(p().set_durability(*ro, Durability::group).code(), Errc::bad_fd);
  EXPECT_EQ(p().set_durability(999, Durability::group).code(), Errc::bad_fd);
  ASSERT_TRUE(p().close(*ro).is_ok());
  // A non-owner without write permission cannot relax someone else's file.
  ASSERT_TRUE(p().chmod("/f", 0600).is_ok());
  auto other = fs_->open_process(2000, 2000);
  EXPECT_EQ(other->set_durability("/f", Durability::group).code(),
            Errc::permission);
}

TEST_F(WriteBehindTest, SetDurabilityOnDirectoryFdReportsIsDir) {
  ASSERT_TRUE(p().mkdir("/dird").is_ok());
  auto dfd = p().open("/dird", kOpenRead);
  ASSERT_TRUE(dfd.is_ok());
  // The fd form must report what the object IS before how it was opened:
  // a read-only directory fd yields is_dir (matching the path form), not
  // bad_fd for the missing write bit.
  EXPECT_EQ(p().set_durability(*dfd, Durability::group).code(), Errc::is_dir);
  ASSERT_TRUE(p().close(*dfd).is_ok());
}

// ---- telemetry pinning: the scripted sequence of satellite 3 ----

TEST_F(WriteBehindTest, GroupSequencePinsCounters) {
  const int fd = open_rw("/f");
  ASSERT_TRUE(p().set_durability("/f", Durability::group).is_ok());
  EXPECT_TRUE(wb_->active());

  const std::string a = pattern('a', 256), b = pattern('b', 256),
                    c3 = pattern('c', 512);
  ASSERT_TRUE(p().write(fd, a.data(), a.size()).is_ok());
  ASSERT_TRUE(p().fsync(fd).is_ok());  // absorbed
  ASSERT_TRUE(p().write(fd, b.data(), b.size()).is_ok());
  ASSERT_TRUE(p().write(fd, c3.data(), c3.size()).is_ok());
  ASSERT_TRUE(p().fsync(fd).is_ok());  // absorbed

  core::FsStat st = fs_->fsstat();
  EXPECT_EQ(st.fsyncs_absorbed, 2u);
  EXPECT_EQ(st.group_commits, 0u);
  EXPECT_EQ(st.staged_bytes, 1024u);
  EXPECT_EQ(st.writeback_backpressure_hits, 0u);

  // Reads see staged data before any commit.
  EXPECT_EQ(read_all("/f"), a + b + c3);
  EXPECT_EQ(p().stat("/f")->size, 1024u);

  wb_->commit_epoch_now();
  st = fs_->fsstat();
  EXPECT_EQ(st.group_commits, 1u);
  EXPECT_EQ(st.staged_bytes, 0u);
  EXPECT_EQ(read_all("/f"), a + b + c3);  // now from NVMM
  EXPECT_EQ(wb_->counters().drained_bytes, 1024u);
  ASSERT_TRUE(p().close(fd).is_ok());
}

// ---- read path: overlays, sparse ranges, append positions ----

TEST_F(WriteBehindTest, ReadYourWritesAcrossEpochsNewestWins) {
  const int fd = open_rw("/f");
  ASSERT_TRUE(p().set_durability("/f", Durability::group).is_ok());
  ASSERT_TRUE(p().pwrite(fd, "AAAA", 4, 0).is_ok());
  wb_->commit_epoch_now();  // epoch 1 durable
  ASSERT_TRUE(p().pwrite(fd, "BB", 2, 1).is_ok());  // staged epoch 2
  EXPECT_EQ(read_all("/f"), "ABBA");  // staged overlay over durable base
  wb_->commit_epoch_now();
  EXPECT_EQ(read_all("/f"), "ABBA");
  // Same-epoch overwrite: arrival order, newest wins.
  ASSERT_TRUE(p().pwrite(fd, "xxxx", 4, 0).is_ok());
  ASSERT_TRUE(p().pwrite(fd, "yy", 2, 2).is_ok());
  EXPECT_EQ(read_all("/f"), "xxyy");
  wb_->commit_epoch_now();
  EXPECT_EQ(read_all("/f"), "xxyy");
  ASSERT_TRUE(p().close(fd).is_ok());
}

TEST_F(WriteBehindTest, SparseStagedWriteReadsZerosBelow) {
  const int fd = open_rw("/f");
  ASSERT_TRUE(p().set_durability("/f", Durability::group).is_ok());
  ASSERT_TRUE(p().pwrite(fd, "tail", 4, 100).is_ok());
  EXPECT_EQ(p().stat("/f")->size, 104u);
  std::string got = read_all("/f");
  ASSERT_EQ(got.size(), 104u);
  EXPECT_EQ(got.substr(0, 100), std::string(100, '\0'));
  EXPECT_EQ(got.substr(100), "tail");
  wb_->commit_epoch_now();
  EXPECT_EQ(read_all("/f"), got);
  ASSERT_TRUE(p().close(fd).is_ok());
}

// The drain grows the file range by range before one size stamp: each range
// must zero from the EOF the ranges before it left — not the persisted size,
// which would wipe the first range, nor the staged size, which would leave
// the bytes past the persisted EOF stale.  The block is recycled from a
// freed file of 'z' bytes.
TEST_F(WriteBehindTest, SparseStagedWritesOnARecycledBlockReadZerosBelow) {
  // 64 blocks are a direct carve from the tail of the first fitting free
  // run; freed, the run is whole again, and this thread's first reservation
  // chunk is the same 64 blocks.
  const int junk = open_rw("/junk");
  const std::string z = pattern('z', 64 * 4096);
  ASSERT_TRUE(p().write(junk, z.data(), z.size()).is_ok());
  ASSERT_TRUE(p().close(junk).is_ok());
  const std::uint64_t junk_off =
      fs_->inode_at(p().stat("/junk")->inode)->extents[0].dev_off;
  ASSERT_TRUE(p().unlink("/junk").is_ok());

  const int fd = open_rw("/f");
  const std::string strict = pattern('s', 50);
  ASSERT_TRUE(p().write(fd, strict.data(), strict.size()).is_ok());
  ASSERT_TRUE(p().set_durability("/f", Durability::group).is_ok());
  ASSERT_TRUE(p().pwrite(fd, "head", 4, 100).is_ok());
  ASSERT_TRUE(p().pwrite(fd, "tail", 4, 3000).is_ok());
  const std::string want = strict + std::string(50, '\0') + "head" +
                           std::string(3000 - 104, '\0') + "tail";
  EXPECT_EQ(read_all("/f"), want);
  wb_->commit_epoch_now();
  const std::uint64_t blk = fs_->inode_at(p().stat("/f")->inode)->extents[0]
                                .dev_off;
  ASSERT_GE(blk, junk_off);
  ASSERT_LT(blk, junk_off + 64 * 4096) << "the block is not recycled";
  EXPECT_EQ(read_all("/f"), want);
  ASSERT_TRUE(p().close(fd).is_ok());
}

TEST_F(WriteBehindTest, AppendResolvesAgainstStagedSize) {
  const int fd = open_rw("/f", kOpenAppend);
  ASSERT_TRUE(p().set_durability("/f", Durability::group).is_ok());
  const std::string a = pattern('p', 100), b = pattern('q', 50);
  ASSERT_TRUE(p().write(fd, a.data(), a.size()).is_ok());
  ASSERT_TRUE(p().write(fd, b.data(), b.size()).is_ok());
  auto end = p().lseek(fd, 0, core::Process::kSeekEnd);
  ASSERT_TRUE(end.is_ok());
  EXPECT_EQ(*end, 150u);  // staged-inclusive
  EXPECT_EQ(read_all("/f"), a + b);
  wb_->commit_epoch_now();
  EXPECT_EQ(p().stat("/f")->size, 150u);
  EXPECT_EQ(read_all("/f"), a + b);
  ASSERT_TRUE(p().close(fd).is_ok());
}

// ---- bounded memory: backpressure falls back to the strict path ----

TEST_F(WriteBehindTest, BackpressureFlushesThenGoesStrict) {
  wb_->set_max_staged_bytes(1024);
  const int fd = open_rw("/f");
  ASSERT_TRUE(p().set_durability("/f", Durability::group).is_ok());
  const std::string a = pattern('a', 512), b = pattern('b', 1024);
  ASSERT_TRUE(p().write(fd, a.data(), a.size()).is_ok());  // staged
  ASSERT_TRUE(p().write(fd, b.data(), b.size()).is_ok());  // over cap
  const auto c = wb_->counters();
  EXPECT_EQ(c.backpressure_hits, 1u);
  EXPECT_EQ(c.staged_writes, 1u);  // the second write went strict
  EXPECT_EQ(c.group_commits, 1u);  // the inode's own ranges flushed first
  EXPECT_EQ(c.staged_bytes, 0u);
  EXPECT_EQ(fs_->fsstat().writeback_backpressure_hits, 1u);
  EXPECT_EQ(read_all("/f"), a + b);  // ordering preserved
  ASSERT_TRUE(p().close(fd).is_ok());
}

// ---- O_SYNC pins a descriptor to the strict path ----

TEST_F(WriteBehindTest, OSyncDescriptorStaysStrict) {
  const int fd = open_rw("/f");
  ASSERT_TRUE(p().set_durability("/f", Durability::group).is_ok());
  const std::string a = pattern('s', 100);
  ASSERT_TRUE(p().write(fd, a.data(), a.size()).is_ok());  // staged
  EXPECT_EQ(wb_->counters().staged_bytes, 100u);

  const int sfd = open_rw("/f", kOpenSync);
  // The O_SYNC write first flushes the file's staged ranges (ordering),
  // then lands strictly.
  const std::string b = pattern('t', 50);
  ASSERT_TRUE(p().pwrite(sfd, b.data(), b.size(), 100).is_ok());
  auto c = wb_->counters();
  EXPECT_EQ(c.staged_writes, 1u);
  EXPECT_EQ(c.group_commits, 1u);
  EXPECT_EQ(c.staged_bytes, 0u);
  // fsync on the O_SYNC fd is a fence, not an absorb.
  ASSERT_TRUE(p().fsync(sfd).is_ok());
  EXPECT_EQ(wb_->counters().fsyncs_absorbed, 0u);
  EXPECT_EQ(read_all("/f"), a + b);
  ASSERT_TRUE(p().close(sfd).is_ok());
  ASSERT_TRUE(p().close(fd).is_ok());
}

// ---- class transitions ----

TEST_F(WriteBehindTest, DowngradeToStrictFlushesFirst) {
  const int fd = open_rw("/f");
  ASSERT_TRUE(p().set_durability("/f", Durability::group).is_ok());
  const std::string a = pattern('g', 200);
  ASSERT_TRUE(p().write(fd, a.data(), a.size()).is_ok());
  ASSERT_TRUE(p().set_durability("/f", Durability::strict).is_ok());
  auto c = wb_->counters();
  EXPECT_EQ(c.group_commits, 1u);
  EXPECT_EQ(c.staged_bytes, 0u);
  EXPECT_FALSE(wb_->active());
  const std::string b = pattern('h', 100);
  ASSERT_TRUE(p().write(fd, b.data(), b.size()).is_ok());
  EXPECT_EQ(wb_->counters().staged_writes, 1u);  // unchanged: strict now
  EXPECT_EQ(read_all("/f"), a + b);
  ASSERT_TRUE(p().close(fd).is_ok());
}

TEST_F(WriteBehindTest, UnlinkDiscardsResidualStagedRanges) {
  const int fd = open_rw("/f");
  ASSERT_TRUE(p().set_durability("/f", Durability::group).is_ok());
  const std::string a = pattern('u', 300);
  ASSERT_TRUE(p().write(fd, a.data(), a.size()).is_ok());
  ASSERT_TRUE(p().close(fd).is_ok());
  // unlink flushes, forgets the binding, and releases the class slot.
  ASSERT_TRUE(p().unlink("/f").is_ok());
  auto c = wb_->counters();
  EXPECT_EQ(c.staged_bytes, 0u);
  EXPECT_FALSE(wb_->active());
  const core::CheckReport cr = core::check_fs(*fs_);
  EXPECT_TRUE(cr.ok()) << cr.summary();
}

// forget() can scrub every staged range out of the still-OPEN epoch (an
// unlink whose flush raced a concurrent staged write).  The persister must
// seal and retire that empty epoch at its deadline and go back to sleep —
// the regression was an unsealable empty epoch spinning the persister
// forever with mu_ held, wedging every operation on the mount.
TEST_F(WriteBehindTest, EmptyOpenEpochDoesNotWedgePersister) {
  const int fd = open_rw("/f");
  ASSERT_TRUE(p().set_durability("/f", Durability::group).is_ok());
  const std::string a = pattern('e', 128);
  ASSERT_TRUE(p().write(fd, a.data(), a.size()).is_ok());  // opens an epoch
  const std::uint64_t ino_off = p().stat("/f")->inode;
  wb_->forget(ino_off);  // scrubs the open epoch's only ranges
  EXPECT_EQ(wb_->counters().staged_bytes, 0u);
  // Drop the T-deadline under the epoch's age so the persister hits it now.
  wb_->set_interval_us(100);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  // Liveness probe: mu_ must still be available, an empty drain must not
  // count as a group commit, and staging must keep working.
  auto c = wb_->counters();
  EXPECT_EQ(c.group_commits, 0u);
  const int fd2 = open_rw("/g");
  ASSERT_TRUE(p().set_durability("/g", Durability::group).is_ok());
  ASSERT_TRUE(p().write(fd2, a.data(), a.size()).is_ok());
  wb_->commit_epoch_now();
  EXPECT_EQ(read_all("/g"), a);
  ASSERT_TRUE(p().close(fd2).is_ok());
  ASSERT_TRUE(p().close(fd).is_ok());
}

// Pool residency counts toward max_staged_bytes: a warm recycle arena must
// shed chunks as staged residency grows, never stack a full pool on top of
// a full staging buffer (~2x the configured cap).
TEST_F(WriteBehindTest, PoolResidencyCountsTowardCap) {
  const std::uint64_t cap = 2 * core::kStageChunkBytes;
  wb_->set_max_staged_bytes(cap);
  wb_->prewarm_chunks(cap);
  EXPECT_EQ(wb_->counters().pool_bytes, cap);
  const int fd = open_rw("/f");
  ASSERT_TRUE(p().set_durability("/f", Durability::group).is_ok());
  const std::string a = pattern('p', core::kStageChunkBytes + 4096);
  ASSERT_TRUE(p().write(fd, a.data(), a.size()).is_ok());
  auto c = wb_->counters();
  EXPECT_EQ(c.backpressure_hits, 0u);  // the pool shed; no strict fallback
  EXPECT_EQ(c.staged_writes, 1u);
  EXPECT_LE(c.staged_bytes + c.pool_bytes, cap);
  wb_->commit_epoch_now();
  c = wb_->counters();
  EXPECT_LE(c.staged_bytes + c.pool_bytes, cap);
  EXPECT_EQ(read_all("/f"), a);
  ASSERT_TRUE(p().close(fd).is_ok());
}

// stat on a staged file must pair the staged size with the staged mtime —
// the exact values the drain will stamp — not the pre-stage mtime.
TEST_F(WriteBehindTest, StatSeesStagedMtime) {
  const int fd = open_rw("/f");
  ASSERT_TRUE(p().set_durability("/f", Durability::group).is_ok());
  const std::uint64_t before = p().stat("/f")->mtime_ns;
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  const std::string a = pattern('m', 64);
  ASSERT_TRUE(p().write(fd, a.data(), a.size()).is_ok());
  const auto staged = p().stat("/f");
  ASSERT_TRUE(staged.is_ok());
  EXPECT_EQ(staged->size, 64u);
  EXPECT_GT(staged->mtime_ns, before);
  wb_->commit_epoch_now();
  // The drain stamped the same mtime the overlay reported.
  EXPECT_EQ(p().stat("/f")->mtime_ns, staged->mtime_ns);
  ASSERT_TRUE(p().close(fd).is_ok());
}

// ---- lifecycle: unmount drains, recover() discards with accounting ----

TEST_F(WriteBehindTest, UnmountDrainsEverythingStaged) {
  const int fd = open_rw("/g");
  const int fd2 = open_rw("/a");
  ASSERT_TRUE(p().set_durability("/g", Durability::group).is_ok());
  ASSERT_TRUE(p().set_durability("/a", Durability::group).is_ok());
  const std::string g = pattern('G', 700), a = pattern('A', 450);
  ASSERT_TRUE(p().write(fd, g.data(), g.size()).is_ok());
  ASSERT_TRUE(p().write(fd2, a.data(), a.size()).is_ok());
  ASSERT_TRUE(p().close(fd).is_ok());
  ASSERT_TRUE(p().close(fd2).is_ok());
  proc_.reset();
  fs_->unmount();
  fs_.reset();
  shm_->wipe();
  fs_ = core::FileSystem::mount(*nvmm_, *shm_);
  proc_ = fs_->open_process(1000, 1000);
  EXPECT_EQ(read_all("/g"), g);
  EXPECT_EQ(read_all("/a"), a);
}

TEST_F(WriteBehindTest, RecoverDiscardsStagedWithAccounting) {
  const int fd = open_rw("/f");
  const std::string base = pattern('B', 64);
  ASSERT_TRUE(p().write(fd, base.data(), base.size()).is_ok());  // strict
  ASSERT_TRUE(p().set_durability("/f", Durability::group).is_ok());
  const std::string staged = pattern('S', 300);
  ASSERT_TRUE(p().write(fd, staged.data(), staged.size()).is_ok());
  EXPECT_EQ(p().stat("/f")->size, 364u);

  const core::RecoveryReport rr = fs_->recover();
  EXPECT_EQ(rr.wb_staged_discarded, 300u);
  EXPECT_EQ(rr.wb_epochs_rolled_forward, 0u);
  EXPECT_EQ(wb_->counters().discarded_bytes, 300u);
  EXPECT_EQ(wb_->counters().staged_bytes, 0u);
  // The acked-but-unsynced staged bytes are gone — the class contract —
  // and the durable prefix survives untorn.
  EXPECT_EQ(p().stat("/f")->size, 64u);
  EXPECT_EQ(read_all("/f"), base);

  // The tier resumed: staging still works after recovery.  (The fd's
  // position reflects the acked-then-lost bytes; write at an explicit
  // offset to land right after the durable prefix.)
  const std::string more = pattern('M', 128);
  ASSERT_TRUE(p().pwrite(fd, more.data(), more.size(), 64).is_ok());
  EXPECT_EQ(wb_->counters().staged_bytes, 128u);
  wb_->commit_epoch_now();
  EXPECT_EQ(read_all("/f"), base + more);
  ASSERT_TRUE(p().close(fd).is_ok());
}

// discard_staged() vs an inline drainer: commit_epoch_now drains on the
// calling thread with mu_ released and a raw pointer into epochs_, so the
// discard must wait for it to retire before destroying the deque (the
// regression was a use-after-free asan catches here).
TEST_F(WriteBehindTest, DiscardWaitsForInlineDrainer) {
  const int fd = open_rw("/f");
  ASSERT_TRUE(p().set_durability("/f", Durability::group).is_ok());
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    auto proc = fs_->open_process(1000, 1000);
    auto wfd = proc->open("/f", kOpenWrite | kOpenAppend);
    ASSERT_TRUE(wfd.is_ok());
    const std::string chunk = pattern('w', 256);
    while (!stop.load(std::memory_order_relaxed)) {
      if (!proc->write(*wfd, chunk.data(), chunk.size()).is_ok()) break;
      wb_->commit_epoch_now();  // inline drain
    }
    (void)proc->close(*wfd);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  (void)wb_->discard_staged();  // must not clear epochs_ under the drainer
  stop.store(true, std::memory_order_relaxed);
  writer.join();
  wb_->resume();
  wb_->drain_all();
  const core::CheckReport cr = core::check_fs(*fs_);
  EXPECT_TRUE(cr.ok()) << cr.summary();
  ASSERT_TRUE(p().close(fd).is_ok());
}

// recover() must take the journal's lease lock (stealing from a dead
// holder) before rolling forward: the regression disarmed/committed a
// peer's armed epoch without the lock, racing a live peer's drain protocol.
TEST_F(WriteBehindTest, RecoverStealsJournalLockThenRollsForward) {
  auto& j = *reinterpret_cast<core::WbJournal*>(nvmm_->at(core::kWbJournalOff));
  j.epoch_seq = j.committed_seq.load(std::memory_order_relaxed) + 1;
  j.n_entries = 0;
  j.state.store(core::kWbJournalArmed, std::memory_order_release);
  // A dead peer's lock: foreign token, lease long expired.
  j.lock.owner.store(0xdeadbeef, std::memory_order_release);
  j.lock.stamp_ns.store(1, std::memory_order_release);
  const core::RecoveryReport rr = fs_->recover();
  EXPECT_EQ(rr.wb_epochs_rolled_forward, 1u);
  EXPECT_EQ(j.state.load(std::memory_order_acquire), core::kWbJournalIdle);
  // The steal went through the lock and released it afterwards.
  EXPECT_EQ(j.lock.owner.load(std::memory_order_acquire), 0u);
  const core::CheckReport cr = core::check_fs(*fs_);
  EXPECT_TRUE(cr.ok()) << cr.summary();
}

// ---- fsck: an armed journal must only appear mid-crash ----

TEST_F(WriteBehindTest, FsckFlagsArmedJournalAndRollForwardClears) {
  auto& j = *reinterpret_cast<core::WbJournal*>(nvmm_->at(core::kWbJournalOff));
  j.epoch_seq = j.committed_seq.load(std::memory_order_relaxed) + 1;
  j.n_entries = 0;
  j.state.store(core::kWbJournalArmed, std::memory_order_release);
  const core::CheckReport bad = core::check_fs(*fs_);
  EXPECT_FALSE(bad.ok());
  EXPECT_TRUE(core::wb_journal_roll_forward(*nvmm_));
  const core::CheckReport good = core::check_fs(*fs_);
  EXPECT_TRUE(good.ok()) << good.summary();
  // Idempotent: a second roll-forward is a no-op.
  EXPECT_FALSE(core::wb_journal_roll_forward(*nvmm_));
}

// ---- concurrency (tsan): staging, fsync, and commits in parallel ----

TEST_F(WriteBehindTest, ConcurrentStagedWritersStayCoherent) {
  constexpr int kThreads = 4;
  constexpr int kWrites = 200;
  constexpr std::size_t kChunk = 64;
  wb_->set_interval_us(200);  // let the persister race the writers
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&, t] {
      auto proc = fs_->open_process(1000, 1000);
      const std::string path = "/t" + std::to_string(t);
      auto fd = proc->open(path, kOpenCreate | kOpenWrite | kOpenAppend);
      ASSERT_TRUE(fd.is_ok());
      ASSERT_TRUE(proc->set_durability(path, Durability::group).is_ok());
      const std::string chunk = pattern(static_cast<char>('0' + t), kChunk);
      for (int i = 0; i < kWrites; ++i) {
        ASSERT_TRUE(proc->write(*fd, chunk.data(), chunk.size()).is_ok());
        if (i % 16 != 0) continue;
        // Even threads fsync (absorbed); odd ones drain inline, racing
        // the persister and each other.
        if (t % 2 == 0) {
          ASSERT_TRUE(proc->fsync(*fd).is_ok());
        } else {
          wb_->commit_epoch_now();
        }
      }
      ASSERT_TRUE(proc->close(*fd).is_ok());
    });
  }
  for (auto& t : ts) t.join();
  wb_->drain_all();
  for (int t = 0; t < kThreads; ++t) {
    const std::string path = "/t" + std::to_string(t);
    const std::string got = read_all(path);
    ASSERT_EQ(got.size(), kWrites * kChunk) << path;
    EXPECT_EQ(got, std::string(kWrites * kChunk, static_cast<char>('0' + t)))
        << path;
  }
  EXPECT_EQ(wb_->counters().staged_bytes, 0u);
  const core::CheckReport cr = core::check_fs(*fs_);
  EXPECT_TRUE(cr.ok()) << cr.summary();
}

// ---- crash images: the epoch drain protocol under store tracing ----

// Freezes the commit timer and lifts the byte caps on the traced mount: the
// persister never seals or drains on its own, so every drain runs inline on
// the traced thread when the op calls commit_epoch_now().
void drain_only_on_demand(CrashHarness& h) {
  core::WriteBehind* wb = h.fs().write_behind();
  wb->set_interval_us(60'000'000);
  wb->set_epoch_bytes(1ull << 30);
  wb->set_max_staged_bytes(1ull << 30);
}

// A single staged epoch's commit is all-or-nothing: every crash image at
// every fence boundary of the drain (data stores, journal arm, size stamps,
// commit, disarm) recovers to exactly the pre- or post-epoch namespace.
TEST(WriteBehindCrash, SingleEpochCommitIsAtomic) {
  CrashHarness h;
  drain_only_on_demand(h);
  h.setup([](core::Process& p) {
    ASSERT_TRUE(p.mkdir("/d").is_ok());
    auto fd = p.open("/d/f", kOpenCreate | kOpenWrite);
    ASSERT_TRUE(fd.is_ok());
    ASSERT_TRUE(p.close(*fd).is_ok());
    ASSERT_TRUE(p.set_durability("/d/f", Durability::group).is_ok());
  });
  h.run_op([&h](core::Process& p) {
    auto fd = p.open("/d/f", kOpenWrite | kOpenAppend);
    ASSERT_TRUE(fd.is_ok());
    const std::string data = pattern('E', 128);
    ASSERT_TRUE(p.write(*fd, data.data(), data.size()).is_ok());
    ASSERT_TRUE(p.close(*fd).is_ok());
    h.fs().write_behind()->commit_epoch_now();
  });
  h.explore("write-behind single epoch commit");
  std::cout << "[crash-harness] wb single epoch: " << h.stats() << "\n";
  EXPECT_GT(h.stats().images, 0u);
  EXPECT_GT(h.stats().recovered_to_pre, 0u)
      << "no crash image recovered to the pre-epoch state";
  EXPECT_GT(h.stats().recovered_to_post, 0u)
      << "no crash image recovered to the committed-epoch state";
}

// Multi-epoch prefix consistency: three group commits over three group
// inodes with a strict append interleaved.  Every sampled crash image must
// recover to one of the acked points, in order — i.e. an exact prefix of
// the committed epochs (epoch k durable => all epochs < k durable), never
// a torn or reordered state.
TEST(WriteBehindCrash, MultiEpochRecoversToAckedPrefix) {
  CrashHarness h;
  drain_only_on_demand(h);
  h.setup([](core::Process& p) {
    ASSERT_TRUE(p.mkdir("/d").is_ok());
    for (const char* f : {"/d/g1", "/d/g2", "/d/a1", "/d/s"}) {
      auto fd = p.open(f, kOpenCreate | kOpenWrite);
      ASSERT_TRUE(fd.is_ok());
      ASSERT_TRUE(p.close(*fd).is_ok());
    }
    ASSERT_TRUE(p.set_durability("/d/g1", Durability::group).is_ok());
    ASSERT_TRUE(p.set_durability("/d/g2", Durability::group).is_ok());
    ASSERT_TRUE(p.set_durability("/d/a1", Durability::group).is_ok());
  });

  std::vector<NsSnapshot> mids;
  h.run_op([&h, &mids](core::Process& p) {
    auto append = [&p](const char* path, char c, std::size_t n) {
      auto fd = p.open(path, kOpenWrite | kOpenAppend);
      ASSERT_TRUE(fd.is_ok());
      const std::string data = pattern(c, n);
      ASSERT_TRUE(p.write(*fd, data.data(), data.size()).is_ok());
      ASSERT_TRUE(p.close(*fd).is_ok());
    };
    core::WriteBehind* wb = h.fs().write_behind();

    // Epoch 1: all three group inodes in one epoch.
    append("/d/g1", 'A', 160);
    append("/d/g2", 'B', 96);
    append("/d/a1", 'C', 128);
    wb->commit_epoch_now();
    mids.push_back(snapshot_namespace(h.fs()));

    // Strict interlude: the default class keeps its own atomicity.
    append("/d/s", 'S', 64);
    mids.push_back(snapshot_namespace(h.fs()));

    // Epoch 2: two of them.
    append("/d/g1", 'D', 200);
    append("/d/a1", 'E', 64);
    wb->commit_epoch_now();
    mids.push_back(snapshot_namespace(h.fs()));

    // Epoch 3: all three relaxed inodes again.
    append("/d/g2", 'F', 96);
    append("/d/g1", 'G', 48);
    append("/d/a1", 'H', 32);
    wb->commit_epoch_now();
    mids.push_back(snapshot_namespace(h.fs()));
  });

  std::vector<NsSnapshot> oracles;
  oracles.push_back(h.pre());
  for (NsSnapshot& s : mids) oracles.push_back(std::move(s));
  // Nothing was left staged, so the harness's own post snapshot must be the
  // final acked point — a cross-check that the commits really drained.
  ASSERT_EQ(oracles.back(), h.post());

  h.explore_sampled("write-behind epoch prefix", 160, oracles);
  std::cout << "[crash-harness] wb epoch prefix: " << h.stats() << "\n";
  EXPECT_EQ(h.stats().images, 160u);
  EXPECT_GT(h.stats().recovered_to_pre, 0u)
      << "no sampled image recovered to the initial state";
  EXPECT_GT(h.stats().recovered_to_post, 0u)
      << "no sampled image recovered past the first acked point";
}

}  // namespace
}  // namespace simurgh::testing
