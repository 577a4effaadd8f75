// Crash-image exploration of the §4.3 operations (Fig. 5 protocols) plus
// corruption-detection unit tests for the fsck checker itself.
//
// Every test drives tests/crash_harness.h: run one operation under store
// tracing, enumerate every legal NVMM crash state at every fence boundary
// (exhaustively up to 2^k line subsets per window), and require each state
// to recover to exactly the pre-op or post-op namespace with a clean fsck.
#include <gtest/gtest.h>

#include <functional>
#include <iostream>
#include <string>

#include "core/check.h"
#include "core/dir_block.h"
#include "core/fs.h"
#include "crash_harness.h"

namespace simurgh::testing {
namespace {

using core::kOpenCreate;
using core::kOpenRead;
using core::kOpenWrite;

void write_file(core::Process& p, const std::string& path,
                const std::string& bytes) {
  auto fd = p.open(path, kOpenCreate | kOpenWrite);
  ASSERT_TRUE(fd.is_ok());
  ASSERT_TRUE(p.write(*fd, bytes.data(), bytes.size()).is_ok());
  ASSERT_TRUE(p.close(*fd).is_ok());
}

// Shared postcondition assertions: both oracle outcomes must actually have
// been observed (early fences land on pre, late fences on post), otherwise
// the enumeration silently degenerated.
void expect_both_outcomes(const CrashHarness& h, const char* what) {
  std::cout << "[crash-harness] " << what << ": " << h.stats() << "\n";
  EXPECT_GT(h.stats().images, 0u) << what;
  EXPECT_GT(h.stats().recovered_to_pre, 0u)
      << what << ": no crash image recovered to the pre-op state";
  EXPECT_GT(h.stats().recovered_to_post, 0u)
      << what << ": no crash image recovered to the post-op state";
}

TEST(CrashImages, CreateIsCrashAtomic) {
  CrashHarness h;
  h.setup([](core::Process& p) { ASSERT_TRUE(p.mkdir("/d").is_ok()); });
  h.run_op([](core::Process& p) {
    auto fd = p.open("/d/f", kOpenCreate | kOpenWrite);
    ASSERT_TRUE(fd.is_ok());
    ASSERT_TRUE(p.close(*fd).is_ok());
  });
  h.explore("create /d/f");
  expect_both_outcomes(h, "create");
  EXPECT_EQ(h.stats().sampled_windows, 0u)
      << "create windows should be small enough for exhaustive coverage";
}

TEST(CrashImages, UnlinkIsCrashAtomic) {
  CrashHarness h;
  h.setup([](core::Process& p) {
    ASSERT_TRUE(p.mkdir("/d").is_ok());
    write_file(p, "/d/f", "unlink me, I dare you");
  });
  h.run_op([](core::Process& p) { ASSERT_TRUE(p.unlink("/d/f").is_ok()); });
  h.explore("unlink /d/f");
  expect_both_outcomes(h, "unlink");
  EXPECT_EQ(h.stats().sampled_windows, 0u)
      << "unlink windows should be small enough for exhaustive coverage";
}

TEST(CrashImages, RenameSameDirIsCrashAtomic) {
  CrashHarness h;
  h.setup([](core::Process& p) {
    ASSERT_TRUE(p.mkdir("/d").is_ok());
    write_file(p, "/d/old", "contents travel with the name");
  });
  h.run_op([](core::Process& p) {
    ASSERT_TRUE(p.rename("/d/old", "/d/new").is_ok());
  });
  h.explore("rename /d/old -> /d/new (same dir)");
  expect_both_outcomes(h, "rename-local");
  EXPECT_EQ(h.stats().sampled_windows, 0u)
      << "local rename windows should be exhaustively coverable";
}

TEST(CrashImages, RenameSameDirOverExistingIsCrashAtomic) {
  // The displaced file's drop shares the window after the commit with the
  // frees that follow it: 12 lines, all enumerated (4,096 images).
  CrashHarness::Options opts;
  opts.exhaustive_max_lines = 12;
  CrashHarness h(opts);
  h.setup([](core::Process& p) {
    ASSERT_TRUE(p.mkdir("/d").is_ok());
    write_file(p, "/d/src", "the survivor");
    write_file(p, "/d/dst", "the displaced");
  });
  h.run_op([](core::Process& p) {
    ASSERT_TRUE(p.rename("/d/src", "/d/dst").is_ok());
  });
  h.explore("rename /d/src -> /d/dst (same dir, over existing)");
  expect_both_outcomes(h, "rename-local-replace");
  EXPECT_EQ(h.stats().sampled_windows, 0u)
      << "a window outgrew exhaustive coverage";
}

TEST(CrashImages, RenameCrossDirIsCrashAtomic) {
  CrashHarness h;
  h.setup([](core::Process& p) {
    ASSERT_TRUE(p.mkdir("/d1").is_ok());
    ASSERT_TRUE(p.mkdir("/d2").is_ok());
    write_file(p, "/d1/a", "moving house");
  });
  h.run_op([](core::Process& p) {
    ASSERT_TRUE(p.rename("/d1/a", "/d2/b").is_ok());
  });
  h.explore("rename /d1/a -> /d2/b (cross dir)");
  expect_both_outcomes(h, "rename-cross");
  EXPECT_EQ(h.stats().sampled_windows, 0u)
      << "cross rename windows should be exhaustively coverable";
}

TEST(CrashImages, RenameCrossDirOverExistingIsCrashAtomic) {
  CrashHarness h;
  h.setup([](core::Process& p) {
    ASSERT_TRUE(p.mkdir("/d1").is_ok());
    ASSERT_TRUE(p.mkdir("/d2").is_ok());
    write_file(p, "/d1/a", "moving house");
    write_file(p, "/d2/b", "about to be displaced");
  });
  h.run_op([](core::Process& p) {
    ASSERT_TRUE(p.rename("/d1/a", "/d2/b").is_ok());
  });
  h.explore("rename /d1/a -> /d2/b (cross dir, over existing)");
  expect_both_outcomes(h, "rename-cross-replace");
}

TEST(CrashImages, AppendIsCrashAtomic) {
  CrashHarness h;
  h.setup([](core::Process& p) {
    ASSERT_TRUE(p.mkdir("/d").is_ok());
    write_file(p, "/d/f", std::string(1000, 'a'));
  });
  h.run_op([](core::Process& p) {
    auto fd = p.open("/d/f", kOpenWrite | core::kOpenAppend);
    ASSERT_TRUE(fd.is_ok());
    const std::string more(3000, 'b');
    ASSERT_TRUE(p.write(*fd, more.data(), more.size()).is_ok());
    ASSERT_TRUE(p.close(*fd).is_ok());
  });
  h.explore("append 3000 bytes to /d/f");
  expect_both_outcomes(h, "append");
  // The streamed data window exceeds the exhaustive cap; sampling must
  // have engaged (this is the documented fallback, not a silent skip).
  EXPECT_GT(h.stats().sampled_windows, 0u);
}

TEST(CrashImages, MultiBlockAppendIsCrashAtomic) {
  // The coalesced write path: five fresh blocks stream as ONE nt-store run
  // with a single data fence before the size/mtime commit.  Every crash
  // image must still land on exactly pre or post — the narrower commit
  // (one metadata line instead of the whole inode) must not have opened a
  // torn-size window.
  CrashHarness h;
  h.setup([](core::Process& p) {
    ASSERT_TRUE(p.mkdir("/d").is_ok());
    write_file(p, "/d/f", std::string(1000, 'a'));
  });
  h.run_op([](core::Process& p) {
    auto fd = p.open("/d/f", kOpenWrite | core::kOpenAppend);
    ASSERT_TRUE(fd.is_ok());
    const std::string more(20000, 'b');
    ASSERT_TRUE(p.write(*fd, more.data(), more.size()).is_ok());
    ASSERT_TRUE(p.close(*fd).is_ok());
  });
  h.explore("append 20000 bytes (multi-block, coalesced persists)");
  expect_both_outcomes(h, "append-multiblock");
  EXPECT_GT(h.stats().sampled_windows, 0u);
}

TEST(CrashImages, DirectAppendIsCrashAtomic) {
  // 16 fresh blocks are over kReserveServeMax: the run comes straight from
  // a segment's bitmap under its lock, not from a reservation.
  CrashHarness h;
  h.setup([](core::Process& p) {
    ASSERT_TRUE(p.mkdir("/d").is_ok());
    write_file(p, "/d/f", std::string(4096, 'a'));
  });
  const alloc::BlockAllocStats& st = h.fs().blocks().stats();
  const std::uint64_t allocs = st.allocs.load();
  const std::uint64_t served =
      st.reserve_hits.load() + st.reserve_refills.load();
  h.run_op([](core::Process& p) {
    auto fd = p.open("/d/f", kOpenWrite | core::kOpenAppend);
    ASSERT_TRUE(fd.is_ok());
    const std::string more(64 * 1024, 'b');
    ASSERT_TRUE(p.write(*fd, more.data(), more.size()).is_ok());
    ASSERT_TRUE(p.close(*fd).is_ok());
  });
  EXPECT_GT(st.allocs.load(), allocs);
  EXPECT_EQ(st.reserve_hits.load() + st.reserve_refills.load(), served)
      << "the append was served from a reservation";
  h.explore("append 64 KiB (16 blocks, direct allocation)");
  expect_both_outcomes(h, "append-direct");
}

TEST(CrashImages, UnlinkMultiExtentFileIsCrashAtomic) {
  // Three extents, freed one run at a time: a reserved block, a direct
  // 16-block run and another reserved block.
  CrashHarness h;
  h.setup([](core::Process& p) {
    ASSERT_TRUE(p.mkdir("/d").is_ok());
    auto fd = p.open("/d/f", kOpenCreate | kOpenWrite);
    ASSERT_TRUE(fd.is_ok());
    const std::string one(4096, 'x'), run(16 * 4096, 'y');
    ASSERT_TRUE(p.pwrite(*fd, one.data(), one.size(), 0).is_ok());
    ASSERT_TRUE(p.pwrite(*fd, run.data(), run.size(), 2 * 4096).is_ok());
    ASSERT_TRUE(p.pwrite(*fd, one.data(), one.size(), 20 * 4096).is_ok());
    ASSERT_TRUE(p.close(*fd).is_ok());
  });
  h.run_op([](core::Process& p) { ASSERT_TRUE(p.unlink("/d/f").is_ok()); });
  h.explore("unlink /d/f (3 extents, 18 blocks)");
  expect_both_outcomes(h, "unlink-multi-extent");
}

// A block free neither flushes nor fences its bitmap bits (derived state,
// alloc/block_alloc.h), so freed blocks can be handed out again with no
// fence in between.  The unlinked file's two extents are the 64 blocks the
// next reservation chunk carves, and the new file's block comes from that
// chunk.  Every image recovers to the state before the unlink, after it, or
// after the write, with the bitmap rebuilt from the mark.
TEST(CrashImages, FreeAndReuseWithoutAFenceIsCrashAtomic) {
  CrashHarness h;
  std::uint64_t freed_off = 0;
  h.setup([&](core::Process& p) {
    ASSERT_TRUE(p.mkdir("/d").is_ok());
    // Two direct 32-block carves from the tail of the segment's first
    // fitting free run: adjacent on the device, two extents in the file.
    auto fd = p.open("/d/f", kOpenCreate | kOpenWrite);
    ASSERT_TRUE(fd.is_ok());
    const std::string run(32 * 4096, 'f');
    ASSERT_TRUE(p.pwrite(*fd, run.data(), run.size(), 0).is_ok());
    ASSERT_TRUE(p.pwrite(*fd, run.data(), run.size(), 40 * 4096).is_ok());
    ASSERT_TRUE(p.close(*fd).is_ok());
    auto st = p.stat("/d/f");
    ASSERT_TRUE(st.is_ok());
    const core::Inode* ino = h.fs().inode_at(st->inode);
    freed_off = ino->extents[1].dev_off;
    ASSERT_EQ(freed_off + 32 * 4096, ino->extents[0].dev_off);
    write_file(p, "/d/g", "");
  });
  h.run_op([](core::Process& p) {
    ASSERT_TRUE(p.unlink("/d/f").is_ok());
    auto fd = p.open("/d/g", kOpenWrite);
    ASSERT_TRUE(fd.is_ok());
    const std::string one(4096, 'g');
    ASSERT_TRUE(p.write(*fd, one.data(), one.size()).is_ok());
    ASSERT_TRUE(p.close(*fd).is_ok());
  });
  EXPECT_GE(h.fs().blocks().stats().reserve_refills.load(), 1u)
      << "the write did not carve a reservation chunk";
  auto st = h.proc().stat("/d/g");
  ASSERT_TRUE(st.is_ok());
  const std::uint64_t blk = h.fs().inode_at(st->inode)->extents[0].dev_off;
  ASSERT_GE(blk, freed_off);
  ASSERT_LT(blk, freed_off + 64 * 4096) << "the new block is not recycled";
  NsSnapshot unlinked = h.pre();
  unlinked.erase("/d/f");
  h.explore("unlink /d/f, then write /d/g into its freed blocks", {unlinked});
  expect_both_outcomes(h, "free-and-reuse");
}

TEST(CrashImages, StrandedReservationLeaksNoBlocks) {
  // The first allocating append carves a whole reservation chunk out of
  // the persistent bitmap under one segment lock; only one block of it is
  // referenced by the inode.  A crash anywhere after the carve strands the
  // remainder — referenced by nothing, its bits set.  Every materialized
  // image runs recovery (rebuild_bitmap) and then fsck, whose
  // block-coverage pass reports any unowned block as a leak; a clean
  // explore() is the proof that stranded reservations are reclaimed.
  CrashHarness h;
  h.setup([](core::Process& p) {
    ASSERT_TRUE(p.mkdir("/d").is_ok());
    auto fd = p.open("/d/fresh", kOpenCreate | kOpenWrite);
    ASSERT_TRUE(fd.is_ok());
    ASSERT_TRUE(p.close(*fd).is_ok());
  });
  h.run_op([](core::Process& p) {
    auto fd = p.open("/d/fresh", kOpenWrite | core::kOpenAppend);
    ASSERT_TRUE(fd.is_ok());
    const std::string one(4096, 'r');
    ASSERT_TRUE(p.write(*fd, one.data(), one.size()).is_ok());
    ASSERT_TRUE(p.close(*fd).is_ok());
  });
  // The traced op must actually have refilled a reservation, or this test
  // proves nothing.
  EXPECT_GE(h.fs().blocks().stats().reserve_refills.load(), 1u)
      << "append did not exercise the reservation path";
  h.explore("first append carves a reservation chunk");
  expect_both_outcomes(h, "stranded-reservation");
}

TEST(CrashImages, TruncateDownIsCrashAtomic) {
  CrashHarness h;
  h.setup([](core::Process& p) {
    ASSERT_TRUE(p.mkdir("/d").is_ok());
    write_file(p, "/d/f", std::string(10000, 'x'));
  });
  h.run_op([](core::Process& p) {
    ASSERT_TRUE(p.truncate("/d/f", 3000).is_ok());
  });
  h.explore("truncate /d/f 10000 -> 3000");
  expect_both_outcomes(h, "truncate-down");
}

TEST(CrashImages, TruncateUpIsCrashAtomic) {
  CrashHarness h;
  h.setup([](core::Process& p) {
    ASSERT_TRUE(p.mkdir("/d").is_ok());
    write_file(p, "/d/f", std::string(3000, 'x'));
  });
  h.run_op([](core::Process& p) {
    ASSERT_TRUE(p.truncate("/d/f", 10000).is_ok());
  });
  h.explore("truncate /d/f 3000 -> 10000 (hole growth)");
  EXPECT_GT(h.stats().images, 0u);
  // Growth is a single persisted size store; every image must land on pre
  // or post and at least the final state must be post.
  EXPECT_GT(h.stats().recovered_to_post, 0u);
}

// A write into a hole below EOF: its fresh block becomes readable the
// moment its extent lands, so the block's bytes (payload and zeroed edges)
// must be durable first.  The hole's block is recycled from a freed file of
// 'z' bytes, so any image that maps it early shows them.
void hole_fill_is_crash_atomic(std::size_t bytes, std::uint64_t at) {
  CrashHarness h;
  std::uint64_t junk_off = 0;
  h.setup([&](core::Process& p) {
    ASSERT_TRUE(p.mkdir("/d").is_ok());
    // 64 blocks are a direct carve from the tail of the segment's first
    // fitting free run; freed, the run is whole again, and the first
    // reservation chunk carved next is the same 64 blocks.
    write_file(p, "/d/junk", std::string(64 * 4096, 'z'));
    auto st = p.stat("/d/junk");
    ASSERT_TRUE(st.is_ok());
    junk_off = h.fs().inode_at(st->inode)->extents[0].dev_off;
    ASSERT_TRUE(p.unlink("/d/junk").is_ok());
    auto fd = p.open("/d/f", kOpenCreate | kOpenWrite);
    ASSERT_TRUE(fd.is_ok());
    const std::string a(4096, 'a');
    ASSERT_TRUE(p.pwrite(*fd, a.data(), a.size(), 0).is_ok());
    ASSERT_TRUE(p.pwrite(*fd, a.data(), a.size(), 2 * 4096).is_ok());
    ASSERT_TRUE(p.close(*fd).is_ok());
  });
  h.run_op([&](core::Process& p) {
    auto fd = p.open("/d/f", kOpenWrite);
    ASSERT_TRUE(fd.is_ok());
    const std::string b(bytes, 'b');
    ASSERT_TRUE(p.pwrite(*fd, b.data(), b.size(), at).is_ok());
    ASSERT_TRUE(p.close(*fd).is_ok());
  });
  // The hole's new block held the dead file's bytes before the op.
  auto st = h.proc().stat("/d/f");
  ASSERT_TRUE(st.is_ok());
  core::ExtentMap map(h.fs().dev(), h.fs().pool(core::kPoolExtent),
                      *h.fs().inode_at(st->inode), st->inode);
  const std::uint64_t blk = map.find(1);
  ASSERT_GE(blk, junk_off);
  ASSERT_LT(blk, junk_off + 64 * 4096) << "the hole's block is not recycled";
  const std::string ctx =
      "pwrite " + std::to_string(bytes) + " bytes into a hole below EOF";
  h.explore(ctx);
  expect_both_outcomes(h, ctx.c_str());
}

TEST(CrashImages, HoleFillIsCrashAtomic) {
  hole_fill_is_crash_atomic(4096, 4096);
  hole_fill_is_crash_atomic(1024, 4096 + 1000);
}

// Every growth path over a dirty tail: the file's last block holds 'x'
// bytes past EOF (4,096 written, truncated to 3,000), and the growth must
// zero what it exposes, [3000, zero_end), before the size that exposes it
// lands.
void growth_is_crash_atomic(const char* what, std::uint64_t zero_end,
                            const std::function<void(core::Process&)>& grow) {
  CrashHarness h;
  h.setup([&](core::Process& p) {
    ASSERT_TRUE(p.mkdir("/d").is_ok());
    write_file(p, "/d/f", std::string(4096, 'x'));
    ASSERT_TRUE(p.truncate("/d/f", 3000).is_ok());
    auto st = p.stat("/d/f");
    ASSERT_TRUE(st.is_ok());
    const std::byte* blk =
        h.fs().dev().at(h.fs().inode_at(st->inode)->extents[0].dev_off);
    ASSERT_EQ(blk[3000], std::byte{'x'}) << "the tail past EOF is not dirty";
  });
  h.run_op(grow);
  auto fd = h.proc().open("/d/f", kOpenRead);
  ASSERT_TRUE(fd.is_ok());
  std::string tail(zero_end - 3000, '?');
  ASSERT_EQ(*h.proc().pread(*fd, tail.data(), tail.size(), 3000),
            tail.size());
  EXPECT_EQ(tail.find_first_not_of('\0'), std::string::npos)
      << what << ": the grown-over tail is not zero";
  ASSERT_TRUE(h.proc().close(*fd).is_ok());
  h.explore(what);
  expect_both_outcomes(h, what);
}

TEST(CrashImages, GrowthOverADirtyTailIsCrashAtomic) {
  growth_is_crash_atomic("ftruncate up over a dirty tail", 4096,
                         [](core::Process& p) {
                           ASSERT_TRUE(p.truncate("/d/f", 10000).is_ok());
                         });
  growth_is_crash_atomic("pwrite past EOF inside the last block", 4000,
                         [](core::Process& p) {
                           auto fd = p.open("/d/f", kOpenWrite);
                           ASSERT_TRUE(fd.is_ok());
                           ASSERT_TRUE(p.pwrite(*fd, "w", 1, 4000).is_ok());
                           ASSERT_TRUE(p.close(*fd).is_ok());
                         });
  growth_is_crash_atomic("pwrite past EOF beyond the last block", 4096,
                         [](core::Process& p) {
                           auto fd = p.open("/d/f", kOpenWrite);
                           ASSERT_TRUE(fd.is_ok());
                           ASSERT_TRUE(p.pwrite(*fd, "w", 1, 6000).is_ok());
                           ASSERT_TRUE(p.close(*fd).is_ok());
                         });
  growth_is_crash_atomic("fallocate past EOF over a dirty tail", 4096,
                         [](core::Process& p) {
                           auto fd = p.open("/d/f", kOpenWrite);
                           ASSERT_TRUE(fd.is_ok());
                           ASSERT_TRUE(p.fallocate(*fd, 3000, 7000).is_ok());
                           ASSERT_TRUE(p.close(*fd).is_ok());
                         });
}

TEST(CrashImages, MkdirIsCrashAtomic) {
  CrashHarness h;
  h.run_op([](core::Process& p) { ASSERT_TRUE(p.mkdir("/sub").is_ok()); });
  h.explore("mkdir /sub");
  expect_both_outcomes(h, "mkdir");
}

TEST(CrashImages, RmdirIsCrashAtomic) {
  CrashHarness h;
  h.setup([](core::Process& p) { ASSERT_TRUE(p.mkdir("/sub").is_ok()); });
  h.run_op([](core::Process& p) { ASSERT_TRUE(p.rmdir("/sub").is_ok()); });
  h.explore("rmdir /sub");
  expect_both_outcomes(h, "rmdir");
}

TEST(CrashImages, SymlinkIsCrashAtomic) {
  CrashHarness h;
  h.setup([](core::Process& p) { ASSERT_TRUE(p.mkdir("/d").is_ok()); });
  h.run_op([](core::Process& p) {
    ASSERT_TRUE(p.symlink("../somewhere/else", "/d/l").is_ok());
  });
  h.explore("symlink /d/l");
  expect_both_outcomes(h, "symlink");
}

TEST(CrashImages, LinkIsCrashAtomic) {
  // The link count and the new entry share the fence before the publish;
  // an increment that lands alone is reconciled by recovery.
  CrashHarness h;
  h.setup([](core::Process& p) {
    ASSERT_TRUE(p.mkdir("/d").is_ok());
    write_file(p, "/d/f", "one inode, two names");
  });
  h.run_op([](core::Process& p) {
    ASSERT_TRUE(p.link("/d/f", "/d/g").is_ok());
  });
  h.explore("link /d/f -> /d/g");
  expect_both_outcomes(h, "link");
  EXPECT_EQ(h.stats().sampled_windows, 0u)
      << "link windows should be small enough for exhaustive coverage";
}

TEST(CrashImages, UnlinkOneOfTwoLinksIsCrashAtomic) {
  // The inode stays reachable through the other name: only the entry is
  // retired, and the decremented count is reconciled either way.  The
  // removed name spans several lines of its entry, so a scrub line that
  // landed before the entry's 01 would leave a live entry with a torn name.
  const std::string longname = "/d/" + std::string(100, 'f');
  CrashHarness h;
  h.setup([&](core::Process& p) {
    ASSERT_TRUE(p.mkdir("/d").is_ok());
    write_file(p, "/d/g", "still linked under a long name");
    ASSERT_TRUE(p.link("/d/g", longname).is_ok());
  });
  h.run_op([&](core::Process& p) { ASSERT_TRUE(p.unlink(longname).is_ok()); });
  h.explore("unlink /d/fff... (second link /d/g remains)");
  expect_both_outcomes(h, "unlink-one-of-two-links");
  EXPECT_EQ(h.stats().sampled_windows, 0u)
      << "unlink windows should be small enough for exhaustive coverage";
}

TEST(CrashImages, UnlinkSymlinkIsCrashAtomic) {
  // A 40-byte target lives inline, in the union over the extent array.
  CrashHarness h;
  h.setup([](core::Process& p) {
    ASSERT_TRUE(p.mkdir("/d").is_ok());
    ASSERT_TRUE(p.symlink(std::string(40, 't'), "/d/l").is_ok());
  });
  h.run_op([](core::Process& p) { ASSERT_TRUE(p.unlink("/d/l").is_ok()); });
  h.explore("unlink /d/l (40-byte symlink)");
  expect_both_outcomes(h, "unlink-symlink");
  EXPECT_EQ(h.stats().sampled_windows, 0u)
      << "unlink windows should be small enough for exhaustive coverage";
}

TEST(CrashImages, BucketSplitIsCrashAtomic) {
  // The giant-directory fan-out (DESIGN.md §10): a directory past the chain
  // threshold is split into 2^d bucket chains.  The split moves entries
  // between hash blocks but changes no namespace state, so here pre == post
  // and EVERY crash prefix — heads published, depth published, any subset of
  // migrated slots — must recover to the one oracle snapshot losing no entry,
  // with a clean (bucket-aware) fsck.  The split's publish sequence spans
  // hundreds of fences at this population; exploration covers each window.
  CrashHarness h;
  // The op below fires the split explicitly; auto-split must stay out of
  // setup's create path or the op would find nothing to do.
  h.fs().dirops().set_split_params(1000, 3);
  h.setup([](core::Process& p) {
    ASSERT_TRUE(p.mkdir("/d").is_ok());
    for (unsigned i = 0; i < 120; ++i) {
      auto fd = p.open("/d/f" + std::to_string(i), kOpenCreate | kOpenWrite);
      ASSERT_TRUE(fd.is_ok());
      ASSERT_TRUE(p.close(*fd).is_ok());
    }
  });
  h.run_op([&h](core::Process& p) {
    auto st = p.stat("/d");
    ASSERT_TRUE(st.is_ok());
    core::Inode* d = h.fs().inode_at(st->inode);
    ASSERT_EQ(h.fs().dirops().dir_depth(*d), 0u);
    ASSERT_TRUE(h.fs().dirops().split_directory(*d).is_ok());
    ASSERT_GT(h.fs().dirops().dir_depth(*d), 0u);
  });
  h.explore("bucket split of /d (120 entries, 8 buckets)");
  std::cout << "[crash-harness] bucket split: " << h.stats() << "\n";
  EXPECT_GT(h.stats().images, 0u);
  EXPECT_TRUE(h.pre() == h.post())
      << "a split must not change the namespace: "
      << snapshot_diff(h.pre(), h.post());
}

// ---- fsck self-tests: the checker must actually detect corruption ----

class FsckCorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    nvmm_ = std::make_unique<nvmm::Device>(24ull << 20);
    shm_ = std::make_unique<nvmm::Device>(4ull << 20);
    core::FormatOptions fo;
    fo.lock_table_slots = 1 << 10;
    fs_ = core::FileSystem::format(*nvmm_, *shm_, fo);
    proc_ = fs_->open_process(0, 0);
  }

  std::uint64_t inode_of(const std::string& path) {
    auto st = proc_->stat(path);
    EXPECT_TRUE(st.is_ok());
    return st->inode;
  }

  std::unique_ptr<nvmm::Device> nvmm_, shm_;
  std::unique_ptr<core::FileSystem> fs_;
  std::unique_ptr<core::Process> proc_;
};

TEST_F(FsckCorruptionTest, CleanImagePasses) {
  ASSERT_TRUE(proc_->mkdir("/d").is_ok());
  write_file(*proc_, "/d/f", "healthy bytes");
  ASSERT_TRUE(proc_->symlink("/d/f", "/d/l").is_ok());
  const core::CheckReport r = core::check_fs(*fs_);
  EXPECT_TRUE(r.ok()) << r.summary();
  EXPECT_EQ(r.files, 1u);
  EXPECT_EQ(r.symlinks, 1u);
  EXPECT_GE(r.directories, 2u);  // root + /d
}

TEST_F(FsckCorruptionTest, DetectsClearedValidBit) {
  write_file(*proc_, "/f", "soon to dangle");
  const std::uint64_t ino = inode_of("/f");
  // Flip the inode's valid bit off: the directory entry now dangles.
  fs_->pool(core::kPoolInode).set_flags(ino, 0);
  const core::CheckReport r = core::check_fs(*fs_);
  EXPECT_FALSE(r.ok());
  bool mentions = false;
  for (const std::string& e : r.errors)
    mentions |= e.find("non-valid inode") != std::string::npos;
  EXPECT_TRUE(mentions) << r.summary();
}

TEST_F(FsckCorruptionTest, DetectsCrossLinkedBlock) {
  write_file(*proc_, "/a", std::string(4096, 'a'));
  write_file(*proc_, "/b", std::string(4096, 'b'));
  core::Inode* a = fs_->inode_at(inode_of("/a"));
  core::Inode* b = fs_->inode_at(inode_of("/b"));
  ASSERT_NE(a->extents[0].dev_off, 0u);
  ASSERT_NE(b->extents[0].dev_off, 0u);
  // Cross-link: b's extent now claims a's block; b's own block leaks.
  b->extents[0].dev_off = a->extents[0].dev_off;
  const core::CheckReport r = core::check_fs(*fs_);
  EXPECT_FALSE(r.ok());
  bool doubly = false, leaked = false;
  for (const std::string& e : r.errors) {
    doubly |= e.find("claimed by both") != std::string::npos;
    leaked |= e.find("neither in use nor on a free list") !=
              std::string::npos;
  }
  EXPECT_TRUE(doubly) << r.summary();
  EXPECT_TRUE(leaked) << r.summary();
}

TEST_F(FsckCorruptionTest, DetectsArmedRenameLog) {
  ASSERT_TRUE(proc_->mkdir("/d").is_ok());
  core::Inode* d = fs_->inode_at(inode_of("/d"));
  core::DirBlock* first = d->dir.load().in(fs_->dev());
  first->log.state.store(1, std::memory_order_relaxed);
  const core::CheckReport r = core::check_fs(*fs_);
  EXPECT_FALSE(r.ok());
  bool mentions = false;
  for (const std::string& e : r.errors)
    mentions |= e.find("rename log still armed") != std::string::npos;
  EXPECT_TRUE(mentions) << r.summary();
}

TEST_F(FsckCorruptionTest, DetectsBlockFreedWhileMapped) {
  write_file(*proc_, "/f", std::string(4096, 'f'));
  core::Inode* f = fs_->inode_at(inode_of("/f"));
  ASSERT_NE(f->extents[0].dev_off, 0u);
  // Free the block behind the file's back: its bit clears while the
  // extent still maps it.
  fs_->blocks().free(f->extents[0].dev_off, 1);
  const core::CheckReport r = core::check_fs(*fs_);
  EXPECT_FALSE(r.ok());
  bool doubly = false;
  for (const std::string& e : r.errors)
    doubly |= e.find("claimed by both file extent and free range") !=
              std::string::npos;
  EXPECT_TRUE(doubly) << r.summary();
}

TEST_F(FsckCorruptionTest, DetectsLinkCountMismatch) {
  write_file(*proc_, "/f", "counted");
  core::Inode* f = fs_->inode_at(inode_of("/f"));
  f->nlink.store(7, std::memory_order_relaxed);
  const core::CheckReport r = core::check_fs(*fs_);
  EXPECT_FALSE(r.ok());
  bool mentions = false;
  for (const std::string& e : r.errors)
    mentions |= e.find("nlink=7") != std::string::npos;
  EXPECT_TRUE(mentions) << r.summary();
}

TEST_F(FsckCorruptionTest, DetectsLeakedObject) {
  // Allocate a file entry object and commit it without linking it anywhere.
  auto off = fs_->pool(core::kPoolFileEntry).alloc();
  ASSERT_TRUE(off.is_ok());
  fs_->pool(core::kPoolFileEntry).commit(*off);
  const core::CheckReport r = core::check_fs(*fs_);
  EXPECT_FALSE(r.ok());
  bool mentions = false;
  for (const std::string& e : r.errors)
    mentions |= e.find("unreachable from the root") != std::string::npos;
  EXPECT_TRUE(mentions) << r.summary();
}

TEST_F(FsckCorruptionTest, DetectsBlockMappedPastEof) {
  write_file(*proc_, "/f", std::string(10000, 'x'));  // three blocks
  core::Inode* f = fs_->inode_at(inode_of("/f"));
  // Shrink the size to a block boundary without unmapping (the crash window
  // recovery closes); no tail byte is stale, only the mapping.
  f->size.store(4096, std::memory_order_relaxed);
  const core::CheckReport r = core::check_fs(*fs_);
  EXPECT_FALSE(r.ok());
  bool mentions = false;
  for (const std::string& e : r.errors)
    mentions |= e.find("block mapped past EOF at file block 1") !=
                std::string::npos;
  EXPECT_TRUE(mentions) << r.summary();
}

}  // namespace
}  // namespace simurgh::testing
