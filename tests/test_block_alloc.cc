// Tests for the segmented block allocator (§4.2).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <iostream>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "alloc/block_alloc.h"
#include "common/rng.h"

namespace simurgh::alloc {
namespace {

class BlockAllocTest : public ::testing::Test {
 protected:
  static constexpr std::uint64_t kHeaderOff = 4096;
  static constexpr std::uint64_t kDataOff = 64 * 1024;
  static constexpr std::uint64_t kMountToken = 3;  // nonzero, like a mount's

  BlockAllocTest()
      : dev_(64ull << 20),
        alloc_(BlockAllocator::format(dev_, kHeaderOff, kDataOff,
                                      dev_.size() - kDataOff, 8)) {}

  // Reservations live in shm slots, which a mount attaches; a raw allocator
  // takes the direct path for everything.  Attach a heap copy of the shm
  // allocator block instead.
  void attach_shm() {
    shared_ = std::make_unique<ShmAllocShared>();
    shared_->reset();
    alloc_.attach_shared_state(shared_.get(), kMountToken);
  }

  nvmm::Device dev_;
  std::unique_ptr<ShmAllocShared> shared_;
  BlockAllocator alloc_;
};

TEST_F(BlockAllocTest, FormatExposesAllBlocks) {
  EXPECT_EQ(alloc_.n_segments(), 8u);
  // The bitmap takes the range's first block (1 bit per data block); every
  // block after it is free.
  EXPECT_EQ(alloc_.data_off(), kDataOff + kBlockSize);
  EXPECT_EQ(alloc_.n_blocks_total(), (dev_.size() - kDataOff) / kBlockSize - 1);
  EXPECT_EQ(alloc_.free_blocks(), alloc_.n_blocks_total());
}

TEST_F(BlockAllocTest, AllocReturnsAlignedInRangeBlocks) {
  auto r = alloc_.alloc(4, 0);
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(*r % kBlockSize, 0u);
  EXPECT_GE(*r, kDataOff);
  EXPECT_LT(*r, dev_.size());
}

TEST_F(BlockAllocTest, AllocFreeRoundTrip) {
  const std::uint64_t before = alloc_.free_blocks();
  auto r = alloc_.alloc(16, 0);
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(alloc_.free_blocks(), before - 16);
  alloc_.free(*r, 16);
  EXPECT_EQ(alloc_.free_blocks(), before);
}

TEST_F(BlockAllocTest, DistinctAllocationsDontOverlap) {
  std::set<std::uint64_t> blocks;
  for (int i = 0; i < 200; ++i) {
    auto r = alloc_.alloc(3, static_cast<std::uint64_t>(i) * 7919);
    ASSERT_TRUE(r.is_ok());
    for (int b = 0; b < 3; ++b)
      EXPECT_TRUE(blocks.insert(*r + b * kBlockSize).second)
          << "overlap at allocation " << i;
  }
}

TEST_F(BlockAllocTest, HintClustersIntoSegments) {
  // Two different hints land in different segments (file spreading).
  auto a = alloc_.alloc(1, 0 * kBlockSize);
  auto b = alloc_.alloc(1, 3 * kBlockSize);
  ASSERT_TRUE(a.is_ok());
  ASSERT_TRUE(b.is_ok());
  const std::uint64_t per_seg =
      (alloc_.n_blocks_total() + 7) / 8 * kBlockSize;
  EXPECT_NE((*a - alloc_.data_off()) / per_seg,
            (*b - alloc_.data_off()) / per_seg);
}

TEST_F(BlockAllocTest, CoalescingAllowsLargeRealloc) {
  // Allocate everything in small pieces, free all, then grab a huge chunk:
  // only works if free ranges coalesce.
  std::vector<std::uint64_t> offs;
  for (int i = 0; i < 64; ++i) {
    auto r = alloc_.alloc(8, 0);
    ASSERT_TRUE(r.is_ok());
    offs.push_back(*r);
  }
  for (auto off : offs) alloc_.free(off, 8);
  auto big = alloc_.alloc(64 * 8, 0);
  EXPECT_TRUE(big.is_ok());
}

// The placement rule: the first free run of the hinted segment, in address
// order, that fits the request, carved from the run's tail; freed neighbours
// merge into one run; a segment with no fitting run hands the request to
// the next one.
TEST_F(BlockAllocTest, FirstFitInAddressOrderCarvesTheRunsTail) {
  const std::uint64_t d = alloc_.data_off();
  const std::uint64_t per_seg = (alloc_.n_blocks_total() + 7) / 8;
  auto blk = [&](std::uint64_t i) { return d + i * kBlockSize; };
  auto a = alloc_.alloc(4, 0);
  ASSERT_TRUE(a.is_ok());
  EXPECT_EQ(*a, blk(per_seg - 4));  // the tail of segment 0's one run
  alloc_.free(*a, 4);
  auto all = alloc_.alloc(per_seg, 0);  // all of segment 0
  ASSERT_TRUE(all.is_ok());
  ASSERT_EQ(*all, blk(0));
  alloc_.free(blk(10), 3);  // free runs: [10,13) [20,28) [40,45)
  alloc_.free(blk(20), 8);
  alloc_.free(blk(40), 5);
  EXPECT_EQ(*alloc_.alloc(4, 0), blk(24));  // [10,13) is too short
  EXPECT_EQ(*alloc_.alloc(5, 0), blk(40));  // exact fit, past [20,24)
  EXPECT_EQ(*alloc_.alloc(2, 0), blk(11));
  EXPECT_EQ(*alloc_.alloc(4, 0), blk(20));
  alloc_.free(blk(11), 2);  // merges with block 10
  EXPECT_EQ(*alloc_.alloc(3, 0), blk(10));
  alloc_.free(blk(60), 1);  // three single frees merge into [60,63)
  alloc_.free(blk(62), 1);
  alloc_.free(blk(61), 1);
  EXPECT_EQ(*alloc_.alloc(3, 0), blk(60));
  // No run of segment 0 fits: the tail of segment 1.
  alloc_.free(blk(70), 8);
  EXPECT_EQ(*alloc_.alloc(9, 0), blk(2 * per_seg - 9));
  EXPECT_EQ(*alloc_.alloc(8, 0), blk(70));
}

// Persist budget of the allocator itself: the bitmap is derived state
// (block_alloc.h), so a direct allocation and a free change bits and
// nothing else.  Only persist_bitmap() flushes them: every bitmap line (512
// blocks' bits each), with one fence.
TEST_F(BlockAllocTest, AllocAndFreeNeitherFlushNorFence) {
  constexpr std::uint64_t kRun = 16;  // over kReserveServeMax: direct path
  constexpr int kOps = 64;
  auto& ps = nvmm::persist_stats();
  std::vector<std::uint64_t> runs;
  std::uint64_t f0 = ps.fences.load(), l0 = ps.flushed_lines.load();
  for (int i = 0; i < kOps; ++i) {
    auto r = alloc_.alloc(kRun, 0);
    ASSERT_TRUE(r.is_ok());
    runs.push_back(*r);
  }
  std::cout << "[persist-budget] block alloc (16 blocks, direct): "
            << static_cast<double>(ps.fences.load() - f0) / kOps
            << " fences, "
            << static_cast<double>(ps.flushed_lines.load() - l0) / kOps
            << " lines\n";
  EXPECT_EQ(ps.fences.load() - f0, 0u);
  EXPECT_EQ(ps.flushed_lines.load() - l0, 0u);
  f0 = ps.fences.load();
  l0 = ps.flushed_lines.load();
  for (const std::uint64_t off : runs) alloc_.free(off, kRun);
  std::cout << "[persist-budget] block free (16 blocks): "
            << static_cast<double>(ps.fences.load() - f0) / kOps
            << " fences, "
            << static_cast<double>(ps.flushed_lines.load() - l0) / kOps
            << " lines\n";
  EXPECT_EQ(ps.fences.load() - f0, 0u);
  EXPECT_EQ(ps.flushed_lines.load() - l0, 0u);
  f0 = ps.fences.load();
  l0 = ps.flushed_lines.load();
  alloc_.persist_bitmap();
  EXPECT_EQ(ps.fences.load() - f0, 1u);
  EXPECT_EQ(ps.flushed_lines.load() - l0,
            (alloc_.n_blocks_total() + 511) / 512);
}

TEST_F(BlockAllocTest, ExhaustionReturnsNoSpace) {
  nvmm::Device small(1 << 20);
  auto a = BlockAllocator::format(small, 4096, 64 * 1024,
                                  small.size() - 64 * 1024, 2);
  // Free space is split across two segments; drain each segment's
  // contiguous range, then any further request must fail.  The first
  // segment holds the rounded-up half.
  const std::uint64_t total = a.free_blocks();
  const std::uint64_t half = (total + 1) / 2;
  ASSERT_TRUE(a.alloc(half, 0).is_ok());
  ASSERT_TRUE(a.alloc(total - half, 0).is_ok());
  EXPECT_EQ(a.alloc(1, 0).code(), Errc::no_space);
}

TEST_F(BlockAllocTest, OversizeRequestFailsCleanly) {
  EXPECT_EQ(alloc_.alloc(alloc_.n_blocks_total() + 1, 0).code(),
            Errc::no_space);
}

TEST_F(BlockAllocTest, AttachSeesFormattedState) {
  auto r = alloc_.alloc(5, 0);
  ASSERT_TRUE(r.is_ok());
  auto re = BlockAllocator::attach(dev_, kHeaderOff);
  EXPECT_EQ(re.free_blocks(), alloc_.free_blocks());
  re.free(*r, 5);
  EXPECT_EQ(alloc_.free_blocks(), re.free_blocks());
}

TEST_F(BlockAllocTest, ConcurrentAllocFreeNoOverlapNoLoss) {
  constexpr int kThreads = 8;
  constexpr int kIters = 300;
  const std::uint64_t before = alloc_.free_blocks();
  std::atomic<bool> overlap{false};
  std::vector<std::thread> ts;
  std::vector<std::vector<std::uint64_t>> held(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&, t] {
      Rng rng(t);
      for (int i = 0; i < kIters; ++i) {
        if (held[t].size() > 8 || (rng.below(2) == 0 && !held[t].empty())) {
          alloc_.free(held[t].back(), 2);
          held[t].pop_back();
        } else {
          auto r = alloc_.alloc(2, rng.next());
          if (r.is_ok()) held[t].push_back(*r);
        }
      }
    });
  }
  for (auto& th : ts) th.join();
  // No two held ranges overlap.
  std::set<std::uint64_t> all;
  std::uint64_t held_blocks = 0;
  for (auto& v : held)
    for (auto off : v) {
      held_blocks += 2;
      EXPECT_TRUE(all.insert(off).second);
      EXPECT_TRUE(all.insert(off + kBlockSize).second);
      overlap.store(false);
    }
  EXPECT_EQ(alloc_.free_blocks(), before - held_blocks);
}

TEST_F(BlockAllocTest, LeaseStealRecoversCrashedHolder) {
  // Simulate a crashed process holding a segment lock: poke the lock word
  // directly, then verify a short lease lets another caller steal it.
  alloc_.set_lease_ns(1'000'000);  // 1 ms
  auto* hdr = reinterpret_cast<BlockAllocHeader*>(dev_.at(kHeaderOff));
  // Segment headers start at the first cache line past the allocator
  // header (block_alloc.h segments()).
  auto* segs = reinterpret_cast<SegmentHeader*>(dev_.at(
      (kHeaderOff + sizeof(BlockAllocHeader) + 63) / 64 * 64));
  for (std::uint64_t s = 0; s < hdr->n_segments; ++s) {
    segs[s].lock.owner.store(0xdeadbeef, std::memory_order_relaxed);
    segs[s].lock.stamp_ns.store(1, std::memory_order_relaxed);
  }
  auto r = alloc_.alloc(1, 0);  // must steal rather than hang
  EXPECT_TRUE(r.is_ok());
  EXPECT_GE(alloc_.stats().lock_steals, 1u);
}

TEST_F(BlockAllocTest, RebuildFreeListsFromMark) {
  auto keep = alloc_.alloc(4, 0);
  auto lose = alloc_.alloc(4, 0);
  ASSERT_TRUE(keep.is_ok());
  ASSERT_TRUE(lose.is_ok());
  alloc_.rebuild_bitmap([&](std::uint64_t off) {
    return off >= *keep && off < *keep + 4 * kBlockSize;
  });
  EXPECT_EQ(alloc_.free_blocks(), alloc_.n_blocks_total() - 4);
  // The "lost" range must be allocatable again.
  std::set<std::uint64_t> seen;
  bool found = false;
  for (std::uint64_t i = 0; i < alloc_.n_blocks_total() - 4; i += 4) {
    auto r = alloc_.alloc(4, 0);
    if (!r.is_ok()) break;
    if (*r == *lose) {
      found = true;
      break;
    }
  }
  EXPECT_TRUE(found);
}

// ---- per-thread reservations (data-path fast lane) ----

TEST_F(BlockAllocTest, ReservationsKeepFreeAccountingExact) {
  const std::uint64_t total = alloc_.free_blocks();
  attach_shm();
  // First small alloc carves a whole chunk but only 1 block leaves the
  // free count: the carved-but-unused remainder still counts as free.
  auto a = alloc_.alloc(1, 0);
  ASSERT_TRUE(a.is_ok());
  EXPECT_EQ(alloc_.free_blocks(), total - 1);
  EXPECT_EQ(alloc_.reserved_unused_blocks(),
            BlockAllocator::kReserveChunk - 1);
  auto b = alloc_.alloc(2, 0);
  ASSERT_TRUE(b.is_ok());
  EXPECT_EQ(alloc_.free_blocks(), total - 3);
  alloc_.free(*a, 1);
  alloc_.free(*b, 2);
  EXPECT_EQ(alloc_.free_blocks(), total);
  // Draining frees the remainder for good.
  alloc_.drain_reservations();
  EXPECT_EQ(alloc_.reserved_unused_blocks(), 0u);
  EXPECT_EQ(alloc_.free_blocks(), total);
}

TEST_F(BlockAllocTest, ReservationServesAscendingContiguousBlocks) {
  attach_shm();
  // Consecutive 1-block allocs from one thread must be device-contiguous
  // and ascending — that is the whole point (appends merge into one
  // extent) and the opposite of the descending tail-carve of the direct
  // path.
  auto first = alloc_.alloc(1, 0);
  ASSERT_TRUE(first.is_ok());
  std::uint64_t prev = *first;
  for (std::uint64_t i = 1; i < BlockAllocator::kReserveChunk; ++i) {
    auto r = alloc_.alloc(1, 0);
    ASSERT_TRUE(r.is_ok());
    EXPECT_EQ(*r, prev + kBlockSize) << "allocation " << i;
    prev = *r;
  }
  EXPECT_GE(alloc_.stats().reserve_hits.load(),
            BlockAllocator::kReserveChunk - 1);
}

TEST_F(BlockAllocTest, LargeRequestsBypassTheReservation) {
  attach_shm();
  const std::uint64_t total = alloc_.free_blocks();
  auto r = alloc_.alloc(BlockAllocator::kReserveServeMax + 1, 0);
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(alloc_.reserved_unused_blocks(), 0u);  // no chunk was carved
  EXPECT_EQ(alloc_.free_blocks(),
            total - (BlockAllocator::kReserveServeMax + 1));
}

TEST_F(BlockAllocTest, InvalidateAndRebuildReclaimsReservedBlocks) {
  attach_shm();
  auto a = alloc_.alloc(1, 0);
  ASSERT_TRUE(a.is_ok());
  ASSERT_GT(alloc_.reserved_unused_blocks(), 0u);
  // Crash: the DRAM reservation vanishes; recovery's sweep sees only the
  // one block actually referenced and rebuilds the bitmap around it.
  alloc_.rebuild_bitmap(
      [&](std::uint64_t off) { return off == *a; });
  EXPECT_EQ(alloc_.reserved_unused_blocks(), 0u);
  EXPECT_EQ(alloc_.free_blocks(), alloc_.n_blocks_total() - 1);
}

TEST_F(BlockAllocTest, ExitedThreadsReservationIsAdoptedOrDrained) {
  attach_shm();
  const std::uint64_t total = alloc_.free_blocks();
  std::thread t([&] {
    auto r = alloc_.alloc(1, 0);
    ASSERT_TRUE(r.is_ok());
    alloc_.free(*r, 1);
  });
  t.join();
  // The exited thread's remainder is still tracked (counted free), and a
  // drain frees it for good.
  EXPECT_EQ(alloc_.free_blocks(), total);
  EXPECT_GT(alloc_.reserved_unused_blocks(), 0u);
  alloc_.drain_reservations();
  EXPECT_EQ(alloc_.reserved_unused_blocks(), 0u);
  EXPECT_EQ(alloc_.free_blocks(), total);
  EXPECT_GE(alloc_.stats().reserve_drains.load(), 1u);
}

TEST_F(BlockAllocTest, ConcurrentReservedAllocsNeverOverlap) {
  attach_shm();
  constexpr int kThreads = 8;
  constexpr int kPerThread = 300;
  std::vector<std::vector<std::uint64_t>> got(kThreads);
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t)
    ts.emplace_back([&, t] {
      got[t].reserve(kPerThread);
      Rng rng(static_cast<std::uint64_t>(t) + 1);
      for (int i = 0; i < kPerThread; ++i) {
        const std::uint64_t n = 1 + rng.next() % 4;
        auto r = alloc_.alloc(n, t);
        ASSERT_TRUE(r.is_ok());
        for (std::uint64_t b = 0; b < n; ++b)
          got[t].push_back(*r + b * kBlockSize);
      }
    });
  for (auto& th : ts) th.join();
  std::set<std::uint64_t> all;
  for (const auto& v : got)
    for (std::uint64_t off : v)
      EXPECT_TRUE(all.insert(off).second) << "double-handed block " << off;
  // Every handed-out block plus the reserved remainders must reconcile
  // with the free count — nothing leaked, nothing double-counted.
  EXPECT_EQ(alloc_.free_blocks(), alloc_.n_blocks_total() - all.size());
  alloc_.drain_reservations();
  EXPECT_EQ(alloc_.free_blocks(), alloc_.n_blocks_total() - all.size());
}

// A thread that exits leaves its slot claimed.  The next thread to claim a
// slot adopts it, remainder included, once the slot lock has sat free for a
// lease; otherwise every exited thread would strand a chunk until unmount,
// and after 256 of them every allocation would take the direct path.
TEST_F(BlockAllocTest, ExitedThreadsSlotsAreAdopted) {
  attach_shm();
  alloc_.set_lease_ns(1'000'000);  // 1 ms
  const std::uint64_t total = alloc_.free_blocks();
  constexpr std::uint64_t kThreads = 512;  // a whole number of chunks
  for (std::uint64_t t = 0; t < kThreads; ++t) {
    std::thread th([&] { ASSERT_TRUE(alloc_.alloc(1, 0).is_ok()); });
    th.join();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  unsigned claimed = 0;
  for (const ShmReservation& s : shared_->reservations)
    claimed += s.mount.load(std::memory_order_relaxed) != 0;
  EXPECT_EQ(claimed, 1u);
  EXPECT_EQ(alloc_.reserved_unused_blocks(), 0u) << "stranded blocks";
  EXPECT_EQ(alloc_.free_blocks(), total - kThreads);
  // Every allocation was served from a reservation.
  const BlockAllocStats& st = alloc_.stats();
  EXPECT_EQ(st.reserve_refills.load(),
            kThreads / BlockAllocator::kReserveChunk);
  EXPECT_EQ(st.reserve_hits.load() + st.reserve_refills.load(), kThreads);
}

}  // namespace
}  // namespace simurgh::alloc
