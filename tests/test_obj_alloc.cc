// Tests for the two-bit metadata object allocator (§4.2).
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "alloc/obj_alloc.h"
#include "common/failpoint.h"

namespace simurgh::alloc {
namespace {

class ObjAllocTest : public ::testing::Test {
 protected:
  ObjAllocTest()
      : dev_(64ull << 20),
        shared_(std::make_unique<ShmAllocShared>()),
        blocks_(BlockAllocator::format(dev_, 4096, 64 * 1024,
                                       dev_.size() - 64 * 1024, 4)),
        pool_(ObjectAllocator::format(dev_, blocks_, shared_->obj_stacks[0],
                                      8192, 120, 64)) {
    shared_->reset();
  }

  nvmm::Device dev_;
  // A heap copy of the shm allocator block: the pool's free-object stack.
  std::unique_ptr<ShmAllocShared> shared_;
  BlockAllocator blocks_;
  ObjectAllocator pool_;
};

TEST_F(ObjAllocTest, AllocSetsValidAndDirty) {
  auto r = pool_.alloc();
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(pool_.flags_of(*r), kObjValid | kObjDirty);
}

TEST_F(ObjAllocTest, AllocReturnsZeroedPayload) {
  auto r = pool_.alloc();
  ASSERT_TRUE(r.is_ok());
  const auto* p = dev_.at(*r);
  for (std::uint64_t i = 0; i < pool_.payload_size(); ++i)
    ASSERT_EQ(std::to_integer<int>(p[i]), 0) << i;
}

TEST_F(ObjAllocTest, CommitClearsDirtyOnly) {
  auto r = pool_.alloc();
  ASSERT_TRUE(r.is_ok());
  pool_.commit(*r);
  EXPECT_EQ(pool_.flags_of(*r), kObjValid);
}

TEST_F(ObjAllocTest, FreeRunsTwoBitProtocolAndZeroes) {
  auto r = pool_.alloc();
  ASSERT_TRUE(r.is_ok());
  pool_.commit(*r);
  std::memset(dev_.at(*r), 0x5a, pool_.payload_size());
  pool_.free(*r);
  EXPECT_EQ(pool_.flags_of(*r), 0u);
  const auto* p = dev_.at(*r);
  for (std::uint64_t i = 0; i < pool_.payload_size(); ++i)
    ASSERT_EQ(std::to_integer<int>(p[i]), 0);
}

TEST_F(ObjAllocTest, FreedObjectIsReused) {
  auto a = pool_.alloc();
  ASSERT_TRUE(a.is_ok());
  pool_.free(*a);
  // Allocate until we see the freed offset again (it is cached).
  auto b = pool_.alloc();
  ASSERT_TRUE(b.is_ok());
  EXPECT_EQ(*b, *a);
}

TEST_F(ObjAllocTest, GrowsBeyondOneSegment) {
  std::set<std::uint64_t> offs;
  for (int i = 0; i < 300; ++i) {  // objs_per_segment = 64
    auto r = pool_.alloc();
    ASSERT_TRUE(r.is_ok()) << i;
    EXPECT_TRUE(offs.insert(*r).second) << "duplicate at " << i;
  }
}

TEST_F(ObjAllocTest, AttachFindsExistingObjects) {
  auto a = pool_.alloc();
  ASSERT_TRUE(a.is_ok());
  pool_.commit(*a);
  auto re = ObjectAllocator::attach(dev_, blocks_, shared_->obj_stacks[0],
                                    8192);
  EXPECT_EQ(re.flags_of(*a), kObjValid);
  EXPECT_EQ(re.payload_size(), 120u);
  // New allocations from the re-attached pool avoid the live object.
  for (int i = 0; i < 200; ++i) {
    auto r = re.alloc();
    ASSERT_TRUE(r.is_ok());
    EXPECT_NE(*r, *a);
  }
}

TEST_F(ObjAllocTest, CrashDuringFreeLeavesDirtyOnly) {
  auto r = pool_.alloc();
  ASSERT_TRUE(r.is_ok());
  pool_.commit(*r);
  FailPoint::arm("objalloc.free.valid_cleared");
  EXPECT_THROW(pool_.free(*r), CrashedException);
  // State 01: deallocation in progress — the unique recovery decision.
  EXPECT_EQ(pool_.flags_of(*r), kObjDirty);
  pool_.finish_pending_free(*r);
  EXPECT_EQ(pool_.flags_of(*r), 0u);
}

TEST_F(ObjAllocTest, CrashAfterZeroStillRecoverable) {
  auto r = pool_.alloc();
  ASSERT_TRUE(r.is_ok());
  pool_.commit(*r);
  FailPoint::arm("objalloc.free.zeroed");
  EXPECT_THROW(pool_.free(*r), CrashedException);
  EXPECT_EQ(pool_.flags_of(*r), kObjDirty);
  pool_.finish_pending_free(*r);
  EXPECT_EQ(pool_.flags_of(*r), 0u);
}

TEST_F(ObjAllocTest, ScanReportsEveryState) {
  auto a = pool_.alloc();  // 11
  auto b = pool_.alloc();  // will be 10
  ASSERT_TRUE(a.is_ok());
  ASSERT_TRUE(b.is_ok());
  pool_.commit(*b);
  int n11 = 0, n10 = 0, n00 = 0;
  pool_.scan([&](std::uint64_t, std::uint32_t flags) {
    if (flags == (kObjValid | kObjDirty)) ++n11;
    else if (flags == kObjValid) ++n10;
    else if (flags == 0) ++n00;
  });
  EXPECT_EQ(n11, 1);
  EXPECT_EQ(n10, 1);
  EXPECT_GE(n00, 62);
}

TEST_F(ObjAllocTest, ConcurrentAllocNeverDuplicates) {
  constexpr int kThreads = 8;
  constexpr int kPer = 200;
  std::vector<std::vector<std::uint64_t>> got(kThreads);
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&, t] {
      for (int i = 0; i < kPer; ++i) {
        auto r = pool_.alloc();
        ASSERT_TRUE(r.is_ok());
        got[t].push_back(*r);
      }
    });
  }
  for (auto& th : ts) th.join();
  std::set<std::uint64_t> all;
  for (auto& v : got)
    for (auto off : v) EXPECT_TRUE(all.insert(off).second);
  EXPECT_EQ(all.size(), static_cast<std::size_t>(kThreads * kPer));
}

TEST_F(ObjAllocTest, DropVolatileCacheStillAllocates) {
  auto a = pool_.alloc();
  ASSERT_TRUE(a.is_ok());
  pool_.drop_volatile_cache();
  auto b = pool_.alloc();  // forces a refill scan
  ASSERT_TRUE(b.is_ok());
  EXPECT_NE(*a, *b);
}

}  // namespace
}  // namespace simurgh::alloc
