// DRAM extent cache (core/extent_cache.h): epoch-validated views of the
// persistent extent map.  The contract under test: a cached view NEVER
// serves a stale mapping — any extent-map mutation (append, truncate,
// unlink) bumps the inode's epoch and the next resolve re-probes — and a
// cache-on file system is byte-for-byte identical to a cache-off one.
#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/extent_cache.h"
#include "fs_fixture.h"

namespace simurgh::testing {
namespace {

using core::kOpenCreate;
using core::kOpenRead;
using core::kOpenWrite;

class ExtentCacheTest : public FsTest {
 protected:
  int make_file(const std::string& path) {
    auto fd = p().open(path, kOpenCreate | kOpenWrite | kOpenRead);
    EXPECT_TRUE(fd.is_ok());
    return *fd;
  }

  // Reads the whole file twice — once with the cache, once without — and
  // requires identical bytes.  The uncached arm probes the persistent map
  // directly, so any divergence convicts the cache.
  void expect_cache_transparent(int fd, std::uint64_t size) {
    std::vector<char> cached(size), direct(size);
    fs_->set_extent_cache_enabled(true);
    ASSERT_EQ(*p().pread(fd, cached.data(), size, 0), size);
    fs_->set_extent_cache_enabled(false);
    ASSERT_EQ(*p().pread(fd, direct.data(), size, 0), size);
    fs_->set_extent_cache_enabled(true);
    ASSERT_EQ(std::memcmp(cached.data(), direct.data(), size), 0);
  }
};

TEST_F(ExtentCacheTest, WarmReadsHitTheCache) {
  const int fd = make_file("/warm");
  std::vector<char> blk(64 * 1024, 'w');
  ASSERT_TRUE(p().pwrite(fd, blk.data(), blk.size(), 0).is_ok());
  fs_->extent_cache().reset_stats();
  std::vector<char> back(blk.size());
  for (int i = 0; i < 10; ++i)
    ASSERT_EQ(*p().pread(fd, back.data(), back.size(), 0), back.size());
  const core::ExtentCacheStats s = fs_->extent_cache().stats();
  // First read fills (the write left the slot invalidated), the rest hit.
  EXPECT_GE(s.hits, 9u);
  EXPECT_EQ(std::memcmp(blk.data(), back.data(), blk.size()), 0);
}

TEST_F(ExtentCacheTest, SparseHolesAcrossSpillChainBoundaries) {
  // Every other block is a hole, so no two extents merge: 200 extents walk
  // well past the 6 inline slots and across the first spill block's 169-
  // extent capacity — the view must stitch inline + chain correctly and
  // report the holes between them.
  const int fd = make_file("/sparse");
  char blk[4096];
  constexpr int kExtents = 200;
  for (int i = 0; i < kExtents; ++i) {
    std::memset(blk, 'a' + (i % 26), sizeof blk);
    ASSERT_TRUE(
        p().pwrite(fd, blk, sizeof blk, 2ull * i * sizeof blk).is_ok());
  }
  const std::uint64_t size = p().stat("/sparse")->size;
  ASSERT_EQ(size, (2ull * (kExtents - 1) + 1) * sizeof blk);
  expect_cache_transparent(fd, size);
  // Spot-check through the cached path: data blocks carry their fill byte,
  // hole blocks read back as zeros.
  char back[4096];
  for (int i : {0, 5, 168, 169, 170, 199}) {
    ASSERT_EQ(*p().pread(fd, back, sizeof back, 2ull * i * sizeof back),
              sizeof back);
    EXPECT_EQ(back[0], 'a' + (i % 26)) << i;
    EXPECT_EQ(back[4095], 'a' + (i % 26)) << i;
  }
  for (int i : {0, 99, 198}) {
    ASSERT_EQ(
        *p().pread(fd, back, sizeof back, (2ull * i + 1) * sizeof back),
        sizeof back);
    EXPECT_EQ(back[0], 0) << i;
    EXPECT_EQ(back[4095], 0) << i;
  }
}

TEST_F(ExtentCacheTest, TruncateMidExtentInvalidatesTheView) {
  const int fd = make_file("/midext");
  std::vector<char> buf(8 * 4096, 'e');
  ASSERT_TRUE(p().pwrite(fd, buf.data(), buf.size(), 0).is_ok());
  // Warm the cache with the 8-block extent.
  std::vector<char> back(buf.size());
  ASSERT_EQ(*p().pread(fd, back.data(), back.size(), 0), back.size());
  // Clip the extent mid-way (5.5 blocks): drop_from trims the mapping, the
  // epoch bump kills the warm view.
  const std::uint64_t cut = 5 * 4096 + 2048;
  ASSERT_TRUE(p().ftruncate(fd, cut).is_ok());
  EXPECT_EQ(p().stat("/midext")->size, cut);
  // Growing the file back over the clipped range must expose zeros, not
  // the old bytes — through the cache.
  ASSERT_TRUE(p().ftruncate(fd, buf.size()).is_ok());
  ASSERT_EQ(*p().pread(fd, back.data(), back.size(), 0), back.size());
  for (std::uint64_t i = 0; i < cut; ++i)
    ASSERT_EQ(back[i], 'e') << "kept byte " << i;
  for (std::uint64_t i = cut; i < back.size(); ++i)
    ASSERT_EQ(back[i], 0) << "beyond old EOF " << i;
  expect_cache_transparent(fd, buf.size());
}

TEST_F(ExtentCacheTest, TruncateToZeroAndRewriteStaysCoherent) {
  // Regression: drop_from leaves zeroed slots inside spill blocks; a view
  // rebuilt after truncate+rewrite once picked those up and masked the
  // fresh extent (run_at resolved a mapped block as a hole).
  const int fd = make_file("/cycle");
  char blk[4096];
  for (int cycle = 0; cycle < 3; ++cycle) {
    // Force the spill chain with 40 unmergeable extents, then wipe.
    for (int i = 0; i < 40; ++i) {
      std::memset(blk, '0' + cycle, sizeof blk);
      ASSERT_TRUE(
          p().pwrite(fd, blk, sizeof blk, 2ull * i * sizeof blk).is_ok());
    }
    ASSERT_TRUE(p().ftruncate(fd, 0).is_ok());
    ASSERT_EQ(p().stat("/cycle")->size, 0u);
    // Rewrite block 0 and read it back through the cache immediately.
    std::memset(blk, 'A' + cycle, sizeof blk);
    ASSERT_TRUE(p().pwrite(fd, blk, sizeof blk, 0).is_ok());
    char back[4096] = {};
    ASSERT_EQ(*p().pread(fd, back, sizeof back, 0), sizeof back);
    EXPECT_EQ(back[0], 'A' + cycle);
    EXPECT_EQ(back[4095], 'A' + cycle);
  }
}

TEST_F(ExtentCacheTest, UnlinkRecreateNeverReplaysTheOldMapping) {
  // A recycled inode offset must not validate against a view cached for
  // the previous file: new files stamp their epoch from a global
  // generation counter (Superblock::file_epoch_gen).
  for (int round = 0; round < 5; ++round) {
    const int fd = make_file("/recycle");
    std::vector<char> buf(16 * 4096, static_cast<char>('a' + round));
    ASSERT_TRUE(p().pwrite(fd, buf.data(), buf.size(), 0).is_ok());
    std::vector<char> back(buf.size());
    ASSERT_EQ(*p().pread(fd, back.data(), back.size(), 0), back.size());
    ASSERT_EQ(std::memcmp(buf.data(), back.data(), buf.size()), 0);
    ASSERT_TRUE(p().close(fd).is_ok());
    ASSERT_TRUE(p().unlink("/recycle").is_ok());
  }
}

TEST_F(ExtentCacheTest, NewFilesStayCacheableAfterAnOddEpochRetires) {
  // A writer that dies inside ExtentEpochGuard leaves its file's epoch odd,
  // and unlinking that file pushes file_epoch_gen to the odd final epoch.
  // Files created afterwards must still be stamped even: a view is trusted
  // only at an even epoch, so an odd stamp would never hit the cache.
  const int dead = make_file("/dead");
  std::vector<char> buf(4 * 4096, 'd');
  ASSERT_TRUE(p().pwrite(dead, buf.data(), buf.size(), 0).is_ok());
  ASSERT_TRUE(p().close(dead).is_ok());
  const std::uint64_t gen = fs_->sb().file_epoch_gen.load();
  fs_->inode_at(p().stat("/dead")->inode)->ext_epoch.store(gen + 3);
  ASSERT_TRUE(p().unlink("/dead").is_ok());
  ASSERT_EQ(fs_->sb().file_epoch_gen.load() % 2, 1u);

  for (const char* path : {"/fresh1", "/fresh2"}) {
    const int fd = make_file(path);
    std::fill(buf.begin(), buf.end(), path[6]);
    ASSERT_TRUE(p().pwrite(fd, buf.data(), buf.size(), 0).is_ok());
    std::vector<char> back(buf.size());
    ASSERT_EQ(*p().pread(fd, back.data(), back.size(), 0), back.size());
    const std::uint64_t hits = fs_->extent_cache().stats().hits;
    ASSERT_EQ(*p().pread(fd, back.data(), back.size(), 0), back.size());
    EXPECT_EQ(back, buf) << path;
    EXPECT_EQ(fs_->inode_at(p().stat(path)->inode)->ext_epoch.load() % 2, 0u)
        << path;
    EXPECT_GT(fs_->extent_cache().stats().hits, hits) << path;
    ASSERT_TRUE(p().close(fd).is_ok());
  }
}

TEST_F(ExtentCacheTest, StatsFlowThroughFsstat) {
  const int fd = make_file("/stats");
  std::vector<char> blk(4096, 's');
  ASSERT_TRUE(p().pwrite(fd, blk.data(), blk.size(), 0).is_ok());
  for (int i = 0; i < 5; ++i)
    ASSERT_TRUE(p().pread(fd, blk.data(), blk.size(), 0).is_ok());
  const core::FsStat st = fs_->fsstat();
  EXPECT_GT(st.extent_hits + st.extent_misses, 0u);
  EXPECT_GT(st.extent_fills, 0u);
}

TEST_F(ExtentCacheTest, DisabledCacheKeepsWorking) {
  fs_->set_extent_cache_enabled(false);
  const int fd = make_file("/nocache");
  std::vector<char> buf(32 * 4096);
  Rng rng(7);
  for (auto& c : buf) c = static_cast<char>(rng.next());
  ASSERT_TRUE(p().pwrite(fd, buf.data(), buf.size(), 0).is_ok());
  std::vector<char> back(buf.size());
  ASSERT_EQ(*p().pread(fd, back.data(), back.size(), 0), back.size());
  EXPECT_EQ(std::memcmp(buf.data(), back.data(), buf.size()), 0);
  fs_->set_extent_cache_enabled(true);
}

}  // namespace
}  // namespace simurgh::testing
