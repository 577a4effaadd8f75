// Data-path tests: extents, large files, truncate, fallocate, persistence
// ordering (§4.3 "Data operations").
#include <algorithm>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "fs_fixture.h"
#include "nvmm/persist.h"
#include "nvmm/shadow.h"

namespace simurgh::testing {
namespace {

using core::kOpenCreate;
using core::kOpenRead;
using core::kOpenWrite;

class FsDataTest : public FsTest {
 protected:
  int make_file(const std::string& path) {
    auto fd = p().open(path, kOpenCreate | kOpenWrite | kOpenRead);
    EXPECT_TRUE(fd.is_ok());
    return *fd;
  }

  // Counts the bytes of [off, off + n) that do not read back as zero.
  std::size_t nonzero_bytes(int fd, std::uint64_t off, std::size_t n) {
    std::vector<char> buf(n, '?');
    EXPECT_EQ(*p().pread(fd, buf.data(), n, off), n);
    return n - static_cast<std::size_t>(std::count(buf.begin(), buf.end(), 0));
  }
};

TEST_F(FsDataTest, MultiBlockWriteReadBack) {
  const int fd = make_file("/big");
  std::vector<char> data(100 * 1024);
  Rng rng(42);
  for (auto& c : data) c = static_cast<char>(rng.next());
  ASSERT_EQ(*p().pwrite(fd, data.data(), data.size(), 0), data.size());
  std::vector<char> back(data.size());
  ASSERT_EQ(*p().pread(fd, back.data(), back.size(), 0), back.size());
  EXPECT_EQ(std::memcmp(data.data(), back.data(), data.size()), 0);
}

TEST_F(FsDataTest, UnalignedWritesAcrossBlockBoundaries) {
  const int fd = make_file("/unaligned");
  // Write 100 bytes straddling the 4 KB boundary.
  std::string chunk(100, 'Z');
  ASSERT_TRUE(p().pwrite(fd, chunk.data(), chunk.size(), 4096 - 50).is_ok());
  char buf[100];
  ASSERT_TRUE(p().pread(fd, buf, 100, 4096 - 50).is_ok());
  EXPECT_EQ(std::string(buf, 100), chunk);
  // Bytes before the write within the same block read as zero.
  char pre[10];
  ASSERT_TRUE(p().pread(fd, pre, 10, 4096 - 60).is_ok());
  EXPECT_EQ(std::string(pre, 10), std::string(10, '\0'));
}

TEST_F(FsDataTest, SpillsBeyondInlineExtents) {
  // Writing every *other* block leaves holes between extents, so no two
  // extents can merge: 200 extents forces the spill chain (> 6 inline).
  const int fd = make_file("/spill");
  char blk[4096];
  for (int i = 0; i < 200; ++i) {
    std::memset(blk, 'a' + (i % 26), sizeof blk);
    ASSERT_TRUE(
        p().pwrite(fd, blk, sizeof blk, 2ull * i * sizeof blk).is_ok());
  }
  const core::Inode* ino = fs_->inode_at(p().stat("/spill")->inode);
  EXPECT_FALSE(ino->ext_spill.load().is_null());
  char buf[4096];
  for (int i = 0; i < 200; i += 37) {
    ASSERT_TRUE(
        p().pread(fd, buf, sizeof buf, 2ull * i * sizeof buf).is_ok());
    EXPECT_EQ(buf[0], static_cast<char>('a' + (i % 26))) << i;
    // The hole after each written block reads zero.
    ASSERT_TRUE(
        p().pread(fd, buf, sizeof buf, (2ull * i + 1) * sizeof buf).is_ok());
    EXPECT_EQ(buf[0], '\0');
  }
}

TEST_F(FsDataTest, AppendTruncateCyclesReuseSpillSlots) {
  // Seven unmergeable extents: six inline plus one spilled.  Each cycle
  // appends one block (a new extent) and truncates it away again; the
  // cleared slot must be reused, not left behind while the next append
  // takes a fresh one.
  const int fd = make_file("/cycle");
  char blk[4096] = {};
  for (int i = 0; i < 7; ++i)
    ASSERT_TRUE(p().pwrite(fd, blk, sizeof blk, 2ull * i * sizeof blk).is_ok());
  const std::uint64_t size = 13 * sizeof blk;
  const core::Inode* ino = fs_->inode_at(p().stat("/cycle")->inode);
  auto spill_shape = [&] {
    std::pair<unsigned, std::uint64_t> blocks_slots{0, 0};
    for (auto b = ino->ext_spill.load(); b; b = b.in(fs_->dev())->next) {
      ++blocks_slots.first;
      blocks_slots.second += b.in(fs_->dev())->n;
    }
    return blocks_slots;
  };
  const auto before = spill_shape();
  EXPECT_EQ(before, std::make_pair(1u, std::uint64_t{1}));
  for (int c = 0; c < 400; ++c) {
    ASSERT_TRUE(p().pwrite(fd, blk, sizeof blk, size).is_ok());
    ASSERT_TRUE(p().ftruncate(fd, size).is_ok());
  }
  EXPECT_EQ(spill_shape(), before);
  char buf[4096];
  ASSERT_EQ(*p().pread(fd, buf, sizeof buf, size - sizeof buf), sizeof buf);
  EXPECT_EQ(*p().pread(fd, buf, sizeof buf, size), 0u);
}

TEST_F(FsDataTest, ReadPastEofTruncatesAndAtEofReturnsZero) {
  const int fd = make_file("/eof");
  ASSERT_TRUE(p().pwrite(fd, "12345", 5, 0).is_ok());
  char buf[10];
  EXPECT_EQ(*p().pread(fd, buf, 10, 0), 5u);
  EXPECT_EQ(*p().pread(fd, buf, 10, 5), 0u);
  EXPECT_EQ(*p().pread(fd, buf, 10, 100), 0u);
}

TEST_F(FsDataTest, TruncateShrinkFreesBlocksAndZeroesTail) {
  const int fd = make_file("/shrink");
  std::vector<char> data(64 * 1024, 'q');
  ASSERT_TRUE(p().pwrite(fd, data.data(), data.size(), 0).is_ok());
  const std::uint64_t free_before = fs_->blocks().free_blocks();
  ASSERT_TRUE(p().ftruncate(fd, 100).is_ok());
  EXPECT_GT(fs_->blocks().free_blocks(), free_before);
  EXPECT_EQ(p().stat("/shrink")->size, 100u);
  // Regrow: bytes beyond 100 must read zero, not stale 'q'.
  ASSERT_TRUE(p().ftruncate(fd, 200).is_ok());
  char buf[100];
  ASSERT_TRUE(p().pread(fd, buf, 100, 100).is_ok());
  EXPECT_EQ(std::string(buf, 100), std::string(100, '\0'));
}

TEST_F(FsDataTest, TruncateGrowReadsZeros) {
  const int fd = make_file("/grow");
  ASSERT_TRUE(p().ftruncate(fd, 10000).is_ok());
  EXPECT_EQ(p().stat("/grow")->size, 10000u);
  char buf[100];
  ASSERT_TRUE(p().pread(fd, buf, 100, 5000).is_ok());
  EXPECT_EQ(std::string(buf, 100), std::string(100, '\0'));
}

TEST_F(FsDataTest, FallocateReservesBlocks) {
  const int fd = make_file("/prealloc");
  const std::uint64_t before = fs_->blocks().free_blocks();
  ASSERT_TRUE(p().fallocate(fd, 0, 4 << 20).is_ok());
  EXPECT_EQ(before - fs_->blocks().free_blocks(), (4u << 20) / 4096);
  EXPECT_EQ(p().stat("/prealloc")->size, 4u << 20);
  // Subsequent writes must not allocate further blocks.
  const std::uint64_t after_falloc = fs_->blocks().free_blocks();
  char blk[4096] = {1};
  ASSERT_TRUE(p().pwrite(fd, blk, sizeof blk, 1 << 20).is_ok());
  EXPECT_EQ(fs_->blocks().free_blocks(), after_falloc);
}

TEST_F(FsDataTest, WritePersistsDataBeforeMetadata) {
  // The paper's ordering rule: data is persisted (nt stores) and fenced
  // before the size update.  Observable via the persist-stats epochs: the
  // write path must issue at least two fences with nt bytes in between.
  auto& ps = nvmm::persist_stats();
  const int fd = make_file("/order");
  ps.reset();
  ASSERT_TRUE(p().pwrite(fd, "payload", 7, 0).is_ok());
  EXPECT_GE(ps.nt_bytes.load(), 7u);
  EXPECT_GE(ps.fences.load(), 2u);  // data fence + metadata fence
}

TEST_F(FsDataTest, UnlinkReturnsBlocksToAllocator) {
  const int fd = make_file("/deleteme");
  std::vector<char> data(256 * 1024, 'd');
  ASSERT_TRUE(p().pwrite(fd, data.data(), data.size(), 0).is_ok());
  ASSERT_TRUE(p().close(fd).is_ok());
  const std::uint64_t used = fs_->blocks().free_blocks();
  ASSERT_TRUE(p().unlink("/deleteme").is_ok());
  EXPECT_EQ(fs_->blocks().free_blocks(), used + 256 * 1024 / 4096);
}

TEST_F(FsDataTest, RelaxedModeStillReadsBack) {
  fs_->set_relaxed_writes(true);
  const int fd = make_file("/relaxed");
  ASSERT_TRUE(p().pwrite(fd, "no-lock", 7, 0).is_ok());
  char buf[8] = {};
  ASSERT_TRUE(p().pread(fd, buf, 7, 0).is_ok());
  EXPECT_EQ(std::string(buf, 7), "no-lock");
  fs_->set_relaxed_writes(false);
}

TEST_F(FsDataTest, OverwriteCommitsExactlyOneMetadataLine) {
  const int fd = make_file("/persistshape");
  std::vector<char> blk(4096, 'x');
  // First write allocates; the measured overwrite is pure data + commit.
  ASSERT_TRUE(p().pwrite(fd, blk.data(), blk.size(), 0).is_ok());
  nvmm::FlushCounter fc;
  ASSERT_TRUE(p().pwrite(fd, blk.data(), blk.size(), 0).is_ok());
  // The commit flushes only the inode's size/mtime stamp — one cache line,
  // one persist call — not the whole Inode (which spans four lines).  Two
  // fences: data-before-metadata, then the commit itself.
  EXPECT_EQ(fc.persist_calls(), 1u);
  EXPECT_EQ(fc.persist_lines(), 1u);
  EXPECT_EQ(fc.nt_lines(), 4096u / nvmm::kCacheLine);
  EXPECT_EQ(fc.fences(), 2u);
}

TEST_F(FsDataTest, MultiBlockWriteStreamsOnce) {
  const int fd = make_file("/coalesce");
  std::vector<char> buf(8 * 4096, 'm');
  {
    nvmm::FlushCounter fc;
    ASSERT_TRUE(p().pwrite(fd, buf.data(), buf.size(), 0).is_ok());
    // Eight fresh blocks come from one reservation carve, so they are
    // device-contiguous and the copy loop issues ONE streaming store for
    // the whole write instead of one per 4 KB block.
    EXPECT_EQ(fc.nt_stores(), 1u);
    EXPECT_EQ(fc.nt_lines(), buf.size() / nvmm::kCacheLine);
  }
  {
    // Same shape on the overwrite: the extent is contiguous, one stream,
    // one metadata line, two fences — for a 32 KB write.
    nvmm::FlushCounter fc;
    ASSERT_TRUE(p().pwrite(fd, buf.data(), buf.size(), 0).is_ok());
    EXPECT_EQ(fc.nt_stores(), 1u);
    EXPECT_EQ(fc.persist_lines(), 1u);
    EXPECT_EQ(fc.fences(), 2u);
  }
}

TEST_F(FsDataTest, OverwriteDoesNotGrowFile) {
  const int fd = make_file("/ow");
  ASSERT_TRUE(p().pwrite(fd, "ABCDEFGH", 8, 0).is_ok());
  ASSERT_TRUE(p().pwrite(fd, "xy", 2, 2).is_ok());
  EXPECT_EQ(p().stat("/ow")->size, 8u);
  char buf[8];
  ASSERT_TRUE(p().pread(fd, buf, 8, 0).is_ok());
  EXPECT_EQ(std::string(buf, 8), "ABxyEFGH");
}

// No allocator segment holds a run longer than itself (~12.8 MiB on this
// 256 MiB device), so a hole larger than that must be filled piecewise,
// not refused with no_space.
TEST_F(FsDataTest, WriteAndFallocateLargerThanASegment) {
  constexpr std::size_t kWrite = 40u << 20;
  constexpr std::uint64_t kPrealloc = 32u << 20;
  const int fd = make_file("/huge");
  std::vector<char> data(kWrite);
  Rng rng(7);
  for (std::size_t i = 0; i < data.size(); i += 8) {
    const std::uint64_t w = rng.next();
    std::memcpy(&data[i], &w, 8);
  }
  auto wrote = p().pwrite(fd, data.data(), data.size(), 123);
  ASSERT_TRUE(wrote.is_ok());
  ASSERT_EQ(*wrote, data.size());
  const int pre = make_file("/prealloc");
  ASSERT_TRUE(p().fallocate(pre, 0, kPrealloc).is_ok());

  remount_after_crash();
  EXPECT_EQ(p().stat("/huge")->size, 123 + kWrite);
  EXPECT_EQ(p().stat("/prealloc")->size, kPrealloc);
  auto rfd = p().open("/huge", kOpenRead);
  ASSERT_TRUE(rfd.is_ok());
  std::vector<char> back(kWrite);
  ASSERT_EQ(*p().pread(*rfd, back.data(), back.size(), 123), back.size());
  EXPECT_EQ(std::memcmp(data.data(), back.data(), kWrite), 0);
  const core::CheckReport cr = core::check_fs(*fs_);
  EXPECT_TRUE(cr.ok()) << cr.summary();
}

// A device small enough to fill: writes that run out of space part-way.
// The filler file's last 64 KiB of 'z' bytes are freed, so any block a
// failed write leaves mapped reads back as 'z' where zeros are due.
class FsFullDeviceTest : public FsDataTest {
 protected:
  void SetUp() override {
    nvmm_ = std::make_unique<nvmm::Device>(16ull << 20);
    shm_ = std::make_unique<nvmm::Device>(kShmSize);
    fs_ = core::FileSystem::format(*nvmm_, *shm_);
    proc_ = fs_->open_process(1000, 1000);
    const int fd = make_file("/filler");
    const std::vector<char> z(4096, 'z');
    std::uint64_t size = 0;
    while (p().pwrite(fd, z.data(), z.size(), size).is_ok()) size += z.size();
    ASSERT_GT(size, 64u << 10);
    ASSERT_TRUE(p().ftruncate(fd, size - (64 << 10)).is_ok());
  }
};

TEST_F(FsFullDeviceTest, FailedWriteIntoAHoleMapsNothing) {
  constexpr std::size_t kLen = 1 << 20;
  const int fd = make_file("/sparse");
  ASSERT_TRUE(p().ftruncate(fd, kLen).is_ok());
  const std::uint64_t free_before = fs_->blocks().free_blocks();
  const std::vector<char> data(kLen, 'w');
  EXPECT_EQ(p().pwrite(fd, data.data(), kLen, 0).code(), Errc::no_space);
  EXPECT_EQ(nonzero_bytes(fd, 0, kLen), 0u);
  // fallocate fills holes through the same allocator path.
  EXPECT_EQ(p().fallocate(fd, 0, kLen).code(), Errc::no_space);
  EXPECT_EQ(nonzero_bytes(fd, 0, kLen), 0u);
  EXPECT_EQ(fs_->blocks().free_blocks(), free_before);
  const core::CheckReport cr = core::check_fs(*fs_);
  EXPECT_TRUE(cr.ok()) << cr.summary();
}

TEST_F(FsFullDeviceTest, FailedAppendLeavesNoBlocksPastEof) {
  constexpr std::size_t kLen = 1 << 20;
  const int fd = make_file("/small");
  ASSERT_TRUE(p().pwrite(fd, "ab", 2, 0).is_ok());
  const std::uint64_t free_before = fs_->blocks().free_blocks();
  const std::vector<char> data(kLen, 'w');
  EXPECT_EQ(p().pwrite(fd, data.data(), kLen, 2).code(), Errc::no_space);
  EXPECT_EQ(fs_->blocks().free_blocks(), free_before);
  const core::CheckReport cr = core::check_fs(*fs_);
  EXPECT_TRUE(cr.ok()) << cr.summary();
  // Growing the file must expose zeros, not the freed filler's bytes.
  ASSERT_TRUE(p().ftruncate(fd, 200000).is_ok());
  EXPECT_EQ(nonzero_bytes(fd, 2, 200000 - 2), 0u);
}

// A small device filled with one-block files of 'z' bytes, every other one
// then unlinked: no file ever needed a spill block, so the extent pool has
// no segment, and no free run reaches the 65 blocks it needs to grow one.
// Single free blocks remain, so a write whose runs need a spill block runs
// the extent pool dry while data blocks are still free.
class FsExtentPoolDryTest : public FsDataTest {
 protected:
  static constexpr std::uint64_t kBlock = 4096;

  void SetUp() override {
    nvmm_ = std::make_unique<nvmm::Device>(16ull << 20);
    shm_ = std::make_unique<nvmm::Device>(kShmSize);
    fs_ = core::FileSystem::format(*nvmm_, *shm_);
    proc_ = fs_->open_process(1000, 1000);
    const std::vector<char> z(kBlock, 'z');
    int n = 0;
    for (;; ++n) {
      auto fd = p().open("/f" + std::to_string(n), kOpenCreate | kOpenWrite);
      if (!fd.is_ok()) break;
      const bool wrote = p().pwrite(*fd, z.data(), kBlock, 0).is_ok();
      ASSERT_TRUE(p().close(*fd).is_ok());
      if (!wrote) break;
    }
    ASSERT_GT(n, 1000);
    for (int i = 0; i < n; i += 2)
      ASSERT_TRUE(p().unlink("/f" + std::to_string(i)).is_ok());
    std::uint64_t longest = 0;
    fs_->blocks().for_each_free_range(
        [&](unsigned, std::uint64_t, std::uint64_t len) {
          longest = std::max(longest, len);
        });
    ASSERT_LT(longest, 65u);
  }

  // A file with five one-block extents at file blocks 0, 2, 4, 6 and 8:
  // the sixth inline slot is the last before a spill block.
  int five_extent_file(const std::string& path) {
    const int fd = make_file(path);
    const std::vector<char> w(kBlock, 'w');
    for (std::uint64_t b = 0; b < 10; b += 2)
      EXPECT_EQ(*p().pwrite(fd, w.data(), kBlock, b * kBlock), kBlock);
    return fd;
  }
};

TEST_F(FsExtentPoolDryTest, FailedWriteIntoAHoleZeroesWhatItMapped) {
  const int fd = five_extent_file("/holes");
  ASSERT_TRUE(p().ftruncate(fd, 20 * kBlock).is_ok());
  const std::uint64_t free_before = fs_->blocks().free_blocks();
  // Only single blocks are free: the first maps into the sixth inline slot
  // and the second needs a spill block the extent pool cannot grow.
  const std::vector<char> data(3 * kBlock, 'x');
  EXPECT_EQ(p().pwrite(fd, data.data(), data.size(), 10 * kBlock).code(),
            Errc::no_space);
  EXPECT_GE(fs_->blocks().free_blocks(), 3u);  // the pool ran dry, not data
  // The mapped block stays in the file as the zeros of the hole it filled.
  EXPECT_EQ(fs_->blocks().free_blocks(), free_before - 1);
  EXPECT_EQ(nonzero_bytes(fd, 10 * kBlock, 3 * kBlock), 0u);
  EXPECT_EQ(p().stat("/holes")->size, 20 * kBlock);
  const core::CheckReport cr = core::check_fs(*fs_);
  EXPECT_TRUE(cr.ok()) << cr.summary();
}

TEST_F(FsExtentPoolDryTest, FailedAppendUnmapsWhatItMappedPastEof) {
  const int fd = five_extent_file("/append");
  const std::uint64_t free_before = fs_->blocks().free_blocks();
  const std::vector<char> data(3 * kBlock, 'x');
  EXPECT_EQ(p().pwrite(fd, data.data(), data.size(), 9 * kBlock).code(),
            Errc::no_space);
  EXPECT_GE(fs_->blocks().free_blocks(), 3u);  // the pool ran dry, not data
  EXPECT_EQ(fs_->blocks().free_blocks(), free_before);
  EXPECT_EQ(p().stat("/append")->size, 9 * kBlock);
  const core::CheckReport cr = core::check_fs(*fs_);
  EXPECT_TRUE(cr.ok()) << cr.summary();
  // Growing the file must expose zeros, not the freed files' bytes.
  ASSERT_TRUE(p().ftruncate(fd, 12 * kBlock).is_ok());
  EXPECT_EQ(nonzero_bytes(fd, 9 * kBlock, 3 * kBlock), 0u);
}

}  // namespace
}  // namespace simurgh::testing
