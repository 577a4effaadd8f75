// Per-file integrity tests (DESIGN.md §13): the CRC32C residency table,
// verify_reads mode, the background scrubber, and fsck's CRC pass.  The
// acceptance bar is 100% detection: every deliberately flipped bit in live
// file data is caught by all three verifiers.  Corruption is injected on a
// LIVE mount — a remount would run recovery, which legitimately re-derives
// every reachable block's checksum and would mask the injection.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "core/check.h"
#include "core/scrub.h"
#include "fs_fixture.h"
#include "nvmm/shadow.h"

namespace simurgh::testing {
namespace {

using core::kOpenCreate;
using core::kOpenRead;
using core::kOpenWrite;

class IntegrityTest : public FsTest {
 protected:
  // Device offset of `path`'s logical block `fb` (0 if a hole).
  std::uint64_t block_of(const std::string& path, std::uint64_t fb) {
    const auto st = p().stat(path);
    EXPECT_TRUE(st.is_ok());
    core::Inode* ino = fs_->inode_at(st->inode);
    core::ExtentMap map(fs_->dev(), fs_->pool(core::kPoolExtent), *ino,
                        st->inode);
    return map.find(fb);
  }

  // Flip one byte of the block at `dev_off` behind the FS's back.
  void corrupt(std::uint64_t dev_off, std::uint64_t byte = 100) {
    auto* b = reinterpret_cast<unsigned char*>(fs_->dev().at(dev_off));
    b[byte] ^= 0x5a;
  }

  int make_file(const std::string& path, const std::string& data) {
    auto fd = p().open(path, kOpenCreate | kOpenRead | kOpenWrite);
    EXPECT_TRUE(fd.is_ok());
    EXPECT_TRUE(p().pwrite(*fd, data.data(), data.size(), 0).is_ok());
    return *fd;
  }

  // A clean mount runs no recovery and trusts the allocator state on the
  // media, so a clean unmount must leave it exactly as the live mount saw
  // it.  A 40-block write takes the direct path, the block after it a
  // reservation carve.  The mount that frees and allocates unmounts first;
  // with `peer`, a second mount is the last one out and persists the
  // bitmap, its peer's bits included.
  void free_space_survives_a_clean_shutdown(bool peer) {
    make_file("/old", std::string(20 * 4096, 'o'));
    proc_.reset();
    fs_->unmount();
    fs_.reset();

    nvmm::ShadowLog log(*nvmm_);  // baseline: the first mount's image
    log.start();
    std::uint64_t live_free = 0;
    {
      std::unique_ptr<core::FileSystem> last;
      if (peer) last = core::FileSystem::mount(*nvmm_, *shm_);
      auto fs = core::FileSystem::mount(*nvmm_, *shm_);
      auto proc = fs->open_process(1000, 1000);
      ASSERT_TRUE(proc->unlink("/old").is_ok());
      const auto fd = proc->open("/new", kOpenCreate | kOpenWrite);
      ASSERT_TRUE(fd.is_ok());
      const std::string bytes(41 * 4096, 'n');
      ASSERT_TRUE(proc->write(*fd, bytes.data(), 40 * 4096).is_ok());
      ASSERT_TRUE(proc->write(*fd, bytes.data(), 4096).is_ok());
      ASSERT_TRUE(proc->close(*fd).is_ok());
      proc.reset();
      fs->unmount();
      if (last) last->unmount();
      live_free = (last ? *last : *fs).blocks().free_blocks();
    }
    log.stop();
    log.seal();

    nvmm::Device img(nvmm_->size());
    log.materialize(log.n_windows(), {}, img);
    nvmm::Device shm(kShmSize);
    auto fs = core::FileSystem::mount(img, shm);
    EXPECT_EQ(fs->last_recovery().directories, 0u) << "recovery ran";
    const core::CheckReport cr = core::check_fs(*fs);
    EXPECT_TRUE(cr.ok()) << cr.summary();
    EXPECT_EQ(fs->blocks().free_blocks(), live_free);
  }
};

TEST_F(IntegrityTest, FormatCarvesAndAttachesTheCrcTable) {
  EXPECT_TRUE(fs_->crc().attached());
  EXPECT_NE(fs_->sb().crc_table_off, 0u);
  EXPECT_NE(fs_->sb().crc_table_blocks, 0u);
}

TEST_F(IntegrityTest, WritesStampAndCleanReadsVerify) {
  const int fd = make_file("/clean", std::string(3 * 4096 + 17, 'c'));
  fs_->set_verify_reads(true);
  std::vector<char> buf(3 * 4096 + 17);
  ASSERT_TRUE(p().pread(fd, buf.data(), buf.size(), 0).is_ok());
  EXPECT_EQ(fs_->fsstat().crc_verify_failures, 0u);
  // Stamped entries are non-zero for every written block.
  for (std::uint64_t fb = 0; fb < 4; ++fb)
    EXPECT_NE(fs_->crc().entry(block_of("/clean", fb)), 0u) << fb;
}

TEST_F(IntegrityTest, VerifyReadsDetectsABitFlip) {
  const int fd = make_file("/flip", std::string(2 * 4096, 'f'));
  corrupt(block_of("/flip", 1));
  fs_->set_verify_reads(true);
  std::vector<char> buf(2 * 4096);
  const auto r = p().pread(fd, buf.data(), buf.size(), 0);
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), Errc::io);
  EXPECT_GE(fs_->fsstat().crc_verify_failures, 1u);
  // The clean block is still readable on its own.
  EXPECT_TRUE(p().pread(fd, buf.data(), 4096, 0).is_ok());
}

TEST_F(IntegrityTest, ScrubberDetectsEveryInjectedCorruption) {
  // A handful of files; flip one byte in a known subset of their blocks.
  constexpr int kFiles = 6;
  constexpr int kBlocksPerFile = 4;
  for (int f = 0; f < kFiles; ++f)
    make_file("/s" + std::to_string(f),
              std::string(kBlocksPerFile * 4096, static_cast<char>('a' + f)));
  std::uint64_t injected = 0;
  for (int f = 0; f < kFiles; f += 2) {  // corrupt every other file
    corrupt(block_of("/s" + std::to_string(f), f % kBlocksPerFile));
    ++injected;
  }
  const core::Scrubber::PassReport r = fs_->scrubber().run_pass();
  EXPECT_EQ(r.errors, injected);  // 100% detection, no false positives
  EXPECT_GE(r.files, static_cast<std::uint64_t>(kFiles));
  const auto msgs = fs_->scrubber().take_errors();
  EXPECT_EQ(msgs.size(), injected);
  const core::FsStat st = fs_->fsstat();
  EXPECT_GE(st.scrub_passes, 1u);
  EXPECT_EQ(st.scrub_errors, injected);
}

TEST_F(IntegrityTest, BackgroundScrubberLoopFindsCorruption) {
  make_file("/bg", std::string(4096, 'b'));
  corrupt(block_of("/bg", 0));
  fs_->scrubber().start(/*pass_interval_ms=*/1);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (fs_->scrubber().errors() == 0 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  fs_->scrubber().stop();
  EXPECT_GE(fs_->scrubber().errors(), 1u);
  EXPECT_GE(fs_->scrubber().passes(), 1u);
}

TEST_F(IntegrityTest, FsckCrcPassDetectsEveryInjectedCorruption) {
  make_file("/fsck1", std::string(4 * 4096, '1'));
  make_file("/fsck2", std::string(4 * 4096, '2'));
  corrupt(block_of("/fsck1", 2));
  corrupt(block_of("/fsck2", 0), 4000);
  const core::CheckReport cr = core::check_fs(*fs_);
  EXPECT_FALSE(cr.ok());
  EXPECT_EQ(cr.crc_mismatches, 2u);
}

TEST_F(IntegrityTest, FsckIsCleanWithoutCorruption) {
  make_file("/ok", std::string(8 * 4096 + 99, 'o'));
  const core::CheckReport cr = core::check_fs(*fs_);
  EXPECT_TRUE(cr.ok()) << cr.summary();
  EXPECT_EQ(cr.crc_mismatches, 0u);
}

TEST_F(IntegrityTest, OverwriteRestampsTheBlock) {
  const int fd = make_file("/ow", std::string(4096, 'x'));
  const std::uint64_t blk = block_of("/ow", 0);
  const std::uint32_t before = fs_->crc().entry(blk);
  std::string next(4096, 'y');
  ASSERT_TRUE(p().pwrite(fd, next.data(), next.size(), 0).is_ok());
  const std::uint32_t after = fs_->crc().entry(blk);
  EXPECT_NE(before, after);
  fs_->set_verify_reads(true);
  std::vector<char> buf(4096);
  EXPECT_TRUE(p().pread(fd, buf.data(), buf.size(), 0).is_ok());
}

// Truncate leaves the kept block's bytes past EOF as they are; its
// checksum still covers the whole block, so every verifier agrees.  Growing
// back zeroes those bytes and re-stamps the block.
TEST_F(IntegrityTest, TruncateDownAndUpKeepChecksumsCoherent) {
  const int fd = make_file("/tr", std::string(2 * 4096, 't'));
  ASSERT_TRUE(p().ftruncate(fd, 4096 + 100).is_ok());
  fs_->set_verify_reads(true);
  std::vector<char> buf(2 * 4096);
  EXPECT_TRUE(p().pread(fd, buf.data(), 4096 + 100, 0).is_ok());
  core::CheckReport cr = core::check_fs(*fs_);
  EXPECT_TRUE(cr.ok()) << cr.summary();
  ASSERT_TRUE(p().ftruncate(fd, 2 * 4096).is_ok());
  ASSERT_EQ(*p().pread(fd, buf.data(), buf.size(), 0), buf.size());
  EXPECT_EQ(std::count(buf.begin() + 4096 + 100, buf.end(), '\0'),
            4096 - 100);
  EXPECT_EQ(fs_->fsstat().crc_verify_failures, 0u);
  cr = core::check_fs(*fs_);
  EXPECT_TRUE(cr.ok()) << cr.summary();
}

TEST_F(IntegrityTest, RecoveryRederivesChecksumsAfterCrash) {
  make_file("/crash", std::string(6 * 4096 + 5, 'r'));
  // No clean unmount: the remount runs full recovery, which must re-stamp
  // every reachable file block so all three verifiers come back clean.
  remount_after_crash();
  fs_->set_verify_reads(true);
  const int fd = *p().open("/crash", kOpenRead);
  std::vector<char> buf(6 * 4096 + 5);
  EXPECT_TRUE(p().pread(fd, buf.data(), buf.size(), 0).is_ok());
  EXPECT_EQ(fs_->fsstat().crc_verify_failures, 0u);
  EXPECT_EQ(fs_->scrubber().run_pass().errors, 0u);
  const core::CheckReport cr = core::check_fs(*fs_);
  EXPECT_TRUE(cr.ok()) << cr.summary();
  EXPECT_EQ(cr.crc_mismatches, 0u);
}

// A clean image mounts without recovery, so nothing re-stamps the table:
// the checksums of the last mount's writes must already be durable when
// unmount marks the image clean.  The ShadowLog keeps only what was flushed,
// so its final image is what a power cut after the clean shutdown leaves.
TEST_F(IntegrityTest, ChecksumsSurviveACleanShutdown) {
  constexpr std::size_t kBytes = 64 * 4096;
  make_file("/durable", std::string(kBytes, 'a'));
  proc_.reset();
  fs_->unmount();
  fs_.reset();

  nvmm::ShadowLog log(*nvmm_);  // baseline: the first mount's image
  log.start();
  {
    auto fs = core::FileSystem::mount(*nvmm_, *shm_);
    auto proc = fs->open_process(1000, 1000);
    const auto fd = proc->open("/durable", kOpenWrite);
    ASSERT_TRUE(fd.is_ok());
    const std::string next(kBytes, 'b');
    ASSERT_TRUE(proc->pwrite(*fd, next.data(), kBytes, 0).is_ok());
    ASSERT_TRUE(proc->fsync(*fd).is_ok());
    proc.reset();
    fs->unmount();
  }
  log.stop();
  log.seal();

  nvmm::Device img(nvmm_->size());
  log.materialize(log.n_windows(), {}, img);
  nvmm::Device shm(kShmSize);
  auto fs = core::FileSystem::mount(img, shm);
  const core::CheckReport cr = core::check_fs(*fs);
  EXPECT_EQ(cr.crc_mismatches, 0u) << cr.summary();
  EXPECT_TRUE(cr.ok()) << cr.summary();
  fs->set_verify_reads(true);
  auto proc = fs->open_process(1000, 1000);
  const auto fd = proc->open("/durable", kOpenRead);
  ASSERT_TRUE(fd.is_ok());
  std::string buf(kBytes, '\0');
  const auto r = proc->pread(*fd, buf.data(), kBytes, 0);
  ASSERT_TRUE(r.is_ok()) << "verify_reads failed the durable data";
  EXPECT_EQ(buf, std::string(kBytes, 'b'));
}

// The same durable image for the block allocator, with one mount and with
// two (free_space_survives_a_clean_shutdown).
TEST_F(IntegrityTest, FreeSpaceSurvivesACleanShutdown) {
  free_space_survives_a_clean_shutdown(/*peer=*/false);
}

TEST_F(IntegrityTest, FreeSpaceSurvivesACleanShutdownOfTwoMounts) {
  free_space_survives_a_clean_shutdown(/*peer=*/true);
}

TEST_F(IntegrityTest, RecycledBlocksDoNotInheritStaleChecksums) {
  // Delete a stamped file, then create a new one.  Whether or not the
  // allocator hands back the same run, the write path clears every entry
  // it grants, so a new owner's bytes are never checked against a stale
  // CRC left by the block's previous life.
  const int fd = make_file("/old", std::string(4096, 'o'));
  ASSERT_TRUE(p().close(fd).is_ok());
  ASSERT_TRUE(p().unlink("/old").is_ok());
  const int nf = make_file("/new", std::string(4096, 'n'));
  fs_->set_verify_reads(true);
  std::vector<char> buf(4096);
  EXPECT_TRUE(p().pread(nf, buf.data(), buf.size(), 0).is_ok());
  EXPECT_EQ(fs_->fsstat().crc_verify_failures, 0u);
}

}  // namespace
}  // namespace simurgh::testing
