// Tests for the POSIX interposition shim (the preload-library face).
#include <fcntl.h>
#include <gtest/gtest.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <thread>

#include "shim/posix_shim.h"

namespace simurgh::shim {
namespace {

class ShimTest : public ::testing::Test {
 protected:
  void SetUp() override {
    nvmm_ = std::make_unique<nvmm::Device>(128ull << 20);
    shm_ = std::make_unique<nvmm::Device>(8ull << 20);
    fs_ = core::FileSystem::format(*nvmm_, *shm_);
    attach(fs_.get(), 1000, 1000);
  }
  void TearDown() override { detach(); }

  std::unique_ptr<nvmm::Device> nvmm_;
  std::unique_ptr<nvmm::Device> shm_;
  std::unique_ptr<core::FileSystem> fs_;
};

TEST_F(ShimTest, OpenWriteReadClose) {
  const int fd = sfs_open("/hello.txt", O_CREAT | O_RDWR, 0644);
  ASSERT_GE(fd, 0);
  EXPECT_EQ(sfs_write(fd, "simurgh", 7), 7);
  EXPECT_EQ(sfs_lseek(fd, 0, SEEK_SET), 0);
  char buf[16] = {};
  EXPECT_EQ(sfs_read(fd, buf, sizeof buf), 7);
  EXPECT_STREQ(buf, "simurgh");
  EXPECT_EQ(sfs_close(fd), 0);
}

TEST_F(ShimTest, ErrnoSemantics) {
  EXPECT_EQ(sfs_open("/missing", O_RDONLY), -1);
  EXPECT_EQ(last_errno(), ENOENT);

  ASSERT_GE(sfs_open("/dup", O_CREAT | O_WRONLY, 0644), 0);
  EXPECT_EQ(sfs_open("/dup", O_CREAT | O_EXCL | O_WRONLY, 0644), -1);
  EXPECT_EQ(last_errno(), EEXIST);

  EXPECT_EQ(sfs_mkdir("/dup", 0755), -1);
  EXPECT_EQ(last_errno(), EEXIST);

  EXPECT_EQ(sfs_rmdir("/dup"), -1);
  EXPECT_EQ(last_errno(), ENOTDIR);

  EXPECT_EQ(sfs_close(12345), -1);
  EXPECT_EQ(last_errno(), EBADF);
}

TEST_F(ShimTest, OAccModeEnforced) {
  ASSERT_GE(sfs_open("/ro", O_CREAT | O_WRONLY, 0644), 0);
  const int fd = sfs_open("/ro", O_RDONLY);
  ASSERT_GE(fd, 0);
  EXPECT_EQ(sfs_write(fd, "x", 1), -1);
  EXPECT_EQ(last_errno(), EBADF);
}

TEST_F(ShimTest, AppendAndTrunc) {
  int fd = sfs_open("/log", O_CREAT | O_WRONLY | O_APPEND, 0644);
  ASSERT_GE(fd, 0);
  EXPECT_EQ(sfs_write(fd, "aa", 2), 2);
  EXPECT_EQ(sfs_write(fd, "bb", 2), 2);
  SfsStat st{};
  ASSERT_EQ(sfs_fstat(fd, &st), 0);
  EXPECT_EQ(st.st_size, 4u);
  ASSERT_EQ(sfs_close(fd), 0);
  fd = sfs_open("/log", O_WRONLY | O_TRUNC);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(sfs_fstat(fd, &st), 0);
  EXPECT_EQ(st.st_size, 0u);
}

TEST_F(ShimTest, PreadPwriteAndTruncate) {
  const int fd = sfs_open("/pp", O_CREAT | O_RDWR, 0644);
  ASSERT_GE(fd, 0);
  EXPECT_EQ(sfs_pwrite(fd, "ABCD", 4, 100), 4);
  char buf[4];
  EXPECT_EQ(sfs_pread(fd, buf, 4, 100), 4);
  EXPECT_EQ(std::memcmp(buf, "ABCD", 4), 0);
  EXPECT_EQ(sfs_pwrite(fd, "x", 1, -5), -1);
  EXPECT_EQ(last_errno(), EINVAL);
  EXPECT_EQ(sfs_ftruncate(fd, 50), 0);
  SfsStat st{};
  ASSERT_EQ(sfs_fstat(fd, &st), 0);
  EXPECT_EQ(st.st_size, 50u);
  EXPECT_EQ(sfs_truncate("/pp", 10), 0);
  ASSERT_EQ(sfs_stat("/pp", &st), 0);
  EXPECT_EQ(st.st_size, 10u);
}

TEST_F(ShimTest, DirectoryLifecycle) {
  EXPECT_EQ(sfs_mkdir("/d", 0755), 0);
  EXPECT_EQ(sfs_mkdir("/d/e", 0755), 0);
  ASSERT_GE(sfs_open("/d/e/f", O_CREAT | O_WRONLY, 0644), 0);
  EXPECT_EQ(sfs_rmdir("/d/e"), -1);
  EXPECT_EQ(last_errno(), ENOTEMPTY);
  EXPECT_EQ(sfs_unlink("/d/e/f"), 0);
  EXPECT_EQ(sfs_rmdir("/d/e"), 0);
  EXPECT_EQ(sfs_rmdir("/d"), 0);
}

TEST_F(ShimTest, RenameAndLinks) {
  ASSERT_GE(sfs_open("/a", O_CREAT | O_WRONLY, 0644), 0);
  EXPECT_EQ(sfs_rename("/a", "/b"), 0);
  SfsStat st{};
  EXPECT_EQ(sfs_stat("/a", &st), -1);
  EXPECT_EQ(sfs_stat("/b", &st), 0);
  EXPECT_EQ(sfs_link("/b", "/c"), 0);
  ASSERT_EQ(sfs_stat("/c", &st), 0);
  EXPECT_EQ(st.st_nlink, 2u);
  EXPECT_EQ(sfs_symlink("/b", "/ln"), 0);
  char buf[8];
  EXPECT_EQ(sfs_readlink("/ln", buf, sizeof buf), 2);
  EXPECT_EQ(std::memcmp(buf, "/b", 2), 0);
  // lstat sees the link, stat follows it.
  ASSERT_EQ(sfs_lstat("/ln", &st), 0);
  EXPECT_EQ(st.st_mode & 0xF000, core::kModeSymlink);
  ASSERT_EQ(sfs_stat("/ln", &st), 0);
  EXPECT_EQ(st.st_mode & 0xF000, core::kModeFile);
}

TEST_F(ShimTest, ReadlinkTruncatesLikePosix) {
  ASSERT_EQ(sfs_symlink("/very/long/target/path", "/l"), 0);
  char tiny[4];
  EXPECT_EQ(sfs_readlink("/l", tiny, sizeof tiny), 4);
  EXPECT_EQ(std::memcmp(tiny, "/ver", 4), 0);
}

TEST_F(ShimTest, AccessAndChmod) {
  ASSERT_GE(sfs_open("/sec", O_CREAT | O_WRONLY, 0600), 0);
  EXPECT_EQ(sfs_access("/sec", R_OK | W_OK), 0);
  EXPECT_EQ(sfs_chmod("/sec", 0400), 0);
  EXPECT_EQ(sfs_access("/sec", W_OK), -1);
  EXPECT_EQ(last_errno(), EACCES);
  EXPECT_EQ(sfs_access("/sec", F_OK), 0);  // existence only
}

TEST_F(ShimTest, FsyncWorks) {
  const int fd = sfs_open("/s", O_CREAT | O_WRONLY, 0644);
  ASSERT_GE(fd, 0);
  EXPECT_EQ(sfs_fsync(fd), 0);
}

TEST_F(ShimTest, DetachedShimFailsWithEnodev) {
  detach();
  EXPECT_EQ(sfs_open("/x", O_CREAT | O_WRONLY, 0644), -1);
  EXPECT_EQ(last_errno(), ENODEV);
  attach(fs_.get(), 1000, 1000);  // restore for TearDown symmetry
}

TEST_F(ShimTest, FsstatReportsCapacity) {
  auto st0 = fs_->fsstat();
  EXPECT_EQ(st0.block_size, 4096u);
  EXPECT_GT(st0.total_blocks, 0u);
  const std::uint64_t free0 = st0.free_blocks;
  const int fd = sfs_open("/big", O_CREAT | O_WRONLY, 0644);
  ASSERT_GE(fd, 0);
  std::vector<char> data(256 * 1024, 'z');
  ASSERT_EQ(sfs_write(fd, data.data(), data.size()),
            static_cast<ssize_t>(data.size()));
  auto st1 = fs_->fsstat();
  EXPECT_LT(st1.free_blocks, free0);
  EXPECT_GE(st1.live_inodes, 2u);  // root + /big
}

// Durability classes through the shim (write_behind.h): a plain write on a
// group-class file is acked from the staging tier, and a subsequent fsync —
// absorbed into the epoch cadence — still round-trips the data to readers.
TEST_F(ShimTest, GroupDurabilityWriteFsyncRoundTrips) {
  const int fd = sfs_open("/relaxed", O_CREAT | O_RDWR, 0644);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(sfs_set_durability("/relaxed", SFS_DURABILITY_GROUP), 0);
  const char data[] = "staged but readable";
  ASSERT_EQ(sfs_write(fd, data, sizeof data - 1),
            static_cast<ssize_t>(sizeof data - 1));
  EXPECT_EQ(sfs_fsync(fd), 0);  // absorbed, not waited on
  const auto st = fs_->fsstat();
  EXPECT_EQ(st.fsyncs_absorbed, 1u);
  char buf[32] = {};
  EXPECT_EQ(sfs_pread(fd, buf, sizeof buf, 0),
            static_cast<ssize_t>(sizeof data - 1));
  EXPECT_STREQ(buf, data);
  SfsStat sb{};
  ASSERT_EQ(sfs_fstat(fd, &sb), 0);
  EXPECT_EQ(sb.st_size, sizeof data - 1);
  EXPECT_EQ(sfs_close(fd), 0);
}

TEST_F(ShimTest, OSyncDescriptorOverridesDurabilityClass) {
  const int fd = sfs_open("/osync", O_CREAT | O_RDWR | O_SYNC, 0644);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(sfs_fset_durability(fd, SFS_DURABILITY_GROUP), 0);
  // O_SYNC maps to kOpenSync: this descriptor writes strictly even though
  // the file's class is group — nothing lands in the staging tier.
  EXPECT_EQ(sfs_write(fd, "durable", 7), 7);
  EXPECT_EQ(fs_->fsstat().staged_bytes, 0u);
  char buf[8] = {};
  EXPECT_EQ(sfs_pread(fd, buf, sizeof buf, 0), 7);
  EXPECT_STREQ(buf, "durable");
  EXPECT_EQ(sfs_close(fd), 0);
}

TEST_F(ShimTest, SetDurabilityErrnos) {
  EXPECT_EQ(sfs_set_durability("/nope", SFS_DURABILITY_GROUP), -1);
  EXPECT_EQ(last_errno(), ENOENT);
  ASSERT_GE(sfs_open("/plain", O_CREAT | O_WRONLY, 0644), 0);
  for (const int bad : {2, 42}) {  // 2: just past the last class
    EXPECT_EQ(sfs_set_durability("/plain", bad), -1);
    EXPECT_EQ(last_errno(), EINVAL);
  }
  EXPECT_EQ(sfs_fset_durability(999, SFS_DURABILITY_GROUP), -1);
  EXPECT_EQ(last_errno(), EBADF);
  ASSERT_EQ(sfs_mkdir("/adir", 0755), 0);
  EXPECT_EQ(sfs_set_durability("/adir", SFS_DURABILITY_GROUP), -1);
  EXPECT_EQ(last_errno(), EISDIR);
}

TEST_F(ShimTest, ErrnoIsThreadLocal) {
  EXPECT_EQ(sfs_open("/nope", O_RDONLY), -1);
  EXPECT_EQ(last_errno(), ENOENT);
  int other_errno = -1;
  std::thread([&] {
    // This thread has not failed anything yet.
    other_errno = last_errno();
  }).join();
  EXPECT_EQ(other_errno, 0);
  EXPECT_EQ(last_errno(), ENOENT);  // unchanged on this thread
}

}  // namespace
}  // namespace simurgh::shim
