// Namespace semantics: directories, rename, links, permissions.
#include <algorithm>

#include "fs_fixture.h"

namespace simurgh::testing {
namespace {

using core::kMayRead;
using core::kMayWrite;
using core::kOpenCreate;
using core::kOpenRead;
using core::kOpenWrite;

TEST_F(FsTest, MkdirAndNestedCreate) {
  ASSERT_TRUE(p().mkdir("/a").is_ok());
  ASSERT_TRUE(p().mkdir("/a/b").is_ok());
  ASSERT_TRUE(p().mkdir("/a/b/c").is_ok());
  ASSERT_TRUE(p().open("/a/b/c/file", kOpenCreate | kOpenWrite).is_ok());
  auto st = p().stat("/a/b/c/file");
  ASSERT_TRUE(st.is_ok());
  EXPECT_FALSE(st->is_dir());
  EXPECT_EQ(p().stat("/a/b")->mode & core::kModeTypeMask, core::kModeDir);
}

TEST_F(FsTest, MkdirExistingFails) {
  ASSERT_TRUE(p().mkdir("/dup").is_ok());
  EXPECT_EQ(p().mkdir("/dup").code(), Errc::exists);
}

TEST_F(FsTest, MkdirUnderMissingParentFails) {
  EXPECT_EQ(p().mkdir("/no/such/parent").code(), Errc::not_found);
}

TEST_F(FsTest, CreateUnderFileFails) {
  ASSERT_TRUE(p().open("/plain", kOpenCreate | kOpenWrite).is_ok());
  EXPECT_EQ(p().open("/plain/child", kOpenCreate | kOpenWrite).code(),
            Errc::not_dir);
}

TEST_F(FsTest, RmdirOnlyWhenEmpty) {
  ASSERT_TRUE(p().mkdir("/d").is_ok());
  ASSERT_TRUE(p().open("/d/f", kOpenCreate | kOpenWrite).is_ok());
  EXPECT_EQ(p().rmdir("/d").code(), Errc::not_empty);
  ASSERT_TRUE(p().unlink("/d/f").is_ok());
  EXPECT_TRUE(p().rmdir("/d").is_ok());
  EXPECT_EQ(p().stat("/d").code(), Errc::not_found);
}

TEST_F(FsTest, UnlinkDirectoryFails) {
  ASSERT_TRUE(p().mkdir("/dir").is_ok());
  EXPECT_EQ(p().unlink("/dir").code(), Errc::is_dir);
  EXPECT_EQ(p().rmdir("/missingdir").code(), Errc::not_found);
}

TEST_F(FsTest, ReaddirListsChildren) {
  ASSERT_TRUE(p().mkdir("/ls").is_ok());
  for (int i = 0; i < 25; ++i)
    ASSERT_TRUE(
        p().open("/ls/f" + std::to_string(i), kOpenCreate | kOpenWrite)
            .is_ok());
  auto entries = p().readdir("/ls");
  ASSERT_TRUE(entries.is_ok());
  EXPECT_EQ(entries->size(), 25u);
  auto has = [&](const std::string& n) {
    return std::any_of(entries->begin(), entries->end(),
                       [&](const core::DirEntry& e) { return e.name == n; });
  };
  EXPECT_TRUE(has("f0"));
  EXPECT_TRUE(has("f24"));
  EXPECT_FALSE(has("f25"));
}

TEST_F(FsTest, RenameWithinDirectory) {
  ASSERT_TRUE(p().open("/old", kOpenCreate | kOpenWrite).is_ok());
  const auto ino = p().stat("/old")->inode;
  ASSERT_TRUE(p().rename("/old", "/new").is_ok());
  EXPECT_EQ(p().stat("/old").code(), Errc::not_found);
  EXPECT_EQ(p().stat("/new")->inode, ino);
}

TEST_F(FsTest, RenameAcrossDirectories) {
  ASSERT_TRUE(p().mkdir("/src").is_ok());
  ASSERT_TRUE(p().mkdir("/dst").is_ok());
  ASSERT_TRUE(p().open("/src/file", kOpenCreate | kOpenWrite).is_ok());
  const auto ino = p().stat("/src/file")->inode;
  ASSERT_TRUE(p().rename("/src/file", "/dst/moved").is_ok());
  EXPECT_EQ(p().stat("/src/file").code(), Errc::not_found);
  EXPECT_EQ(p().stat("/dst/moved")->inode, ino);
  EXPECT_TRUE(p().readdir("/src")->empty());
}

TEST_F(FsTest, RenameReplacesExistingFile) {
  auto fd = p().open("/a1", kOpenCreate | kOpenWrite);
  ASSERT_TRUE(fd.is_ok());
  ASSERT_TRUE(p().write(*fd, "AAA", 3).is_ok());
  ASSERT_TRUE(p().open("/b1", kOpenCreate | kOpenWrite).is_ok());
  ASSERT_TRUE(p().rename("/a1", "/b1").is_ok());
  auto rfd = p().open("/b1", kOpenRead);
  ASSERT_TRUE(rfd.is_ok());
  char buf[4] = {};
  ASSERT_TRUE(p().read(*rfd, buf, 3).is_ok());
  EXPECT_EQ(std::string(buf, 3), "AAA");
  EXPECT_EQ(p().stat("/a1").code(), Errc::not_found);
}

TEST_F(FsTest, RenameDirOverNonEmptyDirFails) {
  ASSERT_TRUE(p().mkdir("/m1").is_ok());
  ASSERT_TRUE(p().mkdir("/m2").is_ok());
  ASSERT_TRUE(p().open("/m2/x", kOpenCreate | kOpenWrite).is_ok());
  EXPECT_EQ(p().rename("/m1", "/m2").code(), Errc::not_empty);
}

TEST_F(FsTest, RenameFileOverDirFails) {
  ASSERT_TRUE(p().open("/rf", kOpenCreate | kOpenWrite).is_ok());
  ASSERT_TRUE(p().mkdir("/rd").is_ok());
  EXPECT_EQ(p().rename("/rf", "/rd").code(), Errc::is_dir);
}

TEST_F(FsTest, HardLinkSharesInode) {
  auto fd = p().open("/orig", kOpenCreate | kOpenWrite);
  ASSERT_TRUE(fd.is_ok());
  ASSERT_TRUE(p().write(*fd, "shared", 6).is_ok());
  ASSERT_TRUE(p().link("/orig", "/alias").is_ok());
  EXPECT_EQ(p().stat("/alias")->inode, p().stat("/orig")->inode);
  EXPECT_EQ(p().stat("/orig")->nlink, 2u);
  // Deleting one name keeps the data alive.
  ASSERT_TRUE(p().unlink("/orig").is_ok());
  EXPECT_EQ(p().stat("/alias")->nlink, 1u);
  auto rfd = p().open("/alias", kOpenRead);
  char buf[6];
  ASSERT_TRUE(p().read(*rfd, buf, 6).is_ok());
  EXPECT_EQ(std::string(buf, 6), "shared");
}

TEST_F(FsTest, SymlinkResolutionAndReadlink) {
  auto fd = p().open("/target", kOpenCreate | kOpenWrite);
  ASSERT_TRUE(fd.is_ok());
  ASSERT_TRUE(p().write(*fd, "pointee", 7).is_ok());
  ASSERT_TRUE(p().symlink("/target", "/ln").is_ok());
  EXPECT_EQ(*p().readlink("/ln"), "/target");
  // stat follows, lstat does not.
  EXPECT_EQ(p().stat("/ln")->inode, p().stat("/target")->inode);
  EXPECT_TRUE(p().lstat("/ln")->is_symlink());
  auto rfd = p().open("/ln", kOpenRead);
  ASSERT_TRUE(rfd.is_ok());
  char buf[7];
  ASSERT_TRUE(p().read(*rfd, buf, 7).is_ok());
  EXPECT_EQ(std::string(buf, 7), "pointee");
}

TEST_F(FsTest, RelativeSymlinkWithinDirectory) {
  ASSERT_TRUE(p().mkdir("/dir1").is_ok());
  ASSERT_TRUE(p().open("/dir1/real", kOpenCreate | kOpenWrite).is_ok());
  ASSERT_TRUE(p().symlink("real", "/dir1/rel").is_ok());
  EXPECT_EQ(p().stat("/dir1/rel")->inode, p().stat("/dir1/real")->inode);
}

TEST_F(FsTest, SymlinkLoopDetected) {
  ASSERT_TRUE(p().symlink("/loop_b", "/loop_a").is_ok());
  ASSERT_TRUE(p().symlink("/loop_a", "/loop_b").is_ok());
  EXPECT_EQ(p().stat("/loop_a").code(), Errc::too_many_links);
}

TEST_F(FsTest, SymlinkSelfLoopTerminates) {
  // The tightest loop: a link naming itself.  The walk must fail with
  // too_many_links after kMaxSymlinkDepth restarts, never recurse forever,
  // and the link object itself must stay reachable via lstat.
  ASSERT_TRUE(p().symlink("/self", "/self").is_ok());
  EXPECT_EQ(p().stat("/self").code(), Errc::too_many_links);
  EXPECT_EQ(p().open("/self", kOpenRead).code(), Errc::too_many_links);
  auto st = p().lstat("/self");
  ASSERT_TRUE(st.is_ok());
  EXPECT_TRUE(st->is_symlink());
  EXPECT_EQ(*p().readlink("/self"), "/self");
  // A relative self-loop exercises the sub-walker restart path too.
  ASSERT_TRUE(p().mkdir("/sd").is_ok());
  ASSERT_TRUE(p().symlink("me", "/sd/me").is_ok());
  EXPECT_EQ(p().stat("/sd/me").code(), Errc::too_many_links);
}

TEST_F(FsTest, LongSymlinkTargetViaDataBlock) {
  const std::string long_target = "/" + std::string(500, 'x');
  ASSERT_TRUE(p().symlink(long_target, "/longln").is_ok());
  EXPECT_EQ(*p().readlink("/longln"), long_target);
}

// A short target lives in the union over the inode's extent array, so
// dropping a symlink must not read the target's bytes as extents.  Targets
// of 17-143 bytes put nonzero bytes where extents[0].n_blocks sits; 144
// bytes and more take a data block that extents[0] records.
TEST_F(FsTest, DroppingASymlinkFreesOnlyItsOwnStorage) {
  // Grow the metadata pools first: their segments never return to the
  // block allocator, so the first create would skew the free count.
  ASSERT_TRUE(p().symlink("warm", "/warm").is_ok());
  for (const std::size_t n : {16u, 17u, 143u, 144u}) {
    const std::uint64_t free_before = fs_->blocks().free_blocks();
    ASSERT_TRUE(p().symlink(std::string(n, 'a'), "/ln").is_ok()) << n;
    ASSERT_TRUE(p().unlink("/ln").is_ok()) << n;
    EXPECT_EQ(fs_->blocks().free_blocks(), free_before) << n;
    const core::CheckReport cr = core::check_fs(*fs_);
    EXPECT_TRUE(cr.ok()) << "target of " << n << " bytes: " << cr.summary();
  }
  // A rename over a symlink drops it through the same path.
  const std::uint64_t free_before = fs_->blocks().free_blocks();
  ASSERT_TRUE(p().symlink(std::string(40, 'a'), "/ln").is_ok());
  auto fd = p().open("/f", kOpenCreate | kOpenWrite);
  ASSERT_TRUE(fd.is_ok());
  ASSERT_TRUE(p().close(*fd).is_ok());
  ASSERT_TRUE(p().rename("/f", "/ln").is_ok());
  EXPECT_FALSE(p().lstat("/ln")->is_symlink());
  EXPECT_EQ(fs_->blocks().free_blocks(), free_before);
  const core::CheckReport cr = core::check_fs(*fs_);
  EXPECT_TRUE(cr.ok()) << "rename over a symlink: " << cr.summary();
}

TEST_F(FsTest, DotAndDotDotResolution) {
  ASSERT_TRUE(p().mkdir("/pp").is_ok());
  ASSERT_TRUE(p().mkdir("/pp/qq").is_ok());
  ASSERT_TRUE(p().open("/pp/file", kOpenCreate | kOpenWrite).is_ok());
  EXPECT_EQ(p().stat("/pp/qq/../file")->inode, p().stat("/pp/file")->inode);
  EXPECT_EQ(p().stat("/pp/./file")->inode, p().stat("/pp/file")->inode);
  EXPECT_EQ(p().stat("/..")->inode, p().stat("/")->inode);
}

TEST_F(FsTest, PermissionEnforcement) {
  ASSERT_TRUE(p().open("/secret", kOpenCreate | kOpenWrite, 0600).is_ok());
  auto other = fs_->open_process(2000, 2000);
  EXPECT_EQ(other->open("/secret", kOpenRead).code(), Errc::permission);
  EXPECT_EQ(other->access("/secret", kMayRead).code(), Errc::permission);
  // Owner can read; root can always read.
  EXPECT_TRUE(p().access("/secret", kMayRead).is_ok());
  auto root = fs_->open_process(0, 0);
  EXPECT_TRUE(root->open("/secret", kOpenRead).is_ok());
}

TEST_F(FsTest, DirectoryExecRequiredForTraversal) {
  ASSERT_TRUE(p().mkdir("/locked", 0700).is_ok());
  ASSERT_TRUE(p().open("/locked/f", kOpenCreate | kOpenWrite).is_ok());
  auto other = fs_->open_process(2000, 2000);
  EXPECT_EQ(other->stat("/locked/f").code(), Errc::permission);
}

TEST_F(FsTest, ChmodChangesBitsAndRequiresOwner) {
  ASSERT_TRUE(p().open("/cm", kOpenCreate | kOpenWrite, 0600).is_ok());
  auto other = fs_->open_process(2000, 2000);
  EXPECT_EQ(other->chmod("/cm", 0644).code(), Errc::permission);
  ASSERT_TRUE(p().chmod("/cm", 0644).is_ok());
  EXPECT_EQ(p().stat("/cm")->mode & 0xFFF, 0644u);
  EXPECT_TRUE(other->access("/cm", kMayRead).is_ok());
}

TEST_F(FsTest, ChownRootOnly) {
  ASSERT_TRUE(p().open("/co", kOpenCreate | kOpenWrite).is_ok());
  EXPECT_EQ(p().chown("/co", 1, 1).code(), Errc::permission);
  auto root = fs_->open_process(0, 0);
  ASSERT_TRUE(root->chown("/co", 1, 1).is_ok());
  EXPECT_EQ(p().stat("/co")->uid, 1u);
}

TEST_F(FsTest, UtimesSetsTimestamps) {
  ASSERT_TRUE(p().open("/ut", kOpenCreate | kOpenWrite).is_ok());
  ASSERT_TRUE(p().utimes("/ut", 111, 222).is_ok());
  auto st = p().stat("/ut");
  EXPECT_EQ(st->atime_ns, 111u);
  EXPECT_EQ(st->mtime_ns, 222u);
}

TEST_F(FsTest, NameTooLongRejected) {
  const std::string long_name = "/" + std::string(300, 'n');
  EXPECT_EQ(p().open(long_name, kOpenCreate | kOpenWrite).code(),
            Errc::invalid);
}

TEST_F(FsTest, ManyFilesInSharedDirectory) {
  // Exercises hash-line chaining at the POSIX level (the FxMark shared-dir
  // shape at small scale).
  ASSERT_TRUE(p().mkdir("/shared").is_ok());
  for (int i = 0; i < 2000; ++i)
    ASSERT_TRUE(p().open("/shared/f" + std::to_string(i),
                         kOpenCreate | kOpenWrite)
                    .is_ok())
        << i;
  EXPECT_EQ(p().readdir("/shared")->size(), 2000u);
  for (int i = 0; i < 2000; i += 101)
    EXPECT_TRUE(p().stat("/shared/f" + std::to_string(i)).is_ok());
  for (int i = 0; i < 2000; ++i)
    ASSERT_TRUE(p().unlink("/shared/f" + std::to_string(i)).is_ok()) << i;
  EXPECT_TRUE(p().readdir("/shared")->empty());
}

}  // namespace
}  // namespace simurgh::testing
