// Directory hash-block protocol tests (Figs. 4-5), below the POSIX layer.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>

#include "alloc/obj_alloc.h"
#include "core/dir_block.h"

namespace simurgh::core {
namespace {

class DirBlockTest : public ::testing::Test {
 protected:
  DirBlockTest()
      : dev_(128ull << 20),
        shared_(std::make_unique<alloc::ShmAllocShared>()),
        blocks_(alloc::BlockAllocator::format(dev_, 4096, 64 * 1024,
                                              dev_.size() - 64 * 1024, 8)),
        fentries_(alloc::ObjectAllocator::format(
            dev_, blocks_, shared_->obj_stacks[0], 8192, kFileEntryPayload,
            512)),
        dirblocks_(alloc::ObjectAllocator::format(
            dev_, blocks_, shared_->obj_stacks[1], 8448, kDirBlockPayload,
            16)),
        inodes_(alloc::ObjectAllocator::format(
            dev_, blocks_, shared_->obj_stacks[2], 8704, kInodePayload,
            512)),
        ops_(dev_, DirOps::Pools{&fentries_, &dirblocks_}) {
    shared_->reset();
    auto ino = inodes_.alloc();
    EXPECT_TRUE(ino.is_ok());
    dir_off_ = *ino;
    dir_ = reinterpret_cast<Inode*>(dev_.at(dir_off_));
    new (dir_) Inode();
    dir_->mode.store(kModeDir | 0755, std::memory_order_relaxed);
    auto db = ops_.create_dir_block();
    EXPECT_TRUE(db.is_ok());
    dir_->dir.store(nvmm::pptr<DirBlock>(*db));
    inodes_.commit(dir_off_);
  }

  // Makes a file entry (with a dummy inode pointer) ready for insert.
  std::uint64_t make_entry(const std::string& name,
                           std::uint64_t inode_off = 0x1000) {
    auto fe_off = fentries_.alloc();
    EXPECT_TRUE(fe_off.is_ok());
    auto* fe = reinterpret_cast<FileEntry*>(dev_.at(*fe_off));
    fe->set_name(name);
    fe->inode.store(nvmm::pptr<Inode>(inode_off));
    return *fe_off;
  }

  nvmm::Device dev_;
  // A heap copy of the shm allocator block: one free-object stack per pool.
  std::unique_ptr<alloc::ShmAllocShared> shared_;
  alloc::BlockAllocator blocks_;
  alloc::ObjectAllocator fentries_;
  alloc::ObjectAllocator dirblocks_;
  alloc::ObjectAllocator inodes_;
  DirOps ops_;
  std::uint64_t dir_off_ = 0;
  Inode* dir_ = nullptr;
};

TEST_F(DirBlockTest, InsertThenLookup) {
  const std::uint64_t fe = make_entry("hello.txt");
  ASSERT_TRUE(ops_.insert(*dir_, "hello.txt", fe).is_ok());
  fentries_.commit(fe);
  auto r = ops_.lookup(*dir_, "hello.txt");
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(*r, fe);
}

TEST_F(DirBlockTest, LookupMissReturnsNotFound) {
  EXPECT_EQ(ops_.lookup(*dir_, "nope").code(), Errc::not_found);
}

TEST_F(DirBlockTest, DuplicateInsertFails) {
  const std::uint64_t a = make_entry("dup");
  ASSERT_TRUE(ops_.insert(*dir_, "dup", a).is_ok());
  const std::uint64_t b = make_entry("dup");
  EXPECT_EQ(ops_.insert(*dir_, "dup", b).code(), Errc::exists);
}

TEST_F(DirBlockTest, RemoveReturnsInodeAndFreesEntry) {
  const std::uint64_t fe = make_entry("gone", 0xabcd);
  ASSERT_TRUE(ops_.insert(*dir_, "gone", fe).is_ok());
  fentries_.commit(fe);
  auto r = ops_.remove(*dir_, "gone");
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(*r, 0xabcdu);
  EXPECT_EQ(ops_.lookup(*dir_, "gone").code(), Errc::not_found);
  EXPECT_EQ(fentries_.flags_of(fe), 0u);  // fully freed
}

TEST_F(DirBlockTest, RemoveMissingFails) {
  EXPECT_EQ(ops_.remove(*dir_, "missing").code(), Errc::not_found);
}

TEST_F(DirBlockTest, ChainExtendsWhenLineFills) {
  // All names hash to... different lines in general; to force one line to
  // fill we just insert enough entries that some line must overflow
  // (48 lines x 8 slots = 384 per block).
  for (int i = 0; i < 1000; ++i) {
    const std::string name = "file_" + std::to_string(i);
    const std::uint64_t fe = make_entry(name);
    ASSERT_TRUE(ops_.insert(*dir_, name, fe).is_ok()) << name;
    fentries_.commit(fe);
  }
  // The chain must have grown.
  int chain_len = 0;
  nvmm::pptr<DirBlock> b = dir_->dir.load();
  while (b) {
    ++chain_len;
    b = b.in(dev_)->next.load();
  }
  EXPECT_GT(chain_len, 1);
  for (int i = 0; i < 1000; ++i)
    EXPECT_TRUE(ops_.lookup(*dir_, "file_" + std::to_string(i)).is_ok()) << i;
}

TEST_F(DirBlockTest, ListEnumeratesAll) {
  std::set<std::string> names;
  for (int i = 0; i < 100; ++i) {
    const std::string name = "n" + std::to_string(i);
    const std::uint64_t fe = make_entry(name);
    ASSERT_TRUE(ops_.insert(*dir_, name, fe).is_ok());
    fentries_.commit(fe);
    names.insert(name);
  }
  std::set<std::string> listed;
  EXPECT_EQ(ops_.list_at(*dir_, 0, SIZE_MAX,
                         [&](std::string_view n, std::uint64_t, std::uint64_t) {
                           listed.insert(std::string(n));
                         }),
            kReaddirEnd);
  EXPECT_EQ(listed, names);
}

TEST_F(DirBlockTest, EmptyReflectsContents) {
  EXPECT_TRUE(ops_.empty(*dir_));
  const std::uint64_t fe = make_entry("x");
  ASSERT_TRUE(ops_.insert(*dir_, "x", fe).is_ok());
  fentries_.commit(fe);
  EXPECT_FALSE(ops_.empty(*dir_));
  ASSERT_TRUE(ops_.remove(*dir_, "x").is_ok());
  EXPECT_TRUE(ops_.empty(*dir_));
}

TEST_F(DirBlockTest, RenameLocalMovesEntry) {
  const std::uint64_t fe = make_entry("old", 0x4242);
  ASSERT_TRUE(ops_.insert(*dir_, "old", fe).is_ok());
  fentries_.commit(fe);
  auto replaced = ops_.rename_local(*dir_, "old", "new");
  ASSERT_TRUE(replaced.is_ok());
  EXPECT_EQ(*replaced, 0u);
  EXPECT_EQ(ops_.lookup(*dir_, "old").code(), Errc::not_found);
  auto r = ops_.lookup(*dir_, "new");
  ASSERT_TRUE(r.is_ok());
  const auto* new_fe = reinterpret_cast<const FileEntry*>(dev_.at(*r));
  EXPECT_EQ(new_fe->inode.load().raw(), 0x4242u);
  EXPECT_EQ(new_fe->name_view(), "new");
}

TEST_F(DirBlockTest, RenameLocalReplacesTarget) {
  const std::uint64_t a = make_entry("src", 0x1111);
  const std::uint64_t b = make_entry("dst", 0x2222);
  ASSERT_TRUE(ops_.insert(*dir_, "src", a).is_ok());
  ASSERT_TRUE(ops_.insert(*dir_, "dst", b).is_ok());
  fentries_.commit(a);
  fentries_.commit(b);
  auto replaced = ops_.rename_local(*dir_, "src", "dst");
  ASSERT_TRUE(replaced.is_ok());
  EXPECT_EQ(*replaced, 0x2222u);  // displaced inode reported
  auto r = ops_.lookup(*dir_, "dst");
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(reinterpret_cast<const FileEntry*>(dev_.at(*r))->inode.load().raw(),
            0x1111u);
  EXPECT_EQ(ops_.lookup(*dir_, "src").code(), Errc::not_found);
}

TEST_F(DirBlockTest, RenameMissingSourceFails) {
  EXPECT_EQ(ops_.rename_local(*dir_, "ghost", "y").code(), Errc::not_found);
}

class CrossDirTest : public DirBlockTest {
 protected:
  CrossDirTest() {
    auto ino = inodes_.alloc();
    EXPECT_TRUE(ino.is_ok());
    dir2_off_ = *ino;
    dir2_ = reinterpret_cast<Inode*>(dev_.at(dir2_off_));
    new (dir2_) Inode();
    dir2_->mode.store(kModeDir | 0755, std::memory_order_relaxed);
    auto db = ops_.create_dir_block();
    EXPECT_TRUE(db.is_ok());
    dir2_->dir.store(nvmm::pptr<DirBlock>(*db));
    inodes_.commit(dir2_off_);
  }
  std::uint64_t dir2_off_ = 0;
  Inode* dir2_ = nullptr;
};

TEST_F(CrossDirTest, MovesEntryBetweenDirectories) {
  const std::uint64_t fe = make_entry("wander", 0x7777);
  ASSERT_TRUE(ops_.insert(*dir_, "wander", fe).is_ok());
  fentries_.commit(fe);
  auto replaced = ops_.rename_cross(*dir_, "wander", *dir2_, "arrived");
  ASSERT_TRUE(replaced.is_ok());
  EXPECT_EQ(*replaced, 0u);
  EXPECT_EQ(ops_.lookup(*dir_, "wander").code(), Errc::not_found);
  auto r = ops_.lookup(*dir2_, "arrived");
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(reinterpret_cast<const FileEntry*>(dev_.at(*r))->inode.load().raw(),
            0x7777u);
  // Log must be idle again.
  EXPECT_EQ(dir_->dir.load().in(dev_)->log.state.load(), 0u);
}

TEST_F(CrossDirTest, ReplacesTargetInDestination) {
  const std::uint64_t a = make_entry("src", 0xaaaa);
  ASSERT_TRUE(ops_.insert(*dir_, "src", a).is_ok());
  fentries_.commit(a);
  const std::uint64_t b = make_entry("dst", 0xbbbb);
  ASSERT_TRUE(ops_.insert(*dir2_, "dst", b).is_ok());
  fentries_.commit(b);
  auto replaced = ops_.rename_cross(*dir_, "src", *dir2_, "dst");
  ASSERT_TRUE(replaced.is_ok());
  EXPECT_EQ(*replaced, 0xbbbbu);
  auto r = ops_.lookup(*dir2_, "dst");
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(reinterpret_cast<const FileEntry*>(dev_.at(*r))->inode.load().raw(),
            0xaaaau);
}

TEST_F(DirBlockTest, RecoverDirectoryIsIdempotentOnHealthyDir) {
  for (int i = 0; i < 50; ++i) {
    const std::string name = "f" + std::to_string(i);
    const std::uint64_t fe = make_entry(name);
    ASSERT_TRUE(ops_.insert(*dir_, name, fe).is_ok());
    fentries_.commit(fe);
  }
  ops_.recover_directory(*dir_);
  ops_.recover_directory(*dir_);
  for (int i = 0; i < 50; ++i)
    EXPECT_TRUE(ops_.lookup(*dir_, "f" + std::to_string(i)).is_ok());
}

}  // namespace
}  // namespace simurgh::core
