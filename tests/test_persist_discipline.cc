// Regression tests for the NVMM store discipline tools/pmlint enforces:
// plain stores into device-mapped memory must be flushed before any commit
// record that promises their durability.  An unflushed memset is invisible
// to the ShadowLog (exactly as it is lost in a real crash), so both tests
// audit what actually reached the flush log / the final durable image — if
// the code under test forgets the persist, the media keeps whatever bytes
// the block's previous owner left there.
//
// These pin the two real bugs the pmlint raw-device-store rule surfaced:
// the data path's fresh-block boundary zero-fill and the object pool's
// grow-time segment scrub were both plain memsets with no flush.  The
// rest pins the other side of the discipline: the namespace operations'
// fence budget, and that nothing relies on a free object's zero payload.
#include <gtest/gtest.h>

#include <cstring>
#include <iostream>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "alloc/obj_alloc.h"
#include "core/fs.h"
#include "fs_fixture.h"
#include "nvmm/shadow.h"

namespace simurgh::testing {
namespace {

// A partial-block write into a freshly allocated block zero-fills the bytes
// below EOF the copy does not cover; those zeros must be durable by the time
// the size stamp commits.  Blocks are recycled (unlink scrubs lazily,
// segments move between pools), so "the device started zeroed" is not an
// excuse: every block an allocation can hand out holds a dead owner's bytes
// here, and the durable image must serve zeros below the write.  Bytes past
// EOF are undefined (DESIGN.md §13.4) and are not zeroed.
TEST_F(FsTest, FreshBlockZeroFillIsDurable) {
  // Recycled-media model: free runs and the unused reservation remainders.
  auto dirty = [&](std::uint64_t off, std::uint64_t n) {
    std::memset(nvmm_->base() + off, 0xab, n * 4096);
  };
  fs_->blocks().for_each_free_range(dirty);
  fs_->blocks().for_each_reservation(dirty);
  nvmm::ShadowLog log(*nvmm_);
  log.start();
  auto fd = p().open("/fresh", core::kOpenCreate | core::kOpenWrite);
  ASSERT_TRUE(fd.is_ok());
  const char payload[] = "fresh";
  ASSERT_TRUE(p().pwrite(*fd, payload, sizeof payload - 1, 100).is_ok());
  log.stop();
  log.seal();

  nvmm::Device img(nvmm_->size());
  log.materialize(log.n_windows(), {}, img);
  nvmm::Device shm2(kShmSize);
  auto fs2 = core::FileSystem::mount(img, shm2);
  auto proc2 = fs2->open_process(1000, 1000);
  auto rfd = proc2->open("/fresh", core::kOpenRead);
  ASSERT_TRUE(rfd.is_ok());
  char buf[128] = {};
  auto r = proc2->pread(*rfd, buf, sizeof buf, 0);
  ASSERT_TRUE(r.is_ok());
  ASSERT_EQ(*r, 100 + sizeof payload - 1);
  for (int i = 0; i < 100; ++i)
    ASSERT_EQ(buf[i], 0) << "stale byte resurfaced at offset " << i;
  EXPECT_EQ(std::memcmp(buf + 100, payload, sizeof payload - 1), 0);
}

// A free's flushes are not fenced, so a crash can leave a free inode whose
// header line (00, zeroed) landed while lines 1-3 still hold the dead
// file's extents.  No consumer may rely on the zero payload: a create that
// recycles such an inode stores every field itself and inherits nothing.
TEST_F(FsTest, RecycledInodeInheritsNothingFromItsPreviousFile) {
  auto fd = p().open("/old", core::kOpenCreate | core::kOpenWrite);
  ASSERT_TRUE(fd.is_ok());
  const std::string data(6000, 'o');
  ASSERT_TRUE(p().write(*fd, data.data(), data.size()).is_ok());
  ASSERT_TRUE(p().close(*fd).is_ok());
  const std::uint64_t ino = p().stat("/old")->inode;
  std::byte* obj = fs_->dev().at(ino - sizeof(alloc::ObjectHeader));
  constexpr std::size_t kTail = 3 * nvmm::kCacheLine;  // object lines 1-3
  std::byte saved[kTail];
  std::memcpy(saved, obj + nvmm::kCacheLine, kTail);
  ASSERT_TRUE(p().unlink("/old").is_ok());
  // The torn free: put the dead file's lines back behind the 00 header.
  std::memcpy(obj + nvmm::kCacheLine, saved, kTail);

  auto nfd = p().open("/new", core::kOpenCreate | core::kOpenWrite);
  ASSERT_TRUE(nfd.is_ok());
  ASSERT_EQ(p().stat("/new")->inode, ino)
      << "LIFO reuse did not hand back the freed inode";
  EXPECT_EQ(p().stat("/new")->size, 0u);
  core::CheckReport cr = core::check_fs(*fs_);
  EXPECT_TRUE(cr.ok()) << "after the create: " << cr.summary();
  ASSERT_TRUE(p().write(*nfd, "n", 1).is_ok());
  ASSERT_TRUE(p().close(*nfd).is_ok());
  cr = core::check_fs(*fs_);
  EXPECT_TRUE(cr.ok()) << "after a one-byte write: " << cr.summary();
}

// ---- persist budget of the namespace operations ----
//
// Fences and flushed lines per operation on a direct mount, averaged over
// kBudgetOps operations.  A fence is paid only where recovery cannot
// reconstruct the state a crash leaves (DESIGN.md "Persist budget"): one
// before a publish, one after it, and one after a reachable entry turns 01
// and after its slot clears.  `max_fences` is the budget; `max_lines` is
// the measured line count, which no operation may exceed: a new entry
// flushes only through its name, and a deleted entry is zeroed once, by
// its object free.
struct OpBudget {
  const char* op;
  double max_fences;
  double max_lines;
};

constexpr int kBudgetOps = 64;

class PersistBudgetTest : public FsTest {
 protected:
  // Runs `op(i)` for i in [0, kBudgetOps) and checks the mean persist work.
  template <typename Fn>
  void expect_within(const OpBudget& b, Fn&& op) {
    auto& ps = nvmm::persist_stats();
    const std::uint64_t f0 = ps.fences.load();
    const std::uint64_t l0 = ps.flushed_lines.load();
    for (int i = 0; i < kBudgetOps; ++i) op(i);
    const double fences =
        static_cast<double>(ps.fences.load() - f0) / kBudgetOps;
    const double lines =
        static_cast<double>(ps.flushed_lines.load() - l0) / kBudgetOps;
    std::cout << "[persist-budget] " << b.op << ": " << fences
              << " fences (budget " << b.max_fences << "), " << lines
              << " lines (ceiling " << b.max_lines << ")\n";
    EXPECT_LE(fences, b.max_fences) << b.op;
    EXPECT_LE(lines, b.max_lines) << b.op;
  }

  void make_file(const std::string& path, std::size_t bytes) {
    auto fd = p().open(path, core::kOpenCreate | core::kOpenWrite);
    ASSERT_TRUE(fd.is_ok()) << path;
    if (bytes != 0) {
      const std::string data(bytes, 'b');
      ASSERT_TRUE(p().write(*fd, data.data(), data.size()).is_ok());
    }
    ASSERT_TRUE(p().close(*fd).is_ok());
  }

  static std::string name(const char* dir, const char* stem, int i) {
    return std::string(dir) + "/" + stem + std::to_string(i);
  }
};

TEST_F(PersistBudgetTest, NamespaceOpsStayWithinTheirFenceBudget) {
  for (const char* d : {"/c", "/u", "/r", "/x1", "/x2", "/o", "/y1", "/y2",
                        "/m", "/l", "/s"})
    ASSERT_TRUE(p().mkdir(d).is_ok());
  for (int i = 0; i < kBudgetOps; ++i) {
    make_file(name("/u", "f", i), 6000);
    make_file(name("/r", "a", i), 0);
    make_file(name("/x1", "a", i), 0);
    make_file(name("/o", "s", i), 0);
    make_file(name("/o", "t", i), 100);
    make_file(name("/y1", "s", i), 0);
    make_file(name("/y2", "t", i), 100);
  }
  make_file("/l/f", 0);

  expect_within({"create", 4, 10}, [&](int i) {
    auto fd = p().open(name("/c", "f", i), core::kOpenCreate |
                                              core::kOpenWrite);
    ASSERT_TRUE(fd.is_ok());
    ASSERT_TRUE(p().close(*fd).is_ok());
  });
  expect_within({"unlink (6,000-byte file)", 4, 18}, [&](int i) {
    ASSERT_TRUE(p().unlink(name("/u", "f", i)).is_ok());
  });
  expect_within({"rename, same directory", 5, 15}, [&](int i) {
    ASSERT_TRUE(p().rename(name("/r", "a", i), name("/r", "b", i)).is_ok());
  });
  expect_within({"rename, across directories", 5, 16}, [&](int i) {
    ASSERT_TRUE(
        p().rename(name("/x1", "a", i), name("/x2", "a", i)).is_ok());
  });
  expect_within({"rename over an existing name, same directory", 9, 32},
                [&](int i) {
                  ASSERT_TRUE(p().rename(name("/o", "s", i),
                                         name("/o", "t", i))
                                  .is_ok());
                });
  expect_within({"rename over an existing name, across directories", 9, 33},
                [&](int i) {
                  ASSERT_TRUE(p().rename(name("/y1", "s", i),
                                         name("/y2", "t", i))
                                  .is_ok());
                });
  expect_within({"mkdir", 4, 141.04}, [&](int i) {
    ASSERT_TRUE(p().mkdir(name("/m", "d", i)).is_ok());
  });
  expect_within({"rmdir", 4, 80}, [&](int i) {
    ASSERT_TRUE(p().rmdir(name("/m", "d", i)).is_ok());
  });
  expect_within({"link", 3, 5}, [&](int i) {
    ASSERT_TRUE(p().link("/l/f", name("/l", "h", i)).is_ok());
  });
  expect_within({"symlink (16-byte target)", 4, 10}, [&](int i) {
    ASSERT_TRUE(
        p().symlink("0123456789abcdef", name("/s", "l", i)).is_ok());
  });
  const core::CheckReport cr = core::check_fs(*fs_);
  EXPECT_TRUE(cr.ok()) << cr.summary();
}

// The write path's rows (DESIGN.md §14): a fresh block past EOF is mapped
// unfenced before the data fence, its partial edges past EOF stay unzeroed,
// and the size stamp commits — two fences; the allocator's bitmap update
// flushes and fences nothing.  A hole fill fences its bytes before mapping
// them, and its extent rides the commit fence.  An overwrite moves no size,
// so its mtime line rides its one data fence.
TEST_F(PersistBudgetTest, WritesStayWithinTheirFenceBudget) {
  ASSERT_TRUE(p().mkdir("/w").is_ok());
  std::vector<int> fds;
  for (int i = 0; i < kBudgetOps; ++i) {
    make_file(name("/w", "a", i), 4096);
    auto fd = p().open(name("/w", "a", i),
                       core::kOpenWrite | core::kOpenAppend);
    ASSERT_TRUE(fd.is_ok());
    fds.push_back(*fd);
  }
  const std::string kib(1024, 'k'), block(4096, 'n'), big(64 * 1024, 'g');
  expect_within({"4 KiB write into a new block", 2, 2}, [&](int i) {
    ASSERT_TRUE(p().write(fds[i], block.data(), block.size()).is_ok());
  });
  auto& ps = nvmm::persist_stats();
  const std::uint64_t nt0 = ps.nt_bytes.load();
  expect_within({"1 KiB append into a fresh block", 2, 2}, [&](int i) {
    ASSERT_TRUE(p().write(fds[i], kib.data(), kib.size()).is_ok());
  });
  EXPECT_EQ(ps.nt_bytes.load() - nt0, kBudgetOps * kib.size())
      << "the append streams its own 16 lines and nothing else";
  expect_within({"4 KiB overwrite", 1, 1}, [&](int i) {
    ASSERT_TRUE(p().pwrite(fds[i], block.data(), block.size(), 0).is_ok());
  });
  for (const int fd : fds) ASSERT_TRUE(p().ftruncate(fd, 6 * 4096).is_ok());
  expect_within({"4 KiB write into a hole below EOF", 2, 2},
                [&](int i) {
                  ASSERT_TRUE(p().pwrite(fds[i], block.data(), block.size(),
                                         4 * 4096)
                                  .is_ok());
                });
  for (const int fd : fds) ASSERT_TRUE(p().close(fd).is_ok());
  // Files of one extent, so the new one lands in the second inline slot.
  fds.clear();
  for (int i = 0; i < kBudgetOps; ++i) {
    make_file(name("/w", "b", i), 4096);
    auto fd = p().open(name("/w", "b", i),
                       core::kOpenWrite | core::kOpenAppend);
    ASSERT_TRUE(fd.is_ok());
    fds.push_back(*fd);
  }
  expect_within({"64 KiB append", 2, 2}, [&](int i) {
    ASSERT_TRUE(p().write(fds[i], big.data(), big.size()).is_ok());
  });
  for (const int fd : fds) ASSERT_TRUE(p().close(fd).is_ok());
  const core::CheckReport cr = core::check_fs(*fs_);
  EXPECT_TRUE(cr.ok()) << cr.summary();
}

// grow() scrubs a recycled block run into a pool segment; the zeroed
// object headers must be durable before the segment head publishes, or a
// crash image replays the previous owner's bytes as two-bit flags.
TEST(PersistDisciplinePool, GrowFlushesZeroedObjectHeaders) {
  nvmm::Device dev(16ull << 20);
  // Recycled-media model: the data area durably holds a dead owner's bytes.
  // Dirty it *before* format — the allocation bitmap lives at the start of
  // the area, so format must write it over the garbage — and before the
  // log snapshots, so the garbage IS the durable baseline.
  std::memset(dev.base() + 64 * 1024, 0xab, dev.size() - 64 * 1024);
  auto blocks = alloc::BlockAllocator::format(dev, 4096, 64 * 1024,
                                              dev.size() - 64 * 1024, 1);
  auto shared = std::make_unique<alloc::ShmAllocShared>();
  shared->reset();
  auto pool = alloc::ObjectAllocator::format(dev, blocks,
                                             shared->obj_stacks[0], 8192, 120,
                                             64);
  nvmm::ShadowLog log(dev);
  log.start();
  auto r = pool.alloc();  // first alloc grows a segment from dirty blocks
  log.stop();
  log.seal();
  ASSERT_TRUE(r.is_ok());

  nvmm::Device img(dev.size());
  log.materialize(log.n_windows(), {}, img);
  auto b2 = alloc::BlockAllocator::attach(img, 4096);
  auto p2 = alloc::ObjectAllocator::attach(img, b2, shared->obj_stacks[1],
                                           8192);
  unsigned bad = 0;
  p2.scan([&](std::uint64_t off, std::uint32_t flags) {
    if (off == *r)
      EXPECT_EQ(flags, alloc::kObjValid | alloc::kObjDirty);
    else if (flags != 0)
      ++bad;
  });
  EXPECT_EQ(bad, 0u) << "unflushed garbage flags in a published segment";
}

}  // namespace
}  // namespace simurgh::testing
