// True multi-process tests: real fork()ed processes sharing the NVMM and
// shared-DRAM regions through MAP_SHARED mappings, coordinating *only*
// through that shared memory — the paper's actual deployment model (§4:
// "file system operations are performed concurrently by independent
// processes communicating through shared memory").
//
// This is stronger than the thread-based concurrency tests: separate
// address spaces, separate C++ heaps (each child has its own volatile
// allocator caches — duplicate candidates must be resolved by the on-media
// CAS protocol), and genuinely killed processes (SIGKILL-style _exit with
// busy flags left set in shared memory).
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <memory>
#include <set>
#include <string>

#include "common/failpoint.h"
#include "core/fs.h"

namespace simurgh::testing {
namespace {

class MultiProcessTest : public ::testing::Test {
 protected:
  void SetUp() override {
    nvmm_ = std::make_unique<nvmm::Device>(256ull << 20,
                                           nvmm::Sharing::shared_mapping);
    shm_ = std::make_unique<nvmm::Device>(16ull << 20,
                                          nvmm::Sharing::shared_mapping);
    fs_ = core::FileSystem::format(*nvmm_, *shm_);
    fs_->set_lease_ns(5'000'000);  // 5 ms: dead children recover quickly
  }

  // Children must exit through ::_exit so they never return into gtest.
  static int wait_for(pid_t pid) {
    int status = 0;
    EXPECT_EQ(::waitpid(pid, &status, 0), pid);
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }

  std::unique_ptr<nvmm::Device> nvmm_;
  std::unique_ptr<nvmm::Device> shm_;
  std::unique_ptr<core::FileSystem> fs_;
};

constexpr int kChildren = 4;
constexpr int kFilesPerChild = 150;

TEST_F(MultiProcessTest, ForkedProcessesShareTheNamespace) {
  auto parent = fs_->open_process(1000, 1000);
  ASSERT_TRUE(parent->mkdir("/shared", 0777).is_ok());

  pid_t kids[kChildren];
  for (int c = 0; c < kChildren; ++c) {
    kids[c] = ::fork();
    ASSERT_GE(kids[c], 0);
    if (kids[c] == 0) {
      // ---- child process: its own address space & heap ----
      auto proc = fs_->open_process(2000 + static_cast<unsigned>(::getpid()),
                                    2000);
      const std::string base =
          "/shared/p" + std::to_string(::getpid()) + "_";
      for (int i = 0; i < kFilesPerChild; ++i) {
        auto fd = proc->open(base + std::to_string(i),
                             core::kOpenCreate | core::kOpenWrite);
        if (!fd.is_ok()) ::_exit(10);
        const std::string body = "from pid " + std::to_string(::getpid());
        if (!proc->write(*fd, body.data(), body.size()).is_ok()) ::_exit(11);
        if (!proc->close(*fd).is_ok()) ::_exit(12);
      }
      ::_exit(0);
    }
  }
  for (pid_t pid : kids) EXPECT_EQ(wait_for(pid), 0);

  // The parent (a different process) sees every child's files.
  auto listing = parent->readdir("/shared");
  ASSERT_TRUE(listing.is_ok());
  EXPECT_EQ(listing->size(),
            static_cast<std::size_t>(kChildren * kFilesPerChild));
  for (const auto& e : *listing) {
    auto st = parent->stat("/shared/" + e.name);
    ASSERT_TRUE(st.is_ok()) << e.name;
    EXPECT_GT(st->size, 0u);
  }
}

TEST_F(MultiProcessTest, ConcurrentCrossProcessChurnInOneDirectory) {
  auto parent = fs_->open_process(1000, 1000);
  ASSERT_TRUE(parent->mkdir("/churn").is_ok());
  pid_t kids[kChildren];
  for (int c = 0; c < kChildren; ++c) {
    kids[c] = ::fork();
    ASSERT_GE(kids[c], 0);
    if (kids[c] == 0) {
      auto proc = fs_->open_process(1000, 1000);
      const std::string mine = "/churn/w" + std::to_string(::getpid());
      for (int i = 0; i < 120; ++i) {
        const std::string name = mine + "_" + std::to_string(i % 9);
        if (!proc->open(name, core::kOpenCreate | core::kOpenWrite).is_ok())
          ::_exit(20);
        if (i % 3 == 2) {
          if (!proc->rename(name, name + "r").is_ok()) ::_exit(21);
          if (!proc->unlink(name + "r").is_ok()) ::_exit(22);
        } else if (!proc->unlink(name).is_ok()) {
          ::_exit(23);
        }
      }
      ::_exit(0);
    }
  }
  for (pid_t pid : kids) EXPECT_EQ(wait_for(pid), 0);
  EXPECT_TRUE(parent->readdir("/churn")->empty());
  // A full recovery over the survivor state finds nothing to fix.
  const auto report = fs_->recover();
  EXPECT_EQ(report.reclaimed_objects, 0u);
  EXPECT_EQ(report.committed_objects, 0u);
}

TEST_F(MultiProcessTest, KilledChildIsRecoveredByLeaseSteal) {
  auto parent = fs_->open_process(1000, 1000);
  ASSERT_TRUE(parent->open("/victim", core::kOpenCreate | core::kOpenWrite)
                  .is_ok());

  // The child dies *mid-unlink*, after invalidating the entry but before
  // clearing the slot, with the directory line's busy flag still set in
  // the genuinely shared region.
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    auto proc = fs_->open_process(1000, 1000);
    FailPoint::arm("dir.remove.entry_invalidated");
    try {
      (void)proc->unlink("/victim");
      ::_exit(30);  // fail point did not fire
    } catch (const CrashedException&) {
      ::_exit(0);  // die exactly like a killed process
    }
  }
  ASSERT_EQ(wait_for(pid), 0);

  // The parent trips over the abandoned line: it must steal the lease,
  // complete the child's unlink, and proceed.
  EXPECT_EQ(parent->stat("/victim").code(), Errc::not_found);
  EXPECT_TRUE(
      parent->open("/victim", core::kOpenCreate | core::kOpenWrite).is_ok());
}

TEST_F(MultiProcessTest, AllocatorSurvivesDuplicateVolatileCaches) {
  // Each child inherits a copy of the parent's volatile free-object cache;
  // the on-media CAS claim must still hand every object to exactly one
  // process.  Detect double-allocation as two files resolving to the same
  // inode offset.
  auto parent = fs_->open_process(1000, 1000);
  ASSERT_TRUE(parent->mkdir("/dup").is_ok());
  // Warm the parent's caches before forking.
  ASSERT_TRUE(parent->open("/dup/warm", core::kOpenCreate | core::kOpenWrite)
                  .is_ok());
  ASSERT_TRUE(parent->unlink("/dup/warm").is_ok());

  pid_t kids[kChildren];
  for (int c = 0; c < kChildren; ++c) {
    kids[c] = ::fork();
    ASSERT_GE(kids[c], 0);
    if (kids[c] == 0) {
      auto proc = fs_->open_process(1000, 1000);
      for (int i = 0; i < 200; ++i) {
        const std::string name = "/dup/p" + std::to_string(::getpid()) +
                                 "_" + std::to_string(i);
        if (!proc->open(name, core::kOpenCreate | core::kOpenWrite).is_ok())
          ::_exit(40);
      }
      ::_exit(0);
    }
  }
  for (pid_t pid : kids) EXPECT_EQ(wait_for(pid), 0);

  auto listing = parent->readdir("/dup");
  ASSERT_TRUE(listing.is_ok());
  std::set<std::uint64_t> inodes;
  for (const auto& e : *listing)
    EXPECT_TRUE(inodes.insert(e.inode).second)
        << "double-allocated inode behind " << e.name;
  EXPECT_EQ(inodes.size(), static_cast<std::size_t>(kChildren * 200));
}

TEST_F(MultiProcessTest, ParentSeesChildWritesImmediately) {
  auto parent = fs_->open_process(1000, 1000);
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    auto proc = fs_->open_process(1000, 1000);
    auto fd = proc->open("/note", core::kOpenCreate | core::kOpenWrite);
    if (!fd.is_ok()) ::_exit(50);
    if (!proc->write(*fd, "cross-process", 13).is_ok()) ::_exit(51);
    ::_exit(0);
  }
  ASSERT_EQ(wait_for(pid), 0);
  auto fd = parent->open("/note", core::kOpenRead);
  ASSERT_TRUE(fd.is_ok());
  char buf[16] = {};
  ASSERT_TRUE(parent->read(*fd, buf, sizeof buf).is_ok());
  EXPECT_STREQ(buf, "cross-process");
}

}  // namespace
}  // namespace simurgh::testing
