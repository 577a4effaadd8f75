// Metadata-service mode tests (DESIGN.md §13): the arbitrated trust
// boundary over the direct data path.  Two FileSystem instances share one
// nvmm+shm pair; the first to enable service mode owns the arbiter seat and
// the other becomes a ring client.  Covers the FsStat arbitration proof
// (zero unarbitrated mutations), ring wrap-around, full-ring backpressure,
// dead-client slot reaping, forged-capability refusal, and the acceptance
// scenario: the owner dies mid-rename, a client elects itself, the armed
// request rolls forward exactly once, and the remounted image passes fsck
// including the CRC pass.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <ctime>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/check.h"
#include "core/fs.h"
#include "core/svc_ring.h"

namespace simurgh::testing {
namespace {

using core::kOpenCreate;
using core::kOpenExcl;
using core::kOpenRead;
using core::kOpenWrite;
using core::MetaService;
using core::SvcOp;

std::uint64_t mono_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

class SvcRingTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kNvmmSize = 256ull << 20;
  static constexpr std::size_t kShmSize = 16ull << 20;

  void SetUp() override {
    nvmm_ = std::make_unique<nvmm::Device>(kNvmmSize);
    shm_ = std::make_unique<nvmm::Device>(kShmSize);
    fs_a_ = core::FileSystem::format(*nvmm_, *shm_);
    fs_b_ = core::FileSystem::mount(*nvmm_, *shm_);
    ASSERT_TRUE(fs_a_->enable_service_mode().is_ok());
    ASSERT_TRUE(fs_b_->enable_service_mode().is_ok());
    pa_ = fs_a_->open_process(1000, 1000);
    pb_ = fs_b_->open_process(1000, 1000);
    // First enabler owns the seat.
    ASSERT_TRUE(fs_a_->meta_service()->is_owner());
    ASSERT_FALSE(fs_b_->meta_service()->is_owner());
  }

  core::Process& a() { return *pa_; }
  core::Process& b() { return *pb_; }
  MetaService& ma() { return *fs_a_->meta_service(); }
  MetaService& mb() { return *fs_b_->meta_service(); }

  std::unique_ptr<nvmm::Device> nvmm_;
  std::unique_ptr<nvmm::Device> shm_;
  std::unique_ptr<core::FileSystem> fs_a_;
  std::unique_ptr<core::FileSystem> fs_b_;
  std::unique_ptr<core::Process> pa_;
  std::unique_ptr<core::Process> pb_;
};

// ---- the arbitration proof: every client mutation crosses the ring ----

TEST_F(SvcRingTest, ClientMutationsAreAllArbitrated) {
  ASSERT_TRUE(b().mkdir("/d").is_ok());
  const int fd = *b().open("/d/f", kOpenCreate | kOpenWrite);
  ASSERT_TRUE(b().close(fd).is_ok());
  ASSERT_TRUE(b().link("/d/f", "/d/g").is_ok());
  ASSERT_TRUE(b().symlink("f", "/d/s").is_ok());
  ASSERT_TRUE(b().chmod("/d/f", 0600).is_ok());
  ASSERT_TRUE(b().rename("/d/g", "/d/h").is_ok());
  ASSERT_TRUE(b().unlink("/d/h").is_ok());
  ASSERT_TRUE(b().unlink("/d/s").is_ok());

  const core::FsStat sb = fs_b_->fsstat();
  // The client mount never took the local fast path: requests only.
  EXPECT_EQ(sb.svc_local_fastpath, 0u);
  EXPECT_GE(sb.svc_requests, 8u);
  // The owner dispatched them all (and took no client detour itself).
  const core::FsStat sa = fs_a_->fsstat();
  EXPECT_GE(sa.svc_served, sb.svc_requests);
  EXPECT_EQ(sa.svc_requests, 0u);
  // Both mounts agree on the arbitrated namespace.
  EXPECT_TRUE(a().stat("/d/f").is_ok());
  EXPECT_FALSE(a().stat("/d/h").is_ok());
}

TEST_F(SvcRingTest, OwnerMutationsTakeTheLocalFastPath) {
  ASSERT_TRUE(a().mkdir("/own").is_ok());
  ASSERT_TRUE(a().rmdir("/own").is_ok());
  const core::FsStat sa = fs_a_->fsstat();
  EXPECT_EQ(sa.svc_requests, 0u);
  EXPECT_GE(sa.svc_local_fastpath, 2u);
}

// ---- data path stays direct ----

TEST_F(SvcRingTest, ReadsAndWritesBypassTheRing) {
  const int fd = *b().open("/data", kOpenCreate | kOpenRead | kOpenWrite);
  const core::FsStat before = fs_b_->fsstat();
  std::vector<char> buf(64 << 10, 'x');
  ASSERT_TRUE(b().pwrite(fd, buf.data(), buf.size(), 0).is_ok());
  std::vector<char> back(buf.size());
  ASSERT_TRUE(b().pread(fd, back.data(), back.size(), 0).is_ok());
  ASSERT_TRUE(b().close(fd).is_ok());
  EXPECT_EQ(buf, back);
  // The only ring traffic a write may generate is a reservation carve;
  // namespace requests did not move.
  const core::FsStat after = fs_b_->fsstat();
  EXPECT_LE(after.svc_requests - before.svc_requests, 2u);
  // The owner reads the client's bytes straight from NVMM.
  const int fa = *a().open("/data", kOpenRead);
  ASSERT_TRUE(a().pread(fa, back.data(), back.size(), 0).is_ok());
  EXPECT_EQ(buf, back);
}

TEST_F(SvcRingTest, CreateExclusiveSemanticsSurviveArbitration) {
  const auto first = b().open("/x", kOpenCreate | kOpenExcl | kOpenWrite);
  ASSERT_TRUE(first.is_ok());
  ASSERT_TRUE(b().close(*first).is_ok());
  const auto dup = b().open("/x", kOpenCreate | kOpenExcl | kOpenWrite);
  ASSERT_FALSE(dup.is_ok());
  EXPECT_EQ(dup.status().code(), Errc::exists);
  // Plain O_CREAT on an existing path degrades to open, cross-mount.
  const auto reopen = a().open("/x", kOpenCreate | kOpenRead);
  ASSERT_TRUE(reopen.is_ok());
}

TEST_F(SvcRingTest, ClientPermissionChecksRunAsTheRequester) {
  auto root = fs_a_->open_process(0, 0);
  ASSERT_TRUE(root->mkdir("/locked", 0700).is_ok());
  // The arbiter must evaluate the CLIENT's credentials, not its own.
  auto other = fs_b_->open_process(2000, 2000);
  EXPECT_EQ(other->mkdir("/locked/nope").code(), Errc::permission);
}

// ---- ring mechanics ----

TEST_F(SvcRingTest, TicketWrapsAroundTheSlotArray) {
  const unsigned n = mb().n_slots();
  const unsigned total = 3 * n + 5;
  const protsec::Credentials cred{1000, 1000};
  for (unsigned i = 0; i < total; ++i)
    ASSERT_TRUE(mb().request(SvcOp::kNoop, cred, {}, {}, 0, 0).is_ok()) << i;
  // Every claim advanced the shared ticket, so the round-robin start has
  // lapped the array at least three times.
  EXPECT_GE(mb().ring_header()->ticket.load(), total);
  EXPECT_GE(fs_a_->fsstat().svc_served, total);
}

TEST_F(SvcRingTest, FullRingBackpressureBlocksThenDrains) {
  const unsigned n = mb().n_slots();
  // Park every slot as a fresh claim by a phantom peer: not reapable (the
  // stamps are young) and not servable (never posted).
  for (unsigned i = 0; i < n; ++i) {
    core::SvcSlot* s = mb().slot(i);
    s->client_token.store(0xfeedu, std::memory_order_relaxed);
    s->client_stamp_ns.store(mono_ns(), std::memory_order_relaxed);
    s->phase.store(core::kSvcClaimed, std::memory_order_release);
  }
  std::atomic<bool> done{false};
  std::thread t([&] {
    const protsec::Credentials cred{1000, 1000};
    ASSERT_TRUE(mb().request(SvcOp::kNoop, cred, {}, {}, 0, 0).is_ok());
    done.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(done.load());  // all slots busy: the client is spinning
  // One slot frees; the spinner claims it and completes.
  mb().slot(0)->phase.store(core::kSvcFree, std::memory_order_release);
  t.join();
  EXPECT_TRUE(done.load());
  // Unwedge the remaining parked slots for teardown.
  for (unsigned i = 1; i < n; ++i)
    mb().slot(i)->phase.store(core::kSvcFree, std::memory_order_release);
}

TEST_F(SvcRingTest, DeadClientClaimsAreReaped) {
  const unsigned n = mb().n_slots();
  // Every slot was claimed by a peer that died: stamps far beyond the
  // lease.  A live client must reap one instead of spinning forever.
  for (unsigned i = 0; i < n; ++i) {
    core::SvcSlot* s = mb().slot(i);
    s->client_token.store(0xdeadu, std::memory_order_relaxed);
    s->client_stamp_ns.store(1, std::memory_order_relaxed);
    s->phase.store(core::kSvcClaimed, std::memory_order_release);
  }
  const protsec::Credentials cred{1000, 1000};
  EXPECT_TRUE(mb().request(SvcOp::kNoop, cred, {}, {}, 0, 0).is_ok());
  for (unsigned i = 0; i < n; ++i) {
    core::SvcSlot* s = mb().slot(i);
    std::uint32_t ph = core::kSvcClaimed;
    s->phase.compare_exchange_strong(ph, core::kSvcFree);
  }
}

TEST_F(SvcRingTest, DeadWaitersResponseSlotIsFreedNotParked) {
  // A posted request whose waiter died: the server publishes, sees the
  // expired client stamp, and frees the slot instead of parking it kDone.
  core::SvcSlot* s = mb().slot(0);
  ASSERT_EQ(s->phase.load(), core::kSvcFree);
  s->client_token.store(0xdeadu, std::memory_order_relaxed);
  s->client_stamp_ns.store(1, std::memory_order_relaxed);
  s->op = static_cast<std::uint32_t>(SvcOp::kNoop);
  s->p1_len = s->p2_len = 0;
  s->cap = 0;  // wrong for the phantom token — refused, but still published
  s->attempts.store(0, std::memory_order_relaxed);
  s->phase.store(core::kSvcPosted, std::memory_order_release);
  const auto deadline = mono_ns() + 2'000'000'000ull;
  while (s->phase.load(std::memory_order_acquire) != core::kSvcFree &&
         mono_ns() < deadline)
    std::this_thread::yield();
  EXPECT_EQ(s->phase.load(), core::kSvcFree);
}

TEST_F(SvcRingTest, ForgedCapabilityIsRefused) {
  mb().override_capability(0xbadc0ffee0ddf00dull);
  EXPECT_EQ(b().mkdir("/forged").code(), Errc::permission);
  EXPECT_FALSE(a().stat("/forged").is_ok());
}

TEST_F(SvcRingTest, PathBeyondSlotCapacityIsRejectedClientSide) {
  const std::string longname(core::kSvcMaxPath + 10, 'p');
  EXPECT_EQ(b().mkdir("/" + longname).code(), Errc::name_too_long);
}

// ---- owner death and failover ----

TEST_F(SvcRingTest, CleanOwnerShutdownHandsTheSeatOver) {
  pa_.reset();
  fs_a_->unmount();
  fs_a_.reset();
  // The resigned seat is empty; the client's next mutation elects itself.
  ASSERT_TRUE(b().mkdir("/after-resign").is_ok());
  EXPECT_TRUE(mb().is_owner());
  EXPECT_TRUE(b().stat("/after-resign").is_ok());
}

TEST_F(SvcRingTest, OwnerCrashMidRenameRollsForwardOnFailover) {
  // Short leases so election is prompt: owner lease = 2 x registry lease.
  fs_a_->set_lease_ns(5'000'000);
  fs_b_->set_lease_ns(5'000'000);
  ASSERT_TRUE(b().mkdir("/mv").is_ok());
  const int fd = *b().open("/mv/src", kOpenCreate | kOpenWrite);
  ASSERT_TRUE(b().pwrite(fd, "payload", 7, 0).is_ok());
  ASSERT_TRUE(b().close(fd).is_ok());

  // The owner's server thread dies mid-rename, after the shadow entry is
  // created and marked — the worst window: locks held, protocol torn.
  ma().arm_server_failpoint("dir.rename.marked");
  ASSERT_TRUE(b().rename("/mv/src", "/mv/dst").is_ok());
  EXPECT_TRUE(ma().server_crashed());
  // The waiting client elected itself and re-served its own armed slot.
  EXPECT_TRUE(mb().is_owner());
  EXPECT_GE(mb().failovers(), 1u);
  EXPECT_GE(fs_b_->fsstat().svc_failovers, 1u);

  // Exactly-once: the rename applied, the source is gone, bytes intact.
  EXPECT_FALSE(b().stat("/mv/src").is_ok());
  const int rd = *b().open("/mv/dst", kOpenRead);
  char buf[8] = {};
  ASSERT_TRUE(b().pread(rd, buf, 7, 0).is_ok());
  EXPECT_EQ(std::string(buf, 7), "payload");
  // The new owner keeps arbitrating: the old owner's mount is now a
  // client whose requests the new seat serves.
  ASSERT_TRUE(b().mkdir("/mv/after").is_ok());

  // A whole-system restart over the surviving image must recover and pass
  // fsck — including the CRC pass over /mv/dst's stamped blocks.
  pb_.reset();
  pa_.reset();
  fs_b_.reset();
  fs_a_.reset();
  shm_->wipe();
  auto fs = core::FileSystem::mount(*nvmm_, *shm_);
  const core::CheckReport cr = core::check_fs(*fs);
  EXPECT_TRUE(cr.ok()) << cr.summary();
  EXPECT_EQ(cr.crc_mismatches, 0u);
  auto p = fs->open_process(1000, 1000);
  EXPECT_EQ(p->stat("/mv/dst")->size, 7u);
}

TEST_F(SvcRingTest, ServiceCountersSurfaceInFsStat) {
  ASSERT_TRUE(b().mkdir("/stats").is_ok());
  const core::FsStat sa = fs_a_->fsstat();
  const core::FsStat sb = fs_b_->fsstat();
  EXPECT_GE(sa.svc_served, 1u);
  EXPECT_GE(sb.svc_requests, 1u);
  EXPECT_EQ(sa.svc_failovers, sb.svc_failovers);
}

// ---- durability-class arbitration ----

TEST_F(SvcRingTest, SetDurabilityIsArbitratedButAppliedLocally) {
  const int fd = *b().open("/wb", kOpenCreate | kOpenWrite);
  ASSERT_TRUE(b().close(fd).is_ok());
  const core::FsStat before = fs_b_->fsstat();
  ASSERT_TRUE(
      b().set_durability("/wb", core::Durability::group).is_ok());
  EXPECT_GT(fs_b_->fsstat().svc_requests, before.svc_requests);
  // And the fd form routes through the ring as well.
  const int fd2 = *b().open("/wb", kOpenWrite);
  ASSERT_TRUE(b().set_durability(fd2, core::Durability::strict).is_ok());
  ASSERT_TRUE(b().close(fd2).is_ok());
}

}  // namespace
}  // namespace simurgh::testing
