// Giant-directory scalability suites (FxMark-style: MWCM / MWUM / MRDM over
// ONE shared directory) plus protocol tests for the bucketed hash-block
// fan-out: split preservation, split crash prefixes (failpoints and
// shadow-log image exploration), streaming readdir cursors under churn,
// per-bucket epoch selectivity, and the empty() early-exit probe counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "core/check.h"
#include "core/dir_block.h"
#include "crash_harness.h"
#include "fs_fixture.h"

namespace simurgh::testing {
namespace {

using core::DirEntry;
using core::kOpenCreate;
using core::kOpenWrite;

constexpr unsigned kThreads = 4;

std::string nm(unsigned t, unsigned i) {
  return "t" + std::to_string(t) + "_" + std::to_string(i);
}

class DirScaleTest : public FsTest {
 protected:
  void SetUp() override {
    FsTest::SetUp();
    // Aggressive fan-out so modest suites exercise the split machinery:
    // any chain longer than one block fans into 16 buckets.
    fs_->dirops().set_split_params(1, 4);
    fsck_on_teardown_ = true;
  }

  void create_file(const std::string& path) {
    auto fd = p().open(path, kOpenCreate | kOpenWrite);
    ASSERT_TRUE(fd.is_ok()) << path;
    ASSERT_TRUE(p().close(*fd).is_ok());
  }

  std::set<std::string> readdir_set(const std::string& path) {
    auto r = p().readdir(path);
    EXPECT_TRUE(r.is_ok());
    std::set<std::string> out;
    for (const DirEntry& e : *r) out.insert(e.name);
    return out;
  }

  // Streams the whole directory through the cursor API with a small cap,
  // counting occurrences per name.
  std::map<std::string, unsigned> stream_counts(const std::string& path,
                                                std::size_t cap) {
    std::map<std::string, unsigned> seen;
    std::uint64_t cursor = 0;
    while (cursor != core::kReaddirEnd) {
      std::vector<DirEntry> batch;
      auto r = p().readdir_at(path, cursor, batch, cap);
      EXPECT_TRUE(r.is_ok());
      if (!r.is_ok()) break;
      EXPECT_LE(batch.size(), cap);
      for (const DirEntry& e : batch) ++seen[e.name];
      cursor = *r;
    }
    return seen;
  }

  core::Inode* dir_inode(const std::string& path) {
    auto st = p().stat(path);
    EXPECT_TRUE(st.is_ok());
    return fs_->inode_at(st->inode);
  }
};

// ---- fan-out protocol ----

TEST_F(DirScaleTest, SplitPreservesEntriesAndRoutesLookups) {
  ASSERT_TRUE(p().mkdir("/d").is_ok());
  std::set<std::string> expect;
  for (unsigned i = 0; i < 600; ++i) {
    create_file("/d/" + nm(0, i));
    expect.insert(nm(0, i));
  }
  core::Inode* d = dir_inode("/d");
  EXPECT_GT(fs_->dirops().dir_depth(*d), 0u) << "600 entries must fan out";
  EXPECT_GE(fs_->fsstat().dir_splits, 1u);
  // Every entry survives the migration and routes through its bucket.
  for (unsigned i = 0; i < 600; ++i)
    EXPECT_TRUE(p().stat("/d/" + nm(0, i)).is_ok()) << nm(0, i);
  EXPECT_EQ(readdir_set("/d"), expect);
  // Cold (cache-disabled) lookups go straight to the hash blocks.
  fs_->set_lookup_cache_enabled(false);
  for (unsigned i = 0; i < 600; i += 37)
    EXPECT_TRUE(p().stat("/d/" + nm(0, i)).is_ok()) << nm(0, i);
  fs_->set_lookup_cache_enabled(true);
  // The settled split survives a crash-remount unchanged.
  remount_after_crash();
  core::Inode* d2 = dir_inode("/d");
  EXPECT_GT(fs_->dirops().dir_depth(*d2), 0u);
  EXPECT_EQ(readdir_set("/d"), expect);
}

TEST_F(DirScaleTest, SplitIsIdempotentAndKeepsWorking) {
  ASSERT_TRUE(p().mkdir("/d").is_ok());
  for (unsigned i = 0; i < 500; ++i) create_file("/d/" + nm(0, i));
  core::Inode* d = dir_inode("/d");
  ASSERT_GT(fs_->dirops().dir_depth(*d), 0u);
  // A second explicit split is a no-op, not a re-fan-out.
  EXPECT_TRUE(fs_->dirops().split_directory(*d).is_ok());
  EXPECT_EQ(fs_->fsstat().dir_splits, 1u);
  // Inserts and removes keep working against the bucket heads.
  create_file("/d/after_split");
  EXPECT_TRUE(p().stat("/d/after_split").is_ok());
  EXPECT_TRUE(p().unlink("/d/" + nm(0, 123)).is_ok());
  EXPECT_EQ(p().stat("/d/" + nm(0, 123)).code(), Errc::not_found);
}

// ---- FxMark-style contended-metadata suites ----

// MWCM: N writers create disjoint names in one shared directory.
TEST_F(DirScaleTest, MWCMConcurrentCreatesOneSharedDir) {
  constexpr unsigned kPerThread = 2500;  // 10^4 total
  ASSERT_TRUE(p().mkdir("/shared").is_ok());
  std::vector<std::unique_ptr<core::Process>> procs;
  for (unsigned t = 0; t < kThreads; ++t)
    procs.push_back(fs_->open_process(1000, 1000));
  std::atomic<unsigned> failures{0};
  std::vector<std::thread> ths;
  for (unsigned t = 0; t < kThreads; ++t) {
    ths.emplace_back([&, t] {
      for (unsigned i = 0; i < kPerThread; ++i) {
        auto fd = procs[t]->open("/shared/" + nm(t, i),
                                 kOpenCreate | kOpenWrite);
        if (!fd.is_ok() || !procs[t]->close(*fd).is_ok())
          failures.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& th : ths) th.join();
  EXPECT_EQ(failures.load(), 0u);
  // Linearizable end state: exactly the created set, each exactly once.
  std::set<std::string> expect;
  for (unsigned t = 0; t < kThreads; ++t)
    for (unsigned i = 0; i < kPerThread; ++i) expect.insert(nm(t, i));
  EXPECT_EQ(readdir_set("/shared"), expect);
  core::Inode* d = dir_inode("/shared");
  EXPECT_GT(fs_->dirops().dir_depth(*d), 0u);
  for (unsigned t = 0; t < kThreads; ++t) {
    auto st = p().stat("/shared/" + nm(t, kPerThread / 2));
    ASSERT_TRUE(st.is_ok());
    EXPECT_EQ(st->nlink, 1u);
  }
}

// MWUM: N writers unlink disjoint halves of one shared directory.
TEST_F(DirScaleTest, MWUMConcurrentUnlinksOneSharedDir) {
  constexpr unsigned kPerThread = 2500;
  const std::uint64_t inodes_before = fs_->fsstat().live_inodes;
  const std::uint64_t free_before = fs_->fsstat().free_blocks;
  ASSERT_TRUE(p().mkdir("/shared").is_ok());
  for (unsigned t = 0; t < kThreads; ++t)
    for (unsigned i = 0; i < kPerThread; ++i)
      create_file("/shared/" + nm(t, i));
  std::vector<std::unique_ptr<core::Process>> procs;
  for (unsigned t = 0; t < kThreads; ++t)
    procs.push_back(fs_->open_process(1000, 1000));
  std::atomic<unsigned> failures{0};
  std::vector<std::thread> ths;
  for (unsigned t = 0; t < kThreads; ++t) {
    ths.emplace_back([&, t] {
      for (unsigned i = 0; i < kPerThread; ++i)
        if (!procs[t]->unlink("/shared/" + nm(t, i)).is_ok())
          failures.fetch_add(1, std::memory_order_relaxed);
    });
  }
  for (auto& th : ths) th.join();
  EXPECT_EQ(failures.load(), 0u);
  EXPECT_TRUE(readdir_set("/shared").empty());
  EXPECT_TRUE(p().rmdir("/shared").is_ok());
  // Free-object accounting returns to the pre-suite baseline (pool
  // segments grown for the burst stay carved out, so free *blocks* may
  // shrink, never grow).  The teardown fsck pins exact block coverage.
  EXPECT_EQ(fs_->fsstat().live_inodes, inodes_before);
  EXPECT_LE(fs_->fsstat().free_blocks, free_before);
}

// MWRM: N writers rename their own entries within the shared directory.
TEST_F(DirScaleTest, MWRMConcurrentRenamesOneSharedDir) {
  constexpr unsigned kPerThread = 1000;
  ASSERT_TRUE(p().mkdir("/shared").is_ok());
  for (unsigned t = 0; t < kThreads; ++t)
    for (unsigned i = 0; i < kPerThread; ++i)
      create_file("/shared/" + nm(t, i));
  std::vector<std::unique_ptr<core::Process>> procs;
  for (unsigned t = 0; t < kThreads; ++t)
    procs.push_back(fs_->open_process(1000, 1000));
  std::atomic<unsigned> failures{0};
  std::vector<std::thread> ths;
  for (unsigned t = 0; t < kThreads; ++t) {
    ths.emplace_back([&, t] {
      for (unsigned i = 0; i < kPerThread; ++i) {
        const std::string to =
            "/shared/r" + std::to_string(t) + "_" + std::to_string(i);
        if (!procs[t]->rename("/shared/" + nm(t, i), to).is_ok())
          failures.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& th : ths) th.join();
  EXPECT_EQ(failures.load(), 0u);
  std::set<std::string> expect;
  for (unsigned t = 0; t < kThreads; ++t)
    for (unsigned i = 0; i < kPerThread; ++i)
      expect.insert("r" + std::to_string(t) + "_" + std::to_string(i));
  EXPECT_EQ(readdir_set("/shared"), expect);
  for (unsigned t = 0; t < kThreads; ++t) {
    auto st = p().stat("/shared/r" + std::to_string(t) + "_0");
    ASSERT_TRUE(st.is_ok());
    EXPECT_EQ(st->nlink, 1u);
  }
}

// MRDM: readers stat a stable population while writers churn the same
// directory.  Every read of a stable entry must succeed throughout.
TEST_F(DirScaleTest, MRDMStatsUnderChurnOneSharedDir) {
  constexpr unsigned kStable = 1000;
  ASSERT_TRUE(p().mkdir("/shared").is_ok());
  for (unsigned i = 0; i < kStable; ++i) create_file("/shared/" + nm(9, i));
  std::atomic<bool> stop{false};
  std::atomic<unsigned> failures{0};
  std::vector<std::unique_ptr<core::Process>> procs;
  for (unsigned t = 0; t < kThreads; ++t)
    procs.push_back(fs_->open_process(1000, 1000));
  std::vector<std::thread> ths;
  for (unsigned t = 0; t < 2; ++t) {  // writers: create+unlink churn
    ths.emplace_back([&, t] {
      for (unsigned i = 0; i < 1500; ++i) {
        const std::string path = "/shared/" + nm(t, i);
        auto fd = procs[t]->open(path, kOpenCreate | kOpenWrite);
        if (!fd.is_ok() || !procs[t]->close(*fd).is_ok() ||
            !procs[t]->unlink(path).is_ok())
          failures.fetch_add(1, std::memory_order_relaxed);
      }
      stop.store(true, std::memory_order_release);
    });
  }
  for (unsigned t = 2; t < 4; ++t) {  // readers
    ths.emplace_back([&, t] {
      unsigned i = t;
      while (!stop.load(std::memory_order_acquire)) {
        if (!procs[t]->stat("/shared/" + nm(9, i % kStable)).is_ok())
          failures.fetch_add(1, std::memory_order_relaxed);
        i += 7;
      }
    });
  }
  for (auto& th : ths) th.join();
  EXPECT_EQ(failures.load(), 0u);
  std::set<std::string> expect;
  for (unsigned i = 0; i < kStable; ++i) expect.insert(nm(9, i));
  EXPECT_EQ(readdir_set("/shared"), expect);
}

// ---- the 10^6-entry suite ----

class GiantDirTest : public FsTest {
 protected:
  static constexpr std::size_t kNvmmGiant = 1ull << 30;  // 1 GB
  void SetUp() override {
    nvmm_ = std::make_unique<nvmm::Device>(kNvmmGiant);
    shm_ = std::make_unique<nvmm::Device>(32ull << 20);
    fs_ = core::FileSystem::format(*nvmm_, *shm_);
    proc_ = fs_->open_process(1000, 1000);
    fsck_on_teardown_ = true;
  }
};

TEST_F(GiantDirTest, MillionEntriesOneSharedDir) {
  // 10^6 hard links to one inode in one directory, built by N concurrent
  // writers.  link() drives the same insert path as create but shares the
  // inode, so the end-state check is a single exact counter: nlink must
  // equal the surviving entry count (+1 for the seed name).
  constexpr unsigned kPerThread = 250'000;  // kThreads * this = 10^6
  ASSERT_TRUE(p().mkdir("/big").is_ok());
  {
    auto fd = p().open("/big/seed", kOpenCreate | kOpenWrite);
    ASSERT_TRUE(fd.is_ok());
    ASSERT_TRUE(p().close(*fd).is_ok());
  }
  std::vector<std::unique_ptr<core::Process>> procs;
  for (unsigned t = 0; t < kThreads; ++t)
    procs.push_back(fs_->open_process(1000, 1000));
  std::atomic<unsigned> failures{0};
  std::vector<std::thread> ths;
  for (unsigned t = 0; t < kThreads; ++t) {
    ths.emplace_back([&, t] {
      for (unsigned i = 0; i < kPerThread; ++i)
        if (!procs[t]->link("/big/seed", "/big/" + nm(t, i)).is_ok())
          failures.fetch_add(1, std::memory_order_relaxed);
    });
  }
  for (auto& th : ths) th.join();
  ASSERT_EQ(failures.load(), 0u);

  auto st = p().stat("/big/seed");
  ASSERT_TRUE(st.is_ok());
  EXPECT_EQ(st->nlink, kThreads * kPerThread + 1);

  core::Inode* d = fs_->inode_at(p().stat("/big")->inode);
  const std::uint64_t depth = fs_->dirops().dir_depth(*d);
  EXPECT_GT(depth, 0u);
  const std::uint64_t n_entries = kThreads * kPerThread + 1;
  // Fan-out moves entries, it does not add storage: total hash blocks stay
  // within a small constant of the densely-packed minimum.  The per-chain
  // scan-depth win (~2^depth-fold) is what BENCH_dirscale.json measures.
  const std::uint64_t total_blocks = fs_->dirops().chain_length(*d);
  EXPECT_LT(total_blocks, 2 * (n_entries / (8 * 48)) + (1u << depth) + 16)
      << "fan-out must not blow up hash-block storage";

  // Streaming readdir covers all 10^6 entries exactly once (no churn).
  std::uint64_t count = 0;
  std::uint64_t cursor = 0;
  while (cursor != core::kReaddirEnd) {
    std::vector<DirEntry> batch;
    auto r = p().readdir_at("/big", cursor, batch, 4096);
    ASSERT_TRUE(r.is_ok());
    count += batch.size();
    cursor = *r;
  }
  EXPECT_EQ(count, n_entries);

  // Unlink one writer's quarter and re-check the exact counter.
  for (unsigned i = 0; i < kPerThread; ++i)
    ASSERT_TRUE(p().unlink("/big/" + nm(0, i)).is_ok()) << i;
  st = p().stat("/big/seed");
  ASSERT_TRUE(st.is_ok());
  EXPECT_EQ(st->nlink, (kThreads - 1) * kPerThread + 1);
  for (unsigned t = 1; t < kThreads; ++t)
    EXPECT_TRUE(p().stat("/big/" + nm(t, 31337)).is_ok());
  EXPECT_EQ(p().stat("/big/" + nm(0, 31337)).code(), Errc::not_found);
}

// ---- streaming readdir cursors ----

TEST_F(DirScaleTest, ReaddirCursorStreamsExactlyOnceWhenQuiescent) {
  ASSERT_TRUE(p().mkdir("/d").is_ok());
  std::set<std::string> expect;
  for (unsigned i = 0; i < 500; ++i) {
    create_file("/d/" + nm(0, i));
    expect.insert(nm(0, i));
  }
  ASSERT_GT(fs_->dirops().dir_depth(*dir_inode("/d")), 0u);
  for (const std::size_t cap : {1u, 7u, 64u, 4096u}) {
    const std::map<std::string, unsigned> seen = stream_counts("/d", cap);
    EXPECT_EQ(seen.size(), expect.size()) << "cap=" << cap;
    for (const auto& [name, n] : seen) {
      EXPECT_EQ(n, 1u) << name << " cap=" << cap;
      EXPECT_TRUE(expect.count(name)) << name;
    }
  }
  // A cursor minted by one process resumes in another (it names a stable
  // position, not private state).
  std::vector<DirEntry> first_half;
  auto mid = p().readdir_at("/d", 0, first_half, 250);
  ASSERT_TRUE(mid.is_ok());
  auto other = fs_->open_process(1000, 1000);
  std::vector<DirEntry> second_half;
  std::uint64_t cursor = *mid;
  while (cursor != core::kReaddirEnd) {
    std::vector<DirEntry> batch;
    auto r = other->readdir_at("/d", cursor, batch, 100);
    ASSERT_TRUE(r.is_ok());
    for (auto& e : batch) second_half.push_back(std::move(e));
    cursor = *r;
  }
  EXPECT_EQ(first_half.size() + second_half.size(), expect.size());
  // Garbage cursors terminate instead of walking out of bounds.
  std::vector<DirEntry> none;
  auto bad = p().readdir_at("/d", (0xffull << 8) | 0xff, none, 10);
  ASSERT_TRUE(bad.is_ok());
  EXPECT_EQ(*bad, core::kReaddirEnd);
}

TEST_F(DirScaleTest, ReaddirUnderChurnStableEntriesExactlyOnce) {
  // Documented guarantee: an entry alive for the whole scan appears
  // exactly once as long as nothing moves its slot (no rename of it, no
  // concurrent split) — creates and unlinks of OTHER names never disturb
  // it.  The directory is split up front so the scan races only churn.
  constexpr unsigned kStable = 800;
  ASSERT_TRUE(p().mkdir("/d").is_ok());
  for (unsigned i = 0; i < kStable; ++i) create_file("/d/" + nm(9, i));
  ASSERT_GT(fs_->dirops().dir_depth(*dir_inode("/d")), 0u);
  std::atomic<bool> stop{false};
  std::atomic<unsigned> churn_failures{0};
  auto churn_proc = fs_->open_process(1000, 1000);
  std::thread churn([&] {
    unsigned i = 0;
    while (!stop.load(std::memory_order_acquire)) {
      const std::string path = "/d/churn_" + std::to_string(i++ % 97);
      auto fd = churn_proc->open(path, kOpenCreate | kOpenWrite);
      if (!fd.is_ok() || !churn_proc->close(*fd).is_ok() ||
          !churn_proc->unlink(path).is_ok())
        churn_failures.fetch_add(1, std::memory_order_relaxed);
    }
  });
  for (unsigned scan = 0; scan < 8; ++scan) {
    const std::map<std::string, unsigned> seen = stream_counts("/d", 16);
    unsigned stable_seen = 0;
    for (const auto& [name, n] : seen) {
      if (name.rfind("t9_", 0) != 0) continue;  // churn names may flicker
      ++stable_seen;
      EXPECT_EQ(n, 1u) << name << " scan=" << scan;
    }
    EXPECT_EQ(stable_seen, kStable) << "scan=" << scan;
  }
  stop.store(true, std::memory_order_release);
  churn.join();
  EXPECT_EQ(churn_failures.load(), 0u);
}

TEST_F(DirScaleTest, ListAtSeesEntriesASplitMovesMidScan) {
  // A split publishes the bucket depth before it clears the anchor slots
  // it moved, so a scan that read the depth before the anchor chain (and
  // saw 0) would never visit the buckets: one call must re-read it after
  // the anchor chain.  The split fires from inside the scan's callback.
  fs_->dirops().set_split_params(1000, 2);  // no auto-split
  ASSERT_TRUE(p().mkdir("/d").is_ok());
  std::set<std::string> expect;
  for (unsigned i = 0; i < 300; ++i) {
    create_file("/d/" + nm(0, i));
    expect.insert(nm(0, i));
  }
  core::Inode* d = dir_inode("/d");
  ASSERT_EQ(fs_->dirops().dir_depth(*d), 0u);
  std::set<std::string> seen;
  bool split = false;
  const std::uint64_t end = fs_->dirops().list_at(
      *d, 0, SIZE_MAX,
      [&](std::string_view name, std::uint64_t, std::uint64_t) {
        seen.insert(std::string(name));
        if (split) return;
        split = true;
        EXPECT_TRUE(fs_->dirops().split_directory(*d).is_ok());
      });
  EXPECT_EQ(end, core::kReaddirEnd);
  EXPECT_GT(fs_->dirops().dir_depth(*d), 0u);
  EXPECT_EQ(seen, expect);  // every name at least once
}

// ---- per-bucket epochs ----

TEST_F(DirScaleTest, PerBucketEpochInvalidatesOnlyMutatedBucket) {
  ASSERT_TRUE(p().mkdir("/d").is_ok());
  for (unsigned i = 0; i < 500; ++i) create_file("/d/" + nm(0, i));
  core::Inode* d = dir_inode("/d");
  const std::uint64_t depth = fs_->dirops().dir_depth(*d);
  ASSERT_GT(depth, 0u);

  // Two resident names in different buckets.
  const std::string na = nm(0, 1);
  std::string nb;
  for (unsigned i = 2; i < 500; ++i)
    if (core::bucket_of(nm(0, i), depth) != core::bucket_of(na, depth)) {
      nb = nm(0, i);
      break;
    }
  ASSERT_FALSE(nb.empty());
  // A fresh name that lands in na's bucket.
  std::string hit;
  for (unsigned i = 0;; ++i) {
    const std::string c = "probe_" + std::to_string(i);
    if (core::bucket_of(c, depth) == core::bucket_of(na, depth)) {
      hit = c;
      break;
    }
  }

  const std::uint64_t ea = fs_->dirops().name_epoch(*d, na).epoch;
  const std::uint64_t eb = fs_->dirops().name_epoch(*d, nb).epoch;
  const core::FsStat before = fs_->fsstat();
  create_file("/d/" + hit);
  const core::FsStat after = fs_->fsstat();
  // The mutation bumped only its bucket's epoch: na's stream moved, nb's
  // did not — so every cached walk through nb's bucket stays valid.
  EXPECT_NE(fs_->dirops().name_epoch(*d, na).epoch, ea);
  EXPECT_EQ(fs_->dirops().name_epoch(*d, nb).epoch, eb);
  EXPECT_GT(after.dir_epoch_bumps_scoped, before.dir_epoch_bumps_scoped);
  EXPECT_EQ(after.dir_epoch_bumps_full, before.dir_epoch_bumps_full);

  // Cache view of the same fact: a warm walk to nb still hits after the
  // mutation; a warm walk to na must re-verify (conflict, then refill).
  ASSERT_TRUE(p().stat("/d/" + na).is_ok());
  ASSERT_TRUE(p().stat("/d/" + nb).is_ok());  // warm both
  ASSERT_TRUE(p().stat("/d/" + na).is_ok());
  ASSERT_TRUE(p().stat("/d/" + nb).is_ok());
  std::string hit2;
  for (unsigned i = 10'000;; ++i) {
    const std::string c = "probe_" + std::to_string(i);
    if (core::bucket_of(c, depth) == core::bucket_of(na, depth)) {
      hit2 = c;
      break;
    }
  }
  create_file("/d/" + hit2);
  const core::FsStat s0 = fs_->fsstat();
  ASSERT_TRUE(p().stat("/d/" + nb).is_ok());
  const core::FsStat s1 = fs_->fsstat();
  EXPECT_GT(s1.lookup_hits, s0.lookup_hits)
      << "unmutated bucket must keep serving cached walks";
  ASSERT_TRUE(p().stat("/d/" + na).is_ok());
  const core::FsStat s2 = fs_->fsstat();
  EXPECT_GT(s2.lookup_conflicts, s1.lookup_conflicts)
      << "mutated bucket must stop validating";
}

// ---- empty() early exit ----

TEST_F(DirScaleTest, EmptyProbeCountsPinnedByFsStat) {
  // Unsplit long chain: a populated directory answers "not empty" after
  // probing exactly one block; only the final (empty) sweep pays the
  // whole chain.
  fs_->dirops().set_split_params(1000, 0);  // pin the single-chain layout
  ASSERT_TRUE(p().mkdir("/d").is_ok());
  for (unsigned i = 0; i < 1000; ++i) create_file("/d/" + nm(0, i));
  core::Inode* d = dir_inode("/d");
  const std::uint64_t chain = fs_->dirops().chain_length(*d);
  ASSERT_GT(chain, 1u);
  std::uint64_t probes0 = fs_->fsstat().dir_block_probes;
  EXPECT_EQ(p().rmdir("/d").code(), Errc::not_empty);
  EXPECT_EQ(fs_->fsstat().dir_block_probes - probes0, 1u)
      << "empty() must stop at the first live slot";
  for (unsigned i = 0; i < 1000; ++i)
    ASSERT_TRUE(p().unlink("/d/" + nm(0, i)).is_ok());
  probes0 = fs_->fsstat().dir_block_probes;
  EXPECT_TRUE(p().rmdir("/d").is_ok());
  EXPECT_EQ(fs_->fsstat().dir_block_probes - probes0, chain)
      << "a truly empty directory pays exactly one probe per chain block";
}

// ---- split crash coverage (failpoints) ----

class DirScaleCrashTest : public DirScaleTest,
                          public ::testing::WithParamInterface<const char*> {
 protected:
  void SetUp() override {
    DirScaleTest::SetUp();
    fs_->set_lease_ns(2'000'000);  // 2 ms: survivors steal quickly
    // No auto-split: the test fires split_directory() itself.
    fs_->dirops().set_split_params(1000, 2);
  }
  void TearDown() override {
    FailPoint::disarm();
    DirScaleTest::TearDown();
  }
};

TEST_P(DirScaleCrashTest, SplitCrashPrefixLosesNoEntryAndFscksClean) {
  constexpr unsigned kEntries = 300;
  ASSERT_TRUE(p().mkdir("/d").is_ok());
  for (unsigned i = 0; i < kEntries; ++i) create_file("/d/" + nm(0, i));
  core::Inode* d = dir_inode("/d");
  ASSERT_EQ(fs_->dirops().dir_depth(*d), 0u);

  FailPoint::arm(GetParam());
  bool crashed = false;
  try {
    (void)fs_->dirops().split_directory(*d);
  } catch (const CrashedException&) {
    crashed = true;
  }
  FailPoint::disarm();
  if (std::string_view(GetParam()) == "dir.split.done")
    EXPECT_TRUE(crashed);  // fires after the split settled
  else
    ASSERT_TRUE(crashed) << GetParam();

  // Survivors lease-steal the dead splitter's line locks and finish (or
  // roll back) its split on contact; every entry stays reachable.
  auto survivor = fs_->open_process(1000, 1000);
  for (unsigned i = 0; i < kEntries; ++i)
    EXPECT_TRUE(survivor->stat("/d/" + nm(0, i)).is_ok())
        << GetParam() << " lost " << nm(0, i);
  // Mutations through the survivor keep working on the crashed image.
  auto fd = survivor->open("/d/fresh", kOpenCreate | kOpenWrite);
  ASSERT_TRUE(fd.is_ok()) << GetParam();
  ASSERT_TRUE(survivor->close(*fd).is_ok());
  EXPECT_TRUE(survivor->unlink("/d/" + nm(0, 7)).is_ok()) << GetParam();

  // A full crash-remount must recover to a clean image with the same
  // entries (TearDown fscks once more on top).
  remount_after_crash();
  const core::CheckReport cr = core::check_fs(*fs_);
  EXPECT_TRUE(cr.ok()) << GetParam() << ": " << cr.summary();
  for (unsigned i = 0; i < kEntries; ++i) {
    if (i == 7) continue;
    EXPECT_TRUE(p().stat("/d/" + nm(0, i)).is_ok())
        << GetParam() << " lost " << nm(0, i) << " across remount";
  }
  EXPECT_TRUE(p().stat("/d/fresh").is_ok());
  EXPECT_EQ(p().stat("/d/" + nm(0, 7)).code(), Errc::not_found);
}

INSTANTIATE_TEST_SUITE_P(SplitSteps, DirScaleCrashTest,
                         ::testing::Values("dir.split.prepared",
                                           "dir.split.heads_published",
                                           "dir.split.armed",
                                           "dir.split.depth_published",
                                           "dir.split.slot_copied",
                                           "dir.split.slot_migrated",
                                           "dir.split.done"));

TEST_F(DirScaleCrashTest, CrashMidMigrationThenAutoSplitRollsForward) {
  // A second splitter (here: the survivor's explicit call) finds the armed
  // marker with depth published and completes the predecessor's migration
  // instead of starting a new fan-out.
  ASSERT_TRUE(p().mkdir("/d").is_ok());
  for (unsigned i = 0; i < 200; ++i) create_file("/d/" + nm(0, i));
  core::Inode* d = dir_inode("/d");
  FailPoint::arm("dir.split.slot_copied", /*skip=*/25);
  EXPECT_THROW((void)fs_->dirops().split_directory(*d), CrashedException);
  FailPoint::disarm();
  EXPECT_GT(fs_->dirops().dir_depth(*d), 0u);
  EXPECT_TRUE(fs_->dirops().split_directory(*d).is_ok());
  for (unsigned i = 0; i < 200; ++i)
    EXPECT_TRUE(p().stat("/d/" + nm(0, i)).is_ok()) << nm(0, i);
}

TEST_F(DirScaleCrashTest, MutatorRollsForwardDeadSplitWithoutRemount) {
  // After a splitter dies mid-migration, an ordinary mutator — not a
  // remount — must settle the split: maybe_split sees the armed marker
  // with an expired anchor lease and rolls the migration forward.
  ASSERT_TRUE(p().mkdir("/d").is_ok());
  for (unsigned i = 0; i < 200; ++i) create_file("/d/" + nm(0, i));
  core::Inode* d = dir_inode("/d");
  FailPoint::arm("dir.split.slot_copied", /*skip=*/25);
  EXPECT_THROW((void)fs_->dirops().split_directory(*d), CrashedException);
  FailPoint::disarm();
  ASSERT_GT(fs_->dirops().dir_depth(*d), 0u);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));  // > lease
  auto survivor = fs_->open_process(1000, 1000);
  auto fd = survivor->open("/d/poke", kOpenCreate | kOpenWrite);
  ASSERT_TRUE(fd.is_ok());
  ASSERT_TRUE(survivor->close(*fd).is_ok());
  // The split settled in place: the checker no longer sees the armed
  // marker (it refuses split_state != 0), and every entry survived.
  const core::CheckReport cr = core::check_fs(*fs_);
  EXPECT_TRUE(cr.ok()) << cr.summary();
  for (unsigned i = 0; i < 200; ++i)
    EXPECT_TRUE(survivor->stat("/d/" + nm(0, i)).is_ok()) << nm(0, i);
  EXPECT_TRUE(survivor->stat("/d/poke").is_ok());
}

TEST_F(DirScaleTest, EnospcMidMigrationKeepsEntriesReachable) {
  // A migration that cannot extend a bucket chain (device full) must NOT
  // settle the split: before the fix, split_directory cleared the armed
  // marker over a partial drain, and the entries left in the legacy chain
  // vanished from lookup (find_slot only probes legacy while armed).
  nvmm::Device tiny(80ull << 20);
  nvmm::Device shm(4ull << 20);
  auto fs = core::FileSystem::format(tiny, shm);
  fs->dirops().set_split_params(1000, 2);  // the test fires the split
  auto proc = fs->open_process(1000, 1000);
  ASSERT_TRUE(proc->mkdir("/d").is_ok());
  // Names colliding on one (line, bucket) pair: draining them needs ~150
  // fresh chain blocks on that one bucket line — far more than the ~63
  // objects of slack one dirblock pool segment can hold, so a full device
  // guarantees the drain stalls rather than squeaking by on slack.
  std::vector<std::string> names;
  for (unsigned i = 0; names.size() < 1200; ++i) {
    std::string c = "c" + std::to_string(i);
    if (core::line_of(c) == 0 && core::bucket_of(c, 2) == 0)
      names.push_back(std::move(c));
  }
  for (const auto& c : names) {
    auto fd = proc->open("/d/" + c, kOpenCreate | kOpenWrite);
    ASSERT_TRUE(fd.is_ok()) << c;
    ASSERT_TRUE(proc->close(*fd).is_ok());
  }
  // Sacrificial directories: removed after the device fills, they hand a
  // few free dirblock objects back so the split can still allocate its 4
  // bucket heads (and then starve mid-drain).
  for (unsigned i = 0; i < 8; ++i)
    ASSERT_TRUE(proc->mkdir("/s" + std::to_string(i)).is_ok());
  // Exhaust the device — down to sub-4KB free, so the dirblock pool
  // cannot grow even one segment mid-drain.
  auto fill = proc->open("/fill", kOpenCreate | kOpenWrite);
  ASSERT_TRUE(fill.is_ok());
  std::vector<char> chunk(1 << 20, 'f');
  std::uint64_t off = 0;
  while (proc->pwrite(*fill, chunk.data(), chunk.size(), off).is_ok()) {
    off += chunk.size();
    ASSERT_LT(off, 1ull << 30);
  }
  while (proc->pwrite(*fill, chunk.data(), 4096, off).is_ok()) {
    off += 4096;
    ASSERT_LT(off, 1ull << 30);
  }
  for (unsigned i = 0; i < 8; ++i)
    ASSERT_TRUE(proc->rmdir("/s" + std::to_string(i)).is_ok());
  auto st = proc->stat("/d");
  ASSERT_TRUE(st.is_ok());
  core::Inode* d = fs->inode_at(st->inode);
  const Status split = fs->dirops().split_directory(*d);
  ASSERT_EQ(split.code(), Errc::no_space);
  EXPECT_GT(fs->dirops().dir_depth(*d), 0u)
      << "depth published: the split must have stalled mid-drain, not "
         "rolled back before it";
  // The armed marker stays up, so every undrained legacy entry is still
  // reachable — this is exactly what the unconditional settle broke.
  for (const auto& c : names) EXPECT_TRUE(proc->stat("/d/" + c).is_ok()) << c;
  auto rd = proc->readdir("/d");
  ASSERT_TRUE(rd.is_ok());
  EXPECT_EQ(rd->size(), names.size());
  // Free the space; the next pass drains for real and settles.
  ASSERT_TRUE(proc->ftruncate(*fill, 0).is_ok());
  EXPECT_TRUE(fs->dirops().split_directory(*d).is_ok());
  EXPECT_GT(fs->dirops().dir_depth(*d), 0u);
  for (const auto& c : names) EXPECT_TRUE(proc->stat("/d/" + c).is_ok()) << c;
  const core::CheckReport cr = core::check_fs(*fs);
  EXPECT_TRUE(cr.ok()) << cr.summary();
}

// ---- split crash coverage (shadow-log image exploration) ----

TEST_F(DirScaleTest, SplitImageExplorationSmall) {
  // Exhaustive fence-boundary crash images of a small fan-out: the split
  // changes no namespace state, so EVERY prefix must recover to the same
  // entry set with a clean fsck.  (The larger exploration lives in
  // test_crash_images.cc under the crash label.)
  CrashHarness h;
  h.fs().dirops().set_split_params(1000, 2);
  h.setup([](core::Process& p) {
    ASSERT_TRUE(p.mkdir("/d").is_ok());
    for (unsigned i = 0; i < 12; ++i) {
      auto fd = p.open("/d/f" + std::to_string(i), kOpenCreate | kOpenWrite);
      ASSERT_TRUE(fd.is_ok());
      ASSERT_TRUE(p.close(*fd).is_ok());
    }
  });
  h.run_op([&h](core::Process& p) {
    auto st = p.stat("/d");
    ASSERT_TRUE(st.is_ok());
    ASSERT_TRUE(h.fs()
                    .dirops()
                    .split_directory(*h.fs().inode_at(st->inode))
                    .is_ok());
  });
  h.explore("bucket split of /d (12 entries, 4 buckets)");
  EXPECT_GT(h.stats().images, 0u);
  // pre == post (a split moves no namespace state), so the oracle already
  // proved every image recovered to exactly the original entry set.
  EXPECT_TRUE(h.pre() == h.post()) << snapshot_diff(h.pre(), h.post());
}

}  // namespace
}  // namespace simurgh::testing
