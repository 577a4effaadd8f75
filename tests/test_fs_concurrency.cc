// Real-thread concurrency: the decentralized protocols under genuine races.
// (The benchmark harness models scalability in virtual time; these tests
// prove the actual lock-free/busy-wait implementations are correct.)
#include <array>
#include <atomic>
#include <barrier>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "fs_fixture.h"

namespace simurgh::testing {
namespace {

using core::kOpenCreate;
using core::kOpenExcl;
using core::kOpenRead;
using core::kOpenWrite;

constexpr int kThreads = 8;

TEST_F(FsTest, ConcurrentCreatesInSharedDirectory) {
  ASSERT_TRUE(p().mkdir("/shared").is_ok());
  std::vector<std::unique_ptr<core::Process>> procs;
  for (int t = 0; t < kThreads; ++t) procs.push_back(fs_->open_process(1000, 1000));
  std::barrier sync(kThreads);
  std::vector<std::thread> ts;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&, t] {
      sync.arrive_and_wait();
      for (int i = 0; i < 100; ++i) {
        auto fd = procs[t]->open(
            "/shared/t" + std::to_string(t) + "_" + std::to_string(i),
            kOpenCreate | kOpenWrite);
        if (!fd.is_ok()) ++failures;
      }
    });
  }
  for (auto& th : ts) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(p().readdir("/shared")->size(),
            static_cast<std::size_t>(kThreads * 100));
}

TEST_F(FsTest, ConcurrentExclusiveCreateOfSameName) {
  // Exactly one winner per name under O_EXCL races.
  ASSERT_TRUE(p().mkdir("/race").is_ok());
  for (int round = 0; round < 20; ++round) {
    std::vector<std::unique_ptr<core::Process>> procs;
    for (int t = 0; t < kThreads; ++t)
      procs.push_back(fs_->open_process(1000, 1000));
    std::barrier sync(kThreads);
    std::atomic<int> winners{0};
    std::vector<std::thread> ts;
    const std::string name = "/race/contested" + std::to_string(round);
    for (int t = 0; t < kThreads; ++t) {
      ts.emplace_back([&, t] {
        sync.arrive_and_wait();
        auto fd =
            procs[t]->open(name, kOpenCreate | kOpenExcl | kOpenWrite);
        if (fd.is_ok()) ++winners;
      });
    }
    for (auto& th : ts) th.join();
    EXPECT_EQ(winners.load(), 1) << name;
  }
}

TEST_F(FsTest, ConcurrentCreateAndDeleteInterleaved) {
  ASSERT_TRUE(p().mkdir("/churn").is_ok());
  std::vector<std::unique_ptr<core::Process>> procs;
  for (int t = 0; t < kThreads; ++t) procs.push_back(fs_->open_process(1000, 1000));
  std::barrier sync(kThreads);
  std::vector<std::thread> ts;
  std::atomic<int> errors{0};
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&, t] {
      sync.arrive_and_wait();
      const std::string base = "/churn/w" + std::to_string(t) + "_";
      for (int i = 0; i < 60; ++i) {
        const std::string name = base + std::to_string(i);
        if (!procs[t]->open(name, kOpenCreate | kOpenWrite).is_ok())
          ++errors;
        if (!procs[t]->unlink(name).is_ok()) ++errors;
      }
    });
  }
  for (auto& th : ts) th.join();
  EXPECT_EQ(errors.load(), 0);
  EXPECT_TRUE(p().readdir("/churn")->empty());
}

TEST_F(FsTest, ConcurrentRenamesInSharedDirectory) {
  ASSERT_TRUE(p().mkdir("/rn").is_ok());
  for (int t = 0; t < kThreads; ++t)
    ASSERT_TRUE(
        p().open("/rn/file" + std::to_string(t), kOpenCreate | kOpenWrite)
            .is_ok());
  std::vector<std::unique_ptr<core::Process>> procs;
  for (int t = 0; t < kThreads; ++t) procs.push_back(fs_->open_process(1000, 1000));
  std::barrier sync(kThreads);
  std::vector<std::thread> ts;
  std::atomic<int> errors{0};
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&, t] {
      sync.arrive_and_wait();
      std::string cur = "/rn/file" + std::to_string(t);
      for (int i = 0; i < 50; ++i) {
        const std::string next =
            "/rn/f" + std::to_string(t) + "_" + std::to_string(i);
        if (!procs[t]->rename(cur, next).is_ok()) ++errors;
        cur = next;
      }
    });
  }
  for (auto& th : ts) th.join();
  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(p().readdir("/rn")->size(), static_cast<std::size_t>(kThreads));
  for (int t = 0; t < kThreads; ++t)
    EXPECT_TRUE(
        p().stat("/rn/f" + std::to_string(t) + "_49").is_ok());
}

TEST_F(FsTest, ConcurrentCrossDirectoryMoves) {
  ASSERT_TRUE(p().mkdir("/boxa").is_ok());
  ASSERT_TRUE(p().mkdir("/boxb").is_ok());
  for (int t = 0; t < kThreads; ++t)
    ASSERT_TRUE(p().open("/boxa/m" + std::to_string(t),
                         kOpenCreate | kOpenWrite)
                    .is_ok());
  std::vector<std::unique_ptr<core::Process>> procs;
  for (int t = 0; t < kThreads; ++t) procs.push_back(fs_->open_process(1000, 1000));
  std::barrier sync(kThreads);
  std::vector<std::thread> ts;
  std::atomic<int> errors{0};
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&, t] {
      sync.arrive_and_wait();
      const std::string name = "m" + std::to_string(t);
      for (int i = 0; i < 30; ++i) {
        const std::string from = (i % 2 == 0 ? "/boxa/" : "/boxb/") + name;
        const std::string to = (i % 2 == 0 ? "/boxb/" : "/boxa/") + name;
        if (!procs[t]->rename(from, to).is_ok()) ++errors;
      }
    });
  }
  for (auto& th : ts) th.join();
  EXPECT_EQ(errors.load(), 0);
  // 30 moves (even) => everything back in boxa... moves: i=0 a->b, i=1 b->a,
  // ... i=29 b->a: ends in boxa.
  EXPECT_EQ(p().readdir("/boxa")->size(), static_cast<std::size_t>(kThreads));
  EXPECT_TRUE(p().readdir("/boxb")->empty());
}

TEST_F(FsTest, ConcurrentLookupsDuringChurn) {
  ASSERT_TRUE(p().mkdir("/mix").is_ok());
  for (int i = 0; i < 50; ++i)
    ASSERT_TRUE(p().open("/mix/stable" + std::to_string(i),
                         kOpenCreate | kOpenWrite)
                    .is_ok());
  std::atomic<bool> stop{false};
  std::atomic<int> lookup_errors{0};
  std::thread churn([&] {
    auto proc = fs_->open_process(1000, 1000);
    for (int i = 0; i < 500 && !stop; ++i) {
      const std::string name = "/mix/tmp" + std::to_string(i % 7);
      (void)proc->open(name, kOpenCreate | kOpenWrite);
      (void)proc->unlink(name);
    }
    stop = true;
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      auto proc = fs_->open_process(1000, 1000);
      Rng rng(t);
      while (!stop.load(std::memory_order_relaxed)) {
        const std::string name =
            "/mix/stable" + std::to_string(rng.below(50));
        if (!proc->stat(name).is_ok()) ++lookup_errors;
      }
    });
  }
  churn.join();
  for (auto& th : readers) th.join();
  EXPECT_EQ(lookup_errors.load(), 0);
}

TEST_F(FsTest, SharedFileConcurrentReaders) {
  auto fd = p().open("/shared.dat", kOpenCreate | kOpenWrite);
  ASSERT_TRUE(fd.is_ok());
  std::vector<char> data(64 * 1024);
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = static_cast<char>(i * 131);
  ASSERT_TRUE(p().pwrite(*fd, data.data(), data.size(), 0).is_ok());
  std::vector<std::thread> ts;
  std::atomic<int> mismatches{0};
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&, t] {
      auto proc = fs_->open_process(1000, 1000);
      auto rfd = proc->open("/shared.dat", kOpenRead);
      ASSERT_TRUE(rfd.is_ok());
      Rng rng(t);
      char buf[4096];
      for (int i = 0; i < 200; ++i) {
        const std::uint64_t off = rng.below(data.size() - sizeof buf);
        auto r = proc->pread(*rfd, buf, sizeof buf, off);
        if (!r.is_ok() || *r != sizeof buf) {
          ++mismatches;
          continue;
        }
        for (std::size_t k = 0; k < sizeof buf; k += 512)
          if (buf[k] != static_cast<char>((off + k) * 131)) ++mismatches;
      }
    });
  }
  for (auto& th : ts) th.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST_F(FsTest, ExclusiveWritersToSharedFileSerialize) {
  auto fd = p().open("/wfile", kOpenCreate | kOpenWrite | kOpenRead);
  ASSERT_TRUE(fd.is_ok());
  ASSERT_TRUE(p().ftruncate(*fd, 4096).is_ok());
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&, t] {
      auto proc = fs_->open_process(1000, 1000);
      auto wfd = proc->open("/wfile", kOpenWrite);
      ASSERT_TRUE(wfd.is_ok());
      // Each writer stamps the whole block with its id; exclusivity means a
      // reader never sees a torn mix *after* all writers finish.
      std::vector<char> blk(4096, static_cast<char>('A' + t));
      for (int i = 0; i < 50; ++i)
        ASSERT_TRUE(proc->pwrite(*wfd, blk.data(), blk.size(), 0).is_ok());
    });
  }
  for (auto& th : ts) th.join();
  char buf[4096];
  ASSERT_TRUE(p().pread(*fd, buf, sizeof buf, 0).is_ok());
  for (std::size_t i = 1; i < sizeof buf; ++i)
    ASSERT_EQ(buf[i], buf[0]) << "torn write at byte " << i;
}

TEST_F(FsTest, ParallelAppendsToPrivateFiles) {
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&, t] {
      auto proc = fs_->open_process(1000, 1000);
      auto fd = proc->open("/priv" + std::to_string(t),
                           kOpenCreate | kOpenWrite | core::kOpenAppend);
      ASSERT_TRUE(fd.is_ok());
      char blk[1024];
      std::memset(blk, t, sizeof blk);
      for (int i = 0; i < 100; ++i)
        ASSERT_TRUE(proc->write(*fd, blk, sizeof blk).is_ok());
    });
  }
  for (auto& th : ts) th.join();
  for (int t = 0; t < kThreads; ++t)
    EXPECT_EQ(p().stat("/priv" + std::to_string(t))->size, 100u * 1024);
}

TEST_F(FsTest, ConcurrentAppendersToSharedFileNeverOverlap) {
  // Regression: the O_APPEND position used to be read from the inode size
  // *before* the write lock was taken, so two appenders could resolve the
  // same offset and one write would vanish under the other.  The position
  // is now resolved inside do_write, under the lock.
  {
    auto fd = p().open("/applog", kOpenCreate | kOpenWrite);
    ASSERT_TRUE(fd.is_ok());
    ASSERT_TRUE(p().close(*fd).is_ok());
  }
  constexpr int kAppenders = 4;
  constexpr int kOps = 64;
  constexpr std::size_t kChunk = 4096;
  std::barrier gate(kAppenders);
  std::vector<std::thread> ts;
  for (int t = 0; t < kAppenders; ++t) {
    ts.emplace_back([&, t] {
      auto proc = fs_->open_process(1000, 1000);
      auto fd = proc->open("/applog", kOpenWrite | core::kOpenAppend);
      ASSERT_TRUE(fd.is_ok());
      std::vector<char> blk(kChunk, static_cast<char>('A' + t));
      gate.arrive_and_wait();
      for (int i = 0; i < kOps; ++i)
        ASSERT_EQ(*proc->write(*fd, blk.data(), blk.size()), kChunk);
    });
  }
  for (auto& th : ts) th.join();
  // No append may land on another's offset: the file is exactly the sum of
  // all writes, and every writer's bytes are all present.
  const std::uint64_t want = kAppenders * kOps * kChunk;
  ASSERT_EQ(p().stat("/applog")->size, want);
  auto fd = p().open("/applog", core::kOpenRead);
  ASSERT_TRUE(fd.is_ok());
  std::vector<char> all(want);
  ASSERT_EQ(*p().pread(*fd, all.data(), all.size(), 0), all.size());
  std::array<std::uint64_t, kAppenders> per_writer{};
  for (std::size_t i = 0; i < all.size(); i += kChunk) {
    // Each 4 KB record is uniformly one writer's byte (no torn records).
    const int w = all[i] - 'A';
    ASSERT_GE(w, 0);
    ASSERT_LT(w, kAppenders);
    for (std::size_t j = 1; j < kChunk; ++j) ASSERT_EQ(all[i + j], all[i]);
    ++per_writer[w];
  }
  for (int t = 0; t < kAppenders; ++t)
    EXPECT_EQ(per_writer[t], static_cast<std::uint64_t>(kOps));
}

// ---- lookup-cache coherence under churn ----
// The shared DRAM cache (lookup_cache.h) serves warm walks while these
// mutators run; a stale hit would surface as a wrong inode, a resolved
// deleted name, or an inode that was never bound to the name.

void rename_churn_serves_only_the_live_binding(core::FileSystem& fs,
                                               core::Process& p) {
  ASSERT_TRUE(p.mkdir("/cc").is_ok());
  ASSERT_TRUE(p.open("/cc/a", kOpenCreate | kOpenWrite).is_ok());
  const std::uint64_t ino = p.stat("/cc/a")->inode;
  std::atomic<bool> stop{false};
  std::atomic<int> wrong_inode{0};
  // Slot churn in the same directory so a stale fentry binding would get
  // recycled under the cache's feet.
  std::thread churn([&] {
    auto proc = fs.open_process(1000, 1000);
    for (int i = 0; !stop && i < 400; ++i) {
      const std::string name = "/cc/fill" + std::to_string(i % 5);
      (void)proc->open(name, kOpenCreate | kOpenWrite);
      (void)proc->unlink(name);
    }
  });
  std::thread renamer([&] {
    auto proc = fs.open_process(1000, 1000);
    for (int i = 0; i < 20'000; ++i) {
      // No ASSERT here: an early return would skip `stop` and leave the
      // statters spinning forever.
      if (!proc->rename("/cc/a", "/cc/b").is_ok() ||
          !proc->rename("/cc/b", "/cc/a").is_ok()) {
        ADD_FAILURE() << "rename round " << i << " failed";
        break;
      }
    }
    stop = true;
  });
  std::vector<std::thread> statters;
  for (int t = 0; t < 4; ++t) {
    statters.emplace_back([&] {
      auto proc = fs.open_process(1000, 1000);
      while (!stop.load(std::memory_order_relaxed)) {
        for (const char* path : {"/cc/a", "/cc/b"}) {
          auto st = proc->stat(path);
          if (st.is_ok() && st->inode != ino) ++wrong_inode;
        }
      }
    });
  }
  churn.join();
  renamer.join();
  for (auto& th : statters) th.join();
  EXPECT_EQ(wrong_inode.load(), 0);
  // Quiesced: the final binding is warm and exact.
  EXPECT_EQ(p.stat("/cc/a")->inode, ino);
  EXPECT_FALSE(p.stat("/cc/b").is_ok());
}

TEST_F(FsTest, RenameChurnServesOnlyTheLiveBinding) {
  rename_churn_serves_only_the_live_binding(*fs_, p());
}

// Uncached, every stat probes the directory block itself: a rename that
// clears the slot between the name match and the lookup's result must not
// hand the walker a null entry, and a probe must never clear a slot that
// an a->b->a rename pair returned to the value it loaded (that unlinked
// the live file, failing the next rename).
TEST_F(FsTest, RenameChurnServesOnlyTheLiveBindingUncached) {
  fs_->set_lookup_cache_enabled(false);
  rename_churn_serves_only_the_live_binding(*fs_, p());
}

TEST_F(FsTest, UnlinkCreateChurnNeverResolvesAForeignInode) {
  ASSERT_TRUE(p().mkdir("/uc").is_ok());
  std::mutex mu;
  std::set<std::uint64_t> ever_bound;  // every inode "/uc/n" ever had
  std::atomic<bool> stop{false};
  std::thread mutator([&] {
    auto proc = fs_->open_process(1000, 1000);
    for (int g = 0; g < 300; ++g) {
      auto fd = proc->open("/uc/n", kOpenCreate | kOpenExcl | kOpenWrite);
      ASSERT_TRUE(fd.is_ok());
      ASSERT_TRUE(proc->close(*fd).is_ok());
      {
        std::lock_guard<std::mutex> lk(mu);
        ever_bound.insert(proc->stat("/uc/n")->inode);
      }
      ASSERT_TRUE(proc->unlink("/uc/n").is_ok());
    }
    stop = true;
  });
  std::vector<std::vector<std::uint64_t>> seen(4);
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      auto proc = fs_->open_process(1000, 1000);
      while (!stop.load(std::memory_order_relaxed)) {
        auto st = proc->stat("/uc/n");
        if (st.is_ok()) seen[t].push_back(st->inode);
      }
    });
  }
  mutator.join();
  for (auto& th : readers) th.join();
  // Checked post-join so recording can trail visibility without a flake: a
  // resolved inode must be one the name really carried at some point.
  for (const auto& v : seen)
    for (std::uint64_t ino : v)
      EXPECT_TRUE(ever_bound.count(ino) != 0) << "stale inode " << ino;
  EXPECT_FALSE(p().stat("/uc/n").is_ok());
}

TEST_F(FsTest, ChmodDuringWarmStatsStaysCoherent) {
  ASSERT_TRUE(p().mkdir("/cm").is_ok());
  ASSERT_TRUE(p().open("/cm/f", kOpenCreate | kOpenWrite).is_ok());
  const std::uint64_t ino = p().stat("/cm/f")->inode;
  std::atomic<bool> stop{false};
  std::atomic<int> bad{0};
  std::thread chmodder([&] {
    auto proc = fs_->open_process(1000, 1000);
    for (int i = 0; i < 2000; ++i)
      ASSERT_TRUE(proc->chmod("/cm/f", (i % 2) != 0 ? 0600 : 0644).is_ok());
    stop = true;
  });
  std::vector<std::thread> statters;
  for (int t = 0; t < 4; ++t) {
    statters.emplace_back([&] {
      auto proc = fs_->open_process(1000, 1000);
      while (!stop.load(std::memory_order_relaxed)) {
        auto st = proc->stat("/cm/f");
        // chmod never bumps the dir epoch, so these are warm cache hits —
        // which must still land on the live inode with a current mode.
        if (!st.is_ok() || st->inode != ino ||
            ((st->mode & 0777) != 0600 && (st->mode & 0777) != 0644))
          ++bad;
      }
    });
  }
  chmodder.join();
  for (auto& th : statters) th.join();
  EXPECT_EQ(bad.load(), 0);
}

}  // namespace
}  // namespace simurgh::testing
