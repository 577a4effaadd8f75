// Seeded randomized crash fuzzing: run a random §4.3 operation sequence
// under store tracing, snapshot the namespace after every operation, then
// materialize random crash images anywhere in the trace.  Each image must
// recover — with a clean fsck — to exactly one of the recorded snapshots
// (the namespace as of some operation boundary); anything else is a torn
// operation escaping the paper's atomicity protocols.
//
// Reproduction knobs:
//   SIMURGH_CRASH_FUZZ_SEED=<n>   base seed (default below)
//   SIMURGH_CRASH_FUZZ_ITERS=<n>  independent sequences (default 4)
// A failing image's gtest message carries the iteration seed, the sampled
// fence index and the line subset seed — rerun with the printed seed and a
// single iteration to replay it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/rng.h"
#include "core/openfile.h"
#include "crash_harness.h"

namespace simurgh::testing {
namespace {

std::uint64_t env_u64(const char* name, std::uint64_t dflt) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return dflt;
  return std::strtoull(v, nullptr, 0);
}

// One random mutation against the live fs.  Keeps a volatile model of every
// file's expected bytes so operations mostly succeed (a failed pick, e.g.
// rename onto itself, simply degrades to a no-op commit point) and so each
// operation's result is checked on the live mount: every op writes a byte
// value of its own, so a growth path that exposes another file's or an
// earlier op's bytes fails at that op, not only across a crash.
class OpMixer {
 public:
  OpMixer(core::Process& p, Rng& rng) : p_(p), rng_(rng) {
    for (const char* d : {"/d0", "/d1", "/d2"}) {
      EXPECT_TRUE(p_.mkdir(d).is_ok());
      dirs_.emplace_back(d);
    }
  }

  void step() {
    ++ops_;
    switch (files_.empty() ? 0 : rng_.below(7)) {
      case 0: do_create(); break;
      case 1: do_unlink(); break;
      case 2: do_rename(); break;
      case 3: do_append(1 + rng_.below(3000)); break;
      // 9-16 new blocks: over the reservation's 8-block limit, so the run
      // is a direct allocation from a segment's bitmap.
      case 4: do_append((9 + rng_.below(8)) * 4096); break;
      case 5: do_sparse_write(); break;
      default: do_truncate(); break;
    }
    if (!::testing::Test::HasFatalFailure()) check_model();
  }

 private:
  std::string fresh_path() {
    return dirs_[rng_.below(dirs_.size())] + "/f" + std::to_string(next_++);
  }
  std::string& pick_file() { return files_[rng_.below(files_.size())]; }
  // This op's byte value: nonzero, and unique within a sequence.
  [[nodiscard]] char fill() const { return static_cast<char>(1 + ops_ % 255); }

  void do_create() {
    // Create empty: create and write are *separate* §4.3 atomic operations,
    // and each fuzz step must be one atomic operation so the recorded
    // boundary snapshots form a complete oracle ("created but not yet
    // written" is a legal recovery state and must be its own boundary).
    // Data coverage comes from the write and truncate steps.
    std::string path = fresh_path();
    auto fd = p_.open(path, core::kOpenCreate | core::kOpenWrite);
    ASSERT_TRUE(fd.is_ok()) << path;
    ASSERT_TRUE(p_.close(*fd).is_ok());
    model_[path].clear();
    files_.push_back(std::move(path));
  }
  void do_unlink() {
    const std::size_t i = rng_.below(files_.size());
    ASSERT_TRUE(p_.unlink(files_[i]).is_ok()) << files_[i];
    model_.erase(files_[i]);
    files_.erase(files_.begin() + static_cast<std::ptrdiff_t>(i));
  }
  void do_rename() {
    std::string to = fresh_path();
    std::string& from = pick_file();
    ASSERT_TRUE(p_.rename(from, to).is_ok()) << from << " -> " << to;
    std::string bytes = std::move(model_[from]);
    model_.erase(from);
    model_[to] = std::move(bytes);
    from = std::move(to);
  }
  void do_append(std::size_t n) {
    const std::string& path = pick_file();
    auto fd = p_.open(path, core::kOpenWrite | core::kOpenAppend);
    ASSERT_TRUE(fd.is_ok());
    const std::string data(n, fill());
    ASSERT_TRUE(p_.write(*fd, data.data(), data.size()).is_ok());
    ASSERT_TRUE(p_.close(*fd).is_ok());
    model_[path] += data;
  }
  // A write that starts past EOF, inside the last block or beyond it: the
  // gap must read zero.
  void do_sparse_write() {
    const std::string& path = pick_file();
    std::string& bytes = model_[path];
    const std::uint64_t off = bytes.size() + 1 + rng_.below(3 * 4096);
    auto fd = p_.open(path, core::kOpenWrite);
    ASSERT_TRUE(fd.is_ok());
    const std::string data(1 + rng_.below(3000), fill());
    ASSERT_TRUE(p_.pwrite(*fd, data.data(), data.size(), off).is_ok());
    ASSERT_TRUE(p_.close(*fd).is_ok());
    bytes.resize(off, '\0');
    bytes += data;
  }
  // Shrinks or grows: a grown range must read zero.
  void do_truncate() {
    const std::string& path = pick_file();
    std::string& bytes = model_[path];
    const std::uint64_t size = rng_.below(bytes.size() + 8000);
    ASSERT_TRUE(p_.truncate(path, size).is_ok());
    bytes.resize(size, '\0');
  }

  void check_model() {
    for (const std::string& path : files_) {
      const std::string& want = model_[path];
      auto fd = p_.open(path, core::kOpenRead);
      ASSERT_TRUE(fd.is_ok()) << path;
      std::string got(want.size() + 1, '?');
      auto n = p_.pread(*fd, got.data(), got.size(), 0);
      ASSERT_TRUE(n.is_ok()) << path;
      ASSERT_TRUE(p_.close(*fd).is_ok());
      got.resize(*n);
      ASSERT_EQ(got.size(), want.size()) << path << " after op " << ops_;
      const auto diff = std::mismatch(got.begin(), got.end(), want.begin());
      ASSERT_TRUE(diff.first == got.end())
          << path << " after op " << ops_ << ": byte "
          << (diff.first - got.begin()) << " reads "
          << static_cast<int>(*diff.first) << ", expected "
          << static_cast<int>(*diff.second);
    }
  }

  core::Process& p_;
  Rng& rng_;
  std::vector<std::string> dirs_, files_;
  std::map<std::string, std::string> model_;  // path -> expected bytes
  unsigned next_ = 0;
  unsigned ops_ = 0;
};

constexpr std::size_t kOpsPerSequence = 12;
constexpr std::size_t kImagesPerSequence = 64;

void run_sequence(std::uint64_t seed, CrashStats& total) {
  CrashHarness::Options o;
  o.seed = seed;
  CrashHarness h(o);

  Rng rng(seed);
  std::vector<NsSnapshot> states;
  std::unique_ptr<OpMixer> mixer;
  h.setup([&](core::Process& p) { mixer = std::make_unique<OpMixer>(p, rng); });

  h.run_op([&](core::Process& p) {
    (void)p;
    for (std::size_t i = 0; i < kOpsPerSequence; ++i) {
      mixer->step();
      if (::testing::Test::HasFatalFailure()) return;
      states.push_back(snapshot_namespace(h.fs()));
    }
  });
  ASSERT_FALSE(::testing::Test::HasFatalFailure());

  // Oracle: the pre-sequence state plus the state after every operation.
  std::vector<NsSnapshot> oracle;
  oracle.push_back(h.pre());
  for (NsSnapshot& s : states) oracle.push_back(std::move(s));

  std::ostringstream ctx;
  ctx << "fuzz sequence seed 0x" << std::hex << seed;
  h.explore_sampled(ctx.str(), kImagesPerSequence, oracle);
  total += h.stats();
}

TEST(CrashFuzz, RandomOpSequencesRecoverToOperationBoundaries) {
  const std::uint64_t base_seed =
      env_u64("SIMURGH_CRASH_FUZZ_SEED", 0xF02Dull);
  const std::uint64_t iters = env_u64("SIMURGH_CRASH_FUZZ_ITERS", 4);
  CrashStats total;
  for (std::uint64_t it = 0; it < iters; ++it) {
    const std::uint64_t seed = mix64(base_seed + it);
    SCOPED_TRACE("iteration " + std::to_string(it) + " seed 0x" +
                 [&] {
                   std::ostringstream os;
                   os << std::hex << seed;
                   return os.str();
                 }());
    run_sequence(seed, total);
    if (::testing::Test::HasFatalFailure()) {
      std::cout << "[crash-fuzz] FAILED at iteration " << it << "; rerun with"
                << " SIMURGH_CRASH_FUZZ_SEED=" << base_seed
                << " SIMURGH_CRASH_FUZZ_ITERS=" << (it + 1) << "\n";
      return;
    }
  }
  std::cout << "[crash-fuzz] base seed 0x" << std::hex << base_seed << std::dec
            << ", " << iters << " sequences: " << total << "\n";
  EXPECT_GT(total.images, 0u);
}

}  // namespace
}  // namespace simurgh::testing
