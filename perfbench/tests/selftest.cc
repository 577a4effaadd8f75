// perfbench's own tests: the content check passes on every workload and
// catches a flipped byte, the traced run books ring requests by class, and
// a stray SIMURGH_* variable is refused.
//
//   python3 perfbench/run.py --selftest
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <sys/wait.h>
#include <vector>

#include "bench.h"
#include "env.h"
#include "runner.h"

namespace perfbench {
namespace {

const char* const kWorkloads[] = {"smallfile", "smallfile_svc", "bigfile",
                                  "kv"};

RunConfig tiny(const std::string& workload) {
  RunConfig c;
  c.workload = workload;
  c.seed = 7;
  c.seconds = 0.2;
  c.tiny = true;
  return c;
}

const Metric* find(const RunReport& r, const std::string& name) {
  for (const Metric& m : r.metrics)
    if (m.name == name) return &m;
  return nullptr;
}

TEST(Pattern, RoundTripsAtAnyOffsetAndCatchesOneFlip) {
  std::vector<unsigned char> buf(5000);
  for (std::uint64_t off : {0ull, 1ull, 7ull, 4093ull}) {
    fill_pattern(buf.data(), buf.size(), pattern_key(3, 9), off);
    EXPECT_TRUE(check_pattern(buf.data(), buf.size(), pattern_key(3, 9), off));
    EXPECT_FALSE(
        check_pattern(buf.data(), buf.size(), pattern_key(3, 10), off));
    EXPECT_FALSE(
        check_pattern(buf.data(), buf.size(), pattern_key(3, 9), off + 8));
    buf[2500] ^= 1;
    EXPECT_FALSE(check_pattern(buf.data(), buf.size(), pattern_key(3, 9), off));
  }
}

TEST(TinyRun, EveryWorkloadPassesTheContentCheck) {
  for (const char* w : kWorkloads) {
    SCOPED_TRACE(w);
    const RunReport r = run_benchmark(tiny(w));
    EXPECT_TRUE(r.correct);
    EXPECT_EQ(r.failed, 0u);
    EXPECT_EQ(r.check_errors, 0u);
    EXPECT_GT(r.attempted, 100u);
    ASSERT_NE(find(r, "ops_per_s"), nullptr);
    EXPECT_GT(find(r, "ops_per_s")->value, 0);
    ASSERT_NE(find(r, "recovery_s"), nullptr);
  }
}

TEST(TinyRun, FlippedByteIsCaught) {
  for (const char* w : kWorkloads) {
    SCOPED_TRACE(w);
    RunConfig c = tiny(w);
    c.flip_byte = true;
    const RunReport r = run_benchmark(c);
    bool flipped = false;
    for (const std::string& n : r.notes)
      flipped = flipped || n == "flipped one live data byte";
    ASSERT_TRUE(flipped);
    EXPECT_FALSE(r.correct);
    EXPECT_GE(r.failed, 1u);
  }
}

TEST(TinyRun, TracedServiceRunRoutesOnlyMutationsOverTheRing) {
  RunConfig c = tiny("smallfile_svc");
  c.trace = true;
  const RunReport r = run_benchmark(c);
  EXPECT_TRUE(r.correct);
  ASSERT_NE(find(r, "svc.mutate.requests_per_op"), nullptr);
  EXPECT_DOUBLE_EQ(find(r, "svc.mutate.requests_per_op")->value, 1.0);
  EXPECT_DOUBLE_EQ(find(r, "svc.read.requests_per_op")->value, 0.0);
  EXPECT_DOUBLE_EQ(find(r, "svc.lookup.requests_per_op")->value, 0.0);
  EXPECT_DOUBLE_EQ(find(r, "svc.local_fastpath")->value, 0.0);
  EXPECT_GT(find(r, "svc.noop_trip_us")->value, 0.0);

  c.workload = "smallfile";
  const RunReport direct = run_benchmark(c);
  EXPECT_TRUE(direct.correct);
  EXPECT_DOUBLE_EQ(find(direct, "svc.mutate.requests_per_op")->value, 0.0);
  EXPECT_DOUBLE_EQ(find(direct, "svc.write.requests_per_op")->value, 0.0);
}

TEST(Environment, StraySimurghVariablesAreNamed) {
  char a[] = "PATH=/bin";
  char b[] = "SIMURGH_NVMM_OPTANE=1";
  char c[] = "SIMURGH_LOOKUP_CACHE=0";
  char d[] = "SIMURGH_NVMM_OPTANE=0";
  char* clean[] = {a, b, nullptr};
  char* stray[] = {a, b, c, nullptr};
  char* model_off[] = {d, nullptr};
  EXPECT_EQ(stray_simurgh_var(clean), "");
  EXPECT_EQ(stray_simurgh_var(stray), "SIMURGH_LOOKUP_CACHE");
  EXPECT_EQ(stray_simurgh_var(model_off), "SIMURGH_NVMM_OPTANE");
}

TEST(Environment, BenchmarkRefusesToRunWithAStrayVariable) {
  const std::string cmd = std::string("SIMURGH_WRITEBEHIND=0 ") + PERFBENCH_BIN +
                          " --workload smallfile --seed 1 --seconds 1 "
                          "--trace 0 --tiny 2>&1";
  std::FILE* p = ::popen(cmd.c_str(), "r");
  ASSERT_NE(p, nullptr);
  std::string out;
  char buf[256];
  while (std::fgets(buf, sizeof buf, p) != nullptr) out += buf;
  const int status = ::pclose(p);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_NE(WEXITSTATUS(status), 0);
  EXPECT_NE(out.find("SIMURGH_WRITEBEHIND"), std::string::npos) << out;
  EXPECT_EQ(out.find("\"correct\""), std::string::npos) << out;
}

}  // namespace
}  // namespace perfbench
