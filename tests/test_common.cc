#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <map>
#include <set>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "common/hash.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/table.h"

namespace simurgh {
namespace {

TEST(Status, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.is_ok());
  EXPECT_EQ(s.code(), Errc::ok);
}

TEST(Status, CarriesCode) {
  Status s(Errc::not_found);
  EXPECT_FALSE(s.is_ok());
  EXPECT_EQ(s.code(), Errc::not_found);
  EXPECT_EQ(errc_name(s.code()), "not_found");
}

TEST(Result, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value_or(7), 42);
}

TEST(Result, HoldsError) {
  Result<int> r(Errc::no_space);
  EXPECT_FALSE(r.is_ok());
  EXPECT_EQ(r.code(), Errc::no_space);
  EXPECT_EQ(r.value_or(7), 7);
}

TEST(Result, AssignOrReturnPropagates) {
  auto inner = [](bool fail) -> Result<int> {
    if (fail) return Errc::io;
    return 5;
  };
  auto outer = [&](bool fail) -> Result<int> {
    SIMURGH_ASSIGN_OR_RETURN(int v, inner(fail));
    return v + 1;
  };
  EXPECT_EQ(*outer(false), 6);
  EXPECT_EQ(outer(true).code(), Errc::io);
}

TEST(Hash, Fnv1aIsStable) {
  // Known-answer: layouts on media depend on this value never changing.
  EXPECT_EQ(fnv1a64("hello"), 0xa430d84680aabd0bull);
  EXPECT_NE(fnv1a64("hello"), fnv1a64("hellp"));
}

TEST(Hash, Mix64SpreadsBits) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t i = 0; i < 1000; ++i) seen.insert(mix64(i));
  EXPECT_EQ(seen.size(), 1000u);
}

// CRC32C known answers from RFC 3720 §B.4.  Every data block's checksum on
// media is this function, so its output must never change.
TEST(Hash, Crc32cKnownAnswers) {
  std::uint8_t buf[32];
  std::memset(buf, 0, sizeof buf);
  EXPECT_EQ(crc32c(buf, sizeof buf), 0x8A9136AAu);
  std::memset(buf, 0xff, sizeof buf);
  EXPECT_EQ(crc32c(buf, sizeof buf), 0x62A8AB43u);
  for (unsigned i = 0; i < sizeof buf; ++i)
    buf[i] = static_cast<std::uint8_t>(i);
  EXPECT_EQ(crc32c(buf, sizeof buf), 0x46DD794Eu);
  EXPECT_EQ(crc32c("123456789", 9), 0xE3069283u);
}

// n + 1 pseudo-random bytes; the tests start one byte in, so every word
// load is unaligned.
std::vector<std::uint8_t> crc_input(std::size_t n) {
  std::vector<std::uint8_t> buf(n + 1);
  std::uint64_t x = 1;
  for (auto& b : buf) b = static_cast<std::uint8_t>((x = mix64(x)) >> 56);
  return buf;
}

// The public crc32c takes the crc32 instruction's path where the CPU has
// it; it must agree with the table-driven path at every length, including
// each side of the three-lane chunk (4,080 bytes) and of two chunks.
TEST(Hash, Crc32cMatchesTheTableDrivenPath) {
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n <= 64; ++n) lengths.push_back(n);
  for (std::size_t n = 4070; n <= 4100; ++n) lengths.push_back(n);
  for (std::size_t n = 8150; n <= 8200; ++n) lengths.push_back(n);
  lengths.push_back(9000);
  const std::vector<std::uint8_t> buf = crc_input(9000);
  for (const std::uint32_t seed : {0x1u, 0x9e3779b9u, 0xffffffffu}) {
    for (const std::size_t n : lengths) {
      EXPECT_EQ(crc32c(buf.data() + 1, n, seed),
                ~detail::crc32c_sw(buf.data() + 1, n, ~seed))
          << "length " << n << " seed " << seed;
    }
  }
}

TEST(Hash, Crc32cChainsAcrossAChunkBoundary) {
  const std::vector<std::uint8_t> buf = crc_input(9000);
  const std::uint8_t* p = buf.data() + 1;
  const std::uint32_t whole = crc32c(p, 9000);
  for (const std::size_t split : {1u, 4000u, 4080u, 4081u, 5000u, 8999u})
    EXPECT_EQ(crc32c(p + split, 9000 - split, crc32c(p, split)), whole)
        << "split at " << split;
}

TEST(Rng, Deterministic) {
  Rng a(123), b(123), c(124);
  EXPECT_EQ(a.next(), b.next());
  EXPECT_NE(a.next(), c.next());
}

TEST(Rng, BelowInRange) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(r.below(17), 17u);
  EXPECT_EQ(r.below(0), 0u);
}

TEST(Rng, UniformInUnitInterval) {
  Rng r(9);
  for (int i = 0; i < 1000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, ZipfIsSkewedAndInRange) {
  Rng r(11);
  std::map<std::uint64_t, int> counts;
  const std::uint64_t n = 100;
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t v = r.zipf(n);
    ASSERT_LT(v, n);
    ++counts[v];
  }
  // Rank 0 must dominate the tail decisively under theta=0.99.
  EXPECT_GT(counts[0], counts[50] * 5);
}

TEST(Table, RendersAligned) {
  Table t("demo");
  t.header({"a", "long-col"});
  t.row({"1", "2"});
  t.row({"333", "4"});
  const std::string out = t.render();
  EXPECT_NE(out.find("== demo =="), std::string::npos);
  EXPECT_NE(out.find("long-col"), std::string::npos);
  EXPECT_NE(out.find("333"), std::string::npos);
}

TEST(Table, NumFormatsMagnitudes) {
  EXPECT_EQ(Table::num(12345678), "12.35M");
  EXPECT_EQ(Table::num(1234), "1.23k");
  EXPECT_EQ(Table::num(2.5e9), "2.50G");
  EXPECT_EQ(Table::num(0.5), "0.5000");
}

TEST(FailPoint, FiresOnceWhenArmed) {
  FailPoint::arm("t.point");
  EXPECT_THROW(FailPoint::hit("t.point"), CrashedException);
  // One-shot: second hit is a no-op.
  FailPoint::hit("t.point");
  FailPoint::disarm();
}

TEST(FailPoint, SkipCountDelaysFiring) {
  FailPoint::arm("t.skip", 2);
  FailPoint::hit("t.skip");
  FailPoint::hit("t.skip");
  EXPECT_THROW(FailPoint::hit("t.skip"), CrashedException);
  EXPECT_EQ(FailPoint::hits(), 3u);
}

TEST(FailPoint, OtherPointsUnaffected) {
  FailPoint::arm("t.a");
  FailPoint::hit("t.b");  // must not throw
  FailPoint::disarm();
}

// Regression: arm() used to zero a process-global hit counter, so a thread
// arming its own point concurrently with another thread's armed run would
// reset — and pollute — the other thread's count.  Both the armed state and
// the counter are thread-local now.
TEST(FailPoint, HitCountsAreThreadLocal) {
  constexpr int kHitsEach = 1000;
  std::atomic<bool> go{false};
  std::atomic<int> ready{0};
  auto worker = [&](std::string_view point, std::uint64_t* out) {
    ready.fetch_add(1);
    while (!go.load(std::memory_order_acquire)) {}
    for (int i = 0; i < kHitsEach; ++i) {
      // Re-arm every iteration: with the old global counter this reset the
      // other thread's tally mid-count.
      FailPoint::arm(point, /*skip=*/kHitsEach + 1);
      FailPoint::hit(point);
    }
    *out = FailPoint::hits();
    FailPoint::disarm();
  };
  std::uint64_t hits_a = 0, hits_b = 0;
  std::thread ta(worker, "t.tl.a", &hits_a);
  std::thread tb(worker, "t.tl.b", &hits_b);
  while (ready.load() != 2) {}
  go.store(true, std::memory_order_release);
  ta.join();
  tb.join();
  // Each thread re-armed before every hit, so its own count is exactly 1;
  // any cross-thread sharing would show the other thread's hits here.
  EXPECT_EQ(hits_a, 1u);
  EXPECT_EQ(hits_b, 1u);
  // And this thread's own armed state saw none of the workers' hits.
  FailPoint::arm("t.tl.main", /*skip=*/5);
  EXPECT_EQ(FailPoint::hits(), 0u);
  FailPoint::disarm();
}

}  // namespace
}  // namespace simurgh
