// Unit tests for src/common: units, bitmap, ring, rng, stats.
#include <gtest/gtest.h>

#include "src/common/bitmap.hpp"
#include "src/common/ring.hpp"
#include "src/common/rng.hpp"
#include "src/common/stats.hpp"
#include "src/common/units.hpp"
#include "src/fabric/packet.hpp"

namespace mccl {
namespace {

TEST(Units, SerializationTimeExact) {
  // 4096 B at 200 Gbit/s: 4096*8 bits / 200e9 = 163.84 ns.
  EXPECT_EQ(serialization_time(4096, 200.0), 163840);
  // 64 B at 1600 Gbit/s: 0.32 ns = 320 ps.
  EXPECT_EQ(serialization_time(64, 1600.0), 320);
}

TEST(Units, SerializationTimeZeroBytes) {
  EXPECT_EQ(serialization_time(0, 100.0), 0);
}

TEST(Units, GbpsRoundTrip) {
  const Time t = serialization_time(1 * MiB, 400.0);
  EXPECT_NEAR(gbps(1 * MiB, t), 400.0, 0.01);
}

TEST(Units, GibpsMatchesDefinition) {
  // 1 GiB in exactly 1 second -> 1 GiB/s.
  EXPECT_DOUBLE_EQ(gibps(GiB, kSecond), 1.0);
}

TEST(Units, CyclesToTime) {
  EXPECT_EQ(cycles_to_time(1.0, 1.0), 1000);   // 1 cycle @ 1 GHz = 1 ns
  EXPECT_EQ(cycles_to_time(1084, 1.8), 602222);  // Table I UD datapath
}

TEST(Units, ThroughputZeroDuration) {
  EXPECT_DOUBLE_EQ(gbps(123, 0), 0.0);
  EXPECT_DOUBLE_EQ(gibps(123, -5), 0.0);
}

TEST(Bitmap, SetAndTest) {
  Bitmap b(130);
  EXPECT_EQ(b.size(), 130u);
  EXPECT_FALSE(b.test(0));
  EXPECT_TRUE(b.set(0));
  EXPECT_TRUE(b.test(0));
  EXPECT_TRUE(b.set(129));
  EXPECT_TRUE(b.test(129));
  EXPECT_EQ(b.popcount(), 2u);
}

TEST(Bitmap, DuplicateSetReturnsFalse) {
  Bitmap b(8);
  EXPECT_TRUE(b.set(3));
  EXPECT_FALSE(b.set(3));
  EXPECT_EQ(b.popcount(), 1u);
}

TEST(Bitmap, FullDetection) {
  Bitmap b(65);
  for (std::size_t i = 0; i < 65; ++i) {
    EXPECT_FALSE(b.full());
    b.set(i);
  }
  EXPECT_TRUE(b.full());
}

TEST(Bitmap, MissingListsUnsetBits) {
  Bitmap b(10);
  b.set(0);
  b.set(4);
  b.set(9);
  const auto missing = b.missing();
  EXPECT_EQ(missing, (std::vector<std::size_t>{1, 2, 3, 5, 6, 7, 8}));
}

TEST(Bitmap, ResetClearsEverything) {
  Bitmap b(100);
  for (std::size_t i = 0; i < 100; i += 2) b.set(i);
  b.reset();
  EXPECT_EQ(b.popcount(), 0u);
  EXPECT_FALSE(b.test(0));
}

TEST(Bitmap, SizeBytesMatchesWordCount) {
  EXPECT_EQ(Bitmap(1).size_bytes(), 8u);
  EXPECT_EQ(Bitmap(64).size_bytes(), 8u);
  EXPECT_EQ(Bitmap(65).size_bytes(), 16u);
}

TEST(Ring, FirstPushAllocatesEightCells) {
  Ring<int> r;
  EXPECT_EQ(r.capacity(), 0u);
  r.push(1);
  EXPECT_EQ(r.capacity(), Ring<int>::kFirstCells);
  EXPECT_EQ(r.capacity(), 8u);
  for (int i = 2; i <= 8; ++i) r.push(i);
  EXPECT_EQ(r.capacity(), 8u);
  r.push(9);
  EXPECT_EQ(r.capacity(), 16u);
}

TEST(Ring, FifoOrderSurvivesGrowthWhileWrapped) {
  Ring<int> r;
  int next_in = 0;
  int next_out = 0;
  for (int i = 0; i < 8; ++i) r.push(next_in++);
  for (int i = 0; i < 6; ++i) EXPECT_EQ(r.pop(), next_out++);
  // Head sits at cell 6 of 8; six more pushes wrap the tail round to it.
  for (int i = 0; i < 6; ++i) r.push(next_in++);
  ASSERT_EQ(r.size(), 8u);
  ASSERT_EQ(r.capacity(), 8u);
  r.push(next_in++);  // full and wrapped: grows
  EXPECT_EQ(r.capacity(), 16u);
  EXPECT_EQ(r.front(), next_out);
  EXPECT_EQ(r.back(), next_in - 1);
  for (std::size_t i = 0; i < r.size(); ++i)
    EXPECT_EQ(r[i], next_out + static_cast<int>(i));
  while (!r.empty()) EXPECT_EQ(r.pop(), next_out++);
  EXPECT_EQ(next_out, next_in);
}

struct CopyCounted {
  static int copies;
  int v = 0;
  CopyCounted() = default;
  explicit CopyCounted(int x) : v(x) {}
  CopyCounted(const CopyCounted& o) : v(o.v) { ++copies; }
  CopyCounted& operator=(const CopyCounted& o) {
    v = o.v;
    ++copies;
    return *this;
  }
  CopyCounted(CopyCounted&&) noexcept = default;
  CopyCounted& operator=(CopyCounted&&) noexcept = default;
};
int CopyCounted::copies = 0;

TEST(Ring, GrowthMovesAndNeverCopies) {
  CopyCounted::copies = 0;
  Ring<CopyCounted> counted;
  for (int i = 0; i < 40; ++i) counted.push(CopyCounted(i));
  EXPECT_EQ(CopyCounted::copies, 0);
  EXPECT_EQ(counted[39].v, 39);

  fabric::PacketPool pool;
  const fabric::PacketRef pkt = pool.acquire();
  Ring<fabric::PacketRef> refs;
  for (int i = 0; i < 8; ++i) refs.push(pkt);
  EXPECT_EQ(pkt.use_count(), 9u);
  refs.push(pkt);  // grows 8 -> 16 cells
  EXPECT_EQ(refs.capacity(), 16u);
  EXPECT_EQ(pkt.use_count(), 10u);
  EXPECT_EQ(refs.pop().use_count(), 10u);  // the popped handle is moved out
  EXPECT_EQ(pkt.use_count(), 9u);
}

TEST(Ring, ClearReleasesItsElements) {
  fabric::PacketPool pool;
  fabric::PacketRef pkt = pool.acquire();
  Ring<fabric::PacketRef> refs;
  for (int i = 0; i < 5; ++i) refs.push(pkt);
  (void)refs.pop();  // a moved-from cell is left behind
  refs.clear();
  EXPECT_TRUE(refs.empty());
  EXPECT_EQ(refs.capacity(), 8u);
  EXPECT_EQ(pkt.use_count(), 1u);
  pkt.reset();
  EXPECT_EQ(pool.outstanding(), 0u);
  refs.push(pool.acquire());  // reusable after clear
  EXPECT_EQ(refs.size(), 1u);
}

TEST(Rng, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.next() == b.next());
  EXPECT_LT(same, 3);
}

TEST(Rng, UniformInRange) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, BelowInRange) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(r.below(13), 13u);
  EXPECT_EQ(r.below(0), 0u);
}

TEST(Rng, ChanceApproximatesProbability) {
  Rng r(123);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += r.chance(0.25);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.25, 0.01);
}

TEST(Stats, BasicMoments) {
  Stats s;
  for (double x : {1.0, 2.0, 3.0, 4.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_NEAR(s.stddev(), 1.2909944, 1e-6);
}

TEST(Stats, Quantiles) {
  Stats s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_NEAR(s.median(), 50.5, 1e-9);
  EXPECT_NEAR(s.quantile(0.0), 1.0, 1e-9);
  EXPECT_NEAR(s.quantile(1.0), 100.0, 1e-9);
  EXPECT_NEAR(s.quantile(0.99), 99.01, 1e-9);
}

TEST(Stats, EmptyIsSafe) {
  Stats s;
  EXPECT_TRUE(s.empty());
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.median(), 0.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(Stats, AddAfterQuantileKeepsCorrectness) {
  Stats s;
  s.add(10);
  EXPECT_DOUBLE_EQ(s.median(), 10.0);
  s.add(20);
  s.add(0);
  EXPECT_DOUBLE_EQ(s.median(), 10.0);
}

}  // namespace
}  // namespace mccl
