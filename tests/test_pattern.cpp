// Verification-pattern tests: the period-wise fill and check must agree
// byte for byte with the pattern_byte definition.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/coll/pattern.hpp"

namespace mccl::coll {
namespace {

constexpr std::uint16_t kOp = 1234;
constexpr std::size_t kOrigin = 17;

TEST(Pattern, FillMatchesPerByteDefinition) {
  for (std::uint64_t len : {0, 1, 255, 256, 257, 4109}) {
    rdma::HostMemory m(1 << 20);
    const std::uint64_t start = m.alloc(len + 16) + 3;  // unaligned
    fill_pattern(m, start, len, kOp, kOrigin);
    std::vector<std::uint8_t> got(len + 16);
    m.read(start - 3, got.data(), got.size());
    for (std::uint64_t i = 0; i < got.size(); ++i) {
      const bool inside = i >= 3 && i < len + 3;
      const std::uint8_t want =
          inside ? pattern_byte(kOp, kOrigin, i - 3) : std::uint8_t{0};
      ASSERT_EQ(got[i], want) << "len " << len << " byte " << i;
    }
    EXPECT_TRUE(check_pattern(m, start, len, kOp, kOrigin)) << "len " << len;
  }
}

TEST(Pattern, CheckAcceptsPerByteBufferAndRejectsOneFlip) {
  for (std::uint64_t len : {0, 1, 255, 256, 257, 4109}) {
    rdma::HostMemory m(1 << 20);
    const std::uint64_t start = m.alloc(len + 8) + 5;  // unaligned
    std::vector<std::uint8_t> ref(len);
    for (std::uint64_t i = 0; i < len; ++i)
      ref[i] = pattern_byte(kOp, kOrigin, i);
    m.write(start, ref.data(), len);
    EXPECT_TRUE(check_pattern(m, start, len, kOp, kOrigin)) << "len " << len;
    EXPECT_EQ(check_pattern(m, start, len, kOp, kOrigin + 1), len == 0);
    for (std::uint64_t off : {std::uint64_t{0}, std::uint64_t{255},
                              std::uint64_t{256}, len - 1}) {
      if (off >= len) continue;
      const std::uint8_t flipped = ref[off] ^ 0x10;
      m.write(start + off, &flipped, 1);
      EXPECT_FALSE(check_pattern(m, start, len, kOp, kOrigin))
          << "len " << len << " flip at " << off;
      m.write(start + off, &ref[off], 1);
    }
    EXPECT_TRUE(check_pattern(m, start, len, kOp, kOrigin));
  }
}

}  // namespace
}  // namespace mccl::coll
