// Host memory arena and registration-table tests, including the unbacked
// (timing-only) mode used by large synthetic benchmarks.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <span>
#include <utility>
#include <vector>

#include "src/rdma/memory.hpp"

namespace mccl::rdma {
namespace {

constexpr std::uint64_t kPage = 4096;

/// Frees a `len`-byte heap block full of 0xEE, so the next block of that size
/// likely reuses it: a page that skipped its zeroing then reads garbage.
void dirty_heap(std::uint64_t len) {
  auto* p = new std::uint8_t[len];
  volatile std::uint8_t* v = p;
  for (std::uint64_t i = 0; i < len; ++i) v[i] = 0xEE;
  delete[] p;
}

/// A backed block of `len` bytes carved from a dirtied heap block.
std::uint64_t dirty_alloc(HostMemory& m, std::uint64_t len) {
  dirty_heap(len);
  return m.alloc(len, kPage);
}

std::vector<std::uint8_t> read_all(const HostMemory& m, std::uint64_t addr,
                                   std::uint64_t len) {
  std::vector<std::uint8_t> out(len, 0x11);
  m.read(addr, out.data(), len);
  return out;
}

/// `len` zero bytes with `bytes` placed at `at`.
std::vector<std::uint8_t> zeros_with(std::uint64_t len, std::uint64_t at,
                                     const std::vector<std::uint8_t>& bytes) {
  std::vector<std::uint8_t> want(len, 0);
  std::copy(bytes.begin(), bytes.end(), want.begin() + at);
  return want;
}

std::vector<std::uint8_t> ramp(std::uint64_t len, std::uint8_t first = 1) {
  std::vector<std::uint8_t> v(len);
  std::iota(v.begin(), v.end(), first);
  return v;
}

TEST(HostMemory, AllocAlignsAndAdvances) {
  HostMemory m(1 << 20);
  const auto a = m.alloc(100);
  const auto b = m.alloc(100);
  EXPECT_EQ(a % 64, 0u);
  EXPECT_EQ(b % 64, 0u);
  EXPECT_GE(b, a + 100);
}

TEST(HostMemory, CustomAlignment) {
  HostMemory m(1 << 20);
  m.alloc(3);
  const auto a = m.alloc(16, 4096);
  EXPECT_EQ(a % 4096, 0u);
}

TEST(HostMemory, WriteReadRoundTrip) {
  HostMemory m(4096);
  const auto a = m.alloc(16);
  const std::uint8_t data[4] = {1, 2, 3, 4};
  m.write(a + 4, data, 4);
  std::uint8_t out[4] = {};
  m.read(a + 4, out, 4);
  EXPECT_EQ(out[0], 1);
  EXPECT_EQ(out[3], 4);
}

TEST(HostMemory, ExhaustionAborts) {
  HostMemory m(1024);
  m.alloc(1000);
  EXPECT_DEATH(m.alloc(100), "exhausted");
}

TEST(HostMemory, UnbackedAllocatesAddressSpaceOnly) {
  HostMemory m(std::uint64_t{1} << 40, /*backed=*/false);
  const auto a = m.alloc(std::uint64_t{8} << 30);  // 8 GiB, no RAM used
  const auto b = m.alloc(std::uint64_t{8} << 30);
  EXPECT_GT(b, a);
  EXPECT_DEATH(m.span(a, 1), "unbacked");
}

TEST(HostMemory, UnbackedStillEnforcesCapacity) {
  HostMemory m(1024, /*backed=*/false);
  m.alloc(1000);
  EXPECT_DEATH(m.alloc(100), "exhausted");
}

TEST(HostMemory, AddressesAndBrkArePinned) {
  // Addresses feed symmetric-heap offsets and rdma.heap_mib: the backing
  // scheme must never move them.
  HostMemory m(1 << 20);
  EXPECT_EQ(m.alloc(100), 0u);
  EXPECT_EQ(m.alloc(3, 8), 104u);
  EXPECT_EQ(m.alloc(16, 4096), 4096u);
  m.align_brk(10000);
  EXPECT_EQ(m.brk(), 10000u);
  EXPECT_EQ(m.alloc(1), 10048u);
  m.align_brk(5000);  // behind the bump pointer: no-op
  EXPECT_EQ(m.brk(), 10049u);
  EXPECT_EQ(m.alloc(0), 10112u);
  EXPECT_EQ(m.alloc(64), 10112u);
  EXPECT_EQ(m.brk(), 10176u);
}

TEST(HostMemory, FreshAllocationsReadZero) {
  HostMemory m(1 << 20);
  const auto a = m.alloc(300);
  std::vector<std::uint8_t> ones(300, 0xff);
  m.write(a, ones.data(), ones.size());
  const auto b = m.alloc(5000, 4096);
  std::vector<std::uint8_t> out(5000, 0xaa);
  m.read(b, out.data(), out.size());
  EXPECT_EQ(out, std::vector<std::uint8_t>(5000, 0));
  for (std::uint8_t byte : std::as_const(m).span(b, 5000)) EXPECT_EQ(byte, 0);
}

TEST(HostMemory, AccessOutsideOneAllocationDies) {
  HostMemory m(1 << 20);
  const auto a = m.alloc(100);  // [0, 100), padding up to 128
  const auto b = m.alloc(64);   // [128, 192), adjacent to c
  const auto c = m.alloc(64);   // [192, 256)
  m.align_brk(1024);            // gap [256, 1024)
  const auto d = m.alloc(64);
  std::uint8_t buf[32] = {};
  m.read(a + 90, buf, 10);  // exact fit at the end
  EXPECT_DEATH(m.read(a + 90, buf, 11), "outside any single allocation");
  EXPECT_DEATH(m.write(a + 100, buf, 1), "outside any single allocation");
  EXPECT_DEATH(m.span(b + 60, 8), "outside any single allocation");
  EXPECT_DEATH(m.read(c + 64, buf, 1), "outside any single allocation");
  EXPECT_DEATH(m.span(512, 4), "outside any single allocation");
  EXPECT_DEATH(m.write(d - 4, buf, 8), "outside any single allocation");
  EXPECT_DEATH(m.snapshot_slice(c + 32, 64), "outside any single allocation");
}

TEST(HostMemory, SnapshotServesLatestBytesWithinItsAllocation) {
  HostMemory m(1 << 20);
  const auto a = m.alloc(100);
  const auto b = m.alloc(100);
  const std::uint8_t x[4] = {1, 2, 3, 4};
  const std::uint8_t y[4] = {9, 8, 7, 6};
  m.write(a, x, 4);
  const fabric::Payload first = m.snapshot_slice(a, 4);
  EXPECT_EQ(first.data()[0], 1);
  m.write(a + 2, y, 2);
  const fabric::Payload second = m.snapshot_slice(a, 4);
  EXPECT_EQ(second.data()[2], 9);
  EXPECT_EQ(second.data()[3], 8);
  EXPECT_EQ(first.data()[2], 3);  // in-flight slices keep the old bytes
  // The window of `a` ends with `a`: writing `b` leaves it cached, and a
  // slice of `b` comes from a window of its own.
  m.write(b, y, 4);
  const fabric::Payload again = m.snapshot_slice(a, 4);
  EXPECT_EQ(again.data(), second.data());
  EXPECT_EQ(m.snapshot_slice(b, 4).data()[0], 9);
}

TEST(HostMemory, UntouchedPagesReadZeroThroughEveryReader) {
  HostMemory m(1 << 20);
  const auto a = dirty_alloc(m, 3 * kPage + 100);
  EXPECT_EQ(read_all(m, a, kPage), std::vector<std::uint8_t>(kPage, 0));
  for (std::uint8_t byte : std::as_const(m).span(a + kPage, kPage))
    EXPECT_EQ(byte, 0);
  const fabric::Payload tail = m.snapshot_slice(a + 2 * kPage, kPage + 100);
  EXPECT_EQ(std::vector<std::uint8_t>(tail.data(), tail.data() + tail.size()),
            std::vector<std::uint8_t>(kPage + 100, 0));
}

TEST(HostMemory, PartialWritesLeaveTheRestOfTheirPagesZero) {
  HostMemory m(1 << 20);
  const std::uint64_t len = 3 * kPage + 100;  // not a page multiple
  const auto a = dirty_alloc(m, len);
  const auto x = ramp(64);
  m.write(a + 100, x.data(), x.size());                // inside page 0
  m.write(a + 2 * kPage - 32, x.data(), x.size());     // straddles 1 and 2
  m.write(a + 3 * kPage + 10, x.data(), 20);           // inside the tail page
  std::vector<std::uint8_t> want = zeros_with(len, 100, x);
  std::copy(x.begin(), x.end(), want.begin() + 2 * kPage - 32);
  std::copy(x.begin(), x.begin() + 20, want.begin() + 3 * kPage + 10);
  EXPECT_EQ(read_all(m, a, len), want);
}

TEST(HostMemory, WholePageWritesKeepNeighboursZero) {
  HostMemory m(1 << 20);
  const std::uint64_t len = 3 * kPage + 100;
  const auto a = dirty_alloc(m, len);
  const auto page = ramp(kPage);
  const auto tail = ramp(100, 7);
  m.write(a + kPage, page.data(), page.size());
  m.write(a + 3 * kPage, tail.data(), tail.size());  // the whole short tail
  std::vector<std::uint8_t> want = zeros_with(len, kPage, page);
  std::copy(tail.begin(), tail.end(), want.begin() + 3 * kPage);
  EXPECT_EQ(read_all(m, a, len), want);
}

TEST(HostMemory, OverwriteReadsBackExactlyTheWrittenBytes) {
  HostMemory m(1 << 20);
  const std::uint64_t len = 3 * kPage + 100;
  const auto a = dirty_alloc(m, len);
  const auto x = ramp(2 * kPage + 50, 3);
  const std::span<std::uint8_t> out = m.overwrite(a + 40, x.size());
  std::copy(x.begin(), x.end(), out.begin());
  // Bytes of partly covered pages outside the range still read zero.
  EXPECT_EQ(read_all(m, a, len), zeros_with(len, 40, x));
}

TEST(HostMemory, SnapshotOfPartlyWrittenBlockServesZeros) {
  HostMemory m(1 << 20);
  const std::uint64_t len = 2 * kPage + 100;
  const auto a = dirty_alloc(m, len);
  const auto x = ramp(16);
  m.write(a + kPage + 8, x.data(), x.size());
  // The window spans the whole block, including pages nobody touched.
  const fabric::Payload s = m.snapshot_slice(a + kPage, 64);
  EXPECT_EQ(std::vector<std::uint8_t>(s.data(), s.data() + 64),
            zeros_with(64, 8, x));
  const fabric::Payload rest = m.snapshot_slice(a + 2 * kPage, 100);
  EXPECT_EQ(rest.data(), s.data() + kPage);  // same window
  EXPECT_EQ(std::vector<std::uint8_t>(rest.data(), rest.data() + 100),
            std::vector<std::uint8_t>(100, 0));
  const fabric::Payload head = m.snapshot_slice(a, kPage);
  EXPECT_EQ(std::vector<std::uint8_t>(head.data(), head.data() + kPage),
            std::vector<std::uint8_t>(kPage, 0));
}

TEST(MrTable, SequentialKeys) {
  MrTable t;
  const auto a = t.register_region(0, 100);
  const auto b = t.register_region(200, 100);
  EXPECT_NE(a.rkey, b.rkey);
  EXPECT_TRUE(t.has_rkey(a.rkey));
}

TEST(MrTable, ExplicitRkey) {
  MrTable t;
  const auto mr = t.register_with_rkey(64, 256, 9999);
  EXPECT_EQ(mr.rkey, 9999u);
  EXPECT_TRUE(t.has_rkey(9999));
  EXPECT_DEATH(t.register_with_rkey(0, 10, 9999), "duplicate");
}

TEST(MrTable, BoundsChecking) {
  MrTable t;
  const auto mr = t.register_region(1000, 100);
  t.check_remote(mr.rkey, 1000, 100);   // exact fit
  t.check_remote(mr.rkey, 1050, 50);    // tail
  EXPECT_DEATH(t.check_remote(mr.rkey, 1050, 51), "out of registered");
  EXPECT_DEATH(t.check_remote(mr.rkey, 999, 1), "out of registered");
  EXPECT_DEATH(t.check_remote(12345, 1000, 1), "unknown rkey");
}

}  // namespace
}  // namespace mccl::rdma
