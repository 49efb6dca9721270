// Deterministic test-data patterns for collective verification.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>

#include "src/rdma/memory.hpp"

namespace mccl::coll {

/// Byte value at position `i` of a buffer seeded by (op, origin rank).
inline std::uint8_t pattern_byte(std::uint16_t op, std::size_t origin,
                                 std::uint64_t i) {
  return static_cast<std::uint8_t>(op * 197 + origin * 131 + i * 29 + 11);
}

/// One period of the pattern: pattern_byte depends on `i` only modulo 256,
/// so a buffer is that period repeated.
inline std::array<std::uint8_t, 256> pattern_period(std::uint16_t op,
                                                    std::size_t origin) {
  std::array<std::uint8_t, 256> period;
  for (std::size_t i = 0; i < period.size(); ++i)
    period[i] = pattern_byte(op, origin, i);
  return period;
}

inline void fill_pattern(rdma::HostMemory& mem, std::uint64_t addr,
                         std::uint64_t len, std::uint16_t op,
                         std::size_t origin) {
  const auto period = pattern_period(op, origin);
  std::uint8_t* p = mem.overwrite(addr, len).data();
  for (std::uint64_t i = 0; i < len; i += period.size())
    std::memcpy(p + i, period.data(),
                std::min<std::uint64_t>(period.size(), len - i));
}

inline bool check_pattern(const rdma::HostMemory& mem, std::uint64_t addr,
                          std::uint64_t len, std::uint16_t op,
                          std::size_t origin) {
  const auto period = pattern_period(op, origin);
  const std::uint8_t* p = mem.span(addr, len).data();
  for (std::uint64_t i = 0; i < len; i += period.size())
    if (std::memcmp(p + i, period.data(),
                    std::min<std::uint64_t>(period.size(), len - i)) != 0)
      return false;
  return true;
}

/// Reduce-Scatter element `elem` of block `block` contributed by `origin`:
/// small integers, so float accumulation is exact.
inline float rs_value(std::size_t origin, std::size_t block,
                      std::uint64_t elem) {
  return static_cast<float>((origin * 7 + block * 3 + elem) % 32);
}

inline void fill_rs_block(rdma::HostMemory& mem, std::uint64_t addr,
                          std::uint64_t bytes, std::size_t origin,
                          std::size_t block) {
  float* p = reinterpret_cast<float*>(mem.overwrite(addr, bytes).data());
  for (std::uint64_t i = 0; i < bytes / sizeof(float); ++i)
    p[i] = rs_value(origin, block, i);
}

}  // namespace mccl::coll
