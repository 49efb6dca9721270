// Deterministic test-data patterns for collective verification.
#pragma once

#include <cstdint>

#include "src/rdma/memory.hpp"

namespace mccl::coll {

/// Byte value at position `i` of a buffer seeded by (op, origin rank).
inline std::uint8_t pattern_byte(std::uint16_t op, std::size_t origin,
                                 std::uint64_t i) {
  return static_cast<std::uint8_t>(op * 197 + origin * 131 + i * 29 + 11);
}

inline void fill_pattern(rdma::HostMemory& mem, std::uint64_t addr,
                         std::uint64_t len, std::uint16_t op,
                         std::size_t origin) {
  std::uint8_t* p = mem.at(addr);
  for (std::uint64_t i = 0; i < len; ++i) p[i] = pattern_byte(op, origin, i);
}

inline bool check_pattern(const rdma::HostMemory& mem, std::uint64_t addr,
                          std::uint64_t len, std::uint16_t op,
                          std::size_t origin) {
  const std::uint8_t* p = mem.at(addr);
  for (std::uint64_t i = 0; i < len; ++i)
    if (p[i] != pattern_byte(op, origin, i)) return false;
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
  float* p = reinterpret_cast<float*>(mem.at(addr));
  for (std::uint64_t i = 0; i < bytes / sizeof(float); ++i)
    p[i] = rs_value(origin, block, i);
}

}  // namespace mccl::coll
