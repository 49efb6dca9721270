// Units and fixed-point simulated time used throughout mccl.
//
// Simulated time is kept in integer picoseconds so that link serialization
// delays are exact even for 64-byte chunks on a 1.6 Tbit/s link (320 ps).
#pragma once

#include <cstdint>

namespace mccl {

/// Simulated time in picoseconds.
using Time = std::int64_t;

inline constexpr Time kPicosecond = 1;
inline constexpr Time kNanosecond = 1'000;
inline constexpr Time kMicrosecond = 1'000'000;
inline constexpr Time kMillisecond = 1'000'000'000;
inline constexpr Time kSecond = 1'000'000'000'000;

/// Sizes.
inline constexpr std::uint64_t KiB = 1024;
inline constexpr std::uint64_t MiB = 1024 * KiB;
inline constexpr std::uint64_t GiB = 1024 * MiB;

constexpr double to_seconds(Time t) { return static_cast<double>(t) / kSecond; }
constexpr double to_microseconds(Time t) {
  return static_cast<double>(t) / kMicrosecond;
}

/// Serialization time of `bytes` at `gbps` Gbit/s (10^9 bits per second).
constexpr Time serialization_time(std::uint64_t bytes, double gbps) {
  // bits / (gbps * 1e9 bit/s) seconds -> picoseconds: bits * 1000 / gbps ps.
  return static_cast<Time>(static_cast<double>(bytes) * 8.0 * 1000.0 / gbps);
}

/// Throughput in Gbit/s given bytes moved over a simulated duration.
constexpr double gbps(std::uint64_t bytes, Time duration) {
  if (duration <= 0) return 0.0;
  return static_cast<double>(bytes) * 8.0 * 1000.0 /
         static_cast<double>(duration);
}

/// Throughput in GiB/s given bytes moved over a simulated duration.
constexpr double gibps(std::uint64_t bytes, Time duration) {
  if (duration <= 0) return 0.0;
  return static_cast<double>(bytes) / static_cast<double>(GiB) /
         to_seconds(duration);
}

/// Cycle <-> time conversion for a clocked execution resource.
constexpr Time cycles_to_time(double cycles, double ghz) {
  return static_cast<Time>(cycles * 1000.0 / ghz);  // 1 cycle @1GHz = 1000 ps
}

}  // namespace mccl
