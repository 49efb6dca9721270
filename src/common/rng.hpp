// Deterministic, seedable RNG (xoshiro256**) for the fault plane, the
// control planes and workload generation. Simulation runs must be
// reproducible from a seed, so no global std::random_device anywhere.
#pragma once

#include <cstdint>

namespace mccl {

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) {
    // splitmix64 seeding, as recommended by the xoshiro authors.
    std::uint64_t x = seed;
    for (auto& s : s_) {
      x += 0x9e3779b97f4a7c15ULL;
      std::uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      s = z ^ (z >> 31);
    }
  }

  std::uint64_t next() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double uniform() {
    return static_cast<double>(next() >> 11) * (1.0 / 9007199254740992.0);
  }

  /// Uniform integer in [0, n).
  std::uint64_t below(std::uint64_t n) { return n ? next() % n : 0; }

  /// Bernoulli trial.
  bool chance(double p) { return uniform() < p; }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  std::uint64_t s_[4];
};

}  // namespace mccl
