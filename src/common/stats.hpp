// Statistics used when reporting benchmark series per the
// scientific-benchmarking guidelines the paper follows (min/median/p99 over
// iterations rather than a single mean).
//
// Two flavors:
//  - Stats: stores every sample, exact quantiles. Fine for benchmark
//    iteration counts.
//  - StreamingStats: bounded memory for long-lived telemetry histograms
//    (chaos runs observe millions of samples). Welford's online algorithm
//    for mean/variance plus a fixed-size uniform reservoir (Vitter's
//    algorithm R, seeded => deterministic) for approximate quantiles.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/common/rng.hpp"

namespace mccl {

class Stats {
 public:
  void add(double x) {
    samples_.push_back(x);
    sorted_ = false;
  }

  std::size_t count() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }

  double sum() const {
    double s = 0;
    for (double x : samples_) s += x;
    return s;
  }
  double mean() const { return empty() ? 0.0 : sum() / count(); }

  double min() const {
    return empty() ? 0.0 : *std::min_element(samples_.begin(), samples_.end());
  }
  double max() const {
    return empty() ? 0.0 : *std::max_element(samples_.begin(), samples_.end());
  }

  /// Sample standard deviation.
  double stddev() const {
    if (count() < 2) return 0.0;
    const double m = mean();
    double acc = 0;
    for (double x : samples_) acc += (x - m) * (x - m);
    return std::sqrt(acc / (count() - 1));
  }

  /// Quantile by linear interpolation between closest ranks, q in [0, 1].
  double quantile(double q) const {
    if (empty()) return 0.0;
    sort();
    const double pos = q * (samples_.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, samples_.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return samples_[lo] * (1.0 - frac) + samples_[hi] * frac;
  }

  double median() const { return quantile(0.5); }

  const std::vector<double>& samples() const { return samples_; }

 private:
  void sort() const {
    if (!sorted_) {
      std::sort(samples_.begin(), samples_.end());
      sorted_ = true;
    }
  }
  mutable std::vector<double> samples_;
  mutable bool sorted_ = false;
};

/// Nearest-rank percentile, p in [0, 1]: the sample at rank
/// min(n - 1, floor(p * n)) of the sorted copy; 0 for no samples.
inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v[std::min(v.size() - 1,
                    static_cast<std::size_t>(p * static_cast<double>(v.size())))];
}

/// O(1)-memory streaming statistics: exact count/sum/mean/variance/min/max,
/// reservoir-sampled quantiles (exact while count <= reservoir capacity).
class StreamingStats {
 public:
  explicit StreamingStats(std::size_t reservoir_capacity = 256,
                          std::uint64_t seed = 0x5eedULL)
      : cap_(reservoir_capacity == 0 ? 1 : reservoir_capacity), rng_(seed) {
    reservoir_.reserve(cap_);
  }

  void add(double x) {
    ++n_;
    sum_ += x;
    // Welford's update: numerically stable single-pass mean/variance.
    const double d = x - mean_;
    mean_ += d / static_cast<double>(n_);
    m2_ += d * (x - mean_);
    if (n_ == 1 || x < min_) min_ = x;
    if (n_ == 1 || x > max_) max_ = x;
    if (reservoir_.size() < cap_) {
      reservoir_.push_back(x);
    } else {
      // Algorithm R: keep each of the n samples with probability cap/n.
      const std::uint64_t j = rng_.below(n_);
      if (j < cap_) reservoir_[j] = x;
    }
  }

  std::uint64_t count() const { return n_; }
  bool empty() const { return n_ == 0; }
  double sum() const { return sum_; }
  double mean() const { return mean_; }
  double min() const { return empty() ? 0.0 : min_; }
  double max() const { return empty() ? 0.0 : max_; }

  /// Sample variance / standard deviation.
  double variance() const {
    return n_ < 2 ? 0.0 : m2_ / static_cast<double>(n_ - 1);
  }
  double stddev() const { return std::sqrt(variance()); }

  /// Quantile over the reservoir (linear interpolation), q in [0, 1].
  /// Exact while count() <= reservoir capacity, approximate after.
  double quantile(double q) const {
    if (reservoir_.empty()) return 0.0;
    std::vector<double> sorted = reservoir_;
    std::sort(sorted.begin(), sorted.end());
    const double pos = q * static_cast<double>(sorted.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
  }
  double median() const { return quantile(0.5); }

  std::size_t reservoir_size() const { return reservoir_.size(); }

 private:
  std::size_t cap_;
  Rng rng_;
  std::uint64_t n_ = 0;
  double sum_ = 0;
  double mean_ = 0;
  double m2_ = 0;
  double min_ = 0;
  double max_ = 0;
  std::vector<double> reservoir_;
};

}  // namespace mccl
