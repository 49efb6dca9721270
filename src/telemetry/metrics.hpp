// Metrics registry: named counters / gauges / histograms with label
// support, point-in-time snapshots, snapshot diffing, and deterministic
// JSON export.
//
// Identity is `name{k=v,...}` with labels sorted by key; metrics live in a
// std::map keyed by that string, so iteration (and therefore JSON output)
// is deterministic. Hot paths hold a reference to the Counter/Histogram and
// bump it directly — the registry lookup happens once at wiring time.
// Subsystems whose counters already exist elsewhere (fabric DirCounters,
// NIC/QP totals) register a *publisher* instead: a callback run at
// snapshot() time that mirrors their state into the registry, keeping the
// packet hot path untouched.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/stats.hpp"

namespace mccl::telemetry {

class Counter {
 public:
  void add(std::uint64_t n = 1) { v_ += n; }
  void set(std::uint64_t v) { v_ = v; }
  std::uint64_t value() const { return v_; }

 private:
  std::uint64_t v_ = 0;
};

class Gauge {
 public:
  void set(double v) { v_ = v; }
  double value() const { return v_; }

 private:
  double v_ = 0;
};

class Histogram {
 public:
  Histogram(std::size_t reservoir_capacity, std::uint64_t seed)
      : stats_(reservoir_capacity, seed) {}
  void observe(double x) { stats_.add(x); }
  const StreamingStats& stats() const { return stats_; }

 private:
  StreamingStats stats_;
};

struct Label {
  std::string key;
  std::string value;
};
using Labels = std::vector<Label>;

enum class MetricType : std::uint8_t { kCounter, kGauge, kHistogram };

/// One metric's value captured at snapshot() time.
struct MetricValue {
  std::string name;
  Labels labels;
  MetricType type = MetricType::kCounter;
  double value = 0;          // counter: total; gauge: level; histogram: mean
  std::uint64_t count = 0;   // counter: ==value; histogram: samples
  // Histogram distribution (zero otherwise).
  double min = 0, max = 0, stddev = 0, p50 = 0, p99 = 0;
};

/// Snapshot: full-key -> value, sorted (deterministic JSON / stable diff).
using Snapshot = std::map<std::string, MetricValue>;

/// Sum of `count` over every label set of metric `name` in `snap`.
std::uint64_t total_count(const Snapshot& snap, std::string_view name);

class MetricsRegistry {
 public:
  /// Reservoir capacity for registry histograms (quantile accuracy vs
  /// memory; exact below this many samples).
  static constexpr std::size_t kHistogramReservoir = 256;
  using Publisher = std::function<void(MetricsRegistry&)>;

  /// Finds or creates; the returned reference is stable for the registry's
  /// lifetime. Requesting an existing key with a different type aborts.
  Counter& counter(std::string_view name, const Labels& labels = {});
  Gauge& gauge(std::string_view name, const Labels& labels = {});
  Histogram& histogram(std::string_view name, const Labels& labels = {});

  /// Publishers run (in registration order) at every snapshot(). Returns an
  /// id for remove_publisher.
  std::uint64_t add_publisher(Publisher fn);
  void remove_publisher(std::uint64_t id);

  /// Runs publishers, then captures every metric.
  Snapshot snapshot();

  /// later - earlier: counters and histogram counts subtract (a key missing
  /// from `earlier` counts as zero); gauges and histogram distribution
  /// stats keep the `later` value. Keys only in `earlier` are omitted.
  static Snapshot diff(const Snapshot& later, const Snapshot& earlier);

  /// Canonical identity: name{k1=v1,k2=v2} with labels sorted by key.
  static std::string key(std::string_view name, const Labels& labels);

  static std::string to_json(const Snapshot& snap);
  std::string to_json() { return to_json(snapshot()); }
  /// snapshot() + write; returns false on I/O failure.
  bool write_json(const std::string& path);

  std::size_t num_metrics() const { return metrics_.size(); }

 private:
  struct Slot {
    std::string name;
    Labels labels;
    MetricType type;
    Counter counter;
    Gauge gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Slot& slot(std::string_view name, const Labels& labels, MetricType type);

  std::map<std::string, Slot> metrics_;
  std::vector<std::pair<std::uint64_t, Publisher>> publishers_;
  std::uint64_t next_publisher_ = 1;
  std::uint64_t histograms_created_ = 0;  // deterministic reservoir seeds
};

}  // namespace mccl::telemetry
