#include "src/telemetry/metrics.hpp"

#include <algorithm>
#include <cstdio>

#include "src/common/check.hpp"

namespace mccl::telemetry {

namespace {

void append_escaped(std::string& out, std::string_view s) {
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

/// Deterministic numeric formatting: integers (the overwhelmingly common
/// case for counters) print without a fraction; everything else round-trips
/// via %.17g.
void append_number(std::string& out, double v) {
  const auto i = static_cast<std::int64_t>(v);
  if (static_cast<double>(i) == v && std::abs(v) < 9.0e15) {
    out += std::to_string(i);
    return;
  }
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out += buf;
}

Labels sorted_labels(const Labels& labels) {
  Labels s = labels;
  std::sort(s.begin(), s.end(),
            [](const Label& a, const Label& b) { return a.key < b.key; });
  return s;
}

}  // namespace

std::string MetricsRegistry::key(std::string_view name, const Labels& labels) {
  std::string k{name};
  if (labels.empty()) return k;
  k += '{';
  bool first = true;
  for (const Label& l : sorted_labels(labels)) {
    if (!first) k += ',';
    first = false;
    k += l.key;
    k += '=';
    k += l.value;
  }
  k += '}';
  return k;
}

MetricsRegistry::Slot& MetricsRegistry::slot(std::string_view name,
                                             const Labels& labels,
                                             MetricType type) {
  std::string k = key(name, labels);
  auto it = metrics_.find(k);
  if (it != metrics_.end()) {
    MCCL_CHECK_MSG(it->second.type == type,
                   "metric re-registered with a different type");
    return it->second;
  }
  Slot s;
  s.name = std::string{name};
  s.labels = sorted_labels(labels);
  s.type = type;
  if (type == MetricType::kHistogram) {
    s.histogram = std::make_unique<Histogram>(kHistogramReservoir,
                                              0x9e1e7151u + histograms_created_++);
  }
  return metrics_.emplace(std::move(k), std::move(s)).first->second;
}

Counter& MetricsRegistry::counter(std::string_view name, const Labels& labels) {
  return slot(name, labels, MetricType::kCounter).counter;
}

Gauge& MetricsRegistry::gauge(std::string_view name, const Labels& labels) {
  return slot(name, labels, MetricType::kGauge).gauge;
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      const Labels& labels) {
  return *slot(name, labels, MetricType::kHistogram).histogram;
}

std::uint64_t MetricsRegistry::add_publisher(Publisher fn) {
  const std::uint64_t id = next_publisher_++;
  publishers_.emplace_back(id, std::move(fn));
  return id;
}

void MetricsRegistry::remove_publisher(std::uint64_t id) {
  std::erase_if(publishers_, [id](const auto& p) { return p.first == id; });
}

Snapshot MetricsRegistry::snapshot() {
  for (auto& [id, fn] : publishers_) fn(*this);
  Snapshot snap;
  for (const auto& [k, s] : metrics_) {
    MetricValue v;
    v.name = s.name;
    v.labels = s.labels;
    v.type = s.type;
    switch (s.type) {
      case MetricType::kCounter:
        v.value = static_cast<double>(s.counter.value());
        v.count = s.counter.value();
        break;
      case MetricType::kGauge:
        v.value = s.gauge.value();
        break;
      case MetricType::kHistogram: {
        const StreamingStats& st = s.histogram->stats();
        v.value = st.mean();
        v.count = st.count();
        v.min = st.min();
        v.max = st.max();
        v.stddev = st.stddev();
        v.p50 = st.median();
        v.p99 = st.quantile(0.99);
        break;
      }
    }
    snap.emplace(k, std::move(v));
  }
  return snap;
}

std::uint64_t total_count(const Snapshot& snap, std::string_view name) {
  std::uint64_t total = 0;
  for (const auto& [key, v] : snap)
    if (v.name == name) total += v.count;
  return total;
}

Snapshot MetricsRegistry::diff(const Snapshot& later, const Snapshot& earlier) {
  Snapshot out;
  for (const auto& [k, v] : later) {
    MetricValue d = v;
    auto it = earlier.find(k);
    if (it != earlier.end() && v.type != MetricType::kGauge) {
      d.value = v.type == MetricType::kCounter
                    ? v.value - it->second.value
                    : v.value;  // histogram mean: keep the later value
      d.count = v.count - it->second.count;
    }
    out.emplace(k, std::move(d));
  }
  return out;
}

std::string MetricsRegistry::to_json(const Snapshot& snap) {
  std::string out = "{\"metrics\":[\n";
  bool first = true;
  for (const auto& [k, v] : snap) {
    if (!first) out += ",\n";
    first = false;
    out += "{\"name\":\"";
    append_escaped(out, v.name);
    out += "\"";
    if (!v.labels.empty()) {
      out += ",\"labels\":{";
      bool fl = true;
      for (const Label& l : v.labels) {
        if (!fl) out += ',';
        fl = false;
        out += "\"";
        append_escaped(out, l.key);
        out += "\":\"";
        append_escaped(out, l.value);
        out += "\"";
      }
      out += "}";
    }
    switch (v.type) {
      case MetricType::kCounter:
        out += ",\"type\":\"counter\",\"value\":";
        append_number(out, v.value);
        break;
      case MetricType::kGauge:
        out += ",\"type\":\"gauge\",\"value\":";
        append_number(out, v.value);
        break;
      case MetricType::kHistogram:
        out += ",\"type\":\"histogram\",\"count\":";
        out += std::to_string(v.count);
        out += ",\"mean\":";
        append_number(out, v.value);
        out += ",\"min\":";
        append_number(out, v.min);
        out += ",\"max\":";
        append_number(out, v.max);
        out += ",\"stddev\":";
        append_number(out, v.stddev);
        out += ",\"p50\":";
        append_number(out, v.p50);
        out += ",\"p99\":";
        append_number(out, v.p99);
        break;
    }
    out += "}";
  }
  out += "\n]}\n";
  return out;
}

bool MetricsRegistry::write_json(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string json = to_json();
  const std::size_t n = std::fwrite(json.data(), 1, json.size(), f);
  const bool ok = n == json.size() && std::fclose(f) == 0;
  if (n != json.size()) std::fclose(f);
  return ok;
}

}  // namespace mccl::telemetry
