// Telemetry subsystem tests: metrics registry (identity, snapshot, diff),
// streaming stats, flight-recorder ring semantics, tracer on/off behavior,
// JSON well-formedness, golden-trace determinism (same seed => byte-equal
// output), phase-span/phase-timer agreement, and the watchdog -> flight
// recorder integration.
#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "src/telemetry/telemetry.hpp"
#include "tests/coll_test_util.hpp"

namespace mccl::telemetry {
namespace {

// --- A minimal JSON syntax validator (no deps; enough for well-formedness) --

class JsonScanner {
 public:
  explicit JsonScanner(const std::string& s) : s_(s) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }

  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    for (;;) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }

  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    for (;;) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }

  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if (static_cast<unsigned char>(c) < 0x20) return false;  // raw control
      if (c == '\\') {
        if (pos_ + 1 >= s_.size()) return false;
        const char esc = s_[pos_ + 1];
        if (esc == 'u') {
          if (pos_ + 5 >= s_.size()) return false;
          for (int i = 2; i <= 5; ++i)
            if (std::isxdigit(static_cast<unsigned char>(s_[pos_ + i])) == 0)
              return false;
          pos_ += 6;
          continue;
        }
        if (std::string("\"\\/bfnrt").find(esc) == std::string::npos)
          return false;
        pos_ += 2;
        continue;
      }
      if (c == '"') { ++pos_; return true; }
      ++pos_;
    }
    return false;
  }

  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (std::isdigit(static_cast<unsigned char>(peek())) != 0) ++pos_;
    if (peek() == '.') {
      ++pos_;
      while (std::isdigit(static_cast<unsigned char>(peek())) != 0) ++pos_;
    }
    if (peek() == 'e' || peek() == 'E') {
      ++pos_;
      if (peek() == '+' || peek() == '-') ++pos_;
      while (std::isdigit(static_cast<unsigned char>(peek())) != 0) ++pos_;
    }
    return pos_ > start;
  }

  bool literal(const char* lit) {
    for (const char* p = lit; *p != '\0'; ++p, ++pos_)
      if (pos_ >= s_.size() || s_[pos_] != *p) return false;
    return true;
  }

  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\n' || s_[pos_] == '\t' ||
            s_[pos_] == '\r'))
      ++pos_;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

bool valid_json(const std::string& s) { return JsonScanner(s).valid(); }

TEST(JsonScanner, SanityOnTheValidatorItself) {
  EXPECT_TRUE(valid_json("{}"));
  EXPECT_TRUE(valid_json(R"({"a":[1,2.5,-3e4,"x\n",true,null]})"));
  EXPECT_FALSE(valid_json("{"));
  EXPECT_FALSE(valid_json(R"({"a":1,})"));
  EXPECT_FALSE(valid_json("[1 2]"));
  EXPECT_FALSE(valid_json(std::string("\"a\nb\"")));  // raw newline
}

// --- Metrics registry -------------------------------------------------------

TEST(Metrics, KeyCanonicalizesLabelOrder) {
  EXPECT_EQ(MetricsRegistry::key("m", {{"b", "2"}, {"a", "1"}}),
            "m{a=1,b=2}");
  EXPECT_EQ(MetricsRegistry::key("m", {}), "m");
}

TEST(Metrics, CounterGaugeHistogramRoundTrip) {
  MetricsRegistry reg;
  reg.counter("pkts", {{"dir", "rx"}}).add(3);
  reg.counter("pkts", {{"dir", "rx"}}).add(2);  // same slot
  reg.gauge("occupancy").set(0.75);
  Histogram& h = reg.histogram("lat_us");
  for (int i = 1; i <= 100; ++i) h.observe(i);

  const Snapshot snap = reg.snapshot();
  ASSERT_EQ(snap.count("pkts{dir=rx}"), 1u);
  EXPECT_EQ(snap.at("pkts{dir=rx}").value, 5.0);
  EXPECT_EQ(snap.at("pkts{dir=rx}").count, 5u);
  EXPECT_EQ(snap.at("occupancy").value, 0.75);
  const MetricValue& lat = snap.at("lat_us");
  EXPECT_EQ(lat.count, 100u);
  EXPECT_EQ(lat.min, 1.0);
  EXPECT_EQ(lat.max, 100.0);
  EXPECT_NEAR(lat.value, 50.5, 1e-9);  // mean
  EXPECT_NEAR(lat.p50, 50.5, 1.0);     // exact below reservoir capacity
}

TEST(Metrics, SnapshotDiffSubtractsCountersKeepsGauges) {
  MetricsRegistry reg;
  reg.counter("c").add(10);
  reg.gauge("g").set(1.0);
  const Snapshot before = reg.snapshot();
  reg.counter("c").add(7);
  reg.gauge("g").set(2.0);
  reg.counter("fresh").add(4);  // key absent from `before`
  const Snapshot after = reg.snapshot();

  const Snapshot d = MetricsRegistry::diff(after, before);
  EXPECT_EQ(d.at("c").value, 7.0);
  EXPECT_EQ(d.at("g").value, 2.0);      // gauges keep the later level
  EXPECT_EQ(d.at("fresh").value, 4.0);  // missing-from-earlier == zero
}

TEST(Metrics, PublishersRunAtSnapshotTime) {
  MetricsRegistry reg;
  int calls = 0;
  const std::uint64_t id = reg.add_publisher([&calls](MetricsRegistry& r) {
    ++calls;
    r.gauge("published").set(static_cast<double>(calls));
  });
  EXPECT_EQ(reg.snapshot().at("published").value, 1.0);
  EXPECT_EQ(reg.snapshot().at("published").value, 2.0);
  reg.remove_publisher(id);
  EXPECT_EQ(reg.snapshot().at("published").value, 2.0);  // stale, not rerun
  EXPECT_EQ(calls, 2);
}

TEST(Metrics, JsonIsWellFormed) {
  MetricsRegistry reg;
  reg.counter("weird\"name\n", {{"k", "v\\w"}}).add(1);
  reg.histogram("h").observe(3.25);
  EXPECT_TRUE(valid_json(MetricsRegistry::to_json(reg.snapshot())));
}

// --- Streaming stats --------------------------------------------------------

TEST(Streaming, MatchesExactStatsBelowReservoirCapacity) {
  StreamingStats s(/*reservoir_capacity=*/128, /*seed=*/1);
  Stats exact;
  for (int i = 0; i < 100; ++i) {
    const double x = (i * 37) % 101;  // deterministic, unordered
    s.add(x);
    exact.add(x);
  }
  EXPECT_EQ(s.count(), exact.count());
  EXPECT_EQ(s.min(), exact.min());
  EXPECT_EQ(s.max(), exact.max());
  EXPECT_NEAR(s.mean(), exact.mean(), 1e-9);
  EXPECT_NEAR(s.stddev(), exact.stddev(), 1e-9);
  // Below capacity the reservoir holds every sample: quantiles are exact.
  EXPECT_EQ(s.reservoir_size(), 100u);
  EXPECT_NEAR(s.median(), exact.median(), 1e-9);
}

TEST(Streaming, ReservoirStaysBoundedAndQuantilesStayReasonable) {
  StreamingStats s(/*reservoir_capacity=*/64, /*seed=*/9);
  for (int i = 1; i <= 10000; ++i) s.add(i);
  EXPECT_EQ(s.count(), 10000u);
  EXPECT_EQ(s.reservoir_size(), 64u);  // bounded memory
  EXPECT_EQ(s.min(), 1.0);
  EXPECT_EQ(s.max(), 10000.0);
  // Uniform 1..10000: the sampled median must land mid-range.
  EXPECT_GT(s.median(), 2500.0);
  EXPECT_LT(s.median(), 7500.0);
}

// --- Flight recorder --------------------------------------------------------

TEST(Recorder, RingEvictsOldestPerNode) {
  FlightRecorder rec(/*per_node_capacity=*/4);
  for (std::uint64_t i = 0; i < 10; ++i)
    rec.record(static_cast<Time>(i * 100), /*node=*/0, EventCat::kPacket,
               "ev", i);
  EXPECT_EQ(rec.size(), 4u);
  EXPECT_EQ(rec.recorded(), 10u);
  EXPECT_EQ(rec.evicted(), 6u);
  const std::vector<FlightRecorder::Entry> m = rec.merged();
  ASSERT_EQ(m.size(), 4u);
  // The four *newest* entries survive, in time order.
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(m[i].a, 6 + i);
}

TEST(Recorder, MergedInterleavesNodesByTimeThenSeq) {
  FlightRecorder rec(8);
  rec.record(300, 1, EventCat::kColl, "c");
  rec.record(100, 0, EventCat::kPacket, "a");
  rec.record(100, 2, EventCat::kQp, "b");  // same t, later seq
  rec.record(200, -1, EventCat::kFault, "global");
  const auto m = rec.merged();
  ASSERT_EQ(m.size(), 4u);
  EXPECT_STREQ(m[0].what, "a");
  EXPECT_STREQ(m[1].what, "b");
  EXPECT_STREQ(m[2].what, "global");
  EXPECT_STREQ(m[3].what, "c");
}

TEST(Recorder, DisabledRecorderRecordsNothing) {
  FlightRecorder rec(8);
  rec.enable(false);
  rec.record(1, 0, EventCat::kPacket, "dropped");
  EXPECT_EQ(rec.size(), 0u);
  EXPECT_EQ(rec.recorded(), 0u);
}

// --- Tracer -----------------------------------------------------------------

TEST(Tracer, DisabledTracerIsANoOp) {
  Tracer tr;  // disabled by default
  const TrackId t = tr.track(0, "rank 0", 0, "app");
  tr.complete(t, "span", 0, 100);
  tr.instant(t, "mark", 50);
  tr.counter(t, "queue", 50, 3);
  EXPECT_EQ(tr.num_events(), 0u);
  EXPECT_EQ(tr.dropped(), 0u);
}

TEST(Tracer, TrackDedupAndEventCapture) {
  Tracer tr;
  tr.enable();
  const TrackId a = tr.track(0, "rank 0", 0, "app");
  const TrackId b = tr.track(0, "ignored-second-name", 0, "ignored");
  EXPECT_EQ(a, b);  // (pid, tid) identity
  EXPECT_EQ(tr.num_tracks(), 1u);
  EXPECT_EQ(tr.track_info(a).process, "rank 0");
  tr.complete(a, "span", 1000, 3000, "cat");
  ASSERT_EQ(tr.num_events(), 1u);
  EXPECT_EQ(tr.events()[0].dur, 2000);
}

TEST(Tracer, EventCapCountsDrops) {
  Tracer tr(Tracer::Options{/*max_events=*/2});
  tr.enable();
  const TrackId t = tr.track(0, "p", 0, "t");
  for (int i = 0; i < 5; ++i) tr.instant(t, "x", i);
  EXPECT_EQ(tr.num_events(), 2u);
  EXPECT_EQ(tr.dropped(), 3u);
}

TEST(Tracer, JsonIsWellFormed) {
  Tracer tr;
  tr.enable();
  const TrackId t = tr.track(7, "rank \"7\"", 2, "recv\n0");
  tr.complete(t, "multi\\cast", 0, 5000, "coll");
  tr.instant(t, "cutoff", 2500, "coll");
  tr.counter(t, "pending", 100, 42.5);
  const std::string json = tr.to_json();
  EXPECT_TRUE(valid_json(json));
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
}

}  // namespace
}  // namespace mccl::telemetry

// --- Integration with the simulator ----------------------------------------

namespace mccl::coll {
namespace {

using mccl::telemetry::EventCat;
using mccl::telemetry::FlightRecorder;
using mccl::telemetry::Tracer;
using testing::World;

ClusterConfig traced_cluster() {
  ClusterConfig kcfg;
  kcfg.telemetry.trace = true;
  return kcfg;
}

CommConfig quick_recovery() {
  CommConfig cfg;
  cfg.cutoff_alpha = 50 * kMicrosecond;
  return cfg;
}

/// Sums the durations of `name` spans on rank `r`'s tracks.
Time span_sum(const Cluster& cl, std::int64_t rank, const char* name) {
  const Tracer& tr = cl.telemetry().tracer;
  Time total = 0;
  for (const Tracer::Event& ev : tr.events()) {
    if (ev.ph != 'X' || ev.name != name) continue;
    if (tr.track_info(ev.track).pid != rank) continue;
    total += ev.dur;
  }
  return total;
}

TEST(TelemetryIntegration, PhaseSpansMatchPhaseTimersExactly) {
  World w(4, quick_recovery(), traced_cluster());
  OpBase& op = w.comm->start_broadcast(0, 256 * 1024, BcastAlgo::kMcast);
  const OpResult res = w.comm->finish(op);
  ASSERT_TRUE(res.data_verified);
  for (std::size_t r = 0; r < 4; ++r) {
    const Phases& p = op.rank_phases(r);
    const auto rank = static_cast<std::int64_t>(r);
    EXPECT_EQ(span_sum(*w.cluster, rank, "barrier"), p.barrier);
    // The multicast span covers data movement + slow-path recovery; the
    // recovery span carves out the slow-path share as a nested child.
    EXPECT_EQ(span_sum(*w.cluster, rank, "multicast"),
              p.transfer + p.reliability);
    EXPECT_EQ(span_sum(*w.cluster, rank, "recovery"), p.reliability);
    EXPECT_EQ(span_sum(*w.cluster, rank, "handshake"), p.handshake);
  }
}

TEST(TelemetryIntegration, LossyPhaseSpansStillMatch) {
  ClusterConfig kcfg = traced_cluster();
  kcfg.fabric.faults.burst.drop_good = 0.02;
  kcfg.fabric.seed = 77;
  World w(4, quick_recovery(), kcfg);
  OpBase& op = w.comm->start_allgather(64 * 1024, AllgatherAlgo::kMcast);
  const OpResult res = w.comm->finish(op);
  ASSERT_TRUE(res.data_verified);
  EXPECT_GT(res.max_phases.reliability, 0);  // recovery actually exercised
  for (std::size_t r = 0; r < 4; ++r) {
    const Phases& p = op.rank_phases(r);
    const auto rank = static_cast<std::int64_t>(r);
    EXPECT_EQ(span_sum(*w.cluster, rank, "barrier"), p.barrier);
    EXPECT_EQ(span_sum(*w.cluster, rank, "multicast"),
              p.transfer + p.reliability);
    EXPECT_EQ(span_sum(*w.cluster, rank, "recovery"), p.reliability);
    EXPECT_EQ(span_sum(*w.cluster, rank, "handshake"), p.handshake);
  }
}

struct GoldenRun {
  std::string trace;
  std::string metrics;
};

GoldenRun golden_run() {
  ClusterConfig kcfg = traced_cluster();
  kcfg.fabric.faults.burst.drop_good = 0.02;
  kcfg.fabric.seed = 42;
  CommConfig cfg = quick_recovery();
  cfg.subgroups = 2;
  cfg.recv_workers = 2;
  World w(5, cfg, kcfg);
  const OpResult res = w.comm->allgather(64 * 1024, AllgatherAlgo::kMcast);
  EXPECT_TRUE(res.data_verified);
  w.cluster->flush_trace();
  return {w.cluster->telemetry().tracer.to_json(),
          w.cluster->telemetry().metrics.to_json()};
}

TEST(TelemetryIntegration, GoldenTraceIsByteIdenticalAcrossRuns) {
  const GoldenRun a = golden_run();
  const GoldenRun b = golden_run();
  EXPECT_GT(a.trace.size(), 1000u);  // a real trace, not an empty shell
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_EQ(a.metrics, b.metrics);
}

TEST(TelemetryIntegration, TracedRunEmitsWorkerAndEngineTracks) {
  ClusterConfig kcfg = traced_cluster();
  kcfg.telemetry.engine_sample = 64;  // small run: sample often enough
  World w(4, quick_recovery(), kcfg);
  const OpResult res =
      w.comm->broadcast(0, 128 * 1024, BcastAlgo::kMcast);
  ASSERT_TRUE(res.data_verified);
  w.cluster->flush_trace();
  const Tracer& tr = w.cluster->telemetry().tracer;
  bool saw_busy = false, saw_engine = false;
  for (const Tracer::Event& ev : tr.events()) {
    if (ev.name == "busy") saw_busy = true;
    if (tr.track_info(ev.track).pid == telemetry::kSimTracePid)
      saw_engine = true;
  }
  EXPECT_TRUE(saw_busy);
  EXPECT_TRUE(saw_engine);
}

TEST(TelemetryIntegration, WatchdogFailureLandsInFlightRecorder) {
  // reliability=false: a dropped multicast chunk is unrecoverable, the op
  // dies by watchdog — and the verdict (plus the drop's paper trail) must
  // be queryable from the flight recorder, not just printed.
  CommConfig cfg = quick_recovery();
  cfg.reliability = false;
  World w(4, cfg);
  int mcast_pkts = 0;
  w.cluster->fabric().set_drop_filter(
      [&](fabric::NodeId, fabric::NodeId to, const fabric::Packet& p) {
        return p.th.op == fabric::TransportOp::kUdSend && to == 2 &&
               ++mcast_pkts == 5;
      });
  const OpResult res = w.comm->broadcast(0, 128 * 1024, BcastAlgo::kMcast);
  EXPECT_TRUE(res.failed);
  EXPECT_TRUE(res.watchdog_fired);

  const FlightRecorder& rec = w.cluster->telemetry().recorder;
  bool saw_watchdog = false;
  for (const FlightRecorder::Entry& e : rec.merged())
    if (e.cat == EventCat::kWatchdog) saw_watchdog = true;
  EXPECT_TRUE(saw_watchdog);

  // The registry tells the same story.
  const telemetry::Snapshot snap = w.cluster->telemetry().metrics.snapshot();
  EXPECT_EQ(snap.at("coll.watchdog_fired").count, 1u);
  EXPECT_EQ(snap.at("coll.ops{result=failed}").count, 1u);
}

TEST(TelemetryIntegration, SlowPathCountersReachTheRegistry) {
  ClusterConfig kcfg;
  kcfg.fabric.faults.burst.drop_good = 0.02;
  kcfg.fabric.seed = 77;
  World w(4, quick_recovery(), kcfg);
  const OpResult res = w.comm->allgather(64 * 1024, AllgatherAlgo::kMcast);
  ASSERT_TRUE(res.data_verified);
  const telemetry::Snapshot snap = w.cluster->telemetry().metrics.snapshot();
  EXPECT_EQ(snap.at("coll.fetch_retries").count, res.fetch_retries);
  EXPECT_EQ(snap.at("coll.fetch_failovers").count, res.fetch_failovers);
  EXPECT_EQ(snap.at("coll.fetched_chunks").count, res.fetched_chunks);
  EXPECT_GT(snap.at("fabric.packets").count, 0u);
  EXPECT_GT(snap.at("fabric.drops").count, 0u);
}

}  // namespace
}  // namespace mccl::coll
