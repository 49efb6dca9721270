#include "bench/bench_common.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <thread>
#include <map>
#include <string_view>

#include "src/common/stats.hpp"

namespace mccl::bench {

coll::ClusterConfig synthetic_cluster() {
  coll::ClusterConfig cfg;
  cfg.nic.carry_payload = false;
  // Address-space-only arena: generous, nothing is materialized.
  cfg.nic.memory_capacity = std::uint64_t{1} << 44;  // 16 TiB
  return cfg;
}

fabric::Topology ucc_testbed_topology(std::size_t hosts) {
  // 188 hosts on 12 leaves x 16 hosts, 6 spines, 3 trunks per leaf-spine
  // pair: 18 switches, matching the testbed's switch count, at 56 Gbit/s.
  fabric::LinkParams link{56.0, 500 * kNanosecond};
  (void)hosts;
  return fabric::make_fat_tree(12, 16, 6, 3, link, link);
}

coll::ClusterConfig ucc_testbed_cluster() {
  coll::ClusterConfig cfg = synthetic_cluster();
  cfg.fabric.switch_latency = 150 * kNanosecond;
  return cfg;
}

fabric::Topology dpa_testbed_topology() {
  return fabric::make_back_to_back({200.0, 500 * kNanosecond});
}

coll::ClusterConfig dpa_testbed_cluster() {
  coll::ClusterConfig cfg = synthetic_cluster();
  return cfg;
}

World::World(fabric::Topology topo, coll::ClusterConfig kcfg,
             coll::CommConfig ccfg, std::size_t ranks) {
  MCCL_CHECK(ranks <= topo.num_hosts());
  if (!trace_path().empty()) {
    kcfg.telemetry.trace = true;
    // 188-rank sweeps emit ~1M worker-occupancy spans per collective; the
    // default 1M cap would drop the op-completion phase spans.
    kcfg.telemetry.trace_max_events = 1u << 22;
  }
  cluster = std::make_unique<coll::Cluster>(std::move(topo), kcfg);
  std::vector<fabric::NodeId> ids;
  for (std::size_t h = 0; h < ranks; ++h)
    ids.push_back(static_cast<fabric::NodeId>(h));
  comm = std::make_unique<coll::Communicator>(*cluster, ids, ccfg);
}

World::~World() {
  if (cluster == nullptr || trace_path().empty() ||
      !cluster->telemetry().tracer.enabled())
    return;
  cluster->write_trace(trace_path());
  const std::uint64_t dropped = cluster->telemetry().tracer.dropped();
  if (dropped > 0)
    std::fprintf(stderr,
                 "warning: trace event cap hit, %llu events dropped\n",
                 static_cast<unsigned long long>(dropped));
}

void record_sim_time(benchmark::State& state, Time duration) {
  state.SetIterationTime(to_seconds(duration));
}

void set_gbps(benchmark::State& state, const char* name,
              std::uint64_t bytes, Time duration) {
  state.counters[name] =
      benchmark::Counter(gbps(bytes, duration), benchmark::Counter::kAvgIterations);
}

void set_gibps(benchmark::State& state, const char* name,
               std::uint64_t bytes, Time duration) {
  state.counters[name] =
      benchmark::Counter(gibps(bytes, duration), benchmark::Counter::kAvgIterations);
}

void set_sim_events(benchmark::State& state, std::uint64_t events) {
  state.counters["sim_events"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kAvgIterations);
}

DatapathResult run_datapath(World& w, std::uint64_t bytes) {
  coll::Endpoint& leaf = w.comm->ep(1);
  for (std::size_t i = 0; i < leaf.num_recv_workers(); ++i)
    leaf.recv_worker(i).reset_stats();

  coll::OpBase& op =
      w.comm->start_broadcast(0, bytes, coll::BcastAlgo::kMcast);
  w.cluster->run_until_done([&op] { return op.done(); });
  MCCL_CHECK(!op.result().failed);

  DatapathResult r;
  r.transfer = op.rank_phases(1).transfer;
  r.gibps = gibps(bytes, r.transfer);
  r.gbps = gbps(bytes, r.transfer);
  Time busy = 0;
  double instr = 0, stall = 0;
  for (std::size_t i = 0; i < leaf.num_recv_workers(); ++i) {
    exec::Worker& wk = leaf.recv_worker(i);
    r.cqes += wk.cqes_seen();
    busy += wk.busy_time();
    instr += wk.total_instr();
    stall += wk.total_stall();
  }
  if (r.cqes > 0) {
    const double ghz = leaf.costs().ghz;
    r.cycles_per_cqe =
        static_cast<double>(busy) * ghz / 1000.0 / static_cast<double>(r.cqes);
    r.instr_per_cqe = instr / static_cast<double>(r.cqes);
    r.ipc = instr / (static_cast<double>(busy) * ghz / 1000.0);
  }
  if (r.transfer > 0)
    r.chunk_rate_mps =
        static_cast<double>(r.cqes) / to_seconds(r.transfer) / 1e6;
  return r;
}

void banner(const char* figure, const char* expectation) {
  std::printf("\n=== %s ===\n%s\n(all times are *simulated* hardware time)\n\n",
              figure, expectation);
}

// --- Shared main -------------------------------------------------------------

namespace {

std::string g_json_path;
std::string g_trace_path;

struct RunRecord {
  std::string name;
  std::uint64_t iterations = 0;
  double real_time_us = 0;  // simulated (manual-time) per-iteration time
  double wall_ms = 0;       // host wall-clock per iteration
  double events_per_sec = 0;  // engine dispatch rate over wall time (0 if
                              // the bench did not report event counts)
  std::map<std::string, double> counters;
};

/// Keeps the normal console table while collecting per-run data for the
/// --mccl_json report. Aggregate rows (mean/median across repetitions) are
/// skipped: we recompute our own aggregates over the raw runs.
class CollectingReporter : public benchmark::ConsoleReporter {
 public:
  std::vector<RunRecord> runs;

  void ReportRuns(const std::vector<Run>& reports) override {
    for (const Run& run : reports) {
      if (run.error_occurred || run.run_type != Run::RT_Iteration) continue;
      RunRecord rec;
      rec.name = run.benchmark_name();
      rec.iterations = static_cast<std::uint64_t>(run.iterations);
      const double iters =
          run.iterations > 0 ? static_cast<double>(run.iterations) : 1.0;
      rec.real_time_us = run.real_accumulated_time / iters * 1e6;
      // In manual-time mode real_accumulated_time is *simulated* time; the
      // host cost of the iteration is the CPU time (single-threaded sim, so
      // CPU ~ wall). Non-manual benches report wall time directly.
      const bool manual = rec.name.find("manual_time") != std::string::npos;
      rec.wall_ms =
          (manual ? run.cpu_accumulated_time : run.real_accumulated_time) /
          iters * 1e3;
      for (const auto& [key, counter] : run.counters)
        rec.counters[key] = counter.value;
      if (const auto it = rec.counters.find("events_per_sec");
          it != rec.counters.end()) {
        rec.events_per_sec = it->second;
      } else if (const auto ev = rec.counters.find("sim_events");
                 ev != rec.counters.end() && rec.wall_ms > 0) {
        rec.events_per_sec = ev->second / (rec.wall_ms / 1e3);
      }
      runs.push_back(std::move(rec));
    }
    ConsoleReporter::ReportRuns(reports);
  }
};

/// "Bcast/mcast/188/262144/iterations:1/manual_time" -> "Bcast/mcast":
/// trailing all-digit segments are sweep parameters and `key:value` /
/// `manual_time`-style segments are google-benchmark modifiers — neither is
/// part of the series identity.
std::string family_of(const std::string& name) {
  std::string out = name;
  for (;;) {
    const std::size_t pos = out.rfind('/');
    if (pos == std::string::npos || pos + 1 >= out.size()) break;
    const std::string_view seg(out.data() + pos + 1, out.size() - pos - 1);
    const bool digits =
        std::all_of(seg.begin(), seg.end(), [](char c) {
          return std::isdigit(static_cast<unsigned char>(c)) != 0;
        });
    const bool modifier = seg.find(':') != std::string_view::npos ||
                          seg == "manual_time" || seg == "real_time" ||
                          seg == "process_time";
    if (!digits && !modifier) break;
    out.resize(pos);
  }
  return out;
}

void append_escaped(std::string& out, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

void append_number(std::string& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += buf;
}

std::string report_json(const char* argv0,
                        const std::vector<RunRecord>& runs) {
  std::string out = "{\"binary\":\"";
  append_escaped(out, argv0);
  // The runner's core count: wall-clock rows from hosts of different sizes
  // are not directly comparable, so every report records it.
  out += "\",\"host_cpus\":" +
         std::to_string(std::thread::hardware_concurrency());
  out += ",\"benchmarks\":[";
  bool first = true;
  for (const RunRecord& r : runs) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":\"";
    append_escaped(out, r.name);
    out += "\",\"iterations\":" + std::to_string(r.iterations);
    out += ",\"real_time_us\":";
    append_number(out, r.real_time_us);
    out += ",\"wall_ms\":";
    append_number(out, r.wall_ms);
    out += ",\"events_per_sec\":";
    append_number(out, r.events_per_sec);
    out += ",\"counters\":{";
    bool cf = true;
    for (const auto& [key, value] : r.counters) {
      if (!cf) out += ',';
      cf = false;
      out += '"';
      append_escaped(out, key);
      out += "\":";
      append_number(out, value);
    }
    out += "}}";
  }
  out += "],\"series\":[";
  std::map<std::string, StreamingStats> families;
  for (const RunRecord& r : runs) {
    auto [it, inserted] = families.try_emplace(
        family_of(r.name), /*reservoir_capacity=*/1024, /*seed=*/0x5eedULL);
    (void)inserted;
    it->second.add(r.real_time_us);
  }
  first = true;
  for (const auto& [family, stats] : families) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":\"";
    append_escaped(out, family);
    out += "\",\"count\":" + std::to_string(stats.count());
    out += ",\"time_us\":{\"min\":";
    append_number(out, stats.min());
    out += ",\"median\":";
    append_number(out, stats.median());
    out += ",\"p99\":";
    append_number(out, stats.quantile(0.99));
    out += ",\"mean\":";
    append_number(out, stats.mean());
    out += ",\"max\":";
    append_number(out, stats.max());
    out += "}}";
  }
  out += "]}\n";
  return out;
}

}  // namespace

const std::string& trace_path() { return g_trace_path; }
const std::string& json_path() { return g_json_path; }

int run_main(int argc, char** argv) {
  std::vector<char*> args;
  args.reserve(static_cast<std::size_t>(argc));
  args.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    if (a.rfind("--mccl_json=", 0) == 0) {
      g_json_path = std::string(a.substr(12));
    } else if (a.rfind("--mccl_trace=", 0) == 0) {
      g_trace_path = std::string(a.substr(13));
    } else {
      args.push_back(argv[i]);
    }
  }
  int filtered_argc = static_cast<int>(args.size());
  benchmark::Initialize(&filtered_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(filtered_argc, args.data()))
    return 1;

  CollectingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  if (!g_json_path.empty()) {
    const std::string doc = report_json(argv[0], reporter.runs);
    std::FILE* f = std::fopen(g_json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "error: cannot write --mccl_json file %s\n",
                   g_json_path.c_str());
      return 1;
    }
    std::fwrite(doc.data(), 1, doc.size(), f);
    std::fclose(f);
    std::printf("wrote %zu runs / %s\n", reporter.runs.size(),
                g_json_path.c_str());
  }
  return 0;
}

}  // namespace mccl::bench
