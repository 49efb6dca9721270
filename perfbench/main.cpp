// Repo benchmark runner: runs one workload for a given host-time budget and
// prints its metrics as one JSON object on the last line of stdout.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--spans <path>]
//
// --trace 0 reports the end-to-end metrics. --trace 1 alternates traced and
// untraced iterations: traced ones record spans around every call into the
// simulator and snapshot the layers' public counters at those boundaries,
// and the per-layer metrics come from them. The untraced ones give the
// tracing overhead. --spans writes the recorded spans as Chrome trace JSON.
//
// Every iteration repeats the same seeded simulation, so every iteration
// must produce the same fingerprint; the simulated metrics are taken from
// the first one. Host metrics use every iteration.
#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "probe.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans;
};

bool parse_args(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      a->workload = val;
    } else if (key == "--seed") {
      a->seed = std::strtoull(val, &end, 10);
      if (*end != '\0') return false;
    } else if (key == "--seconds") {
      a->seconds = std::strtod(val, &end);
      if (*end != '\0' || a->seconds < 0) return false;
    } else if (key == "--trace") {
      if (std::strcmp(val, "0") != 0 && std::strcmp(val, "1") != 0)
        return false;
      a->trace = val[0] == '1';
    } else if (key == "--spans") {
      a->spans = val;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty();
}

class MetricsOut {
 public:
  void add(const char* name, double value, const char* unit) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  body_.empty() ? "" : ", ", name, value, unit);
    body_ += buf;
  }
  const std::string& body() const { return body_; }

 private:
  std::string body_;
};

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

void end_to_end(const std::vector<Iteration>& iters, double rss_mib,
                MetricsOut& m) {
  const Iteration& first = iters.front();
  std::vector<double> setups, rates;
  for (const Iteration& it : iters) {
    setups.insert(setups.end(), it.setup_s.begin(), it.setup_s.end());
    rates.insert(rates.end(), it.ops_per_s.begin(), it.ops_per_s.end());
  }
  const double ops_per_iter = static_cast<double>(first.attempted);
  m.add("setup_s", median(setups), "s");
  // The median over worlds keeps a burst of load on the host from moving
  // the figure of a whole run.
  m.add("ops_per_s", median(rates), "1/s");
  m.add("peak_rss_mib", rss_mib, "MiB");
  // bits per simulated nanosecond = Gb/s
  m.add("sim_goodput_gbps",
        ratio(first.payload_bytes * 8.0, first.sim_op_us * 1e3), "Gb/s");
  m.add("sim_op_us_p50", percentile(first.lat_us, 0.50), "us");
  m.add("sim_op_us_p90", percentile(first.lat_us, 0.90), "us");
  m.add("sim_hp_op_us_p90", percentile(first.hp_lat_us, 0.90), "us");
  m.add("sim_wire_mib_per_op",
        ratio(static_cast<double>(first.delta.wire_bytes) / (1 << 20),
              ops_per_iter),
        "MiB");
}

void per_layer(const std::vector<Iteration>& iters,
               const std::vector<char>& traced, const Tracer& tr,
               MetricsOut& m) {
  std::size_t t = 0;
  while (!traced[t]) ++t;
  const Iteration& it = iters[t];
  const Counters& c = it.delta;
  const double ops = static_cast<double>(it.attempted);
  const auto per_op = [ops](double v) { return ratio(v, ops); };
  constexpr double kMiB = 1 << 20;

  // Host time of the timed-phase calls: each blocking collective, or the
  // scheduler's run of a whole tenant mix.
  const double loop_s = tr.seconds("coll.op") + tr.seconds("sched.run");
  const double loop_events =
      static_cast<double>(tr.events("coll.op") + tr.events("sched.run"));
  const double loop_packets =
      static_cast<double>(tr.packets("coll.op") + tr.packets("sched.run"));

  m.add("sim.events_per_op", per_op(static_cast<double>(c.events)), "count");
  m.add("sim.host_ns_per_event", ratio(loop_s * 1e9, loop_events), "ns");
  m.add("sim.event_slots_peak", static_cast<double>(c.event_slots), "count");

  m.add("fabric.packets_per_op", per_op(static_cast<double>(c.packets)),
        "count");
  m.add("fabric.host_ns_per_packet", ratio(loop_s * 1e9, loop_packets), "ns");
  m.add("fabric.drops_per_op", per_op(static_cast<double>(c.drops)), "count");
  m.add("fabric.pool_packets_peak", static_cast<double>(c.pool_packets),
        "count");
  m.add("fabric.switch_port_mib_per_op",
        per_op(static_cast<double>(c.switch_port_bytes) / kMiB), "MiB");

  m.add("rdma.rc_retransmissions_per_op",
        per_op(static_cast<double>(c.rc_retransmissions)), "count");
  m.add("rdma.rnr_drops_per_op", per_op(static_cast<double>(c.rnr_drops)),
        "count");
  m.add("rdma.dma_mib_per_op", per_op(static_cast<double>(c.dma_bytes) / kMiB),
        "MiB");
  m.add("rdma.heap_mib", static_cast<double>(c.heap_bytes) / kMiB, "MiB");

  m.add("exec.cqes_per_op", per_op(static_cast<double>(c.cqes)), "count");
  m.add("exec.tasks_per_op", per_op(static_cast<double>(c.tasks)), "count");
  m.add("exec.busy_us_per_op", per_op(static_cast<double>(c.busy) / 1e6),
        "us");
  m.add("exec.cycles_per_cqe",
        ratio(c.recv_cycles, static_cast<double>(c.recv_cqes)), "cycles");
  m.add("exec.ipc", ratio(c.recv_instr, c.recv_cycles), "ratio");

  m.add("coll.comm_setup_ms",
        ratio(tr.seconds("coll.Communicator") * 1e3,
              static_cast<double>(tr.count("coll.Communicator"))),
        "ms");
  m.add("coll.start_host_us",
        ratio(tr.seconds("coll.start") * 1e6,
              static_cast<double>(tr.count("coll.start"))),
        "us");
  m.add("coll.finish_host_ms",
        ratio(tr.seconds("coll.finish") * 1e3,
              static_cast<double>(tr.count("coll.finish"))),
        "ms");
  m.add("coll.phase_barrier_us", median(it.phase_us[0]), "us");
  m.add("coll.phase_transfer_us", median(it.phase_us[1]), "us");
  m.add("coll.phase_reliability_us", median(it.phase_us[2]), "us");
  m.add("coll.phase_handshake_us", median(it.phase_us[3]), "us");
  m.add("coll.fetched_chunks_per_op",
        per_op(static_cast<double>(it.fetched_chunks)), "count");
  m.add("coll.detector.heartbeats_per_op",
        per_op(static_cast<double>(c.heartbeats)), "count");
  m.add("coll.detector.suspicions", static_cast<double>(c.suspicions),
        "count");

  m.add("inc.merged_packets_per_op",
        per_op(static_cast<double>(c.merged_packets)), "count");

  const SchedCounters& s = it.sched;
  m.add("sched.admitted", static_cast<double>(s.admitted), "count");
  m.add("sched.queued", static_cast<double>(s.queued), "count");
  m.add("sched.rejected", static_cast<double>(s.rejected), "count");
  m.add("sched.deferrals", static_cast<double>(s.deferrals), "count");
  m.add("sched.peak_running", static_cast<double>(s.peak_running), "count");
  double queue_sum = 0;
  for (const double q : s.queue_us) queue_sum += q;
  m.add("sched.queue_us_mean",
        ratio(queue_sum, static_cast<double>(s.queue_us.size())), "us");

  // Tracing overhead: ops per host second, untraced against traced.
  double ops_on[2] = {0, 0}, secs_on[2] = {0, 0};
  for (std::size_t i = 0; i < iters.size(); ++i) {
    ops_on[traced[i] ? 1 : 0] += static_cast<double>(iters[i].attempted);
    secs_on[traced[i] ? 1 : 0] += iters[i].run_s;
  }
  const double untraced = ratio(ops_on[0], secs_on[0]);
  const double traced_rate = ratio(ops_on[1], secs_on[1]);
  m.add("trace.overhead_pct",
        untraced > 0 ? 100.0 * (1.0 - traced_rate / untraced) : 0.0, "%");
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--spans <path>]\n",
                 argv[0]);
    return 2;
  }
  const Workload* wl = nullptr;
  for (const Workload& w : workloads())
    if (args.workload == w.name) wl = &w;
  if (wl == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }

  // Keep freed memory in the process: later worlds then reuse pages instead
  // of faulting them in afresh, and kernel page-fault time, which varies
  // with the memory state of the whole machine, stays out of host time.
  mallopt(M_MMAP_MAX, 0);
  mallopt(M_TRIM_THRESHOLD, -1);

  // Iterate until the next iteration would end further past the budget
  // than stopping now falls short of it. A traced run needs at least one
  // traced and one untraced iteration.
  const std::size_t min_iters = args.trace ? 2 : 1;
  Tracer tracer;
  double rss_mib = 0;
  std::vector<Iteration> iters;
  std::vector<char> traced;
  const Clock::time_point t0 = Clock::now();
  for (;;) {
    const bool on = args.trace && iters.size() % 2 == 0;
    iters.push_back(run_iteration(*wl, args.seed, on ? &tracer : nullptr));
    traced.push_back(on ? 1 : 0);
    // The allocator keeps freed memory of earlier worlds, so later
    // iterations can raise the high-water mark by fragmentation alone; the
    // first iteration's peak does not depend on how many fit the budget.
    if (iters.size() == 1) rss_mib = peak_rss_mib();
    std::fprintf(stderr, "iteration %zu%s: %llu ops in %.4f s\n",
                 iters.size(), on ? " (traced)" : "",
                 static_cast<unsigned long long>(iters.back().attempted),
                 iters.back().run_s);
    const double elapsed = seconds_since(t0);
    const double mean_iter = elapsed / static_cast<double>(iters.size());
    if (iters.size() >= min_iters && elapsed + 0.5 * mean_iter >= args.seconds)
      break;
  }

  std::uint64_t attempted = 0, failed = 0;
  bool correct = true;
  for (const Iteration& it : iters) {
    attempted += it.attempted;
    failed += it.failed;
    correct = correct && it.checks_ok &&
              it.fingerprint == iters.front().fingerprint;
  }
  correct = correct && failed == 0 && attempted > 0;
  std::printf("fingerprint %s seed=%llu %016llx iterations=%zu%s\n", wl->name,
              static_cast<unsigned long long>(args.seed),
              static_cast<unsigned long long>(iters.front().fingerprint),
              iters.size(), correct ? "" : " MISMATCH-OR-FAILURE");

  if (args.trace && !args.spans.empty() && !tracer.write(args.spans)) {
    std::fprintf(stderr, "cannot write spans to %s\n", args.spans.c_str());
    return 1;
  }

  MetricsOut m;
  if (args.trace)
    per_layer(iters, traced, tracer, m);
  else
    end_to_end(iters, rss_mib, m);
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false", static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed), m.body().c_str());
  return 0;
}
