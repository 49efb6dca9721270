// Adapt storm: A/B benchmark of the performance-fault adaptation layer.
//
// Crash tolerance (example_chaos_storm) handles nodes that *die*. This
// example stresses the uglier production case: nothing dies, but parts of
// the cluster get *slow* — a leaf->spine trunk on one rail degrades to a
// few percent of nominal bandwidth, one host's progress engine crawls, and
// a burst-loss regime drops packets in clumps. A static collective keeps
// multicasting through the sick trunk and keeps hashing recovery unicast
// onto it, every single op. The adaptation layer (coll/health_monitor)
// closes the loop: peak-backlog link sampling deweights the trunk, the
// subgroup re-balancer re-pins the affected multicast trees onto the
// healthy rail, and weighted ECMP steers unicast off the sick plane at the
// hosts' injection points.
//
// The straggler is background load for both modes: a mildly slow host (3x
// on ops this short) that the failure detector must never confirm dead.
// The health plane scores links, not peers, so it has no straggler policy.
//
// The experiment runs the *identical seeded fault timeline* twice per seed
// — adaptation off (static) and on (adaptive) — and pools per-rank
// completion times over several ops and seeds. The contract under test (the
// PR's acceptance gate): adaptive p99 completion must be at least 25% lower
// than static p99. The run also cross-checks the subgroup re-pin metric
// against the communicator's counter, proves the static baseline reports
// exactly zero adaptation, and prints per-(seed, mode) dispatch hashes in
// validate builds so CI can diff a double run for byte-identical replay.
//
// Usage: example_adapt_storm [--mccl_json=<path>]
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "src/coll/communicator.hpp"
#include "src/common/stats.hpp"
#include "src/debug/validate.hpp"

using namespace mccl;

namespace {

constexpr std::size_t kRanks = 8;
constexpr std::uint64_t kBytes = 128 * KiB;  // per-rank contribution
// Per seed: one unmeasured warm-up op (the health plane starts cold; the
// first op is where it *learns*, and both modes are identical until it
// does), then the measured steady-state ops.
constexpr int kWarmupOps = 1;
constexpr int kMeasuredOps = 6;
constexpr std::uint64_t kSeeds[] = {42, 1337, 20240};
constexpr double kRequiredImprovement = 0.25;

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

struct ModeStats {
  std::vector<double> completions_us;  // per rank, per op, pooled
  std::uint64_t link_deweights = 0;
  std::uint64_t ecmp_reweights = 0;
  std::uint64_t subgroup_repins = 0;
};

// The seeded timeline — all *performance* faults, all persistent (nothing
// ever dies, nothing ever heals): one leaf->spine trunk degrades to 8%
// bandwidth with 15us added latency, one seed-derived host straggles 3x,
// and a mild Gilbert-Elliott burst regime drops packets in clumps. The
// trunk is
// fixed: in make_multi_rail_fat_tree(2, 2, 4, 1, 1) hosts are 0-7 and rail
// 0 is leaves 8-9 + spine 10, so degrading 8<->10 poisons exactly one rail
// plane. That makes every seed exercise the full loop: link sampling marks
// the trunk, subgroup re-balancing re-pins the rail-0 multicast tree onto
// the healthy rail, and weighted ECMP steers recovery unicast off the sick
// spine.
fabric::FaultConfig make_timeline(std::uint64_t seed,
                                  fabric::NodeId* straggler_out) {
  fabric::FaultConfig fc;
  const fabric::NodeId straggler =
      static_cast<fabric::NodeId>(splitmix64(seed) % kRanks);
  *straggler_out = straggler;
  fc.events = {
      fabric::FaultEvent::degrade(10 * kMicrosecond, 8, 10, 0.08,
                                  15 * kMicrosecond),
      fabric::FaultEvent::straggler_begin(20 * kMicrosecond, straggler, 3.0),
  };
  // Mild clumped loss: short bad episodes (~4 packets at 25% drop) stress
  // the fetch/reliability path without pushing any healthy link's windowed
  // drop fraction over the health plane's drop_enter threshold — link
  // deweighting should indict the degraded trunk, not random loss.
  fc.burst.p_enter_bad = 0.0005;
  fc.burst.p_exit_bad = 0.25;
  fc.burst.drop_bad = 0.25;
  return fc;
}

bool run_mode(std::uint64_t seed, bool adaptive, ModeStats* out) {
  fabric::NodeId straggler = 0;
  coll::ClusterConfig kcfg;
  kcfg.fabric.faults = make_timeline(seed, &straggler);
  kcfg.fabric.seed = splitmix64(seed ^ 0xada9705ull);
  // Recovery timers scaled to the scenario (ops finish in ~100-250us, the
  // defaults assume multi-ms ops): a dropped packet must cost a re-send,
  // not an era. Identical in both modes — the A/B isolates adaptation.
  kcfg.nic.rc_rto = 20 * kMicrosecond;
  kcfg.health.enabled = adaptive;
  kcfg.health.seed = seed;
  coll::Cluster cluster(
      fabric::make_multi_rail_fat_tree(2, 2, 4, 1, 1, {}, {}), kcfg);

  coll::CommConfig cfg;
  cfg.transport = coll::Transport::kUcMcast;
  cfg.subgroups = 4;  // rail-striped: even subgroups -> rail 0, odd -> rail 1
  cfg.cutoff_alpha = 30 * kMicrosecond;
  cfg.fetch_retry_timeout = 40 * kMicrosecond;
  std::vector<fabric::NodeId> hosts;
  for (std::size_t h = 0; h < kRanks; ++h)
    hosts.push_back(static_cast<fabric::NodeId>(h));
  coll::Communicator comm(cluster, hosts, cfg);

  for (int op = 0; op < kWarmupOps + kMeasuredOps; ++op) {
    const bool measured = op >= kWarmupOps;
    const coll::OpResult res =
        comm.allgather(kBytes, coll::AllgatherAlgo::kMcast);
    if (!res.data_verified || res.failed || res.watchdog_fired) {
      std::fprintf(stderr,
                   "FAIL: seed %llu %s op %d did not verify (failed=%d "
                   "watchdog=%d): %s\n",
                   static_cast<unsigned long long>(seed),
                   adaptive ? "adaptive" : "static", op, res.failed,
                   res.watchdog_fired, res.error.c_str());
      cluster.telemetry().recorder.dump(stderr);
      return false;
    }
    if (measured)
      for (const Time t : res.rank_finish)
        out->completions_us.push_back(to_microseconds(t - res.start));
    std::printf(
        "  seed=%-6llu %-8s op=%d%s straggler=%d dur=%8.1f us fetched=%5llu\n",
        static_cast<unsigned long long>(seed),
        adaptive ? "adaptive" : "static", op, measured ? "" : " (warmup)",
        static_cast<int>(straggler), to_microseconds(res.duration()),
        static_cast<unsigned long long>(res.fetched_chunks));
  }

  const telemetry::Snapshot snap = cluster.telemetry().metrics.snapshot();
  const auto metric = [&snap](const char* key) -> std::uint64_t {
    const auto it = snap.find(key);
    return it == snap.end() ? 0 : it->second.count;
  };
  // Performance faults must never be mistaken for crashes: a 3x straggler
  // is slow, not dead, and the lease-based detector must hold its fire.
  if (metric("detector.confirmed_dead") != 0) {
    std::fprintf(stderr,
                 "FAIL: seed %llu %s detector confirmed a death on a "
                 "crash-free timeline\n",
                 static_cast<unsigned long long>(seed),
                 adaptive ? "adaptive" : "static");
    return false;
  }
  // Static mode must be byte-for-byte the pre-adaptation collective: zero
  // health-plane activity of any kind.
  // Subgroup re-pins are decided by the communicator, not per-op: check the
  // registry against its own counter.
  if (metric("coll.adapt.subgroup_repins") != comm.subgroup_repins()) {
    std::fprintf(stderr,
                 "FAIL: seed %llu %s registry subgroup_repins %llu vs "
                 "communicator %llu\n",
                 static_cast<unsigned long long>(seed),
                 adaptive ? "adaptive" : "static",
                 static_cast<unsigned long long>(
                     metric("coll.adapt.subgroup_repins")),
                 static_cast<unsigned long long>(comm.subgroup_repins()));
    return false;
  }
  if (!adaptive && (metric("coll.adapt.link_deweights") |
                    metric("coll.adapt.subgroup_repins") |
                    metric("fabric.ecmp_reweights")) != 0) {
    std::fprintf(stderr,
                 "FAIL: seed %llu static baseline reported adaptation "
                 "activity\n",
                 static_cast<unsigned long long>(seed));
    return false;
  }
  out->link_deweights += metric("coll.adapt.link_deweights");
  out->ecmp_reweights += metric("fabric.ecmp_reweights");
  out->subgroup_repins += metric("coll.adapt.subgroup_repins");

  if (debug::enabled())
    std::printf("dispatch_hash: seed=%llu mode=%s %016llx (%llu events)\n",
                static_cast<unsigned long long>(seed),
                adaptive ? "adaptive" : "static",
                static_cast<unsigned long long>(
                    cluster.engine().stream_hash()),
                static_cast<unsigned long long>(
                    cluster.engine().dispatched()));
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--mccl_json=", 12) == 0) json_path = arg + 12;
  }

  ModeStats stats[2];  // [0] = static, [1] = adaptive
  for (const std::uint64_t seed : kSeeds)
    for (const bool adaptive : {false, true})
      if (!run_mode(seed, adaptive, &stats[adaptive ? 1 : 0])) return 1;

  for (const ModeStats& st : stats) MCCL_CHECK(!st.completions_us.empty());
  const double static_p99 = percentile(stats[0].completions_us, 0.99);
  const double adaptive_p99 = percentile(stats[1].completions_us, 0.99);
  const double static_p50 = percentile(stats[0].completions_us, 0.50);
  const double adaptive_p50 = percentile(stats[1].completions_us, 0.50);
  const double improvement =
      static_p99 > 0 ? 1.0 - adaptive_p99 / static_p99 : 0.0;

  std::printf("%-10s %12s %12s %10s %8s %8s\n", "mode", "p50_us", "p99_us",
              "deweight", "ecmp_rw", "repin");
  for (int m = 0; m < 2; ++m)
    std::printf("%-10s %12.1f %12.1f %10llu %8llu %8llu\n",
                m == 0 ? "static" : "adaptive",
                m == 0 ? static_p50 : adaptive_p50,
                m == 0 ? static_p99 : adaptive_p99,
                static_cast<unsigned long long>(stats[m].link_deweights),
                static_cast<unsigned long long>(stats[m].ecmp_reweights),
                static_cast<unsigned long long>(stats[m].subgroup_repins));
  std::printf("p99 improvement: %.1f%% (gate: >= %.0f%%)\n",
              improvement * 100.0, kRequiredImprovement * 100.0);

  int rc = 0;
  if (improvement < kRequiredImprovement) {
    std::fprintf(stderr,
                 "FAIL: adaptive p99 %.1f us vs static %.1f us — "
                 "improvement %.1f%% below the %.0f%% gate\n",
                 adaptive_p99, static_p99, improvement * 100.0,
                 kRequiredImprovement * 100.0);
    rc = 1;
  }
  // The timeline is built to trip every link-plane policy: the health plane
  // must have actually fired, not merely not-hurt.
  if (stats[1].link_deweights == 0 || stats[1].ecmp_reweights == 0 ||
      stats[1].subgroup_repins == 0) {
    std::fprintf(stderr,
                 "FAIL: adaptive run left a link policy idle "
                 "(deweights=%llu ecmp_reweights=%llu repins=%llu)\n",
                 static_cast<unsigned long long>(stats[1].link_deweights),
                 static_cast<unsigned long long>(stats[1].ecmp_reweights),
                 static_cast<unsigned long long>(stats[1].subgroup_repins));
    rc = 1;
  }

  if (!json_path.empty()) {
    if (std::FILE* f = std::fopen(json_path.c_str(), "w")) {
      std::fprintf(f,
                   "{\"adaptive_p99_us\": %.3f, \"static_p99_us\": %.3f, "
                   "\"improvement\": %.4f}\n",
                   adaptive_p99, static_p99, improvement);
      std::fclose(f);
    } else {
      std::fprintf(stderr, "FAIL: cannot write %s\n", json_path.c_str());
      rc = 1;
    }
  }
  return rc;
}
