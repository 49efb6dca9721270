// Reliability storm: what happens to the multicast Allgather when the
// "lossless" fabric isn't.
//
// Sweeps the per-link drop probability from 0 to 2% and reports, for each
// point: mean completion time and recovery counters over several seeds, and
// — crucially — that every byte still verifies on every run. Demonstrates
// the two-component design of Section III: the fast path carries everything
// when the fabric behaves; the slow path (cutoff timer -> per-block fetch
// requests -> selective RDMA Reads from the left neighbor) fills the holes
// when it does not, degenerating to a ring Allgather in the worst case.
//
// Usage: example_reliability_storm [base_seed] [seeds_per_point]
// Each sweep point runs `seeds_per_point` (default 3, min 3) independent
// fabrics seeded base_seed, base_seed+1, ... — a single hard-coded seed
// would report one arbitrary sample of a wide loss distribution.
#include <cstdio>
#include <cstdlib>

#include "src/coll/communicator.hpp"

using namespace mccl;

namespace {

struct Sample {
  double time_us = 0.0;
  std::uint64_t fetched = 0;
  std::uint64_t rnr = 0;
  std::uint64_t link_drops = 0;
  bool verified = false;
};

Sample run_once(double drop, std::uint64_t seed) {
  constexpr std::size_t kRanks = 8;
  constexpr std::uint64_t kBytes = 128 * KiB;
  coll::ClusterConfig kcfg;
  kcfg.fabric.faults.burst.drop_good = drop;  // uniform loss
  kcfg.fabric.seed = seed;
  coll::Cluster cluster(fabric::make_fat_tree_for_hosts(kRanks, 16, {}),
                        kcfg);
  coll::CommConfig cfg;
  cfg.cutoff_alpha = 100 * kMicrosecond;  // eager recovery for the demo
  std::vector<fabric::NodeId> hosts;
  for (std::size_t h = 0; h < kRanks; ++h)
    hosts.push_back(static_cast<fabric::NodeId>(h));
  coll::Communicator comm(cluster, hosts, cfg);

  const coll::OpResult res =
      comm.allgather(kBytes, coll::AllgatherAlgo::kMcast);
  return {to_microseconds(res.duration()), res.fetched_chunks, res.rnr_drops,
          cluster.fabric().traffic().drops, res.data_verified};
}

}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t base_seed =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 42;
  std::size_t seeds = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 3;
  if (seeds < 3) seeds = 3;  // one sample of a loss distribution is noise

  std::printf("base_seed=%llu seeds_per_point=%zu\n",
              static_cast<unsigned long long>(base_seed), seeds);
  std::printf("%10s %12s %10s %10s %10s %9s\n", "drop_prob", "mean_us",
              "fetched", "rnr", "drops", "verified");

  for (const double drop : {0.0, 0.0001, 0.001, 0.005, 0.01, 0.02}) {
    double time_us = 0.0;
    double fetched = 0.0, rnr = 0.0, link_drops = 0.0;
    bool all_verified = true;
    for (std::size_t s = 0; s < seeds; ++s) {
      const Sample r = run_once(drop, base_seed + s);
      time_us += r.time_us;
      fetched += static_cast<double>(r.fetched);
      rnr += static_cast<double>(r.rnr);
      link_drops += static_cast<double>(r.link_drops);
      all_verified = all_verified && r.verified;
    }
    const double n = static_cast<double>(seeds);
    std::printf("%9.2f%% %12.1f %10.1f %10.1f %10.1f %9s\n", drop * 100.0,
                time_us / n, fetched / n, rnr / n, link_drops / n,
                all_verified ? "yes" : "NO");
    if (!all_verified) return 1;
  }

  // The nuclear option: the multicast path is severed entirely; the fetch
  // ring must reconstruct everything (worst case = ring Allgather).
  {
    constexpr std::size_t kRanks = 8;
    constexpr std::uint64_t kBytes = 128 * KiB;
    coll::ClusterConfig kcfg;
    coll::Cluster cluster(fabric::make_fat_tree_for_hosts(kRanks, 16, {}),
                          kcfg);
    cluster.fabric().set_drop_filter(
        [](fabric::NodeId, fabric::NodeId, const fabric::Packet& p) {
          return p.is_mcast();
        });
    coll::CommConfig cfg;
    cfg.cutoff_alpha = 100 * kMicrosecond;
    std::vector<fabric::NodeId> hosts;
    for (std::size_t h = 0; h < kRanks; ++h)
      hosts.push_back(static_cast<fabric::NodeId>(h));
    coll::Communicator comm(cluster, hosts, cfg);
    const coll::OpResult res =
        comm.allgather(kBytes, coll::AllgatherAlgo::kMcast);
    std::printf("%10s %12.1f %10llu %10s %10s %9s   <- multicast dead\n",
                "100% mc", to_microseconds(res.duration()),
                static_cast<unsigned long long>(res.fetched_chunks), "-", "-",
                res.data_verified ? "yes" : "NO");
    if (!res.data_verified) return 1;
  }

  // Crash storm: a seed-derived victim rank dies at a seed-derived instant
  // mid-allgather. The contract is structural, not byte-complete: survivors
  // must finish (never a watchdog abort, never a hang) with status kOk
  // (victim's block re-rooted or already delivered) or kPartial naming
  // exactly the victim's block — and the OpResult verdict must agree with
  // the metrics registry.
  std::printf("\ncrash storm (victim/when derived from seed):\n");
  std::printf("%6s %7s %9s %12s %8s %7s %8s %9s\n", "seed", "victim",
              "crash_us", "mean_us", "status", "missing", "reroots",
              "verified");
  for (std::size_t s = 0; s < seeds; ++s) {
    const std::uint64_t seed = base_seed + s;
    // splitmix64: decorrelate victim and crash time from consecutive seeds.
    std::uint64_t z = seed + 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    z ^= z >> 31;
    constexpr std::size_t kRanks = 8;
    const std::size_t victim = z % kRanks;
    const Time when = (5 + (z >> 8) % 40) * kMicrosecond;

    coll::ClusterConfig kcfg;
    kcfg.fabric.faults.events = {fabric::FaultEvent::node_crash(when, victim)};
    coll::Cluster cluster(fabric::make_fat_tree_for_hosts(kRanks, 16, {}),
                          kcfg);
    coll::CommConfig cfg;
    cfg.cutoff_alpha = 100 * kMicrosecond;
    std::vector<fabric::NodeId> hosts;
    for (std::size_t h = 0; h < kRanks; ++h)
      hosts.push_back(static_cast<fabric::NodeId>(h));
    coll::Communicator comm(cluster, hosts, cfg);
    const coll::OpResult res =
        comm.allgather(128 * KiB, coll::AllgatherAlgo::kMcast);

    const telemetry::Snapshot snap = cluster.telemetry().metrics.snapshot();
    const auto metric = [&snap](const char* key) -> std::uint64_t {
      const auto it = snap.find(key);
      return it == snap.end() ? 0 : it->second.count;
    };
    std::printf("%6llu %7zu %9.1f %12.1f %8s %7zu %8llu %9s\n",
                static_cast<unsigned long long>(seed), victim,
                to_microseconds(when), to_microseconds(res.duration()),
                coll::to_string(res.status), res.missing_blocks.size(),
                static_cast<unsigned long long>(res.reroots),
                res.data_verified ? "yes" : "NO");

    bool ok = !res.failed && !res.watchdog_fired && res.data_verified;
    ok = ok && res.crashed_ranks == std::vector<std::size_t>{victim};
    // Only the victim's block can be at risk.
    for (const std::size_t b : res.missing_blocks) ok = ok && b == victim;
    // Verdict vs registry: one story.
    ok = ok && metric("coll.reroots") == res.reroots;
    ok = ok && metric("coll.missing_blocks") == res.missing_blocks.size();
    ok = ok && metric("detector.confirmed_dead") > 0;
    if (!ok) {
      std::fprintf(stderr,
                   "FAIL: crash seed %llu (victim %zu at %.1fus) did not "
                   "resolve structurally: %s\n",
                   static_cast<unsigned long long>(seed), victim,
                   to_microseconds(when), res.error.c_str());
      cluster.telemetry().recorder.dump(stderr);
      return 1;
    }
  }
  return 0;
}
