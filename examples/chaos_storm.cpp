// Chaos storm: the hardened slow path under injected infrastructure faults.
//
// The reliability storm (example_reliability_storm) stresses uniform packet
// loss — the failure model the paper evaluates. Real clusters fail
// differently: links and switches die mid-collective, congested ports drop
// in bursts, and one oversubscribed host drags the collective. This example
// sweeps those scenarios (see fabric/faults.hpp) over an 8-host two-spine
// fat tree, crossing each with {UD, UC-multicast} x {recovery on/off}:
//
//   link_cut:  a leaf->spine trunk dies mid-broadcast. Unicast (control +
//              fetch) re-routes over the surviving spine; the multicast
//              tree is NOT rebuilt, so the subtree behind the cut goes dark
//              and the fetch ring must reconstruct its data.
//   switch:    a whole spine dies mid-broadcast (same recovery story, wider
//              blast radius).
//   burst:     Gilbert-Elliott burst loss, ~0.5 average loss inside bursts.
//   straggler: one host's progress-engine datapath runs 10x slower for the
//              first half of the op.
//   crash_leaf / crash_root / rack_crash: node-crash faults — a non-root
//              leaf dies, the block root dies, or a whole rack (leaf switch
//              plus every host behind it) goes down at once. The failure
//              detector confirms the dead ranks and the repair machinery
//              (barrier credit, chain re-route, fetch failover, root-repair
//              census, handshake re-closure) must deliver a *structured*
//              verdict: kOk when the data survives, kPartial naming the
//              dead blocks when it does not — independent of whether the
//              cutoff-fetch recovery layer is on.
//
// With recovery enabled every scenario must end in data_verified=yes; with
// it disabled, loss scenarios must end in a *structured* watchdog failure —
// never a hang. Crash scenarios must never watchdog at all: the detector's
// verdict is the contract, and it is cross-checked against the metrics
// registry (coll.reroots / coll.missing_blocks / detector.confirmed_dead).
//
// A second sweep covers the Nezha-style multi-rail story (PAPERS.md): on a
// two-rail fat tree one rail's trunk silently degrades, and the health
// plane (coll/health_monitor) must fail the multicast subgroups over to the
// healthy rail — static mode must report exactly zero coll.adapt.*
// activity, adaptive mode must deweight the trunk and re-pin subgroups,
// with the re-pin metric cross-checked against the Communicator's counter
// (the deeper A/B p99 contract lives in example_adapt_storm).
#include <cstdio>
#include <vector>

#include "src/coll/communicator.hpp"

using namespace mccl;

namespace {

constexpr std::size_t kRanks = 8;
constexpr std::uint64_t kBytes = 512 * KiB;
// Broadcast of 512 KiB at 200 Gb/s serializes in ~21 us after the ~8 us
// dissemination barrier; fault events at 15 us land mid-transfer.
constexpr Time kMidBcast = 15 * kMicrosecond;

struct Scenario {
  const char* name;
  fabric::Fabric::Config wire;  // fault timeline + seed
  bool lossy;  // expect a watchdog failure when recovery is off
  bool crash = false;  // node-crash scenario: detector verdict, no watchdog
};

std::vector<Scenario> scenarios() {
  // Node ids in make_fat_tree(2, 4, 2, 1): hosts 0-7, leaves 8-9,
  // spines 10-11.
  std::vector<Scenario> out;
  {
    Scenario s{"link_cut", {}, true};
    s.wire.faults.events = {fabric::FaultEvent::link_down(kMidBcast, 8, 10)};
    out.push_back(std::move(s));
  }
  {
    Scenario s{"switch", {}, true};
    s.wire.faults.events = {fabric::FaultEvent::switch_down(kMidBcast, 10)};
    out.push_back(std::move(s));
  }
  {
    Scenario s{"burst", {}, true};
    s.wire.faults.burst.p_enter_bad = 0.002;
    s.wire.faults.burst.p_exit_bad = 0.05;
    s.wire.faults.burst.drop_bad = 0.5;
    s.wire.seed = 7;
    out.push_back(std::move(s));
  }
  {
    Scenario s{"straggler", {}, false};  // slow, but nothing is lost
    s.wire.faults.events = {
        fabric::FaultEvent::straggler_begin(0, 3, 10.0),
        fabric::FaultEvent::straggler_end(200 * kMicrosecond, 3)};
    out.push_back(std::move(s));
  }
  {
    // A non-root leaf dies mid-broadcast: no data is lost, but the barrier,
    // fetch ring and final handshake all had the dead rank as a neighbor.
    Scenario s{"crash_leaf", {}, false, true};
    s.wire.faults.events = {fabric::FaultEvent::node_crash(kMidBcast, 5)};
    out.push_back(std::move(s));
  }
  {
    // The block root dies mid-transfer: survivors either re-root at a full
    // holder or complete degraded with the block named missing.
    Scenario s{"crash_root", {}, false, true};
    s.wire.faults.events = {fabric::FaultEvent::node_crash(kMidBcast, 0)};
    out.push_back(std::move(s));
  }
  {
    // Correlated failure: leaf switch 9 and every host behind it die
    // together. Survivors under leaf 8 (including the root) finish clean.
    Scenario s{"rack_crash", {}, false, true};
    s.wire.faults.events = {fabric::FaultEvent::switch_down(kMidBcast, 9)};
    for (fabric::NodeId h = 4; h < 8; ++h)
      s.wire.faults.events.push_back(
          fabric::FaultEvent::node_crash(kMidBcast, h));
    out.push_back(std::move(s));
  }
  return out;
}

int run_case(const Scenario& sc, coll::Transport transport, bool recovery) {
  coll::ClusterConfig kcfg;
  kcfg.fabric = sc.wire;
  coll::Cluster cluster(
      fabric::make_fat_tree(2, 4, 2, 1, {}, {}), kcfg);
  coll::CommConfig cfg;
  cfg.transport = transport;
  cfg.reliability = recovery;
  cfg.cutoff_alpha = 100 * kMicrosecond;
  std::vector<fabric::NodeId> hosts;
  for (std::size_t h = 0; h < kRanks; ++h)
    hosts.push_back(static_cast<fabric::NodeId>(h));
  coll::Communicator comm(cluster, hosts, cfg);

  const coll::OpResult res =
      comm.broadcast(0, kBytes, coll::BcastAlgo::kMcast);

  // Slow-path counters come from the metrics registry — the snapshot must
  // agree with the OpResult (single op on a fresh cluster), proving the
  // telemetry path reports the same story as the return value.
  const telemetry::Snapshot snap = cluster.telemetry().metrics.snapshot();
  const auto metric = [&snap](const char* key) -> std::uint64_t {
    const auto it = snap.find(key);
    return it == snap.end() ? 0 : it->second.count;
  };
  const std::uint64_t m_retries = metric("coll.fetch_retries");
  const std::uint64_t m_failovers = metric("coll.fetch_failovers");

  std::printf("%-10s %-8s %-8s %10.1f %8llu %8llu %9llu %9s %9s %-7s %7zu\n",
              sc.name, transport == coll::Transport::kUd ? "ud" : "uc-mcast",
              recovery ? "on" : "off", to_microseconds(res.duration()),
              static_cast<unsigned long long>(res.fetched_chunks),
              static_cast<unsigned long long>(m_retries),
              static_cast<unsigned long long>(m_failovers),
              res.watchdog_fired ? "FIRED" : "-",
              res.data_verified ? "yes" : "NO", coll::to_string(res.status),
              res.missing_blocks.size());

  // Contract: recovery on => verified; recovery off on a lossy scenario =>
  // structured watchdog failure (and in both cases: no hang — reaching this
  // line at all is the point). Crash scenarios must resolve through the
  // failure detector — structured kOk/kPartial, never a watchdog — whether
  // or not the cutoff-fetch layer is on. On violation, dump the flight
  // recorder so the failure comes with its packet/QP/collective/detector
  // event history.
  int rc = 0;
  if (recovery && !res.data_verified) {
    std::fprintf(stderr, "FAIL: %s with recovery did not verify: %s\n",
                 sc.name, res.error.c_str());
    rc = 1;
  }
  if (!recovery && sc.lossy && !(res.failed && res.watchdog_fired)) {
    std::fprintf(stderr,
                 "FAIL: %s without recovery should die by watchdog\n",
                 sc.name);
    rc = 1;
  }
  if (sc.crash) {
    if (res.failed || res.watchdog_fired || !res.data_verified) {
      std::fprintf(stderr,
                   "FAIL: %s must complete structurally (failed=%d "
                   "watchdog=%d verified=%d): %s\n",
                   sc.name, res.failed, res.watchdog_fired,
                   res.data_verified, res.error.c_str());
      rc = 1;
    }
    // The OpResult verdict and the metrics registry must tell one story.
    if (metric("coll.reroots") != res.reroots ||
        metric("coll.missing_blocks") != res.missing_blocks.size()) {
      std::fprintf(stderr,
                   "FAIL: %s crash verdict disagrees with metrics "
                   "(reroots %llu vs %llu, missing %llu vs %zu)\n",
                   sc.name,
                   static_cast<unsigned long long>(metric("coll.reroots")),
                   static_cast<unsigned long long>(res.reroots),
                   static_cast<unsigned long long>(
                       metric("coll.missing_blocks")),
                   res.missing_blocks.size());
      rc = 1;
    }
    if (metric("detector.confirmed_dead") == 0) {
      std::fprintf(stderr,
                   "FAIL: %s killed a node but the detector confirmed "
                   "nothing\n",
                   sc.name);
      rc = 1;
    }
  }
  if (m_retries != res.fetch_retries || m_failovers != res.fetch_failovers) {
    std::fprintf(stderr,
                 "FAIL: %s metrics registry disagrees with OpResult "
                 "(retries %llu vs %llu, failovers %llu vs %llu)\n",
                 sc.name, static_cast<unsigned long long>(m_retries),
                 static_cast<unsigned long long>(res.fetch_retries),
                 static_cast<unsigned long long>(m_failovers),
                 static_cast<unsigned long long>(res.fetch_failovers));
    rc = 1;
  }
  if (rc != 0) cluster.telemetry().recorder.dump(stderr);
  return rc;
}

// Multi-rail rail failover: a seeded trunk degrade on rail 0 of a two-rail
// fat tree (hosts 0-7; rail 0 = leaves 8-9 + spine 10, rail 1 = leaves
// 11-12 + spine 13). Runs a short allgather train and cross-checks the
// re-pin metric against the Communicator's counter.
int run_rail_case(bool adaptive) {
  coll::ClusterConfig kcfg;
  kcfg.fabric.faults.events = {fabric::FaultEvent::degrade(
      10 * kMicrosecond, 8, 10, 0.08, 15 * kMicrosecond)};
  kcfg.nic.rc_rto = 20 * kMicrosecond;  // ops are ~100 us, not multi-ms
  kcfg.health.enabled = adaptive;
  coll::Cluster cluster(
      fabric::make_multi_rail_fat_tree(2, 2, 4, 1, 1, {}, {}), kcfg);
  coll::CommConfig cfg;
  cfg.transport = coll::Transport::kUcMcast;
  cfg.subgroups = 4;  // rail-striped: even -> rail 0, odd -> rail 1
  cfg.cutoff_alpha = 30 * kMicrosecond;
  std::vector<fabric::NodeId> hosts;
  for (std::size_t h = 0; h < kRanks; ++h)
    hosts.push_back(static_cast<fabric::NodeId>(h));
  coll::Communicator comm(cluster, hosts, cfg);

  int rc = 0;
  Time first = 0, last = 0;
  constexpr int kOps = 4;
  for (int op = 0; op < kOps; ++op) {
    const coll::OpResult res =
        comm.allgather(128 * KiB, coll::AllgatherAlgo::kMcast);
    if (!res.data_verified || res.failed || res.watchdog_fired) {
      std::fprintf(stderr, "FAIL: rail_degrade %s op %d did not verify: %s\n",
                   adaptive ? "adaptive" : "static", op, res.error.c_str());
      return 1;
    }
    if (op == 0) first = res.duration();
    last = res.duration();
  }

  const telemetry::Snapshot snap = cluster.telemetry().metrics.snapshot();
  const auto metric = [&snap](const char* key) -> std::uint64_t {
    const auto it = snap.find(key);
    return it == snap.end() ? 0 : it->second.count;
  };
  std::printf("%-12s %-8s %12.1f %12.1f %9llu %7llu %8llu\n", "rail_degrade",
              adaptive ? "adaptive" : "static", to_microseconds(first),
              to_microseconds(last),
              static_cast<unsigned long long>(
                  metric("coll.adapt.link_deweights")),
              static_cast<unsigned long long>(
                  metric("coll.adapt.subgroup_repins")),
              static_cast<unsigned long long>(
                  metric("fabric.ecmp_reweights")));

  // One story across both planes: registry vs Communicator.
  if (metric("coll.adapt.subgroup_repins") != comm.subgroup_repins()) {
    std::fprintf(stderr,
                 "FAIL: rail_degrade %s adapt metrics disagree with op "
                 "counters\n",
                 adaptive ? "adaptive" : "static");
    rc = 1;
  }
  if (adaptive) {
    // The degrade is persistent and poisons exactly one rail: the health
    // plane must indict the trunk and move the multicast plane off it.
    if (metric("coll.adapt.link_deweights") == 0 ||
        metric("coll.adapt.subgroup_repins") == 0 ||
        metric("fabric.ecmp_reweights") == 0) {
      std::fprintf(stderr,
                   "FAIL: rail_degrade adaptive left the rail policies idle "
                   "(deweights=%llu repins=%llu ecmp=%llu)\n",
                   static_cast<unsigned long long>(
                       metric("coll.adapt.link_deweights")),
                   static_cast<unsigned long long>(
                       metric("coll.adapt.subgroup_repins")),
                   static_cast<unsigned long long>(
                       metric("fabric.ecmp_reweights")));
      rc = 1;
    }
  } else if ((metric("coll.adapt.link_deweights") |
              metric("coll.adapt.subgroup_repins") |
              metric("fabric.ecmp_reweights")) != 0) {
    std::fprintf(stderr,
                 "FAIL: rail_degrade static reported adaptation activity\n");
    rc = 1;
  }
  if (rc != 0) cluster.telemetry().recorder.dump(stderr);
  return rc;
}

}  // namespace

int main() {
  std::printf("%-10s %-8s %-8s %10s %8s %8s %9s %9s %9s %-7s %7s\n",
              "scenario", "trans", "recov", "time_us", "fetched", "retries",
              "failover", "watchdog", "verified", "status", "missing");
  int rc = 0;
  for (const Scenario& sc : scenarios())
    for (const coll::Transport t :
         {coll::Transport::kUd, coll::Transport::kUcMcast})
      for (const bool recovery : {true, false})
        rc |= run_case(sc, t, recovery);
  std::printf("%-12s %-8s %12s %12s %9s %7s %8s\n", "scenario", "mode",
              "first_us", "last_us", "deweight", "repin", "ecmp_rw");
  for (const bool adaptive : {false, true}) rc |= run_rail_case(adaptive);
  return rc;
}
