// Health plane + adaptation layer tests (coll/health_monitor.hpp): weighted
// ECMP, the fabric's peak-backlog register, rail-pinned multicast trees,
// link deweight/restore end-to-end, subgroup re-balancing, predictive trend
// scoring, and seeded determinism. The
// adversarial A/B contract (adaptive p99 vs static) lives in
// example_adapt_storm; these tests inject each signal precisely instead.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "tests/coll_test_util.hpp"

namespace mccl::coll {
namespace {

using testing::World;

CommConfig adapt_on(CommConfig cfg = {}) {
  cfg.adapt.enabled = true;
  return cfg;
}

// Multi-rail world: make_multi_rail_fat_tree(2, 2, 4, 1, 1) — hosts 0-7,
// rail 0 = leaves 8-9 + spine 10, rail 1 = leaves 11-12 + spine 13. The
// canonical sick trunk is leaf8->spine10.
struct RailWorld {
  std::unique_ptr<Cluster> cluster;
  std::unique_ptr<Communicator> comm;

  explicit RailWorld(CommConfig ccfg = {}, ClusterConfig kcfg = {}) {
    cluster = std::make_unique<Cluster>(
        fabric::make_multi_rail_fat_tree(2, 2, 4, 1, 1, {}, {}), kcfg);
    std::vector<fabric::NodeId> ids;
    for (std::size_t h = 0; h < 8; ++h)
      ids.push_back(static_cast<fabric::NodeId>(h));
    comm = std::make_unique<Communicator>(*cluster, ids, ccfg);
  }
};

std::size_t dir_between(const fabric::Topology& topo, fabric::NodeId from,
                        fabric::NodeId to) {
  for (const fabric::Port& p : topo.ports(from))
    if (p.peer == to) return p.dir_index;
  ADD_FAILURE() << "no port " << from << "->" << to;
  return 0;
}

// --- weighted ECMP --------------------------------------------------------

TEST(Health, WeightedEcmpSkewsFlowPlacement) {
  // Fabric-level: leaf 8 (fat_tree(2,4,2,1), hosts 0-7, spines 10-11) has
  // two equal-cost uplinks. Weighting them 15:1 must skew per-flow
  // placement by roughly that ratio.
  sim::Engine e;
  fabric::Fabric f(e, fabric::make_fat_tree(2, 4, 2, 1, {}, {}), {});
  const std::size_t up10 = dir_between(f.topology(), 8, 10);
  const std::size_t up11 = dir_between(f.topology(), 8, 11);
  f.set_dir_weight(up10, 1);
  f.set_dir_weight(up11, 15);
  EXPECT_GE(f.ecmp_reweights(), 1u);
  for (fabric::NodeId h = 0; h < 8; ++h)
    f.set_delivery(h, [](const fabric::PacketPtr&) {});
  constexpr int kFlows = 256;
  for (int i = 0; i < kFlows; ++i) {
    fabric::PacketRef p = fabric::make_unpooled_packet();
    p.mut().src_host = 0;
    p.mut().dst_host = 4;  // cross-leaf: must transit one spine
    p.mut().wire_size = 256;
    p.mut().flow_id = static_cast<std::uint64_t>(i);
    f.inject(p);
  }
  e.run();
  const std::uint64_t via10 = f.dir_counters(up10).packets;
  const std::uint64_t via11 = f.dir_counters(up11).packets;
  EXPECT_EQ(via10 + via11, static_cast<std::uint64_t>(kFlows));
  EXPECT_GT(via10, 0u);  // deweighted, not dead: some flows still cross
  EXPECT_LT(via10, kFlows / 4);      // expectation is kFlows/16
  EXPECT_GT(via11, kFlows / 2);
}

// --- peak-backlog register ------------------------------------------------

TEST(Health, TakePeakBacklogIsReadAndReset) {
  // The register max-holds the serializer backlog (wire time booked beyond
  // now) between reads, like a switch max-queue-depth register, and a read
  // resets it — a point sample would alias over bursts that drain between
  // sampler ticks.
  sim::Engine e;
  fabric::Fabric f(e, fabric::make_back_to_back({100.0, 0}), {});
  f.set_delivery(1, [](const fabric::PacketPtr&) {});
  const std::size_t dir = dir_between(f.topology(), 0, 1);
  EXPECT_EQ(f.take_peak_backlog(dir), 0);
  for (int i = 0; i < 4; ++i) {
    fabric::PacketRef p = fabric::make_unpooled_packet();
    p.mut().src_host = 0;
    p.mut().dst_host = 1;
    p.mut().wire_size = 1000;
    f.inject(p);
  }
  const Time ser = serialization_time(1000, 100.0);
  EXPECT_EQ(f.take_peak_backlog(dir), 4 * ser);  // burst peak, held
  EXPECT_EQ(f.take_peak_backlog(dir), 0);        // read reset it
  e.run();
  // The burst drained long ago, but the peak survived until the next read.
  EXPECT_EQ(f.take_peak_backlog(dir), 0);
}

// --- rail-pinned multicast trees ------------------------------------------

TEST(Health, McastGroupRailRePinRebuildsEagerly) {
  sim::Engine e;
  fabric::Fabric f(e,
                   fabric::make_multi_rail_fat_tree(2, 2, 4, 1, 1, {}, {}),
                   {});
  const std::size_t trunk0 = dir_between(f.topology(), 8, 10);
  const std::size_t trunk1 = dir_between(f.topology(), 11, 13);
  const fabric::McastGroupId g = f.create_mcast_group(/*rail=*/0);
  int delivered = 0;
  for (fabric::NodeId h = 0; h < 8; ++h) {
    f.set_delivery(h, [&](const fabric::PacketPtr&) { ++delivered; });
    f.mcast_attach(g, h);
  }
  const auto send = [&] {
    fabric::PacketRef p = fabric::make_unpooled_packet();
    p.mut().src_host = 0;
    p.mut().mcast_group = g;
    p.mut().wire_size = 512;
    f.inject(p);
    e.run();
  };
  send();
  EXPECT_EQ(delivered, 7);
  EXPECT_EQ(f.dir_counters(trunk0).packets, 1u);  // tree lives on rail 0
  EXPECT_EQ(f.dir_counters(trunk1).packets, 0u);

  // Re-pin to rail 1: the tree is rebuilt immediately (not lazily at the
  // next send) so a straggler replica landing on an old-plane switch finds
  // a valid — if empty for that switch — tree, never a torn-down one.
  f.set_mcast_group_rail(g, 1);
  delivered = 0;
  send();
  EXPECT_EQ(delivered, 7);
  EXPECT_EQ(f.dir_counters(trunk0).packets, 1u);  // no new rail-0 traffic
  EXPECT_EQ(f.dir_counters(trunk1).packets, 1u);
}

// --- link health end-to-end -----------------------------------------------

TEST(Health, DegradedTrunkIsDeweightedThenRestoredWithEvidence) {
  // Single-rail fat tree, persistent trunk degrade then restore. The
  // monitor must (a) mark the trunk from its peak backlog and deweight the
  // leaf's uplinks 15:1, and (b) restore it only after windows with real
  // traffic crossing cleanly — min_window_packets=1 here so the 1/16 ECMP
  // share suffices as evidence.
  ClusterConfig kcfg;
  kcfg.fabric.faults.events = {
      fabric::FaultEvent::degrade(10 * kMicrosecond, 8, 10, 0.05,
                                  10 * kMicrosecond),
      fabric::FaultEvent::restore(400 * kMicrosecond, 8, 10)};
  CommConfig ccfg = adapt_on();
  ccfg.adapt.min_window_packets = 1;
  ccfg.cutoff_alpha = 50 * kMicrosecond;
  std::unique_ptr<Cluster> cluster = std::make_unique<Cluster>(
      fabric::make_fat_tree(2, 4, 2, 1, {}, {}), kcfg);
  std::vector<fabric::NodeId> ids;
  for (std::size_t h = 0; h < 8; ++h)
    ids.push_back(static_cast<fabric::NodeId>(h));
  Communicator comm(*cluster, ids, ccfg);
  HealthMonitor* hm = comm.health();
  ASSERT_NE(hm, nullptr);
  const fabric::Fabric& fab = cluster->fabric();
  const std::size_t up10 = dir_between(fab.topology(), 8, 10);
  const std::size_t up11 = dir_between(fab.topology(), 8, 11);

  bool saw_deweighted = false;
  for (int op = 0; op < 8; ++op) {
    const OpResult res = comm.allgather(256 * KiB, AllgatherAlgo::kMcast);
    ASSERT_TRUE(res.data_verified) << "op " << op << ": " << res.error;
    if (hm->dir_unhealthy(up10)) {
      saw_deweighted = true;
      EXPECT_EQ(fab.dir_weight(up10), 1);   // kLossyWeight
      EXPECT_EQ(fab.dir_weight(up11), 15);  // healthy sibling
    }
  }
  EXPECT_TRUE(saw_deweighted);
  EXPECT_GE(hm->link_deweights(), 1u);
  // The restore event fired mid-train and traffic kept crossing the trunk
  // (weight 1 of 16): clean evidence windows accumulate and the direction
  // is re-admitted, weights back to neutral.
  EXPECT_GE(hm->link_restores(), 1u);
  EXPECT_FALSE(hm->dir_unhealthy(up10));
  EXPECT_EQ(fab.dir_weight(up10), 1);
  EXPECT_EQ(fab.dir_weight(up11), 1);
}

// --- subgroup re-balancing ------------------------------------------------

TEST(Health, SubgroupsRepinOffTheSickRail) {
  // Persistent rail-0 trunk degrade on the two-rail fabric: once the
  // monitor marks the trunk, the next op boundary re-pins the rail-0
  // multicast subgroups onto rail 1, and every host's rail-0 uplink is
  // deweighted at the injection point (the host's rail choice *is* the
  // path choice on a 1-spine-per-rail plane).
  ClusterConfig kcfg;
  kcfg.fabric.faults.events = {fabric::FaultEvent::degrade(
      10 * kMicrosecond, 8, 10, 0.08, 15 * kMicrosecond)};
  kcfg.nic.rc_rto = 20 * kMicrosecond;
  CommConfig ccfg = adapt_on();
  ccfg.transport = Transport::kUcMcast;
  ccfg.subgroups = 4;
  ccfg.cutoff_alpha = 30 * kMicrosecond;
  RailWorld w(ccfg, kcfg);
  HealthMonitor* hm = w.comm->health();
  ASSERT_NE(hm, nullptr);

  for (int op = 0; op < 3; ++op) {
    const OpResult res = w.comm->allgather(128 * KiB, AllgatherAlgo::kMcast);
    ASSERT_TRUE(res.data_verified) << "op " << op << ": " << res.error;
  }
  EXPECT_GE(hm->link_deweights(), 1u);
  EXPECT_GE(w.comm->subgroup_repins(), 1u);
  EXPECT_GT(hm->unhealthy_dirs_on_rail(0), 0u);
  EXPECT_EQ(hm->unhealthy_dirs_on_rail(1), 0u);
  const fabric::Fabric& fab = w.cluster->fabric();
  const fabric::Topology& topo = fab.topology();
  for (fabric::NodeId h = 0; h < 8; ++h)
    for (const fabric::Port& p : topo.ports(h)) {
      const int rail = topo.rail_of(p.peer);
      EXPECT_EQ(fab.dir_weight(p.dir_index), rail == 0 ? 1 : 15)
          << "host " << h << " rail " << rail;
    }
  const telemetry::Snapshot snap =
      w.cluster->telemetry().metrics.snapshot();
  const auto it = snap.find("coll.adapt.subgroup_repins");
  ASSERT_NE(it, snap.end());
  EXPECT_EQ(it->second.count, w.comm->subgroup_repins());
}

// --- predictive (trend) link scoring --------------------------------------

TEST(Health, PredictiveTrendMarksRisingLinkThenClears) {
  // Constants: kSeverityAlpha 0.5, kTrendAlpha 0.5, kRiskHorizon 3,
  // kRiskEnter 1.0, kRiskExit 0.5. A 0.3 / 0.6 / 0.9 severity ramp walks
  // the projection 0.375 -> 0.825 -> 1.256: still below threshold after
  // two windows, marked at-risk on the third while the reactive plane
  // (which needs the direction actually *over* its thresholds for
  // kLinkDwell windows) has not fired. One clean window collapses the
  // projection to 0.15 and clears the mark.
  World w(4, adapt_on());
  HealthMonitor* hm = w.comm->health();
  ASSERT_NE(hm, nullptr);
  fabric::Fabric& fab = w.cluster->fabric();
  const std::size_t dir = 0;
  hm->test_observe_link(dir, 0.3);
  hm->test_observe_link(dir, 0.6);
  EXPECT_FALSE(hm->dir_at_risk(dir));
  EXPECT_EQ(fab.at_risk_dirs(), 0u);
  hm->test_observe_link(dir, 0.9);
  EXPECT_TRUE(hm->dir_at_risk(dir));
  EXPECT_TRUE(fab.dir_at_risk(dir));
  EXPECT_EQ(fab.at_risk_dirs(), 1u);
  EXPECT_EQ(hm->predict_marks(), 1u);
  EXPECT_FALSE(hm->dir_unhealthy(dir));  // advisory only: no deweight
  hm->test_observe_link(dir, 0.0);
  EXPECT_FALSE(hm->dir_at_risk(dir));
  EXPECT_FALSE(fab.dir_at_risk(dir));
  EXPECT_EQ(fab.at_risk_dirs(), 0u);
  EXPECT_EQ(hm->predict_clears(), 1u);
  const telemetry::Snapshot snap =
      w.cluster->telemetry().metrics.snapshot();
  EXPECT_EQ(snap.at("coll.adapt.predict_marks").count, 1u);
  EXPECT_EQ(snap.at("coll.adapt.predict_clears").count, 1u);
}

TEST(Health, PredictiveTrendIgnoresHighButFlatSeverity) {
  // A steady sub-threshold severity (0.4 forever) converges the level
  // EWMA toward 0.4 with a vanishing slope: the projection peaks at 0.6
  // and decays, so the forecast never fires — a flat state is the
  // reactive thresholds' call, not the trend scorer's.
  World w(4, adapt_on());
  HealthMonitor* hm = w.comm->health();
  ASSERT_NE(hm, nullptr);
  const std::size_t dir = 0;
  for (int i = 0; i < 10; ++i) hm->test_observe_link(dir, 0.4);
  EXPECT_FALSE(hm->dir_at_risk(dir));
  EXPECT_EQ(hm->predict_marks(), 0u);
  EXPECT_EQ(w.cluster->fabric().at_risk_dirs(), 0u);
}

// --- determinism ----------------------------------------------------------

TEST(Health, AdaptiveTimelineReplaysIdentically) {
  // The whole adaptation loop — sampler phase, trend EWMAs, deweights,
  // restores, repins — is driven by seeded sim-time events: two runs of
  // the identical config must produce identical per-rank completion times
  // and identical decision counters.
  const auto run_once = [](std::vector<Time>* finishes, std::uint64_t* dw,
                           std::uint64_t* repins) {
    ClusterConfig kcfg;
    kcfg.fabric.faults.events = {fabric::FaultEvent::degrade(
        10 * kMicrosecond, 8, 10, 0.08, 15 * kMicrosecond)};
    kcfg.fabric.faults.burst.p_enter_bad = 0.0005;
    kcfg.fabric.faults.burst.p_exit_bad = 0.25;
    kcfg.fabric.faults.burst.drop_bad = 0.25;
    kcfg.fabric.seed = 99;
    kcfg.nic.rc_rto = 20 * kMicrosecond;
    CommConfig ccfg = adapt_on();
    ccfg.transport = Transport::kUcMcast;
    ccfg.subgroups = 4;
    ccfg.cutoff_alpha = 30 * kMicrosecond;
    ccfg.adapt.seed = 7;
    RailWorld w(ccfg, kcfg);
    for (int op = 0; op < 3; ++op) {
      const OpResult res =
          w.comm->allgather(128 * KiB, AllgatherAlgo::kMcast);
      ASSERT_TRUE(res.data_verified);
      for (const Time t : res.rank_finish) finishes->push_back(t);
    }
    *dw = w.comm->health()->link_deweights();
    *repins = w.comm->subgroup_repins();
  };
  std::vector<Time> a, b;
  std::uint64_t dw_a = 0, dw_b = 0, rp_a = 0, rp_b = 0;
  run_once(&a, &dw_a, &rp_a);
  run_once(&b, &dw_b, &rp_b);
  EXPECT_EQ(a, b);
  EXPECT_EQ(dw_a, dw_b);
  EXPECT_EQ(rp_a, rp_b);
  EXPECT_FALSE(a.empty());
}

}  // namespace
}  // namespace mccl::coll
