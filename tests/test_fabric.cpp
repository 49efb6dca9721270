// Unit tests for the packet fabric: delivery, serialization timing,
// multicast replication, traffic counters, and fault injection.
#include <gtest/gtest.h>

#include <map>

#include "src/fabric/fabric.hpp"

namespace mccl::fabric {
namespace {

PacketPtr make_test_packet(NodeId src, NodeId dst, std::uint32_t size,
                           std::uint64_t flow = 0) {
  PacketRef p = make_unpooled_packet();
  Packet& m = p.mut();
  m.src_host = src;
  m.dst_host = dst;
  m.wire_size = size;
  m.flow_id = flow;
  return p;
}

PacketPtr make_mcast_packet(NodeId src, McastGroupId g, std::uint32_t size) {
  PacketRef p = make_unpooled_packet();
  Packet& m = p.mut();
  m.src_host = src;
  m.mcast_group = g;
  m.wire_size = size;
  return p;
}

TEST(Fabric, UnicastDeliveryBackToBack) {
  sim::Engine e;
  Fabric::Config cfg;
  Fabric f(e, make_back_to_back({100.0, 1 * kMicrosecond}), cfg);
  int delivered = 0;
  Time arrival = 0;
  f.set_delivery(1, [&](const PacketPtr&) {
    ++delivered;
    arrival = e.now();
  });
  f.inject(make_test_packet(0, 1, 1000));
  e.run();
  EXPECT_EQ(delivered, 1);
  // 1000 B at 100 Gbit/s = 80 ns serialization + 1 us latency.
  EXPECT_EQ(arrival, serialization_time(1000, 100.0) + 1 * kMicrosecond);
}

TEST(Fabric, InjectReturnsWireDeparture) {
  sim::Engine e;
  Fabric f(e, make_back_to_back({100.0, 0}), {});
  f.set_delivery(1, [](const PacketPtr&) {});
  const Time d1 = f.inject(make_test_packet(0, 1, 1000));
  const Time d2 = f.inject(make_test_packet(0, 1, 1000));
  EXPECT_EQ(d1, serialization_time(1000, 100.0));
  EXPECT_EQ(d2, 2 * serialization_time(1000, 100.0));  // FIFO queuing
  e.run();
}

TEST(Fabric, StarForwardsThroughSwitch) {
  sim::Engine e;
  Fabric::Config cfg;
  cfg.switch_latency = 150 * kNanosecond;
  Fabric f(e, make_star(3, {100.0, 500 * kNanosecond}), cfg);
  Time arrival = -1;
  f.set_delivery(2, [&](const PacketPtr&) { arrival = e.now(); });
  f.set_delivery(0, [](const PacketPtr&) {});
  f.set_delivery(1, [](const PacketPtr&) {});
  f.inject(make_test_packet(0, 2, 4096));
  e.run();
  const Time ser = serialization_time(4096, 100.0);
  // Two hops (host->switch, switch->host), one switch traversal.
  EXPECT_EQ(arrival, 2 * ser + 2 * 500 * kNanosecond + 150 * kNanosecond);
}

TEST(Fabric, FatTreeAllPairsDeliver) {
  sim::Engine e;
  Fabric f(e, make_fat_tree(2, 2, 2, 1, {}, {}), {});
  std::map<NodeId, int> recvd;
  for (NodeId h = 0; h < 4; ++h)
    f.set_delivery(h, [&, h](const PacketPtr&) { ++recvd[h]; });
  for (NodeId s = 0; s < 4; ++s)
    for (NodeId d = 0; d < 4; ++d)
      if (s != d) f.inject(make_test_packet(s, d, 256, s * 4 + d));
  e.run();
  for (NodeId h = 0; h < 4; ++h) EXPECT_EQ(recvd[h], 3) << "host " << h;
}

TEST(Fabric, McastReachesAllMembersExceptSender) {
  sim::Engine e;
  Fabric f(e, make_fat_tree(2, 2, 2, 1, {}, {}), {});
  const McastGroupId g = f.create_mcast_group();
  std::map<NodeId, int> recvd;
  for (NodeId h = 0; h < 4; ++h) {
    f.set_delivery(h, [&, h](const PacketPtr&) { ++recvd[h]; });
    f.mcast_attach(g, h);
  }
  f.inject(make_mcast_packet(0, g, 512));
  e.run();
  EXPECT_EQ(recvd[0], 0);  // no self-delivery
  EXPECT_EQ(recvd[1], 1);
  EXPECT_EQ(recvd[2], 1);
  EXPECT_EQ(recvd[3], 1);
}

TEST(Fabric, McastSubsetMembership) {
  sim::Engine e;
  Fabric f(e, make_star(5, {}), {});
  const McastGroupId g = f.create_mcast_group();
  std::map<NodeId, int> recvd;
  for (NodeId h = 0; h < 5; ++h)
    f.set_delivery(h, [&, h](const PacketPtr&) { ++recvd[h]; });
  f.mcast_attach(g, 0);
  f.mcast_attach(g, 2);
  f.mcast_attach(g, 4);
  f.inject(make_mcast_packet(0, g, 512));
  e.run();
  EXPECT_EQ(recvd[1], 0);
  EXPECT_EQ(recvd[3], 0);
  EXPECT_EQ(recvd[2], 1);
  EXPECT_EQ(recvd[4], 1);
}

TEST(Fabric, McastCorruptionClonesOnlyTheCorruptedReplica) {
  // COW under multicast: replicas share the sender's payload buffer; a
  // corruption window on one receiver's link must clone packet and bytes
  // for that receiver only, leaving every other replica aliasing the
  // original (clean) snapshot.
  sim::Engine e;
  Fabric::Config cfg;
  // make_star(4): hosts 0..3, switch is node 4. Corrupt every payload
  // packet crossing the host1<->switch link.
  cfg.faults.events = {FaultEvent::corrupt_begin(0, 1, 4, 1.0)};
  Fabric f(e, make_star(4, {}), cfg);
  const McastGroupId g = f.create_mcast_group();

  std::vector<std::uint8_t> bytes(64, 0xAB);
  PacketRef p = make_mcast_packet(0, g, 512);
  p.mut().payload = Payload::copy_of(bytes.data(), bytes.size());
  const std::uint8_t* orig = p->payload.data();

  std::map<NodeId, PacketPtr> got;
  for (NodeId h = 0; h < 4; ++h) {
    f.set_delivery(h, [&, h](const PacketPtr& pkt) { got.emplace(h, pkt); });
    f.mcast_attach(g, h);
  }
  f.inject(p);
  e.run();

  ASSERT_EQ(got.count(1), 1u);
  ASSERT_EQ(got.count(2), 1u);
  ASSERT_EQ(got.count(3), 1u);
  // Clean replicas alias the original buffer — pointer equality, no copy.
  EXPECT_EQ(got.at(2)->payload.data(), orig);
  EXPECT_EQ(got.at(3)->payload.data(), orig);
  EXPECT_FALSE(got.at(2)->corrupted);
  // The corrupted replica got its own buffer with exactly one bit flipped;
  // the shared original stayed clean.
  ASSERT_TRUE(got.at(1)->corrupted);
  EXPECT_NE(got.at(1)->payload.data(), orig);
  ASSERT_EQ(got.at(1)->payload.size(), bytes.size());
  int flipped = 0;
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    std::uint8_t diff = got.at(1)->payload.data()[i] ^ bytes[i];
    while (diff != 0) {
      flipped += diff & 1;
      diff >>= 1;
    }
    EXPECT_EQ(orig[i], bytes[i]);  // original snapshot untouched
  }
  EXPECT_EQ(flipped, 1);
}

TEST(Fabric, McastTraversesEachLinkOnce) {
  // The bandwidth-optimality property (paper Insight 1): one multicast
  // packet crosses any link at most once.
  sim::Engine e;
  Fabric f(e, make_fat_tree(4, 4, 2, 1, {}, {}), {});
  const McastGroupId g = f.create_mcast_group();
  int delivered = 0;
  for (NodeId h = 0; h < 16; ++h) {
    f.set_delivery(h, [&](const PacketPtr&) { ++delivered; });
    f.mcast_attach(g, h);
  }
  f.inject(make_mcast_packet(0, g, 1000));
  e.run();
  EXPECT_EQ(delivered, 15);
  const auto& dirs = f.topology().dirs();
  for (std::size_t i = 0; i < dirs.size(); ++i) {
    EXPECT_LE(f.dir_counters(i).packets, 1u)
        << "link " << dirs[i].from << "->" << dirs[i].to;
  }
  // Every byte of the buffer crossed each used link exactly once; the tree
  // spans 16 hosts + 4 leaves (+ possibly a spine), so 19-20 edges.
  const auto t = f.traffic();
  EXPECT_EQ(t.total_bytes % 1000, 0u);
  EXPECT_GE(t.packets, 19u);
  EXPECT_LE(t.packets, 21u);
}

TEST(Fabric, UnicastVsMcastTrafficRatio) {
  // Sending the same buffer to P-1 peers by unicast moves ~(P-1) x the
  // multicast bytes through host injection.
  sim::Engine e1;
  Fabric uni(e1, make_star(8, {}), {});
  for (NodeId h = 0; h < 8; ++h) uni.set_delivery(h, [](const PacketPtr&) {});
  for (NodeId d = 1; d < 8; ++d) uni.inject(make_test_packet(0, d, 4096, d));
  e1.run();

  sim::Engine e2;
  Fabric mc(e2, make_star(8, {}), {});
  const McastGroupId g = mc.create_mcast_group();
  for (NodeId h = 0; h < 8; ++h) {
    mc.set_delivery(h, [](const PacketPtr&) {});
    mc.mcast_attach(g, h);
  }
  mc.inject(make_mcast_packet(0, g, 4096));
  e2.run();

  EXPECT_EQ(uni.traffic().host_egress_bytes, 7u * 4096u);
  EXPECT_EQ(mc.traffic().host_egress_bytes, 4096u);
}

TEST(Fabric, DropProbabilityDropsRoughlyProportionally) {
  sim::Engine e;
  Fabric::Config cfg;
  cfg.faults.burst.drop_good = 0.2;
  cfg.seed = 99;
  Fabric f(e, make_back_to_back({}), cfg);
  int delivered = 0;
  f.set_delivery(1, [&](const PacketPtr&) { ++delivered; });
  const int n = 5000;
  for (int i = 0; i < n; ++i) f.inject(make_test_packet(0, 1, 64));
  e.run();
  EXPECT_NEAR(static_cast<double>(delivered) / n, 0.8, 0.03);
  EXPECT_EQ(f.traffic().drops + delivered, static_cast<std::uint64_t>(n));
}

TEST(Fabric, DropFilterTargetsSpecificPackets) {
  sim::Engine e;
  Fabric f(e, make_back_to_back({}), {});
  int delivered = 0;
  f.set_delivery(1, [&](const PacketPtr&) { ++delivered; });
  int seen = 0;
  f.set_drop_filter([&](NodeId, NodeId, const Packet&) {
    return ++seen == 2;  // drop exactly the second packet
  });
  for (int i = 0; i < 3; ++i) f.inject(make_test_packet(0, 1, 64));
  e.run();
  EXPECT_EQ(delivered, 2);
}

TEST(Fabric, ResetCountersZeroes) {
  sim::Engine e;
  Fabric f(e, make_back_to_back({}), {});
  f.set_delivery(1, [](const PacketPtr&) {});
  f.inject(make_test_packet(0, 1, 100));
  e.run();
  EXPECT_GT(f.traffic().total_bytes, 0u);
  f.reset_counters();
  EXPECT_EQ(f.traffic().total_bytes, 0u);
}

TEST(Fabric, DeterministicRoutingIsStablePerFlow) {
  // Same flow id: all packets take one path; serialization must be FIFO so
  // arrival order equals injection order.
  sim::Engine e;
  Fabric f(e, make_fat_tree(2, 2, 4, 1, {}, {}), {});
  std::vector<std::uint32_t> order;
  f.set_delivery(3, [&](const PacketPtr& p) { order.push_back(p->th.psn); });
  for (std::uint32_t i = 0; i < 20; ++i) {
    PacketRef p = make_unpooled_packet();
    Packet& m = p.mut();
    m.src_host = 0;
    m.dst_host = 3;
    m.wire_size = 4096;
    m.flow_id = 7;
    m.th.psn = i;
    f.inject(p);
  }
  e.run();
  ASSERT_EQ(order.size(), 20u);
  for (std::uint32_t i = 0; i < 20; ++i) EXPECT_EQ(order[i], i);
}

TEST(Fabric, DegradeWindowEndReorders) {
  // Reordering comes from the fault plane: host 0's access link carries
  // 2 us of extra latency until 10 us. One flow injected every 100 ns keeps
  // one ECMP path, yet packets sent after the restore skip the added
  // latency and overtake packets still in flight (paper Section III-B).
  sim::Engine e;
  Fabric::Config cfg;
  cfg.faults.events = {
      FaultEvent::degrade(0, 0, 4, 1.0, 2 * kMicrosecond),
      FaultEvent::restore(10 * kMicrosecond, 0, 4)};
  Fabric f(e, make_fat_tree(2, 2, 4, 1, {}, {}), cfg);
  std::vector<std::uint32_t> order;
  f.set_delivery(3, [&](const PacketPtr& p) { order.push_back(p->th.psn); });
  for (std::uint32_t i = 0; i < 200; ++i) {
    e.schedule_at(static_cast<Time>(i) * 100 * kNanosecond, [&f, i] {
      PacketRef p = make_unpooled_packet();
      Packet& m = p.mut();
      m.src_host = 0;
      m.dst_host = 3;
      m.wire_size = 64;
      m.flow_id = 7;
      m.th.psn = i;
      f.inject(p);
    });
  }
  e.run();
  ASSERT_EQ(order.size(), 200u);
  bool reordered = false;
  for (std::size_t i = 1; i < order.size(); ++i)
    if (order[i] < order[i - 1]) reordered = true;
  EXPECT_TRUE(reordered);
}

TEST(Fabric, McastGroupSizeTracksAttachments) {
  sim::Engine e;
  Fabric f(e, make_star(4, {}), {});
  const McastGroupId g = f.create_mcast_group();
  f.mcast_attach(g, 0);
  f.mcast_attach(g, 1);
  f.mcast_attach(g, 1);  // duplicate attach is idempotent
  EXPECT_EQ(f.mcast_group_size(g), 2u);
}

}  // namespace
}  // namespace mccl::fabric

namespace mccl::fabric {
namespace {

TEST(Fabric, VirtualLanesPrioritizeControlAtSwitch) {
  // A bulk burst and one control packet contend for the same switch egress
  // port: with VLs the control packet overtakes the queued bulk.
  sim::Engine e;
  Fabric::Config cfg;
  cfg.switch_latency = 0;
  Fabric f(e, make_star(3, {100.0, 0}), cfg);
  std::vector<std::uint8_t> order;
  f.set_delivery(2, [&](const PacketPtr& p) { order.push_back(p->vl); });
  f.set_delivery(0, [](const PacketPtr&) {});
  f.set_delivery(1, [](const PacketPtr&) {});
  for (int i = 0; i < 8; ++i) {
    PacketRef p = make_unpooled_packet();
    Packet& m = p.mut();
    m.src_host = 0;
    m.dst_host = 2;
    m.wire_size = 4096;
    f.inject(p);
  }
  PacketRef ctrl = make_unpooled_packet();
  Packet& c = ctrl.mut();
  c.src_host = 1;  // separate host link: arrives at the switch quickly
  c.dst_host = 2;
  c.wire_size = 64;
  c.vl = kCtrlLane;
  f.inject(ctrl);
  e.run();
  ASSERT_EQ(order.size(), 9u);
  const auto pos =
      std::find(order.begin(), order.end(), kCtrlLane) - order.begin();
  EXPECT_LE(pos, 2);  // overtakes most of the bulk queue
}

TEST(Fabric, IdleLaneReleaseIsOnlyReservedYetKeepsItsTiming) {
  // Switch egress ports with virtual lanes reserve a dispatch ticket
  // instead of scheduling a release event when nothing waits behind the
  // packet on the wire. Three cases at one port (switch -> host 2):
  //  - a packet that arrives while the wire is busy turns the ticket into
  //    the release event and leaves right behind the first;
  //  - a packet that arrives after the wire freed leaves at once;
  //  - the last release is never dispatched, yet run() ends the clock
  //    where it would have fired (the final packet is dropped on that
  //    hop, so its release is the latest would-be event).
  sim::Engine e;
  Fabric::Config cfg;
  cfg.switch_latency = 150 * kNanosecond;
  const Time lat = 500 * kNanosecond;
  Fabric f(e, make_star(3, {100.0, lat}), cfg);
  const Time ser = serialization_time(4096, 100.0);
  std::vector<Time> arrivals;
  f.set_delivery(2, [&](const PacketPtr&) { arrivals.push_back(e.now()); });
  f.set_delivery(0, [](const PacketPtr&) {});
  f.set_delivery(1, [](const PacketPtr&) {});
  f.set_drop_filter([](NodeId from, NodeId to, const Packet& p) {
    return from == 3 && to == 2 && p.flow_id == 99;
  });
  const Time at_switch = ser + lat + cfg.switch_latency;  // egress start
  f.inject(make_test_packet(0, 2, 4096));
  f.inject(make_test_packet(1, 2, 4096));  // same egress, same instant
  const Time later = 10 * kMicrosecond;
  e.schedule_at(later, [&] { f.inject(make_test_packet(0, 2, 4096)); });
  e.schedule_at(2 * later,
                [&] { f.inject(make_test_packet(0, 2, 4096, 99)); });
  e.run();
  EXPECT_EQ(arrivals, (std::vector<Time>{at_switch + ser + lat,
                                         at_switch + 2 * ser + lat,
                                         later + at_switch + ser + lat}));
  EXPECT_EQ(f.traffic().drops, 1u);
  EXPECT_EQ(e.now(), 2 * later + at_switch + ser);
}

TEST(Fabric, VirtualLanesCanBeDisabled) {
  sim::Engine e;
  Fabric::Config cfg;
  cfg.switch_latency = 0;
  cfg.virtual_lanes = false;
  Fabric f(e, make_star(3, {100.0, 0}), cfg);
  std::vector<std::uint8_t> order;
  f.set_delivery(2, [&](const PacketPtr& p) { order.push_back(p->vl); });
  f.set_delivery(0, [](const PacketPtr&) {});
  f.set_delivery(1, [](const PacketPtr&) {});
  for (int i = 0; i < 8; ++i) {
    PacketRef p = make_unpooled_packet();
    Packet& m = p.mut();
    m.src_host = 0;
    m.dst_host = 2;
    m.wire_size = 4096;
    f.inject(p);
  }
  e.run();
  EXPECT_EQ(order.size(), 8u);  // plain FIFO still delivers everything
}

// --------------------------------------------------------------------------
// Degraded-link serialization math: kDegrade scales the effective line rate
// by bw_factor and adds extra_latency per packet, and the quiet fast-path
// gate (FaultPlane::passthrough) must produce bit-identical timing when it
// skips those queries.
// --------------------------------------------------------------------------

TEST(Fabric, DegradedLinkScalesSerializationAndAddsLatency) {
  sim::Engine e;
  Fabric::Config cfg;
  // 100 Gbit/s link degraded to a quarter rate with 5 us added latency,
  // from t=0 so the first packet already sees it.
  cfg.faults.events = {
      FaultEvent::degrade(0, 0, 1, 0.25, 5 * kMicrosecond)};
  Fabric f(e, make_back_to_back({100.0, 1 * kMicrosecond}), cfg);
  Time arrival = 0;
  f.set_delivery(1, [&](const PacketPtr&) { arrival = e.now(); });
  e.run_until(0);  // apply the t=0 degrade before injecting
  f.inject(make_test_packet(0, 1, 1000));
  e.run();
  // Serialization at bw_factor * nominal, plus base + extra latency.
  EXPECT_EQ(arrival, serialization_time(1000, 25.0) + 1 * kMicrosecond +
                         5 * kMicrosecond);
}

TEST(Fabric, DegradedLinkBacklogCompoundsAtTheSlowerRate) {
  // Back-to-back packets on a degraded link queue behind each other at the
  // *effective* rate: the serializer books 1/bw_factor times the nominal
  // wire time per packet.
  sim::Engine e;
  Fabric::Config cfg;
  cfg.faults.events = {FaultEvent::degrade(0, 0, 1, 0.1, 0)};
  Fabric f(e, make_back_to_back({100.0, 0}), cfg);
  f.set_delivery(1, [](const PacketPtr&) {});
  e.run_until(0);  // apply the t=0 degrade before injecting
  const Time d1 = f.inject(make_test_packet(0, 1, 1000));
  const Time d2 = f.inject(make_test_packet(0, 1, 1000));
  EXPECT_EQ(d1, serialization_time(1000, 10.0));
  EXPECT_EQ(d2, 2 * serialization_time(1000, 10.0));
  e.run();
}

TEST(Fabric, RestoreReturnsTimingToNominalBitIdentically) {
  // After restore, the plane quiesces (passthrough re-arms) and packet
  // timing must be indistinguishable from a fabric that never had a fault
  // timeline at all — the quiet gate skips queries that would all return
  // neutral values, so arrivals are equal to the ns.
  sim::Engine noisy_e;
  Fabric::Config noisy_cfg;
  noisy_cfg.faults.events = {
      FaultEvent::degrade(0, 0, 1, 0.5, 2 * kMicrosecond),
      FaultEvent::restore(10 * kMicrosecond, 0, 1)};
  Fabric noisy(noisy_e, make_back_to_back({100.0, 1 * kMicrosecond}),
               noisy_cfg);
  Time noisy_arrival = 0;
  noisy.set_delivery(
      1, [&](const PacketPtr&) { noisy_arrival = noisy_e.now(); });
  noisy_e.run_until(20 * kMicrosecond);
  EXPECT_TRUE(noisy.faults().passthrough());  // timeline quiesced, re-armed
  noisy.inject(make_test_packet(0, 1, 1000));
  noisy_e.run();

  sim::Engine quiet_e;
  Fabric quiet(quiet_e, make_back_to_back({100.0, 1 * kMicrosecond}), {});
  EXPECT_TRUE(quiet.faults().passthrough());  // quiet from construction
  Time quiet_arrival = 0;
  quiet.set_delivery(
      1, [&](const PacketPtr&) { quiet_arrival = quiet_e.now(); });
  quiet_e.run_until(20 * kMicrosecond);
  quiet.inject(make_test_packet(0, 1, 1000));
  quiet_e.run();

  EXPECT_EQ(noisy_arrival, quiet_arrival);
  EXPECT_EQ(noisy_arrival, 20 * kMicrosecond +
                               serialization_time(1000, 100.0) +
                               1 * kMicrosecond);
}

TEST(Fabric, DegradeTimingIsIdenticalAcrossQuietAndNoisyPlanes) {
  // A burst model keeps the plane noisy forever (passthrough can never
  // re-arm), but with the Gilbert-Elliott chain parked in its good state
  // and zero good-state drop rate the degrade math must match the plane
  // that does quiesce: the gate changes *when* queries are skipped, never
  // what they compute.
  const auto run_one = [](bool keep_noisy) {
    sim::Engine e;
    Fabric::Config cfg;
    cfg.faults.events = {
        FaultEvent::degrade(0, 0, 1, 0.25, 3 * kMicrosecond),
        FaultEvent::restore(50 * kMicrosecond, 0, 1)};
    if (keep_noisy) cfg.faults.burst.p_enter_bad = 1e-12;
    Fabric f(e, make_back_to_back({100.0, 1 * kMicrosecond}), cfg);
    std::vector<Time> arrivals;
    f.set_delivery(1, [&](const PacketPtr&) { arrivals.push_back(e.now()); });
    e.run_until(0);  // apply the t=0 degrade before injecting
    f.inject(make_test_packet(0, 1, 2000));  // degraded window
    e.run_until(60 * kMicrosecond);
    EXPECT_EQ(f.faults().passthrough(), !keep_noisy);
    f.inject(make_test_packet(0, 1, 2000));  // restored window
    e.run();
    return arrivals;
  };
  const std::vector<Time> quiesced = run_one(false);
  const std::vector<Time> noisy = run_one(true);
  ASSERT_EQ(quiesced.size(), 2u);
  EXPECT_EQ(quiesced, noisy);
  EXPECT_EQ(quiesced[0], serialization_time(2000, 25.0) + 1 * kMicrosecond +
                             3 * kMicrosecond);
  EXPECT_EQ(quiesced[1], 60 * kMicrosecond +
                             serialization_time(2000, 100.0) +
                             1 * kMicrosecond);
}

}  // namespace
}  // namespace mccl::fabric
