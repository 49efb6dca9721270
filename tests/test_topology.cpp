// Unit tests for topology construction and routing.
#include <gtest/gtest.h>

#include "src/fabric/topology.hpp"

namespace mccl::fabric {
namespace {

TEST(Topology, BackToBackHasTwoHostsOneLink) {
  Topology t = make_back_to_back({});
  EXPECT_EQ(t.num_hosts(), 2u);
  EXPECT_EQ(t.num_switches(), 0u);
  EXPECT_EQ(t.num_dirs(), 2u);
  EXPECT_EQ(t.distance(0, 1), 1);
  EXPECT_EQ(t.next_hops(0, 1).size(), 1u);
}

TEST(Topology, StarRoutesThroughSwitch) {
  Topology t = make_star(4, {});
  EXPECT_EQ(t.num_hosts(), 4u);
  EXPECT_EQ(t.num_switches(), 1u);
  // host -> switch -> host: distance 2.
  EXPECT_EQ(t.distance(0, 3), 2);
  const NodeId sw = 4;
  EXPECT_FALSE(t.is_host(sw));
  EXPECT_EQ(t.next_hops(sw, 2).size(), 1u);
}

TEST(Topology, FatTreeShape) {
  // 4 leaves x 4 hosts, 2 spines, 2 trunks each: 16 hosts, 6 switches.
  Topology t = make_fat_tree(4, 4, 2, 2, {}, {});
  EXPECT_EQ(t.num_hosts(), 16u);
  EXPECT_EQ(t.num_switches(), 6u);
  // Intra-leaf: host -> leaf -> host.
  EXPECT_EQ(t.distance(0, 1), 2);
  // Inter-leaf: host -> leaf -> spine -> leaf -> host.
  EXPECT_EQ(t.distance(0, 15), 4);
}

TEST(Topology, FatTreeEcmpMultipath) {
  Topology t = make_fat_tree(2, 2, 2, 1, {}, {});
  const NodeId leaf0 = 4;  // hosts are 0..3, switches follow
  ASSERT_FALSE(t.is_host(leaf0));
  // From leaf 0 toward a host in leaf 1 there are 2 equal-cost spines.
  EXPECT_EQ(t.next_hops(leaf0, 3).size(), 2u);
  // Toward a local host there is exactly one (down) port.
  EXPECT_EQ(t.next_hops(leaf0, 0).size(), 1u);
}

TEST(Topology, FatTreeForHostsCoversRequest) {
  Topology t = make_fat_tree_for_hosts(188, 36, {});
  EXPECT_GE(t.num_hosts(), 188u);
  // radix 36 -> 18 hosts per leaf, 11 leaves, 18 spines.
  EXPECT_EQ(t.num_switches(), 29u);
}

TEST(Topology, HostIndexIsStable) {
  Topology t = make_star(5, {});
  for (std::size_t i = 0; i < 5; ++i)
    EXPECT_EQ(t.host_index(t.hosts()[i]), i);
}

TEST(Topology, DirsMatchPorts) {
  Topology t = make_star(3, {});
  // Every port owns exactly one outgoing direction.
  std::size_t total_ports = 0;
  for (std::size_t n = 0; n < t.num_nodes(); ++n)
    total_ports += t.ports(static_cast<NodeId>(n)).size();
  EXPECT_EQ(total_ports, t.num_dirs());
}

TEST(Topology, LinkParamsPreserved) {
  LinkParams lp{56.0, 700 * kNanosecond};
  Topology t = make_back_to_back(lp);
  EXPECT_DOUBLE_EQ(t.dirs()[0].params.gbps, 56.0);
  EXPECT_EQ(t.dirs()[0].params.latency, 700 * kNanosecond);
}

TEST(Topology, MultiRailFatTreeShape) {
  // make_multi_rail_fat_tree(2, 2, 4, 1, 1): 8 hosts shared by two
  // independent leaf/spine planes — rail 0 = leaves 8-9 + spine 10,
  // rail 1 = leaves 11-12 + spine 13; every host has one port per rail.
  Topology t = make_multi_rail_fat_tree(2, 2, 4, 1, 1, {}, {});
  EXPECT_EQ(t.num_rails(), 2);
  EXPECT_EQ(t.num_nodes(), 8u + 2 * (2 + 1));
  for (NodeId h = 0; h < 8; ++h) {
    EXPECT_TRUE(t.is_host(h));
    EXPECT_EQ(t.rail_of(h), -1);  // hosts belong to no single rail
    const auto& ports = t.ports(h);
    ASSERT_EQ(ports.size(), 2u);
    // Port r is the uplink into rail r.
    EXPECT_EQ(t.rail_of(ports[0].peer), 0);
    EXPECT_EQ(t.rail_of(ports[1].peer), 1);
  }
  for (NodeId sw = 8; sw < t.num_nodes(); ++sw) {
    EXPECT_FALSE(t.is_host(sw));
    EXPECT_EQ(t.rail_of(sw), sw < 11 ? 0 : 1);
  }
  // The planes are disjoint: no switch has a port into the other rail.
  for (NodeId sw = 8; sw < t.num_nodes(); ++sw)
    for (const Port& p : t.ports(sw))
      if (!t.is_host(p.peer))
        EXPECT_EQ(t.rail_of(p.peer), t.rail_of(sw));
}

}  // namespace
}  // namespace mccl::fabric
