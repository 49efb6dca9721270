// Network topology graph: hosts and switches connected by full-duplex links.
//
// Routing tables are computed with BFS from every host; a node's candidate
// next hops toward a host are all ports whose peer is strictly closer
// (shortest-path ECMP). The fabric picks one candidate by flow hash, so a
// flow stays on one path; out-of-order delivery (paper Section III-B) comes
// from the fault plane's degrade windows, not from routing.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "src/common/check.hpp"
#include "src/common/units.hpp"
#include "src/fabric/packet.hpp"

namespace mccl::fabric {

enum class NodeKind : std::uint8_t { kHost, kSwitch };

struct LinkParams {
  double gbps = 200.0;             // per-direction bandwidth
  Time latency = 500 * kNanosecond;  // propagation + fixed per-hop cost
};

struct Port {
  NodeId peer = kInvalidNode;
  int peer_port = -1;
  std::size_t dir_index = 0;  // outgoing link direction owned by this port
  LinkParams params;
};

/// One direction of a full-duplex link (the unit of serialization and of
/// per-port traffic counting, mirroring switch port TX counters).
struct LinkDir {
  NodeId from = kInvalidNode;
  NodeId to = kInvalidNode;
  int from_port = -1;
  LinkParams params;
};

class Topology {
 public:
  NodeId add_host();
  NodeId add_switch();

  /// Connects two nodes with a full-duplex link.
  void connect(NodeId a, NodeId b, LinkParams params);

  NodeKind kind(NodeId n) const { return kinds_[static_cast<size_t>(n)]; }
  bool is_host(NodeId n) const { return kind(n) == NodeKind::kHost; }
  std::size_t num_nodes() const { return kinds_.size(); }
  std::size_t num_hosts() const { return hosts_.size(); }
  std::size_t num_switches() const { return num_nodes() - num_hosts(); }
  const std::vector<NodeId>& hosts() const { return hosts_; }

  const std::vector<Port>& ports(NodeId n) const {
    return ports_[static_cast<size_t>(n)];
  }
  const std::vector<LinkDir>& dirs() const { return dirs_; }
  std::size_t num_dirs() const { return dirs_.size(); }

  /// Index of `host` within hosts() — routing tables are host-indexed.
  std::size_t host_index(NodeId host) const {
    const std::size_t idx = host_index_[static_cast<size_t>(host)];
    MCCL_CHECK_MSG(idx != kNoHost, "node is not a host");
    return idx;
  }

  /// Rail tagging (multi-rail fabrics, cf. Nezha-style dual-ToR designs):
  /// each switch belongs to exactly one rail plane; hosts straddle all
  /// rails (one port per rail) and stay untagged (-1). Rail-aware consumers
  /// (multicast tree striping) restrict themselves to one plane's switches.
  void tag_rail(NodeId n, int rail) {
    MCCL_CHECK(rail >= 0 && static_cast<size_t>(n) < num_nodes());
    rail_of_[static_cast<size_t>(n)] = rail;
    if (rail + 1 > num_rails_) num_rails_ = rail + 1;
  }
  int rail_of(NodeId n) const { return rail_of_[static_cast<size_t>(n)]; }
  /// Number of rail planes (0 when the topology is not rail-tagged).
  int num_rails() const { return num_rails_; }

  /// (Re)computes shortest-path routing tables. Must be called after the
  /// last connect() and before next_hops().
  void compute_routes();
  bool routes_ready() const { return routes_ready_; }

  /// Non-owning view of an equal-cost candidate set (CSR row).
  struct HopSet {
    const int* ptr = nullptr;
    std::uint32_t count = 0;
    const int* begin() const { return ptr; }
    const int* end() const { return ptr + count; }
    int operator[](std::size_t i) const { return ptr[i]; }
    int front() const { return ptr[0]; }
    std::size_t size() const { return count; }
    bool empty() const { return count == 0; }
  };

  /// Candidate egress ports at `node` toward `dst_host` (equal-cost set).
  /// Inline and CSR-flat: called once per unicast packet per hop.
  HopSet next_hops(NodeId node, NodeId dst_host) const {
    const std::size_t hi = host_index(dst_host);
    const std::size_t k = hi * kinds_.size() + static_cast<size_t>(node);
    const std::uint32_t b = hops_off_[k];
    const std::uint32_t e = hops_off_[k + 1];
    MCCL_CHECK_MSG(e > b, "no route to host");
    return HopSet{hops_flat_.data() + b, e - b};
  }

  /// Hop distance from `node` to `dst_host` (for multicast tree building).
  int distance(NodeId node, NodeId dst_host) const;

 private:
  static constexpr std::size_t kNoHost =
      std::numeric_limits<std::size_t>::max();

  NodeId add_node(NodeKind kind);

  std::vector<NodeKind> kinds_;
  std::vector<NodeId> hosts_;
  std::vector<std::size_t> host_index_;  // node id -> host index (or npos)
  std::vector<int> rail_of_;             // node id -> rail plane (-1 = none)
  int num_rails_ = 0;
  std::vector<std::vector<Port>> ports_;
  std::vector<LinkDir> dirs_;

  bool routes_ready_ = false;
  // dist_[h * num_nodes + n] = hops from node n to host h.
  std::vector<int> dist_;
  // Candidate egress ports in CSR form: row h * num_nodes + n spans
  // hops_flat_[hops_off_[row] .. hops_off_[row + 1]).
  std::vector<int> hops_flat_;
  std::vector<std::uint32_t> hops_off_;
};

/// Two hosts connected back to back (the paper's DPA testbed).
Topology make_back_to_back(LinkParams params);

/// `hosts` hosts hanging off one switch.
Topology make_star(std::size_t hosts, LinkParams params);

/// Two-level fat tree: `leaves` leaf switches with `hosts_per_leaf` hosts
/// each; every leaf connects to each of `spines` spine switches with
/// `trunks` parallel links. With trunks*spines == hosts_per_leaf the tree is
/// non-blocking. The paper's UCC testbed (188 nodes, 18 SX6036 switches) is
/// approximated by make_fat_tree(12, 16, 6, 3) restricted to 188 hosts.
Topology make_fat_tree(std::size_t leaves, std::size_t hosts_per_leaf,
                       std::size_t spines, std::size_t trunks,
                       LinkParams host_link, LinkParams trunk_link);

/// Convenience: non-blocking two-level fat tree for >= `min_hosts` hosts
/// built from radix-`radix` switches, uniform link parameters.
Topology make_fat_tree_for_hosts(std::size_t min_hosts, std::size_t radix,
                                 LinkParams params);

/// Multi-rail fat tree: `rails` independent two-level leaf/spine planes
/// (each tagged with its rail id) sharing one set of hosts; every host has
/// one port per rail (port r on rail r). Unicast ECMP spreads flows across
/// rails (host-side candidates are equal-cost); a dead or degraded rail is
/// routed around by viability / weighted path selection, and rail-striped
/// multicast groups pin each subgroup's tree to one plane.
Topology make_multi_rail_fat_tree(std::size_t rails, std::size_t leaves,
                                  std::size_t hosts_per_leaf,
                                  std::size_t spines, std::size_t trunks,
                                  LinkParams host_link, LinkParams trunk_link);

}  // namespace mccl::fabric
