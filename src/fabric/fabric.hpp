// Event-driven packet fabric.
//
// Models a lossless-by-default RDMA fabric: per-link-direction FIFO
// serialization at link bandwidth, fixed per-hop latency, switch forwarding
// (deterministic ECMP by flow hash), hardware multicast via spanning trees
// over group members, per-port TX byte counters (the Fig 12 methodology),
// and fault injection: arbitrary drop filters for tests, and the FaultPlane
// (faults.hpp) — the one seeded source of perturbation on the wire: uniform
// and Gilbert-Elliott burst loss, link/switch outages, degradation windows
// (whose extra latency reorders packets across the window's end),
// corruption, stragglers and crashes. Deterministic ECMP routes around dead
// links when an equal-cost alternate exists; packets with no usable path
// are black-holed and counted.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "src/common/ring.hpp"
#include "src/common/units.hpp"
#include "src/fabric/faults.hpp"
#include "src/fabric/packet.hpp"
#include "src/fabric/topology.hpp"
#include "src/sim/engine.hpp"
#include "src/sim/resource.hpp"

namespace mccl::telemetry {
class Telemetry;
class MetricsRegistry;
}  // namespace mccl::telemetry

namespace mccl::fabric {

class Fabric {
 public:
  struct Config {
    Time switch_latency = 150 * kNanosecond;  // per-hop forwarding delay
    /// The one seed of the wire: seeds the fault plane's RNG.
    std::uint64_t seed = 1;
    /// Virtual-lane QoS at switch egress ports (paper Section VII): the
    /// control lane is served with strict priority over bulk data, so
    /// chain tokens / ACKs never queue behind megabytes of payload.
    bool virtual_lanes = true;
    /// Scheduled fault timeline + loss model (see faults.hpp); uniform
    /// loss at rate p is `faults.burst.drop_good = p`.
    FaultConfig faults;
  };

  /// Per-link-direction traffic counters (switch-port-counter equivalent).
  /// Note that the fault plane's loss model applies to control-lane packets
  /// just like bulk packets (corruption does not respect QoS); the per-lane
  /// split lets recovery analysis distinguish lost data from lost ACKs.
  struct DirCounters {
    std::uint64_t packets = 0;
    std::uint64_t bytes = 0;
    std::uint64_t drops = 0;  // all causes, both lanes
    std::array<std::uint64_t, kNumLanes> lane_drops{};  // [ctrl, bulk]
  };

  struct TrafficSnapshot {
    std::uint64_t total_bytes = 0;         // all link directions
    std::uint64_t switch_egress_bytes = 0; // directions leaving a switch
    std::uint64_t host_egress_bytes = 0;   // injection (host -> fabric)
    /// Sum of TX+RX byte counters over all *switch* ports — the quantity a
    /// fabric manager reads for Fig 12 (switch-switch links count twice).
    std::uint64_t switch_port_bytes = 0;
    std::uint64_t packets = 0;
    std::uint64_t drops = 0;
    std::uint64_t ctrl_drops = 0;   // control-lane (ACK/token) losses
    std::uint64_t bulk_drops = 0;   // bulk-lane (data) losses
    std::uint64_t black_holed = 0;  // no usable path (fault plane)
  };

  using DeliveryFn = std::function<void(const PacketPtr&)>;
  /// Returns true to drop the packet on link (from -> to).
  using DropFilter =
      std::function<bool(NodeId from, NodeId to, const Packet&)>;
  /// Returns true if the packet was consumed by an in-switch service (e.g.
  /// the in-network-compute reduction engine).
  using SwitchInterceptor =
      std::function<bool(NodeId sw, int in_port, const PacketPtr&)>;

  Fabric(sim::Engine& engine, Topology topology, Config config);
  /// Teardown leak audit: with the event engine drained, every pooled
  /// packet must have been returned (NICs — destroyed before the fabric —
  /// release their queues; in-flight references live only in engine
  /// events). Reports "packet.pool_leak" in MCCL_VALIDATE builds. Skipped
  /// when events are still pending: their packet references are legal.
  ~Fabric();

  sim::Engine& engine() { return engine_; }
  const Topology& topology() const { return topo_; }

  /// Recycling allocator for every packet injected into this fabric.
  /// Outstanding packets may outlive the Fabric (events still queued in the
  /// engine at teardown); the pool's backing store handles that itself.
  PacketPool& pool() { return pool_; }

  /// Registers the packet-arrival callback for `host` (its NIC).
  void set_delivery(NodeId host, DeliveryFn fn);

  /// Injects a packet from packet->src_host. Serializes on the host's
  /// egress link; returns the time the packet has fully left the host.
  Time inject(const PacketPtr& packet);

  // --- Multicast -----------------------------------------------------------
  /// `rail >= 0` pins the group's spanning tree to that rail plane's
  /// switches (rail-striped multicast on multi-rail fabrics); -1 = any.
  McastGroupId create_mcast_group(int rail = -1);
  void mcast_attach(McastGroupId group, NodeId host);
  std::size_t mcast_group_size(McastGroupId group) const;
  /// Re-pins the group's tree to another rail plane (health-plane subgroup
  /// re-balancing) and rebuilds it immediately. Safe between collective ops
  /// even with replicas of the previous op still in flight: a straggler
  /// landing on an old-plane switch finds no tree ports there and dies out
  /// as a late duplicate.
  void set_mcast_group_rail(McastGroupId group, int rail);
  int mcast_group_rail(McastGroupId group) const {
    return groups_[static_cast<std::size_t>(group)].rail;
  }

  // --- Weighted ECMP (health-plane path steering) --------------------------
  /// Per-direction ECMP weight (default 1). With any non-default weight
  /// set, deterministic ECMP hashes flows onto candidates proportionally to
  /// their weights instead of uniformly, steering traffic away from
  /// lossy-but-alive links (weight 0 removes the direction from selection
  /// while some sibling has weight > 0). Cold-path API: the health monitor
  /// adjusts weights at sampling cadence, never per packet.
  void set_dir_weight(std::size_t dir_index, std::uint16_t weight);
  std::uint16_t dir_weight(std::size_t dir_index) const {
    return dir_weight_[dir_index];
  }
  /// Number of weight transitions applied (coll.adapt cross-checks).
  std::uint64_t ecmp_reweights() const { return ecmp_reweights_; }
  /// Link directions currently deweighted (weight != 1) by the cluster's
  /// one health monitor — the admission controller's fabric-degradation
  /// signal: every deweighted direction means the monitor judged a link
  /// (or the rail behind it) lossy or slow, so new tenants should queue
  /// rather than pile on. Cold path (admission decisions, not per packet).
  std::size_t deweighted_dirs() const {
    std::size_t n = 0;
    for (const std::uint16_t w : dir_weight_)
      if (w != 1) ++n;
    return n;
  }

  /// Peak backlog booked on this direction since the last call: wire time
  /// booked past `now` plus the drain time of its virtual lanes
  /// (read-and-reset, like a switch's max-queue-depth register). It is the
  /// queue-depth/ECN analog the cluster's health monitor samples to spot
  /// degraded (slow but not dropping) links. The monitor is its one
  /// reader: a second reader would split each window's peak. A periodic point sample of the backlog
  /// aliases over short bursts — a degraded trunk can book tens of µs and
  /// drain entirely between two sampler ticks; the peak-hold register
  /// cannot miss it.
  Time take_peak_backlog(std::size_t dir_index) {
    const Time peak = peak_backlog_[dir_index];
    peak_backlog_[dir_index] = 0;
    return peak;
  }

  // --- Fault injection -----------------------------------------------------
  void set_drop_filter(DropFilter filter) { drop_filter_ = std::move(filter); }
  FaultPlane& faults() { return faults_; }
  const FaultPlane& faults() const { return faults_; }

  // --- In-switch services ----------------------------------------------------
  /// `only_op`: the fabric pre-filters on the transport op with a plain
  /// integer compare, so non-matching traffic (the vast majority) never pays
  /// the std::function call — forward() runs once per packet per switch hop.
  void set_switch_interceptor(SwitchInterceptor f, TransportOp only_op) {
    interceptor_ = std::move(f);
    interceptor_op_ = only_op;
  }
  /// Emits a (service-generated) packet out a specific switch port.
  void send_from_switch(NodeId sw, int port, const PacketPtr& packet) {
    MCCL_CHECK(!topo_.is_host(sw));
    send_out(sw, port, packet);
  }

  // --- Counters ------------------------------------------------------------
  TrafficSnapshot traffic() const;
  const DirCounters& dir_counters(std::size_t dir_index) const {
    return counters_[dir_index];
  }
  void reset_counters();

  // --- Telemetry -----------------------------------------------------------
  /// Wires the fabric (and its fault plane) to the cluster's telemetry:
  /// drops/black-holes go to the flight recorder, fault-timeline
  /// transitions become trace instants + recorder entries.
  void set_telemetry(telemetry::Telemetry* telem);
  telemetry::Telemetry* telemetry() const { return telem_; }
  /// Mirrors per-direction and aggregate traffic counters into the metrics
  /// registry (called from a snapshot-time publisher, not the hot path).
  void publish_metrics(telemetry::MetricsRegistry& reg) const;

 private:
  struct McastGroup {
    std::vector<NodeId> members;
    int rail = -1;  // restrict the tree to this rail's switches (-1 = any)
    bool tree_ready = false;
    // tree_ports[node] = ports of `node` that are tree edges.
    std::vector<std::vector<int>> tree_ports;
  };

  /// Per-direction virtual-lane queues (switch egress only; host egress is
  /// paced by the NIC arbiter, one packet at a time).
  struct LaneState {
    std::array<Ring<PacketPtr>, kNumLanes> queues;
    std::uint64_t queued_bytes = 0;  // wire bytes across all lanes
    bool busy = false;
    // Busy with no release event queued: the serializer frees at `release`,
    // and the event is scheduled there only if a packet arrives first.
    bool ticketed = false;
    sim::Engine::Ticket release;
  };

  // The per-hop chain resolves the egress Port once in send_out and threads
  // it through (each topo_.ports(node)[port] lookup is two dependent loads).
  void send_out(NodeId node, int port, const PacketPtr& packet);
  void black_hole(NodeId node, const PacketPtr& packet);
  void put_on_wire(NodeId node, int port, const Port& p,
                   const PacketPtr& packet);
  void pump_lanes(NodeId node, int port, const Port& p);
  /// The serializer of a lane-queued switch egress port freed.
  void release_lanes(NodeId node, int port);
  void arrive(NodeId node, int in_port, const PacketPtr& packet);
  void forward(NodeId sw, int in_port, const PacketPtr& packet);
  int pick_next_hop(NodeId node, const Packet& packet);
  /// Weight-proportional candidate selection; -1 = fall back to uniform.
  int pick_weighted(NodeId node, const Topology::HopSet& cand,
                    std::uint64_t hash);
  /// Rebuilds the per-(host, node) reachability table consulted by ECMP
  /// when the fault plane has taken links or switches down.
  void recompute_viability();
  void build_mcast_tree(McastGroup& group);

  sim::Engine& engine_;
  PacketPool pool_;
  Topology topo_;
  Config config_;
  FaultPlane faults_;
  telemetry::Telemetry* telem_ = nullptr;
  std::vector<DeliveryFn> delivery_;        // per host node id
  std::vector<sim::Resource> serializers_;  // per link direction
  std::vector<Time> peak_backlog_;          // peak-hold since last read
  std::vector<DirCounters> counters_;       // per link direction
  std::vector<LaneState> lanes_;            // per link direction
  std::vector<McastGroup> groups_;
  DropFilter drop_filter_;
  SwitchInterceptor interceptor_;
  TransportOp interceptor_op_ = TransportOp::kUdSend;  // meaningless w/o fn
  // ECMP viability under faults: viable_[host_index * num_nodes + node] is
  // nonzero iff `node` can still reach the host over usable directions.
  // Rebuilt lazily whenever the fault plane's topo_version moves.
  std::vector<char> viable_;
  std::uint64_t viable_version_ = 0;
  // Weighted ECMP: per-direction weights (default 1); weighted_ caches
  // "any weight differs from 1" so the unweighted hot path stays a single
  // predictable branch.
  std::vector<std::uint16_t> dir_weight_;
  bool weighted_ = false;
  std::uint64_t ecmp_reweights_ = 0;
  /// Cached FaultPlane::passthrough(): when set, every per-packet fault
  /// query is skipped (each would return its neutral value and draw no RNG,
  /// so the skip is bit-identical to asking). Re-armed mid-run via the
  /// plane's quiescence handler once the timeline is exhausted.
  bool quiet_ = false;
};

}  // namespace mccl::fabric
