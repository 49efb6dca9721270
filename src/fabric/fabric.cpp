#include "src/fabric/fabric.hpp"

#include <algorithm>
#include <deque>
#include <limits>
#include <string>

#include "src/telemetry/telemetry.hpp"

namespace mccl::fabric {

Fabric::Fabric(sim::Engine& engine, Topology topology, Config config)
    : engine_(engine),
      topo_(std::move(topology)),
      config_(config),
      faults_(engine, topo_, config.faults, config.seed) {
  MCCL_CHECK_MSG(topo_.routes_ready(), "topology routes not computed");
  delivery_.resize(topo_.num_nodes());
  serializers_.resize(topo_.num_dirs());
  peak_backlog_.assign(topo_.num_dirs(), 0);
  counters_.resize(topo_.num_dirs());
  lanes_.resize(topo_.num_dirs());
  dir_weight_.assign(topo_.num_dirs(), 1);
  faults_.arm();
  quiet_ = faults_.passthrough();
  // Re-arm the quiet fast path once the fault timeline has fired its last
  // event and left no residual state (every query neutral from then on).
  faults_.set_quiescence_handler([this] { quiet_ = true; });
}

Fabric::~Fabric() {
  if (engine_.empty()) pool_.leak_audit("Fabric teardown");
}

void Fabric::set_delivery(NodeId host, DeliveryFn fn) {
  MCCL_CHECK(topo_.is_host(host));
  delivery_[static_cast<size_t>(host)] = std::move(fn);
}

Time Fabric::inject(const PacketPtr& packet) {
  const NodeId src = packet->src_host;
  MCCL_CHECK(topo_.is_host(src));
  int out_port;
  if (packet->is_mcast()) {
    auto& group = groups_[static_cast<size_t>(packet->mcast_group)];
    if (!group.tree_ready) build_mcast_tree(group);
    const auto& tree = group.tree_ports[static_cast<size_t>(src)];
    MCCL_CHECK_MSG(!tree.empty(), "mcast sender not attached to group tree");
    out_port = tree.front();
  } else {
    out_port = pick_next_hop(src, *packet);
  }
  if (out_port < 0) {  // fault plane: no usable path from the host
    black_hole(src, packet);
    return engine_.now();
  }
  send_out(src, out_port, packet);
  // Departure completes when the host egress serializer frees (never in the
  // past: a black-holed packet leaves the serializer untouched).
  const auto& port = topo_.ports(src)[static_cast<size_t>(out_port)];
  return std::max(engine_.now(), serializers_[port.dir_index].free_at());
}

void Fabric::black_hole(NodeId node, const PacketPtr& packet) {
  // Count the loss on the node's first egress direction so per-port drop
  // analysis still sees it; the packet never occupies a wire.
  const auto& ports = topo_.ports(node);
  if (!ports.empty()) {
    DirCounters& ctr = counters_[ports.front().dir_index];
    ctr.drops += 1;
    ctr.lane_drops[packet->vl] += 1;
  }
  faults_.count_black_hole();
  if (telem_ != nullptr)
    telem_->recorder.record(engine_.now(),
                            static_cast<std::int32_t>(packet->dst_host),
                            telemetry::EventCat::kPacket, "black_hole",
                            static_cast<std::uint64_t>(node),
                            packet->wire_size);
}

void Fabric::send_out(NodeId node, int port_idx, const PacketPtr& packet) {
  const Port& port = topo_.ports(node)[static_cast<size_t>(port_idx)];
  // Dead egress (downed link, or a downed switch on either end): the packet
  // is black-holed here. Multicast-tree edges land on this path — the tree
  // is not rebuilt around faults, so every subtree behind a dead edge goes
  // dark and the collective's slow path must recover.
  if (!quiet_ && !faults_.dir_usable(port.dir_index)) {
    black_hole(node, packet);
    return;
  }
  // Switch egress with virtual lanes enabled goes through the per-port
  // priority queues; host egress (already paced one-packet-at-a-time by the
  // NIC arbiter) and VL-less fabrics serialize directly.
  if (config_.virtual_lanes && !topo_.is_host(node)) {
    LaneState& lane = lanes_[port.dir_index];
    MCCL_CHECK(packet->vl < kNumLanes);
    lane.queues[packet->vl].push(packet);
    lane.queued_bytes += packet->wire_size;
    pump_lanes(node, port_idx, port);
    return;
  }
  put_on_wire(node, port_idx, port, packet);
}

// mccl-lint: begin-hot fabric-wire
void Fabric::pump_lanes(NodeId node, int port_idx, const Port& port) {
  LaneState& lane = lanes_[port.dir_index];
  if (lane.busy) {
    if (!lane.ticketed) return;  // the release event is queued
    lane.ticketed = false;
    if (!engine_.passed(lane.release)) {
      // A packet queued while the wire is still busy: the release event is
      // needed after all, at the place reserved for it.
      engine_.schedule_ticket(lane.release, [this, node, port_idx] {
        release_lanes(node, port_idx);
      });
      return;
    }
    lane.busy = false;  // the release came and went with nothing to send
  }
  PacketPtr next;
  for (auto& q : lane.queues) {  // strict priority: lane 0 first
    if (!q.empty()) {
      next = q.pop();
      break;
    }
  }
  if (!next) return;
  lane.queued_bytes -= next->wire_size;
  lane.busy = true;
  put_on_wire(node, port_idx, port, next);
  // Clamp to now: a packet black-holed inside put_on_wire (link died while
  // queued) leaves the serializer's free_at in the past.
  const Time now = engine_.now();
  const Time free_at =
      std::max(now, serializers_[port.dir_index].free_at());
  const bool idle = std::all_of(lane.queues.begin(), lane.queues.end(),
                                [](const auto& q) { return q.empty(); });
  if (idle && free_at > now) {
    // Nothing left to send: most such releases would find the queues still
    // empty, so only their place in the dispatch order is reserved.
    lane.release = engine_.reserve_at(free_at);
    lane.ticketed = true;
    return;
  }
  engine_.schedule_at(free_at, [this, node, port_idx] {
    release_lanes(node, port_idx);
  });
}

void Fabric::release_lanes(NodeId node, int port_idx) {
  const Port& p = topo_.ports(node)[static_cast<size_t>(port_idx)];
  lanes_[p.dir_index].busy = false;
  pump_lanes(node, port_idx, p);
}

void Fabric::put_on_wire(NodeId node, int /*port_idx*/, const Port& port,
                         const PacketPtr& packet) {
  if (!quiet_ && !faults_.dir_usable(port.dir_index)) {
    black_hole(node, packet);  // link died while lane-queued
    return;
  }
  sim::Resource& ser = serializers_[port.dir_index];
  DirCounters& ctr = counters_[port.dir_index];

  // A degraded link serializes at a fraction of its nominal bandwidth.
  // (bw_factor is exactly 1.0 when undegraded, so the quiet split cannot
  // change rounding.)
  const double gbps_eff =
      quiet_ ? port.params.gbps
             : port.params.gbps * faults_.bw_factor(port.dir_index);
  const Time ser_time = serialization_time(packet->wire_size, gbps_eff);
  const Time wire_done = ser.acquire(engine_.now(), ser_time);
  // Peak-hold backlog register for the health sampler (see
  // take_peak_backlog): wire time booked beyond now, plus the drain time of
  // whatever the virtual lanes hold — with VLs on, switch egress paces one
  // packet at a time, so congestion queues in the lanes, not the serializer.
  Time booked = wire_done - engine_.now();
  if (config_.virtual_lanes && !topo_.is_host(node))
    booked += serialization_time(lanes_[port.dir_index].queued_bytes,
                                 gbps_eff);
  Time& peak = peak_backlog_[port.dir_index];
  if (booked > peak) peak = booked;
  ctr.packets += 1;
  ctr.bytes += packet->wire_size;

  // Decide link-layer loss up front; a lost packet still occupies the wire
  // (a bit error is caught at the receiver's CRC check).
  bool drop = quiet_ ? false : faults_.burst_drop(port.dir_index);
  if (!drop && drop_filter_ && drop_filter_(node, port.peer, *packet))
    drop = true;
  if (drop) {
    ctr.drops += 1;
    ctr.lane_drops[packet->vl] += 1;
    if (telem_ != nullptr)
      telem_->recorder.record(engine_.now(),
                              static_cast<std::int32_t>(packet->dst_host),
                              telemetry::EventCat::kPacket, "link_drop",
                              static_cast<std::uint64_t>(node),
                              static_cast<std::uint64_t>(port.peer));
    return;
  }

  // Link-layer corruption window: the packet is delivered, but with one
  // payload bit flipped (and the `corrupted` flag set for synthetic mode).
  // The shared payload snapshot is immutable — other replicas of a multicast
  // packet must stay clean — so corruption clones packet and bytes.
  PacketPtr delivered = packet;
  if (!quiet_ && faults_.corrupt_hit(port.dir_index)) {
    // COW: clean replicas of a multicast packet keep sharing the original
    // bytes; only the corrupted copy gets its own buffer (with one bit
    // flipped).
    // The clone is charged to the original's tenant sub-pool; the wire-field
    // copy below re-stamps the same tenant id, so release-side accounting
    // stays balanced.
    PacketPtr dup = pool_.acquire(packet->tenant);
    dup.mut() = *packet;  // wire fields only; refcount/home are preserved
    dup.mut().corrupted = true;
    if (!dup->payload.empty()) {
      const std::uint8_t* src_bytes = dup->payload.data();
      const std::size_t len = dup->payload.size();
      // mccl-lint: allow(no-hot-alloc) corruption clone: cold fault path
      auto buf = std::make_shared<std::vector<std::uint8_t>>(src_bytes,
                                                             src_bytes + len);
      const std::uint64_t byte = faults_.corrupt_pick(len);
      (*buf)[byte] ^=
          static_cast<std::uint8_t>(1u << faults_.corrupt_pick(8));
      dup.mut().payload = Payload(std::move(buf), 0, len);
    }
    if (telem_ != nullptr)
      telem_->recorder.record(engine_.now(),
                              static_cast<std::int32_t>(packet->dst_host),
                              telemetry::EventCat::kPacket, "corrupt",
                              static_cast<std::uint64_t>(node),
                              static_cast<std::uint64_t>(port.peer));
    delivered = std::move(dup);
  }

  Time arrival = wire_done + port.params.latency;
  if (!quiet_) arrival += faults_.extra_latency(port.dir_index);

  const NodeId peer = port.peer;
  const int peer_port = port.peer_port;
  engine_.schedule_at(arrival, [this, peer, peer_port,
                                packet = std::move(delivered)] {
    arrive(peer, peer_port, packet);
  });
}
// mccl-lint: end-hot

void Fabric::arrive(NodeId node, int in_port, const PacketPtr& packet) {
  // Switch died or host crashed while the packet flew: in-flight traffic
  // addressed at (or through) a silent node is dropped on arrival.
  if (!quiet_ && faults_.node_silent(node)) {
    faults_.count_black_hole();
    return;
  }
  if (topo_.is_host(node)) {
    // Unicast packets only arrive at their destination; multicast packets
    // only reach group members (tree leaves are members by construction).
    auto& fn = delivery_[static_cast<size_t>(node)];
    MCCL_CHECK_MSG(static_cast<bool>(fn), "no NIC attached to host");
    fn(packet);
    return;
  }
  if (config_.switch_latency > 0) {
    engine_.schedule(config_.switch_latency, [this, node, in_port, packet] {
      forward(node, in_port, packet);
    });
  } else {
    forward(node, in_port, packet);
  }
}

void Fabric::forward(NodeId sw, int in_port, const PacketPtr& packet) {
  if (packet->th.op == interceptor_op_ && interceptor_ &&
      interceptor_(sw, in_port, packet))
    return;
  if (packet->is_mcast()) {
    auto& group = groups_[static_cast<size_t>(packet->mcast_group)];
    MCCL_CHECK(group.tree_ready);
    for (int p : group.tree_ports[static_cast<size_t>(sw)]) {
      if (p != in_port) send_out(sw, p, packet);
    }
  } else {
    const int next = pick_next_hop(sw, *packet);
    if (next < 0) {
      black_hole(sw, packet);
      return;
    }
    send_out(sw, next, packet);
  }
}

void Fabric::recompute_viability() {
  viable_version_ = faults_.topo_version();
  const std::size_t n_nodes = topo_.num_nodes();
  const auto& hosts = topo_.hosts();
  viable_.assign(hosts.size() * n_nodes, 0);
  // viable(dst, node): some shortest-path candidate at `node` crosses a
  // usable direction into a node that is itself viable toward dst. Next
  // hops strictly decrease the distance to dst, so processing nodes in
  // ascending-distance order makes one pass sufficient (no cycles).
  std::vector<std::pair<int, NodeId>> order;
  order.reserve(n_nodes);
  for (std::size_t hi = 0; hi < hosts.size(); ++hi) {
    const NodeId dst = hosts[hi];
    order.clear();
    for (std::size_t n = 0; n < n_nodes; ++n) {
      const NodeId node = static_cast<NodeId>(n);
      order.emplace_back(topo_.distance(node, dst), node);
    }
    std::sort(order.begin(), order.end());
    for (const auto& [dist, node] : order) {
      char v = 0;
      if (node == dst) {
        v = faults_.node_silent(node) ? 0 : 1;
      } else {
        for (int c : topo_.next_hops(node, dst)) {
          const Port& p = topo_.ports(node)[static_cast<size_t>(c)];
          if (faults_.dir_usable(p.dir_index) &&
              viable_[hi * n_nodes + static_cast<size_t>(p.peer)]) {
            v = 1;
            break;
          }
        }
      }
      viable_[hi * n_nodes + static_cast<size_t>(node)] = v;
    }
  }
}

int Fabric::pick_next_hop(NodeId node, const Packet& packet) {
  const Topology::HopSet all = topo_.next_hops(node, packet.dst_host);
  // ECMP re-routes around faulted candidates; a flow whose hashed path died
  // deterministically lands on the same surviving alternate. A candidate is
  // usable only if its own direction is up AND the peer can still reach the
  // destination over usable links (the viability table) — a greedy
  // dead-dir check alone would happily hand a packet to a spine whose only
  // down-link died. Returns -1 when every path is dead (caller black-holes).
  std::vector<int> alive;  // only materialized on the (rare) faulted path
  bool any_dead = false;
  if (faults_.topo_version() != 0) {
    if (viable_version_ != faults_.topo_version()) recompute_viability();
    const std::size_t hi = topo_.host_index(packet.dst_host);
    const std::size_t n_nodes = topo_.num_nodes();
    const auto usable = [&](int port_idx) {
      const Port& p = topo_.ports(node)[static_cast<size_t>(port_idx)];
      return faults_.dir_usable(p.dir_index) &&
             viable_[hi * n_nodes + static_cast<size_t>(p.peer)] != 0;
    };
    for (int c : all) {
      if (!usable(c)) {
        any_dead = true;
        break;
      }
    }
    if (any_dead) {
      for (int c : all)
        if (usable(c)) alive.push_back(c);
      if (alive.empty()) return -1;
    }
  }
  const Topology::HopSet cand =
      any_dead ? Topology::HopSet{alive.data(),
                                  static_cast<std::uint32_t>(alive.size())}
               : all;
  if (cand.size() == 1) return cand.front();
  // Deterministic ECMP: mix flow id, node and destination so distinct flows
  // spread while one flow stays on one path (in-order delivery).
  std::uint64_t h = packet.flow_id * 0x9e3779b97f4a7c15ULL;
  h ^= (static_cast<std::uint64_t>(node) << 32) ^
       static_cast<std::uint64_t>(packet.dst_host);
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 29;
  if (weighted_) {
    const int c = pick_weighted(node, cand, h);
    if (c >= 0) return c;
  }
  // Fat-tree uplink counts are powers of two in practice; mask instead of a
  // 64-bit divide when possible (identical result).
  const std::size_t n = cand.size();
  return cand[(n & (n - 1)) == 0 ? (h & (n - 1)) : (h % n)];
}

int Fabric::pick_weighted(NodeId node, const Topology::HopSet& cand,
                          std::uint64_t hash) {
  // Weighted ECMP: flows land on a candidate with probability proportional
  // to its direction weight. Falls back to uniform selection (-1) when the
  // candidates' weights sum to zero — a zero-weight path is still usable,
  // merely deprioritized, so an all-zero set must not black-hole.
  std::uint32_t total = 0;
  const auto& ports = topo_.ports(node);
  for (int c : cand) total += dir_weight_[ports[static_cast<size_t>(c)].dir_index];
  if (total == 0) return -1;
  std::uint64_t pick = hash % total;
  for (int c : cand) {
    const std::uint32_t w =
        dir_weight_[ports[static_cast<size_t>(c)].dir_index];
    if (pick < w) return c;
    pick -= w;
  }
  return cand.front();  // unreachable: pick < total by construction
}

void Fabric::set_dir_weight(std::size_t dir_index, std::uint16_t weight) {
  if (dir_weight_[dir_index] == weight) return;
  dir_weight_[dir_index] = weight;
  ++ecmp_reweights_;
  weighted_ = false;
  for (const std::uint16_t w : dir_weight_) {
    if (w != 1) {
      weighted_ = true;
      break;
    }
  }
  if (telem_ != nullptr) {
    const LinkDir& d = topo_.dirs()[dir_index];
    telem_->recorder.record(engine_.now(), static_cast<std::int32_t>(d.from),
                            telemetry::EventCat::kAdapt,
                            weight == 1 ? "ecmp_restore" : "ecmp_reweight",
                            static_cast<std::uint64_t>(d.to), weight);
  }
}

McastGroupId Fabric::create_mcast_group(int rail) {
  MCCL_CHECK(rail < topo_.num_rails());
  groups_.emplace_back();
  groups_.back().rail = rail;
  return static_cast<McastGroupId>(groups_.size() - 1);
}

void Fabric::mcast_attach(McastGroupId group, NodeId host) {
  MCCL_CHECK(topo_.is_host(host));
  auto& g = groups_[static_cast<size_t>(group)];
  if (std::find(g.members.begin(), g.members.end(), host) != g.members.end())
    return;
  g.members.push_back(host);
  g.tree_ready = false;
}

std::size_t Fabric::mcast_group_size(McastGroupId group) const {
  return groups_[static_cast<size_t>(group)].members.size();
}

void Fabric::set_mcast_group_rail(McastGroupId group, int rail) {
  MCCL_CHECK(rail < topo_.num_rails());
  auto& g = groups_[static_cast<size_t>(group)];
  if (g.rail == rail) return;
  g.rail = rail;
  // Rebuild eagerly, not lazily: collective completion does not imply
  // fabric quiescence — a replica can still be in flight on a slow link
  // from the previous op, and it must find a valid (if empty for its
  // switch) tree when it lands, not a torn-down one. Old-plane switches
  // get no ports in the new tree, so stragglers die out as harmless
  // late duplicates.
  build_mcast_tree(g);
}

void Fabric::build_mcast_tree(McastGroup& group) {
  MCCL_CHECK_MSG(group.members.size() >= 2, "mcast group needs >= 2 members");
  group.tree_ports.assign(topo_.num_nodes(), {});

  // Rail-striped groups keep their tree inside one rail plane: switches of
  // other rails are invisible to root selection and tree flooding (hosts
  // straddle all rails and always qualify).
  const auto rail_ok = [&](NodeId n) {
    return group.rail < 0 || topo_.is_host(n) ||
           topo_.rail_of(n) == group.rail;
  };

  // Root selection: the node minimizing the maximum distance to any member
  // (prefer switches). This mirrors the subnet manager placing the mcast
  // tree root near the topological center.
  NodeId root = group.members.front();
  int best = std::numeric_limits<int>::max();
  for (std::size_t n = 0; n < topo_.num_nodes(); ++n) {
    const NodeId node = static_cast<NodeId>(n);
    if (!rail_ok(node)) continue;
    if (topo_.is_host(node) &&
        std::find(group.members.begin(), group.members.end(), node) ==
            group.members.end())
      continue;  // a non-member host cannot relay traffic
    int worst = 0;
    for (NodeId m : group.members)
      worst = std::max(worst, node == m ? 0 : topo_.distance(node, m));
    const bool prefer =
        worst < best || (worst == best && !topo_.is_host(node) &&
                         topo_.is_host(root));
    if (prefer) {
      best = worst;
      root = node;
    }
  }

  // BFS tree from the root with unique parents (first discovery wins), then
  // keep only the edges on some member's path to the root. Unique parents
  // guarantee the flooded subgraph is acyclic. Edges are stored as
  // (node, port) on both endpoints; forwarding floods a packet to every tree
  // port except its ingress.
  constexpr int kNoParent = -1;
  std::vector<int> parent_port(topo_.num_nodes(), kNoParent);  // port at child
  std::vector<bool> visited(topo_.num_nodes(), false);
  // mccl-lint: allow(no-datapath-deque) one BFS per tree build, not per packet
  std::deque<NodeId> frontier;
  visited[static_cast<size_t>(root)] = true;
  frontier.push_back(root);
  while (!frontier.empty()) {
    const NodeId cur = frontier.front();
    frontier.pop_front();
    const auto& ports = topo_.ports(cur);
    for (std::size_t pi = 0; pi < ports.size(); ++pi) {
      const NodeId peer = ports[pi].peer;
      if (visited[static_cast<size_t>(peer)] || !rail_ok(peer)) continue;
      visited[static_cast<size_t>(peer)] = true;
      parent_port[static_cast<size_t>(peer)] = ports[pi].peer_port;
      frontier.push_back(peer);
    }
  }

  auto add_edge = [&](NodeId node, int port) {
    auto& tp = group.tree_ports[static_cast<size_t>(node)];
    if (std::find(tp.begin(), tp.end(), port) == tp.end()) tp.push_back(port);
  };
  for (NodeId member : group.members) {
    MCCL_CHECK_MSG(visited[static_cast<size_t>(member)],
                   "mcast member unreachable from tree root");
    NodeId cur = member;
    while (cur != root) {
      const int port = parent_port[static_cast<size_t>(cur)];
      const Port& p = topo_.ports(cur)[static_cast<size_t>(port)];
      add_edge(cur, port);
      add_edge(p.peer, p.peer_port);
      cur = p.peer;
    }
  }
  group.tree_ready = true;
}

Fabric::TrafficSnapshot Fabric::traffic() const {
  TrafficSnapshot s;
  s.black_holed = faults_.black_holed();
  const auto& dirs = topo_.dirs();
  for (std::size_t i = 0; i < dirs.size(); ++i) {
    s.total_bytes += counters_[i].bytes;
    s.packets += counters_[i].packets;
    s.drops += counters_[i].drops;
    s.ctrl_drops += counters_[i].lane_drops[kCtrlLane];
    for (std::size_t l = kBulkLane; l < kNumLanes; ++l)
      s.bulk_drops += counters_[i].lane_drops[l];
    if (topo_.is_host(dirs[i].from))
      s.host_egress_bytes += counters_[i].bytes;
    else
      s.switch_egress_bytes += counters_[i].bytes;
    if (!topo_.is_host(dirs[i].from))
      s.switch_port_bytes += counters_[i].bytes;  // TX at the sending switch
    if (!topo_.is_host(dirs[i].to))
      s.switch_port_bytes += counters_[i].bytes;  // RX at the receiving switch
  }
  return s;
}

void Fabric::reset_counters() {
  std::fill(counters_.begin(), counters_.end(), DirCounters{});
}

void Fabric::set_telemetry(telemetry::Telemetry* telem) {
  telem_ = telem;
  faults_.set_telemetry(telem);
}

void Fabric::publish_metrics(telemetry::MetricsRegistry& reg) const {
  const TrafficSnapshot s = traffic();
  reg.counter("fabric.bytes").set(s.total_bytes);
  reg.counter("fabric.packets").set(s.packets);
  reg.counter("fabric.drops").set(s.drops);
  reg.counter("fabric.drops", {{"lane", "ctrl"}}).set(s.ctrl_drops);
  reg.counter("fabric.drops", {{"lane", "bulk"}}).set(s.bulk_drops);
  reg.counter("fabric.black_holed").set(s.black_holed);
  reg.counter("integrity.corrupt_packets").set(faults_.corrupted());
  reg.counter("fabric.switch_port_bytes").set(s.switch_port_bytes);
  reg.counter("fabric.host_egress_bytes").set(s.host_egress_bytes);
  reg.counter("fabric.ecmp_reweights").set(ecmp_reweights_);
  // Per-tenant packet-pool accounting (the sub-pool quota plane): one gauge
  // per tenant that ever acquired a cell, plus its exhaustion counter so a
  // quota squeeze shows up in the snapshot even after the burst drained.
  reg.gauge("pool.capacity").set(static_cast<double>(pool_.capacity()));
  reg.gauge("pool.outstanding").set(static_cast<double>(pool_.outstanding()));
  for (std::size_t t = 0; t < pool_.num_tenants(); ++t) {
    const auto id = static_cast<std::uint16_t>(t);
    if (pool_.tenant_acquired(id) == 0) continue;
    const telemetry::Labels who{{"tenant", std::to_string(t)}};
    reg.gauge("pool.tenant.outstanding", who)
        .set(static_cast<double>(pool_.tenant_outstanding(id)));
    reg.gauge("pool.tenant.peak", who)
        .set(static_cast<double>(pool_.tenant_peak(id)));
    if (pool_.tenant_quota(id) != 0)
      reg.gauge("pool.tenant.quota", who)
          .set(static_cast<double>(pool_.tenant_quota(id)));
    reg.counter("pool.tenant.acquired", who).set(pool_.tenant_acquired(id));
    if (pool_.tenant_exhausted(id) != 0)
      reg.counter("pool.tenant.exhausted", who)
          .set(pool_.tenant_exhausted(id));
  }
  // Per-link-direction counters, Fig 12 style. Only directions that saw
  // traffic get a series (keeps the snapshot proportional to live links).
  const auto& dirs = topo_.dirs();
  for (std::size_t i = 0; i < dirs.size(); ++i) {
    const DirCounters& c = counters_[i];
    if (c.packets == 0 && c.drops == 0) continue;
    const telemetry::Labels link{
        {"link", std::to_string(dirs[i].from) + "->" +
                     std::to_string(dirs[i].to)}};
    reg.counter("fabric.link.bytes", link).set(c.bytes);
    reg.counter("fabric.link.packets", link).set(c.packets);
    if (c.drops != 0) reg.counter("fabric.link.drops", link).set(c.drops);
  }
}

}  // namespace mccl::fabric
