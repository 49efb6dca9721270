#include "src/inc/engine.hpp"

#include <algorithm>
#include <deque>

#include "src/common/check.hpp"

namespace mccl::inc {

namespace {
// Key for the switch-side accumulator map.
std::uint64_t acc_key(fabric::NodeId owner, fabric::NodeId sw,
                      std::uint32_t chunk) {
  return (static_cast<std::uint64_t>(owner) << 48) |
         (static_cast<std::uint64_t>(sw) << 28) | chunk;
}
}  // namespace

Engine::Engine(fabric::Fabric& fabric) : fabric_(fabric) {
  fabric_.set_switch_interceptor(
      [this](fabric::NodeId sw, int in_port, const fabric::PacketPtr& p) {
        return intercept(sw, in_port, p);
      },
      fabric::TransportOp::kIncContribution);
}

SessionId Engine::create_session(std::vector<fabric::NodeId> hosts) {
  MCCL_CHECK(hosts.size() >= 2);
  sessions_.push_back(std::make_unique<Session>());
  sessions_.back()->hosts = std::move(hosts);
  return static_cast<SessionId>(sessions_.size() - 1);
}

const Engine::Tree& Engine::tree_for(Session& s, fabric::NodeId owner) {
  auto it = s.trees.find(owner);
  if (it != s.trees.end()) return it->second;

  const fabric::Topology& topo = fabric_.topology();
  Tree tree;
  tree.parent_port.assign(topo.num_nodes(), -1);

  // BFS from the owner: parent_port[n] points from n toward the owner.
  std::vector<bool> visited(topo.num_nodes(), false);
  std::deque<fabric::NodeId> frontier;
  visited[static_cast<size_t>(owner)] = true;
  frontier.push_back(owner);
  while (!frontier.empty()) {
    const fabric::NodeId cur = frontier.front();
    frontier.pop_front();
    const auto& ports = topo.ports(cur);
    for (std::size_t pi = 0; pi < ports.size(); ++pi) {
      const fabric::NodeId peer = ports[pi].peer;
      if (visited[static_cast<size_t>(peer)]) continue;
      visited[static_cast<size_t>(peer)] = true;
      tree.parent_port[static_cast<size_t>(peer)] = ports[pi].peer_port;
      frontier.push_back(peer);
    }
  }

  // Expected contributions per switch: distinct child edges on members'
  // paths to the owner. Each child edge yields exactly one packet — either
  // a member host's leaf contribution or a downstream switch's merge.
  std::unordered_map<fabric::NodeId, std::vector<fabric::NodeId>> child_from;
  for (const fabric::NodeId m : s.hosts) {
    if (m == owner) continue;
    MCCL_CHECK_MSG(visited[static_cast<size_t>(m)],
                   "INC member unreachable from owner");
    fabric::NodeId cur = m;
    while (cur != owner) {
      const int port = tree.parent_port[static_cast<size_t>(cur)];
      const fabric::NodeId parent = topo.ports(cur)[port].peer;
      if (!topo.is_host(parent)) {
        auto& froms = child_from[parent];
        if (std::find(froms.begin(), froms.end(), cur) == froms.end())
          froms.push_back(cur);
      }
      cur = parent;
    }
  }
  // Order-independent: fills a per-key map, no sim-visible decision
  // depends on the visit sequence.
  // mccl-lint: allow(no-unordered-iter) per-key fill, order-independent
  for (const auto& [sw, froms] : child_from)
    tree.expected[sw] = static_cast<std::uint32_t>(froms.size());

  return s.trees.emplace(owner, std::move(tree)).first->second;
}

void Engine::accumulate(ChunkAcc& acc, const fabric::PacketPtr& packet) {
  acc.weight += static_cast<std::uint32_t>(packet->th.msg_len);
  acc.arrivals += 1;
  acc.len = std::max(acc.len, packet->th.seg_len);
  if (!packet->payload.empty()) {
    const std::size_t n = packet->payload.size() / sizeof(float);
    if (acc.sum.size() < n) acc.sum.resize(n, 0.0f);
    const float* in = reinterpret_cast<const float*>(packet->payload.data());
    for (std::size_t i = 0; i < n; ++i) acc.sum[i] += in[i];
  }
}

fabric::PacketPtr Engine::make_merged(SessionId id, fabric::NodeId from,
                                      fabric::NodeId owner,
                                      std::uint32_t chunk,
                                      const ChunkAcc& acc) const {
  fabric::PacketRef pref = fabric_.pool().acquire();
  fabric::Packet* pkt = &pref.mut();
  pkt->src_host = from;  // nominal source: the merging switch
  pkt->dst_host = owner;
  pkt->wire_size = acc.len;
  pkt->flow_id = (static_cast<std::uint64_t>(id) << 32) | chunk;
  pkt->th.op = fabric::TransportOp::kIncContribution;
  pkt->th.imm = chunk;
  pkt->th.msg_id = id;
  pkt->th.msg_len = acc.weight;
  pkt->th.seg_len = acc.len;
  if (!acc.sum.empty()) {
    auto bytes = std::make_shared<std::vector<std::uint8_t>>(
        reinterpret_cast<const std::uint8_t*>(acc.sum.data()),
        reinterpret_cast<const std::uint8_t*>(acc.sum.data()) +
            acc.sum.size() * sizeof(float));
    pkt->payload = fabric::Payload(bytes, 0, bytes->size());
  }
  return pref;
}

void Engine::contribute(SessionId session, fabric::NodeId src,
                        fabric::NodeId owner, std::uint32_t chunk,
                        std::uint32_t len, fabric::Payload payload,
                        const Injector& inject) {
  Session& s = *sessions_[session];
  tree_for(s, owner);  // ensure the tree exists before packets fly
  fabric::PacketRef pref = fabric_.pool().acquire();
  fabric::Packet* pkt = &pref.mut();
  pkt->src_host = src;
  pkt->dst_host = owner;
  pkt->wire_size = len;
  pkt->flow_id = (static_cast<std::uint64_t>(session) << 32) | chunk;
  pkt->th.op = fabric::TransportOp::kIncContribution;
  pkt->th.imm = chunk;
  pkt->th.msg_id = session;
  pkt->th.msg_len = 1;  // weight: one contributor
  pkt->th.seg_len = len;
  pkt->payload = std::move(payload);
  if (inject)
    inject(pref);
  else
    fabric_.inject(pref);
}

void Engine::set_result_sink(SessionId session, fabric::NodeId host,
                             ResultSink sink) {
  MCCL_CHECK(session < sessions_.size());
  sessions_[session]->sinks[host] = std::move(sink);
}

bool Engine::intercept(fabric::NodeId sw, int /*in_port*/,
                       const fabric::PacketPtr& packet) {
  const SessionId id = static_cast<SessionId>(packet->th.msg_id);
  MCCL_CHECK(id < sessions_.size());
  Session& s = *sessions_[id];
  const fabric::NodeId owner = packet->dst_host;
  const Tree& tree = tree_for(s, owner);
  auto eit = tree.expected.find(sw);
  if (eit == tree.expected.end() || eit->second <= 1) {
    // No aggregation at this switch (single child path): forward along the
    // tree without state.
    ChunkAcc acc;
    accumulate(acc, packet);
    auto merged = make_merged(id, sw, owner, packet->th.imm, acc);
    fabric_.send_from_switch(sw, tree.parent_port[static_cast<size_t>(sw)],
                             merged);
    return true;
  }

  const std::uint64_t key = acc_key(owner, sw, packet->th.imm);
  ChunkAcc& acc = s.pending[key];
  accumulate(acc, packet);
  if (acc.arrivals < eit->second) return true;  // wait for remaining children

  // Aggregation complete: pay the switch ALU latency, emit one packet up.
  ChunkAcc done = std::move(acc);
  s.pending.erase(key);
  ++merged_packets_;
  const std::uint32_t chunk = packet->th.imm;
  const int out_port = tree.parent_port[static_cast<size_t>(sw)];
  fabric_.engine().schedule(
      kSwitchComputeLatency,
      [this, id, sw, owner, chunk, out_port, done = std::move(done)] {
        auto merged = make_merged(id, sw, owner, chunk, done);
        fabric_.send_from_switch(sw, out_port, merged);
      });
  return true;
}

void Engine::on_host_packet(fabric::NodeId host,
                            const fabric::PacketPtr& packet) {
  const SessionId id = static_cast<SessionId>(packet->th.msg_id);
  MCCL_CHECK(id < sessions_.size());
  Session& s = *sessions_[id];
  MCCL_CHECK_MSG(packet->dst_host == host, "INC result at wrong host");
  auto& pending = s.host_pending[host];
  ChunkAcc& acc = pending[packet->th.imm];
  accumulate(acc, packet);
  const std::uint32_t needed =
      static_cast<std::uint32_t>(s.hosts.size()) - 1;
  MCCL_CHECK(acc.weight <= needed);
  if (acc.weight < needed) return;

  auto sit = s.sinks.find(host);
  MCCL_CHECK_MSG(sit != s.sinks.end(), "INC result with no sink registered");
  fabric::Payload payload;
  if (!acc.sum.empty()) {
    auto bytes = std::make_shared<std::vector<std::uint8_t>>(
        reinterpret_cast<const std::uint8_t*>(acc.sum.data()),
        reinterpret_cast<const std::uint8_t*>(acc.sum.data()) +
            acc.sum.size() * sizeof(float));
    payload = fabric::Payload(bytes, 0, bytes->size());
  }
  const std::uint32_t chunk = packet->th.imm;
  const std::uint32_t len = acc.len;
  ResultSink& sink = sit->second;
  pending.erase(chunk);
  sink(chunk, len, payload);
}

}  // namespace mccl::inc
