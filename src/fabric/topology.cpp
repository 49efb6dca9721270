#include "src/fabric/topology.hpp"

#include <deque>
#include <limits>

#include "src/common/check.hpp"

namespace mccl::fabric {

namespace {
constexpr int kUnreachable = std::numeric_limits<int>::max();
}  // namespace

NodeId Topology::add_node(NodeKind kind) {
  const NodeId id = static_cast<NodeId>(kinds_.size());
  kinds_.push_back(kind);
  ports_.emplace_back();
  host_index_.push_back(kNoHost);
  rail_of_.push_back(-1);
  if (kind == NodeKind::kHost) {
    host_index_.back() = hosts_.size();
    hosts_.push_back(id);
  }
  routes_ready_ = false;
  return id;
}

NodeId Topology::add_host() { return add_node(NodeKind::kHost); }
NodeId Topology::add_switch() { return add_node(NodeKind::kSwitch); }

void Topology::connect(NodeId a, NodeId b, LinkParams params) {
  MCCL_CHECK(a != b);
  MCCL_CHECK(static_cast<size_t>(a) < num_nodes());
  MCCL_CHECK(static_cast<size_t>(b) < num_nodes());
  auto& pa = ports_[static_cast<size_t>(a)];
  auto& pb = ports_[static_cast<size_t>(b)];
  const int port_a = static_cast<int>(pa.size());
  const int port_b = static_cast<int>(pb.size());

  Port ap;
  ap.peer = b;
  ap.peer_port = port_b;
  ap.dir_index = dirs_.size();
  ap.params = params;
  dirs_.push_back(LinkDir{a, b, port_a, params});
  pa.push_back(ap);

  Port bp;
  bp.peer = a;
  bp.peer_port = port_a;
  bp.dir_index = dirs_.size();
  bp.params = params;
  dirs_.push_back(LinkDir{b, a, port_b, params});
  pb.push_back(bp);

  routes_ready_ = false;
}

void Topology::compute_routes() {
  const std::size_t n = num_nodes();
  const std::size_t h = num_hosts();
  dist_.assign(h * n, kUnreachable);
  hops_flat_.clear();
  hops_off_.assign(h * n + 1, 0);

  // BFS from each host over the undirected graph. Rows are built in
  // ascending (hi * n + node) order, so the CSR offsets fill in one pass.
  for (std::size_t hi = 0; hi < h; ++hi) {
    int* dist = &dist_[hi * n];
    // mccl-lint: allow(no-datapath-deque) all-pairs BFS at topology build
    std::deque<NodeId> frontier;
    dist[hosts_[hi]] = 0;
    frontier.push_back(hosts_[hi]);
    while (!frontier.empty()) {
      const NodeId cur = frontier.front();
      frontier.pop_front();
      for (const Port& p : ports_[static_cast<size_t>(cur)]) {
        if (dist[p.peer] == kUnreachable) {
          dist[p.peer] = dist[cur] + 1;
          frontier.push_back(p.peer);
        }
      }
    }
    // Candidate next hops: ports whose peer is strictly closer to the host.
    for (std::size_t node = 0; node < n; ++node) {
      if (dist[node] != kUnreachable && dist[node] != 0) {
        const auto& nports = ports_[node];
        for (std::size_t pi = 0; pi < nports.size(); ++pi) {
          if (dist[nports[pi].peer] == dist[node] - 1)
            hops_flat_.push_back(static_cast<int>(pi));
        }
        MCCL_CHECK(hops_flat_.size() > hops_off_[hi * n + node]);
      }
      hops_off_[hi * n + node + 1] =
          static_cast<std::uint32_t>(hops_flat_.size());
    }
  }
  routes_ready_ = true;
}

int Topology::distance(NodeId node, NodeId dst_host) const {
  MCCL_CHECK_MSG(routes_ready_, "compute_routes() not called");
  const std::size_t hi = host_index(dst_host);
  const int d = dist_[hi * num_nodes() + static_cast<size_t>(node)];
  MCCL_CHECK_MSG(d != kUnreachable, "host unreachable");
  return d;
}

Topology make_back_to_back(LinkParams params) {
  Topology t;
  const NodeId a = t.add_host();
  const NodeId b = t.add_host();
  t.connect(a, b, params);
  t.compute_routes();
  return t;
}

Topology make_star(std::size_t hosts, LinkParams params) {
  MCCL_CHECK(hosts >= 1);
  Topology t;
  std::vector<NodeId> hs;
  hs.reserve(hosts);
  for (std::size_t i = 0; i < hosts; ++i) hs.push_back(t.add_host());
  const NodeId sw = t.add_switch();
  for (const NodeId h : hs) t.connect(h, sw, params);
  t.compute_routes();
  return t;
}

Topology make_fat_tree(std::size_t leaves, std::size_t hosts_per_leaf,
                       std::size_t spines, std::size_t trunks,
                       LinkParams host_link, LinkParams trunk_link) {
  MCCL_CHECK(leaves >= 1 && hosts_per_leaf >= 1 && spines >= 1 && trunks >= 1);
  Topology t;
  // Hosts first so host node ids are 0..H-1.
  std::vector<NodeId> hs;
  hs.reserve(leaves * hosts_per_leaf);
  for (std::size_t i = 0; i < leaves * hosts_per_leaf; ++i)
    hs.push_back(t.add_host());
  std::vector<NodeId> leaf_sw(leaves), spine_sw(spines);
  for (auto& s : leaf_sw) s = t.add_switch();
  for (auto& s : spine_sw) s = t.add_switch();
  for (std::size_t l = 0; l < leaves; ++l) {
    for (std::size_t i = 0; i < hosts_per_leaf; ++i)
      t.connect(hs[l * hosts_per_leaf + i], leaf_sw[l], host_link);
    for (std::size_t s = 0; s < spines; ++s)
      for (std::size_t k = 0; k < trunks; ++k)
        t.connect(leaf_sw[l], spine_sw[s], trunk_link);
  }
  t.compute_routes();
  return t;
}

Topology make_multi_rail_fat_tree(std::size_t rails, std::size_t leaves,
                                  std::size_t hosts_per_leaf,
                                  std::size_t spines, std::size_t trunks,
                                  LinkParams host_link, LinkParams trunk_link) {
  MCCL_CHECK(rails >= 1 && leaves >= 1 && hosts_per_leaf >= 1 && spines >= 1 &&
             trunks >= 1);
  Topology t;
  std::vector<NodeId> hs;
  hs.reserve(leaves * hosts_per_leaf);
  for (std::size_t i = 0; i < leaves * hosts_per_leaf; ++i)
    hs.push_back(t.add_host());
  // One leaf/spine plane per rail; host port r goes to rail r's leaf, so
  // rails are iterated outermost to keep port indices aligned with rails.
  for (std::size_t r = 0; r < rails; ++r) {
    std::vector<NodeId> leaf_sw(leaves), spine_sw(spines);
    for (auto& s : leaf_sw) {
      s = t.add_switch();
      t.tag_rail(s, static_cast<int>(r));
    }
    for (auto& s : spine_sw) {
      s = t.add_switch();
      t.tag_rail(s, static_cast<int>(r));
    }
    for (std::size_t l = 0; l < leaves; ++l) {
      for (std::size_t i = 0; i < hosts_per_leaf; ++i)
        t.connect(hs[l * hosts_per_leaf + i], leaf_sw[l], host_link);
      for (std::size_t s = 0; s < spines; ++s)
        for (std::size_t k = 0; k < trunks; ++k)
          t.connect(leaf_sw[l], spine_sw[s], trunk_link);
    }
  }
  t.compute_routes();
  return t;
}

Topology make_fat_tree_for_hosts(std::size_t min_hosts, std::size_t radix,
                                 LinkParams params) {
  MCCL_CHECK(radix >= 2);
  const std::size_t down = radix / 2;  // hosts per leaf
  const std::size_t up = radix - down;
  std::size_t leaves = (min_hosts + down - 1) / down;
  if (leaves == 0) leaves = 1;
  // One trunk to each of `up` spines keeps the tree non-blocking when
  // up >= down.
  return make_fat_tree(leaves, down, up, 1, params, params);
}

}  // namespace mccl::fabric
