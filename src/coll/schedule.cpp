// The point-to-point baselines: geometry functions, then the interpreter.
#include "src/coll/schedule.hpp"

#include <algorithm>
#include <bit>
#include <functional>
#include <queue>
#include <type_traits>
#include <utility>

#include "src/coll/pattern.hpp"

namespace mccl::coll {

namespace {

using Kind = Step::Kind;
using Coll = Schedule::Coll;
using Deps = std::vector<std::uint32_t>;

/// Appends to one rank's steps; every call returns the new step's index.
struct Steps {
  std::vector<Step>& v;

  std::uint32_t add(Kind kind, std::size_t peer, std::size_t link,
                    std::uint64_t len, Range src, Range dst, Deps deps = {}) {
    v.push_back({kind, static_cast<std::uint32_t>(peer),
                 static_cast<std::uint32_t>(link), len, src, dst, false,
                 std::move(deps)});
    return static_cast<std::uint32_t>(v.size() - 1);
  }
  std::uint32_t send(std::size_t peer, std::size_t link, Range src,
                     std::uint64_t len, Deps deps = {}) {
    return add(Kind::kSend, peer, link, len, src, {}, std::move(deps));
  }
  std::uint32_t recv(std::size_t peer, std::size_t link, Range dst,
                     std::uint64_t len) {
    return add(Kind::kRecv, peer, link, len, {}, dst);
  }
  std::uint32_t copy(Range src, Range dst, std::uint64_t len) {
    return add(Kind::kCopy, 0, kNone, len, src, dst);
  }
};

Schedule base(std::string name, Coll coll, std::size_t P, std::size_t root,
              std::uint64_t bytes, std::array<std::uint64_t, 3> buf_bytes) {
  return {std::move(name), coll, root, bytes, buf_bytes, {},
          std::vector<std::vector<Step>>(P)};
}

std::uint32_t add_link(Schedule& s, std::size_t a, std::size_t b) {
  s.links.emplace_back(a, b);
  return static_cast<std::uint32_t>(s.links.size() - 1);
}

/// Receives, reduces and copies gate a rank's completion; sends do not.
bool gates_done(Kind k) { return k != Kind::kSend; }

/// Children of shifted rank `v` among P ranks, in serving order.
std::vector<std::size_t> tree_children(std::size_t v, std::size_t P,
                                       BcastAlgo shape) {
  std::vector<std::size_t> out;
  switch (shape) {
    case BcastAlgo::kBinomial: {
      // v may send to v + 2^i for every i below the position of v's lowest
      // set bit (v == 0: all i). Farthest child first.
      const std::size_t limit = v == 0 ? P : v & (~v + 1);
      for (std::size_t d = std::bit_ceil(P); d >= 1; d >>= 1)
        if (d < limit && v + d < P) out.push_back(v + d);
      break;
    }
    case BcastAlgo::kBinaryTree:
      for (std::size_t c = 2 * v + 1; c <= 2 * v + 2 && c < P; ++c)
        out.push_back(c);
      break;
    default:
      MCCL_CHECK_MSG(false, "not a tree broadcast shape");
  }
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// Geometry. Each function lists the QP pairs in creation order and, per rank,
// the steps in the order their posts leave the rank.
// ---------------------------------------------------------------------------

Schedule tree_broadcast(std::size_t P, std::size_t root, std::uint64_t bytes,
                        BcastAlgo shape) {
  MCCL_CHECK(root < P && bytes > 0);
  Schedule s = base("p2p_broadcast", Coll::kBroadcast, P, root, bytes,
                    {bytes, bytes, 0});
  std::vector<std::vector<std::size_t>> kids(P);
  std::vector<std::uint32_t> up(P, kNone);  // the link from the parent
  for (std::size_t r = 0; r < P; ++r)
    for (const std::size_t cv : tree_children((r + P - root) % P, P, shape)) {
      kids[r].push_back((cv + root) % P);
      up[kids[r].back()] = add_link(s, r, kids[r].back());
    }
  for (std::size_t r = 0; r < P; ++r) {
    Steps rank{s.ranks[r]};
    // The root serves from its send buffer while its local copy runs;
    // every other rank forwards what landed in its receive buffer.
    const Range from{r == root ? Buf::kSend : Buf::kRecv, 0};
    std::uint32_t prev =
        r == root ? rank.copy(from, {Buf::kRecv, 0}, bytes)
                  : rank.recv(s.links[up[r]].first, up[r], from, bytes);
    // Children strictly one after another (farthest subtree first): posting
    // them all at once would let the NIC QP arbiter interleave the streams
    // and delay the critical-path child by the whole fan-out.
    for (const std::size_t child : kids[r]) {
      const bool first_from_root = r == root && child == kids[r].front();
      prev = rank.send(child, up[child], from, bytes,
                       first_from_root ? Deps{} : Deps{prev});
      rank.v.back().signaled = true;
    }
  }
  return s;
}

Schedule scatter_ring_broadcast(std::size_t P, std::size_t root,
                                std::uint64_t bytes) {
  MCCL_CHECK(root < P && bytes > 0);
  Schedule s = base("scatter_allgather_bcast", Coll::kBroadcast, P, root,
                    bytes, {bytes, bytes, 0});
  const auto at = [&](std::size_t v) { return (v + root) % P; };
  const auto off = [&](std::size_t piece) { return piece * bytes / P; };
  // Scatter tree: halving recursion over shifted rank space. Child `mid`
  // receives its whole subtree range [mid, hi) straight into its receive
  // buffer; a parent serves the largest subtree first.
  struct Edge {
    std::size_t peer, hi;  // the child (out) or parent (in); range end
    std::uint32_t link;
  };
  std::vector<std::vector<Edge>> out(P);  // by shifted parent
  std::vector<Edge> in(P);                // by shifted child
  std::vector<std::pair<std::size_t, std::size_t>> stack{{0, P}};
  while (!stack.empty()) {
    const auto [lo, hi] = stack.back();
    stack.pop_back();
    if (hi - lo <= 1) continue;
    const std::size_t mid = lo + (hi - lo + 1) / 2;
    in[mid] = {lo, hi, add_link(s, at(lo), at(mid))};
    out[lo].push_back({mid, hi, in[mid].link});
    stack.emplace_back(lo, mid);
    stack.emplace_back(mid, hi);
  }
  // Then a ring allgather of the pieces in shifted space: after the P-1
  // scatter links, link ring(v) runs from v to v+1.
  for (std::size_t v = 0; v < P; ++v) add_link(s, at(v), at(v + 1));
  const auto ring = [&](std::size_t v) { return P - 1 + v % P; };

  for (std::size_t v = 0; v < P; ++v) {
    Steps rank{s.ranks[at(v)]};
    // `have`: this rank holds its scatter range (the root: its local copy).
    const std::uint32_t have =
        v == 0 ? rank.copy({Buf::kSend, 0}, {Buf::kRecv, 0}, bytes)
               : rank.recv(at(in[v].peer), in[v].link, {Buf::kRecv, off(v)},
                           off(in[v].hi) - off(v));
    const Buf from = v == 0 ? Buf::kSend : Buf::kRecv;
    for (const Edge& e : out[v])
      rank.send(at(e.peer), e.link, {from, off(e.peer)},
                off(e.hi) - off(e.peer), v == 0 ? Deps{} : Deps{have});
    // The right neighbour expects our own piece first, then the forwards
    // in arrival order.
    rank.send(at(v + 1), ring(v), {Buf::kRecv, off(v)}, off(v + 1) - off(v),
              {have});
    for (std::size_t step = 0; step + 1 < P; ++step) {
      const std::size_t piece = (v + P - 1 - step) % P;
      const Range where{Buf::kRecv, off(piece)};
      const std::uint64_t len = off(piece + 1) - off(piece);
      const std::uint32_t got =
          rank.recv(at(v + P - 1), ring(v + P - 1), where, len);
      if (step + 2 < P) rank.send(at(v + 1), ring(v), where, len, {got, have});
    }
  }
  return s;
}

Schedule ring_allgather(std::size_t P, std::uint64_t bytes) {
  MCCL_CHECK(P >= 2 && bytes > 0);
  Schedule s = base("ring_allgather", Coll::kAllgather, P, 0, bytes,
                    {bytes, bytes * P, 0});
  for (std::size_t r = 0; r < P; ++r) add_link(s, r, (r + 1) % P);  // link r
  for (std::size_t r = 0; r < P; ++r) {
    const std::size_t left = (r + P - 1) % P;
    Steps rank{s.ranks[r]};
    rank.copy({Buf::kSend, 0}, {Buf::kRecv, r * bytes}, bytes);
    rank.send((r + 1) % P, r, {Buf::kSend, 0}, bytes);
    // The left neighbour forwards blocks l, l-1, ... so the landing
    // offsets are known up front (zero-copy).
    for (std::size_t step = 0; step + 1 < P; ++step) {
      const Range where{Buf::kRecv, (left + P - step) % P * bytes};
      const std::uint32_t got = rank.recv(left, left, where, bytes);
      if (step + 2 < P) rank.send((r + 1) % P, r, where, bytes, {got});
    }
  }
  return s;
}

Schedule ring_reduce_scatter(std::size_t P, std::uint64_t block_bytes) {
  MCCL_CHECK(P >= 2 && block_bytes > 0 && block_bytes % sizeof(float) == 0);
  // Reduction and forwarding overlap the transfer per segment, as in
  // production stacks.
  constexpr std::uint64_t kSegment = 128 * KiB;
  const std::uint64_t B = block_bytes;
  // Scratch: a landing slot per ring step but the last (the recv buffer).
  Schedule s = base("ring_reduce_scatter", Coll::kReduceScatter, P, 0, B,
                    {B * P, B, B * (P - 2)});
  for (std::size_t r = 0; r < P; ++r) add_link(s, r, (r + 1) % P);  // link r
  for (std::size_t r = 0; r < P; ++r) {
    const std::size_t left = (r + P - 1) % P;
    Steps rank{s.ranks[r]};
    // Step 0 injects our own copy of block r-1; step t adds our share to
    // the arriving partial of block r-2-t and forwards it; the last step
    // leaves the fully reduced block r in the receive buffer.
    for (std::uint64_t g = 0; g < B; g += kSegment)
      rank.send((r + 1) % P, r, {Buf::kSend, left * B + g},
                std::min(kSegment, B - g));
    for (std::size_t step = 0; step + 1 < P; ++step) {
      const std::size_t block = (r + 2 * P - 2 - step) % P;
      const bool last = step + 2 == P;
      for (std::uint64_t g = 0; g < B; g += kSegment) {
        const std::uint64_t len = std::min(kSegment, B - g);
        const Range slot = last ? Range{Buf::kRecv, g}
                                : Range{Buf::kScratch, step * B + g};
        const std::uint32_t got = rank.recv(left, left, slot, len);
        const std::uint32_t sum =
            rank.add(Kind::kReduce, 0, kNone, len,
                     {Buf::kSend, block * B + g}, slot, {got});
        if (!last) rank.send((r + 1) % P, r, slot, len, {sum});
      }
    }
  }
  return s;
}

// ---------------------------------------------------------------------------
// ScheduleOp
// ---------------------------------------------------------------------------

struct ScheduleOp::RankState {
  std::vector<std::uint32_t> unmet;  // per step; kNone once complete
  std::vector<std::vector<std::uint32_t>> dependents;
  std::vector<std::uint32_t> edge_next;  // next send on the same edge
  std::priority_queue<std::uint32_t, std::vector<std::uint32_t>,
                      std::greater<>>
      ready;
  std::size_t open = 0;  // receives, reduces and copies not yet complete
};

ScheduleOp::ScheduleOp(Communicator& comm, Schedule plan)
    : OpBase(comm, plan.name), plan_(std::move(plan)) {
  const std::size_t P = comm.size();
  MCCL_CHECK(plan_.ranks.size() == P);

  bufs_.resize(P);
  for (std::size_t r = 0; r < P; ++r) {
    Endpoint& ep = comm_.ep(r);
    rdma::HostMemory& mem = ep.nic().memory();
    for (std::size_t b = 0; b < bufs_[r].size(); ++b)
      if (plan_.buf_bytes[b] > 0) bufs_[r][b] = mem.alloc(plan_.buf_bytes[b]);
    const std::uint64_t send = addr(r, {Buf::kSend, 0});
    // Test data (verify() checks the outcome).
    if (comm_.data_mode() && plan_.coll == Coll::kReduceScatter)
      for (std::size_t b = 0; b < P; ++b)
        fill_rs_block(mem, send + b * plan_.bytes, plan_.bytes, r, b);
    if (comm_.data_mode() &&
        (plan_.coll == Coll::kAllgather ||
         (plan_.coll == Coll::kBroadcast && r == plan_.root)))
      fill_pattern(mem, send, plan_.bytes, id(), r);
  }

  for (const auto& [a, b] : plan_.links)
    qps_.push_back(comm_.create_qp_pair(a, b));

  st_.resize(P);
  for (std::size_t r = 0; r < P; ++r) {
    RankState& s = st_[r];
    const std::vector<Step>& steps = plan_.ranks[r];
    const std::uint32_t n = static_cast<std::uint32_t>(steps.size());
    s.unmet.assign(n, 0);
    s.dependents.resize(n);
    s.edge_next.assign(n, kNone);
    std::vector<std::uint32_t> last(plan_.links.size(), kNone);  // per QP
    for (std::uint32_t i = 0; i < n; ++i) {
      const Step& x = steps[i];
      s.unmet[i] = static_cast<std::uint32_t>(x.deps.size());
      for (const std::uint32_t d : x.deps) {
        MCCL_CHECK(d < i);
        s.dependents[d].push_back(i);
      }
      if (gates_done(x.kind)) ++s.open;
      if (x.kind == Kind::kRecv) {
        qp(r, x).post_recv({.wr_id = i,
                            .laddr = addr(r, x.dst),
                            .len = static_cast<std::uint32_t>(x.len)});
      } else if (x.kind == Kind::kSend) {
        // Per-QP order: the previous send on this QP must have been issued
        // first.
        if (last[x.link] != kNone) {
          s.edge_next[last[x.link]] = i;
          ++s.unmet[i];
        }
        last[x.link] = i;
      }
      if (x.kind != Kind::kRecv && s.unmet[i] == 0) s.ready.push(i);
    }
    // Every rank waits on something, so none is done inside start().
    MCCL_CHECK(s.open > 0);
  }
}

ScheduleOp::~ScheduleOp() = default;

void ScheduleOp::start() {
  mark_started();
  for (std::size_t r = 0; r < comm_.size(); ++r) pump(r);
}

void ScheduleOp::on_ctrl(std::size_t r, const CtrlMsg& msg, std::size_t,
                         const rdma::Cqe& cqe) {
  MCCL_CHECK(msg.type == CtrlType::kStep);
  advance(r, static_cast<std::uint32_t>(cqe.wr_id));
}

void ScheduleOp::on_send_done(std::size_t r, const rdma::Cqe& cqe) {
  advance(r, static_cast<std::uint32_t>(cqe.wr_id));
}

void ScheduleOp::advance(std::size_t r, std::uint32_t i) {
  // Only completions nobody waits for (sends) arrive after the op is done.
  if (done()) return;
  RankState& s = st_[r];
  MCCL_CHECK(s.unmet[i] != kNone);
  complete(r, i);
  pump(r);
  // Busy, done or crashed.
  if (s.open > 0 || res_.rank_finish[r] != 0) return;
  phases_[r].transfer = comm_.cluster().engine().now() - res_.start;
  rank_done(r);
  if (done()) release();
}

void ScheduleOp::complete(std::size_t r, std::uint32_t i) {
  RankState& s = st_[r];
  s.unmet[i] = kNone;
  if (gates_done(plan_.ranks[r][i].kind)) --s.open;
  for (const std::uint32_t j : s.dependents[i])
    if (--s.unmet[j] == 0) s.ready.push(j);
}

void ScheduleOp::pump(std::size_t r) {
  for (auto& ready = st_[r].ready; !ready.empty();) {
    const std::uint32_t i = ready.top();
    ready.pop();
    issue(r, i);  // may push newly ready steps
  }
}

void ScheduleOp::issue(std::size_t r, std::uint32_t i) {
  RankState& s = st_[r];
  const Step& x = plan_.ranks[r][i];
  Endpoint& ep = comm_.ep(r);
  if (s.edge_next[i] != kNone && --s.unmet[s.edge_next[i]] == 0)
    s.ready.push(s.edge_next[i]);
  switch (x.kind) {
    case Kind::kSend:
      ep.app_worker().post(ep.costs().control, [this, r, i] {
        if (done()) return;  // only a send to a crashed rank is this late
        const Step& y = plan_.ranks[r][i];
        qp(r, y).post_send(
            addr(r, y.src), y.len,
            {(static_cast<std::uint64_t>(id()) << 32) | i,
             encode_ctrl({CtrlType::kStep, id(), 0}), true, y.signaled});
      });
      if (!x.signaled) complete(r, i);
      break;
    case Kind::kCopy:
      ep.nic().post_local_copy(addr(r, x.src), addr(r, x.dst), x.len,
                               [this, r, i] { advance(r, i); });
      break;
    case Kind::kReduce: {
      const double units = static_cast<double>(x.len) / 64.0;
      const exec::Cost cost{ep.costs().reduce_per_64b.instr * units,
                            ep.costs().reduce_per_64b.stall * units};
      ep.app_worker().post(cost, [this, r, i] {
        if (done()) return;
        const Step& y = plan_.ranks[r][i];
        if (comm_.data_mode()) {
          rdma::HostMemory& mem = comm_.ep(r).nic().memory();
          float* acc =
              reinterpret_cast<float*>(mem.span(addr(r, y.dst), y.len).data());
          const float* own = reinterpret_cast<const float*>(
              std::as_const(mem).span(addr(r, y.src), y.len).data());
          for (std::uint64_t k = 0; k < y.len / sizeof(float); ++k)
            acc[k] += own[k];
        }
        advance(r, i);
      });
      break;
    }
    case Kind::kRecv:
      MCCL_CHECK_MSG(false, "receives are pre-posted, never issued");
  }
}

void ScheduleOp::release() {
  const auto drop = [](auto& v) { std::decay_t<decltype(v)>().swap(v); };
  drop(plan_.ranks);
  drop(plan_.links);
  drop(qps_);
  drop(st_);
}

bool ScheduleOp::verify() const {
  const auto recvbuf = [this](std::size_t r) {
    return addr(r, {Buf::kRecv, 0});
  };
  if (plan_.coll == Coll::kReduceScatter)
    return verify_reduce_scatter(recvbuf, plan_.bytes);
  if (!comm_.data_mode()) return true;
  // Broadcast: the root's pattern; Allgather: block b holds rank b's.
  const bool bcast = plan_.coll == Coll::kBroadcast;
  const std::size_t blocks = bcast ? 1 : comm_.size();
  for (std::size_t r = 0; r < comm_.size(); ++r) {
    if (rank_crashed(r)) continue;
    for (std::size_t b = 0; b < blocks; ++b)
      if (!check_pattern(comm_.ep(r).nic().memory(),
                         recvbuf(r) + b * plan_.bytes, plan_.bytes, id(),
                         bcast ? plan_.root : b))
        return false;
  }
  return true;
}

void ScheduleOp::on_peer_confirmed_dead(std::size_t observer,
                                        std::size_t peer) {
  if (done()) return;
  // A survivor is stuck while a receive from the dead peer is open, or a
  // signaled send to it (never to complete) holds back later steps.
  for (std::size_t r = 0; r < comm_.size(); ++r) {
    for (std::uint32_t i = 0; i < plan_.ranks[r].size(); ++i) {
      const Step& x = plan_.ranks[r][i];
      if (r == peer || rank_crashed(r) || x.peer != peer ||
          st_[r].unmet[i] == kNone ||
          (x.kind != Kind::kRecv &&
           (!x.signaled || st_[r].dependents[i].empty())))
        continue;
      fail_op(name() + ": rank " + std::to_string(r) + " waits on rank " +
              std::to_string(peer) + ", confirmed dead by rank " +
              std::to_string(observer));
      release();
      return;
    }
  }
}

}  // namespace mccl::coll
