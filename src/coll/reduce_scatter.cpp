#include "src/coll/reduce_scatter.hpp"

#include <algorithm>
#include <utility>

#include "src/coll/pattern.hpp"

namespace mccl::coll {

// ---------------------------------------------------------------------------
// IncReduceScatter
// ---------------------------------------------------------------------------

IncReduceScatter::IncReduceScatter(Communicator& comm,
                                   std::uint64_t block_bytes)
    : OpBase(comm, "inc_reduce_scatter"),
      bytes_(block_bytes),
      chunk_bytes_(comm.config().chunk_bytes) {
  const std::size_t P = comm.size();
  MCCL_CHECK(P >= 2 && bytes_ > 0 && bytes_ % sizeof(float) == 0);
  MCCL_CHECK_MSG(!comm_.cluster().config().fabric.faults.burst.enabled(),
                 "the INC substrate assumes a lossless fabric");
  chunks_per_block_ = static_cast<std::size_t>(
      (bytes_ + chunk_bytes_ - 1) / chunk_bytes_);

  std::vector<fabric::NodeId> hosts;
  for (std::size_t r = 0; r < P; ++r) hosts.push_back(comm_.ep(r).host());
  session_ = comm_.cluster().inc().create_session(std::move(hosts));

  st_.resize(P);
  const bool fill = comm_.data_mode();
  for (std::size_t r = 0; r < P; ++r) {
    RankState& s = st_[r];
    Endpoint& ep = comm_.ep(r);
    s.sendbuf = ep.nic().memory().alloc(bytes_ * P);
    s.recvbuf = ep.nic().memory().alloc(bytes_);
    if (fill)
      for (std::size_t b = 0; b < P; ++b)
        fill_rs_block(ep.nic().memory(), s.sendbuf + b * bytes_, bytes_, r, b);

    // Reduced chunks arrive through a dedicated CQ so the receive worker
    // charges the per-chunk datapath cost before the result is consumed.
    s.result_cq = &ep.nic().create_cq();
    ep.recv_worker(0).subscribe(
        *s.result_cq,
        [this, r](const rdma::Cqe& cqe) { on_result(r, cqe); },
        ep.costs().recv_chunk_uc);
    comm_.cluster().inc().set_result_sink(
        session_, ep.host(),
        [this, r](std::uint32_t chunk, std::uint32_t len,
                  const fabric::Payload& payload) {
          RankState& s2 = st_[r];
          if (!payload.empty()) s2.payloads[chunk] = payload;
          rdma::Cqe cqe;
          cqe.opcode = rdma::CqeOpcode::kRecvWriteImm;
          cqe.imm = chunk;
          cqe.has_imm = true;
          cqe.byte_len = len;
          s2.result_cq->push(cqe);
        });
  }
}

IncReduceScatter::~IncReduceScatter() = default;

void IncReduceScatter::start() {
  mark_started();
  for (std::size_t r = 0; r < comm_.size(); ++r)
    contribute_batch(r, 1, 0);
}

void IncReduceScatter::contribute_batch(std::size_t r, std::size_t peer_off,
                                        std::size_t chunk) {
  // Walk (owner, chunk) pairs in batches on the send worker; each posted
  // chunk is one contribution packet up the owner's reduction tree.
  const std::size_t P = comm_.size();
  if (peer_off >= P) return;
  Endpoint& ep = comm_.ep(r);
  const std::size_t batch =
      std::min(comm_.config().send_batch, chunks_per_block_ - chunk);
  const exec::Cost cost =
      exec::Cost{ep.send_costs().send_post.instr * batch,
                 ep.send_costs().send_post.stall * batch} +
      ep.send_costs().doorbell;
  ep.send_worker(0).post(cost, [this, r, peer_off, chunk, batch] {
    const std::size_t P = comm_.size();
    RankState& s = st_[r];
    Endpoint& ep2 = comm_.ep(r);
    const std::size_t owner_rank = (r + peer_off) % P;
    const fabric::NodeId owner = comm_.ep(owner_rank).host();
    for (std::size_t k = 0; k < batch; ++k) {
      const std::size_t c = chunk + k;
      const std::uint64_t off =
          static_cast<std::uint64_t>(c) * chunk_bytes_;
      const std::uint32_t len = static_cast<std::uint32_t>(
          std::min<std::uint64_t>(chunk_bytes_, bytes_ - off));
      fabric::Payload payload;
      if (comm_.data_mode()) {
        const auto src = std::as_const(ep2.nic().memory())
                             .span(s.sendbuf + owner_rank * bytes_ + off, len);
        payload = fabric::Payload::copy_of(src.data(), len);
      }
      comm_.cluster().inc().contribute(
          session_, ep2.host(), owner, static_cast<std::uint32_t>(c), len,
          std::move(payload), [&ep2](const fabric::PacketPtr& pkt) {
            ep2.nic().transmit(rdma::Nic::kIncTxQueue, pkt);
          });
    }
    std::size_t next_chunk = chunk + batch;
    std::size_t next_peer = peer_off;
    if (next_chunk >= chunks_per_block_) {
      next_chunk = 0;
      ++next_peer;
    }
    contribute_batch(r, next_peer, next_chunk);
  });
}

void IncReduceScatter::on_result(std::size_t r, const rdma::Cqe& cqe) {
  RankState& s = st_[r];
  const std::uint32_t chunk = cqe.imm;
  if (comm_.data_mode()) {
    auto it = s.payloads.find(chunk);
    MCCL_CHECK(it != s.payloads.end());
    auto& mem = comm_.ep(r).nic().memory();
    const std::uint64_t off = static_cast<std::uint64_t>(chunk) * chunk_bytes_;
    float* dst = reinterpret_cast<float*>(
        mem.span(s.recvbuf + off, cqe.byte_len).data());
    const float* net = reinterpret_cast<const float*>(it->second.data());
    const float* own = reinterpret_cast<const float*>(
        std::as_const(mem).span(s.sendbuf + r * bytes_ + off, cqe.byte_len)
            .data());
    const std::size_t n = cqe.byte_len / sizeof(float);
    for (std::size_t i = 0; i < n; ++i) dst[i] = net[i] + own[i];
    s.payloads.erase(it);
  }
  if (++s.chunks_done == chunks_per_block_) {
    phases_[r].transfer = comm_.cluster().engine().now() - res_.start;
    rank_done(r);
  }
}

bool IncReduceScatter::verify() const {
  return verify_reduce_scatter(
      [this](std::size_t r) { return st_[r].recvbuf; }, bytes_);
}

}  // namespace mccl::coll
