// In-network Reduce-Scatter, the collective the multicast Allgather shares
// the NIC with in FSDP (paper Section II-A, Fig 3, Appendix B): every rank
// contributes P float32 blocks; rank r ends with the sum of all blocks r.
// SHARP-like reduction over src/inc moves N*(P-1) on the send path but only
// N on the receive path (Fig 3's INC column; the ring in schedule.hpp moves
// N*(P-1) on both), so it complements the multicast Allgather.
#pragma once

#include <unordered_map>
#include <vector>

#include "src/coll/communicator.hpp"

namespace mccl::coll {

class IncReduceScatter : public OpBase {
 public:
  IncReduceScatter(Communicator& comm, std::uint64_t block_bytes);
  ~IncReduceScatter() override;

  void start() override;
  bool verify() const override;

 private:
  struct RankState {
    std::uint64_t sendbuf = 0;
    std::uint64_t recvbuf = 0;
    std::size_t chunks_done = 0;
    rdma::Cq* result_cq = nullptr;  // INC results, charged on a recv worker
    std::unordered_map<std::uint32_t, fabric::Payload> payloads;
  };

  void contribute_batch(std::size_t r, std::size_t peer_off,
                        std::size_t chunk);
  void on_result(std::size_t r, const rdma::Cqe& cqe);

  std::uint64_t bytes_;
  std::uint32_t chunk_bytes_;
  std::size_t chunks_per_block_;
  inc::SessionId session_;
  std::vector<RankState> st_;
};

}  // namespace mccl::coll
