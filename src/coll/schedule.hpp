// Point-to-point baselines as data: the algorithms the paper compares
// against (Section VI-B: binomial and binary-tree Broadcast, ring
// Allgather), the scatter-allgather Broadcast of production stacks, and the
// ring Reduce-Scatter of Appendix B. A geometry function builds a Schedule,
// saying who sends which byte range to whom, over which QP and in which
// order; one interpreter, ScheduleOp, runs any schedule as RC sends. RC
// segments and retransmits in hardware, so the host pays per message, not
// per chunk: cheap on CPU, but not bandwidth-optimal on the wire.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/coll/communicator.hpp"

namespace mccl::coll {

/// The per-rank buffers a step addresses; the interpreter allocates them.
enum class Buf : std::uint8_t { kSend, kRecv, kScratch };

struct Range {
  Buf buf = Buf::kRecv;
  std::uint64_t off = 0;
};

/// No QP pair (Step::link), no step.
inline constexpr std::uint32_t kNone = ~0u;

struct Step {
  enum class Kind : std::uint8_t {
    kSend,    // RC send of src[0, len) into `peer`'s matching kRecv
    kRecv,    // from `peer` into dst
    kReduce,  // dst += src over len bytes of float32, on the app worker
    kCopy,    // local DMA copy of src[0, len) to dst
  };
  Kind kind = Kind::kSend;
  std::uint32_t peer = 0;
  std::uint32_t link = kNone;  // index into Schedule::links
  std::uint64_t len = 0;
  Range src;
  Range dst;
  bool signaled = false;  // send: dependents wait for its completion
  std::vector<std::uint32_t> deps;  // earlier steps of the same rank
};

struct Schedule {
  /// What the op computes: selects the test data and the verify() check.
  enum class Coll : std::uint8_t {
    kBroadcast,      // the root's send buffer lands in every recv buffer
    kAllgather,      // rank b's send buffer lands in block b everywhere
    kReduceScatter,  // rank r ends with the sum of everyone's block r
  };
  std::string name;  // op name, the metrics label
  Coll coll = Coll::kBroadcast;
  std::size_t root = 0;     // kBroadcast
  std::uint64_t bytes = 0;  // message (kBroadcast) or block bytes
  std::array<std::uint64_t, 3> buf_bytes{};  // per rank, indexed by Buf
  /// Op-owned RC QP pairs (a, b), created in this order.
  std::vector<std::pair<std::size_t, std::size_t>> links;
  std::vector<std::vector<Step>> ranks;
};

// --- geometry (P >= 2 ranks) --------------------------------------------

/// Whole-message trees in root-shifted rank space, `shape` kBinomial or
/// kBinaryTree; children are served one at a time.
Schedule tree_broadcast(std::size_t P, std::size_t root, std::uint64_t bytes,
                        BcastAlgo shape);
/// van de Geijn: halving scatter, then a ring allgather of the P pieces.
Schedule scatter_ring_broadcast(std::size_t P, std::size_t root,
                                std::uint64_t bytes);
Schedule ring_allgather(std::size_t P, std::uint64_t bytes);
/// Ring pipelined in 128 KiB segments, each reduced before it is forwarded.
Schedule ring_reduce_scatter(std::size_t P, std::uint64_t block_bytes);

// --- interpreter --------------------------------------------------------

/// Runs one schedule (DESIGN.md §5). Receives are pre-posted in step order;
/// a step is issued once its dependencies completed and, for a send, every
/// earlier send on its QP was issued. Ready steps leave a rank lowest index
/// first. A rank is done once its receives, reduces and copies completed.
class ScheduleOp : public OpBase {
 public:
  ScheduleOp(Communicator& comm, Schedule plan);
  ~ScheduleOp() override;

  void start() override;
  bool verify() const override;
  /// Fails the op once a survivor is left waiting on the dead peer.
  void on_peer_confirmed_dead(std::size_t observer,
                              std::size_t peer) override;
  /// Data lands in the pre-posted receive its wr_id names.
  void on_ctrl(std::size_t r, const CtrlMsg& msg, std::size_t src,
               const rdma::Cqe& cqe) override;
  /// Completion of a signaled send (wr_id low half: the step).
  void on_send_done(std::size_t r, const rdma::Cqe& cqe) override;

 private:
  struct RankState;  // progress; freed with the steps once the op is done

  std::uint64_t addr(std::size_t r, Range x) const {
    return bufs_[r][static_cast<std::size_t>(x.buf)] + x.off;
  }
  rdma::RcQp& qp(std::size_t r, const Step& x) const {
    const auto& [qa, qb] = qps_[x.link];
    return r == plan_.links[x.link].first ? *qa : *qb;
  }
  /// Step i of rank r completed: issue what became ready, settle the rank.
  void advance(std::size_t r, std::uint32_t i);
  void complete(std::size_t r, std::uint32_t i);
  void pump(std::size_t r);
  void issue(std::size_t r, std::uint32_t i);
  void release();  // frees all but the buffer addresses verify() reads

  Schedule plan_;
  std::vector<std::pair<rdma::RcQp*, rdma::RcQp*>> qps_;  // per link
  std::vector<std::array<std::uint64_t, 3>> bufs_;  // per rank, by Buf
  std::vector<RankState> st_;
};

}  // namespace mccl::coll
