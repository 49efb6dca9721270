// Completion queues.
//
// The NIC pushes CQEs; a consumer (a progress-engine worker from src/exec,
// or the immediate dispatcher used by transport unit tests) is told of each
// one and pops it when it runs it. A CQE waits in the CQ until then, as on
// the DPA, where a thread polls its CQ once per handler call: a worker
// keeps only an 8-byte order entry per pending CQE, never a copy of it.
// Matching real verbs, the CQE carries the immediate data — the Broadcast
// protocol stores the chunk PSN there (paper Section III-A).
#pragma once

#include <cstdint>

#include "src/common/check.hpp"
#include "src/common/ring.hpp"
#include "src/debug/validate.hpp"
#include "src/fabric/packet.hpp"

namespace mccl::rdma {

enum class CqeOpcode : std::uint8_t {
  kRecv,             // two-sided receive completed
  kRecvWriteImm,     // RDMA Write-with-immediate consumed a receive
  kSend,             // send / write posted by this QP completed
  kRead,             // RDMA Read completed (data placed locally)
};

struct Cqe {
  std::uint64_t wr_id = 0;
  CqeOpcode opcode = CqeOpcode::kRecv;
  std::uint32_t qpn = 0;
  std::uint32_t byte_len = 0;
  std::uint32_t imm = 0;
  bool has_imm = false;
  fabric::NodeId src = fabric::kInvalidNode;  // remote side (receives)
};

class Cq {
 public:
  /// Consumer interface: notified once per pushed CQE; the consumer pops
  /// entries at its own (modeled) pace.
  class Consumer {
   public:
    virtual ~Consumer() = default;
    virtual void on_cqe(Cq& cq) = 0;
  };

  void set_consumer(Consumer* consumer) { consumer_ = consumer; }

  // mccl-lint: begin-hot cq-push
  void push(const Cqe& cqe) {
    if (gate_closed_) {
      // Qp::complete_* already consult Nic::crashed() at fire time, so a
      // push past a closed gate means some path forgot the crash check.
      MCCL_VALIDATE_THAT(false, "cq.cqe_after_crash",
                         "CQE (op %u, qpn %u) pushed after crash gate closed",
                         static_cast<unsigned>(cqe.opcode), cqe.qpn);
      return;
    }
    queue_.push(cqe);
    if (consumer_) consumer_->on_cqe(*this);
  }
  // mccl-lint: end-hot

  /// Crash gate: closed when the owning NIC crash-stops. A crashed NIC must
  /// never surface new completions; the validator treats a push through a
  /// closed gate as a protocol bug (and drops the CQE either way).
  void close_gate() { gate_closed_ = true; }
  void open_gate() { gate_closed_ = false; }

  bool empty() const { return queue_.empty(); }
  std::size_t depth() const { return queue_.size(); }

  Cqe pop() {
    MCCL_CHECK(!queue_.empty());
    return queue_.pop();
  }

 private:
  Ring<Cqe> queue_;
  Consumer* consumer_ = nullptr;
  bool gate_closed_ = false;
};

}  // namespace mccl::rdma
