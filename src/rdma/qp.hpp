// Queue pairs: the three InfiniBand transport service models the paper
// builds on (Section II-B).
//
//  - UdQp:  Unreliable Datagram. MTU-bounded two-sided datagrams, the only
//           transport with standardized multicast. Drops on RNR (no posted
//           receive) and on fabric corruption; the Broadcast fast path runs
//           here.
//  - UcQp:  Unreliable Connection. Arbitrary-length RDMA Writes segmented by
//           the NIC; a message with any lost/reordered segment is dropped
//           whole. We also implement the paper's proposed *multicast UC
//           Write* extension (Section V-B / Appendix C).
//  - RcQp:  Reliable Connection. Go-back-N hardware reliability (ACK/NAK,
//           retransmission timeout, bounded window), two-sided sends and
//           RDMA Read. The point-to-point baselines, the slow-path fetch
//           ring and the barrier / handshake control traffic run here.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>

#include "src/common/crc32c.hpp"
#include "src/common/ring.hpp"
#include "src/common/units.hpp"
#include "src/debug/validate.hpp"
#include "src/fabric/packet.hpp"
#include "src/rdma/cq.hpp"
#include "src/rdma/memory.hpp"

namespace mccl::rdma {

class Nic;

/// Receive-side integrity check (the simulated ICRC): true if this packet's
/// payload was corrupted in flight. With carried payload bytes the sender's
/// CRC32C stamp is re-verified; in synthetic mode (timing-only packets) the
/// fabric's `corrupted` flag stands in for the checksum.
inline bool payload_corrupt(const fabric::Packet& p) {
  if (p.corrupted) return true;
  if (p.th.has_crc && !p.payload.empty())
    return crc32c(p.payload.data(), p.payload.size()) != p.th.crc;
  return false;
}

struct RecvWr {
  std::uint64_t wr_id = 0;
  std::uint64_t laddr = 0;
  std::uint32_t len = 0;
  bool operator==(const RecvWr&) const = default;
};

/// Flags shared by all post_* calls.
struct SendFlags {
  std::uint64_t wr_id = 0;
  std::uint32_t imm = 0;
  bool has_imm = false;
  bool signaled = true;  // doorbell batching posts unsignaled WRs
};

class Qp {
 public:
  Qp(Nic& nic, std::uint32_t qpn, Cq* send_cq, Cq* recv_cq);
  virtual ~Qp() = default;

  std::uint32_t qpn() const { return qpn_; }

  void post_recv(const RecvWr& wr);
  /// Posts a receive ring of `n` slots `stride` bytes apart: slot i is
  /// {first.wr_id + i * stride, first.laddr + i * stride, first.len}. Same
  /// effect as posting the `n` slots in order, in O(1). A ring with
  /// stride != 0 (the UD staging ring) goes into an empty queue only; n
  /// copies of one WR (stride 0, blank credits) may go behind anything.
  void post_recv_ring(const RecvWr& first, std::uint64_t stride,
                      std::size_t n);
  /// Posts `n` blank receive WRs (all fields zero), the credits of control
  /// QPs and UC write-with-imm.
  void post_blank_recvs(std::size_t n) { post_recv_ring({}, 0, n); }
  std::size_t recv_queue_depth() const { return run_.count + rq_.size(); }
  /// Cells the stored part of the receive queue has allocated: 0 while
  /// every WR posted so far joined the run.
  std::size_t stored_recv_capacity() const { return rq_.capacity(); }
  /// Test hook (tests/test_rdma_ud.cpp): consumes the head receive WR as an
  /// arriving message would; nullopt when none is posted (an RNR drop).
  std::optional<RecvWr> test_consume_recv() {
    if (rq_empty()) return std::nullopt;
    return rq_pop();
  }

  virtual void on_packet(const fabric::PacketPtr& packet) = 0;

  /// Tenant/QoS attributes (cluster scheduler plane). Every packet this QP
  /// builds is charged to `tenant`'s pool sub-pool and rides the data
  /// virtual lane of `cls` (0 = highest priority); under strict priority
  /// the NIC egress arbiter files the QP's queue under band 1 + cls for
  /// data QPs, band 0 for control QPs (`ctrl` = true — their tokens must
  /// never queue behind any tenant's bulk). Defaults (tenant 0, class 0)
  /// reproduce the pre-QoS datapath bit-for-bit. A change takes effect on
  /// new packets and on the QP's next busy period at the NIC.
  void set_qos(std::uint16_t tenant, std::uint8_t cls, bool ctrl) {
    tenant_ = tenant;
    data_vl_ = ctrl ? fabric::kCtrlLane : fabric::data_lane_for_class(cls);
    qos_band_ = ctrl ? 0 : static_cast<std::uint8_t>(1 + cls);
  }
  std::uint16_t tenant() const { return tenant_; }
  std::uint8_t qos_band() const { return qos_band_; }

 protected:
  bool rq_empty() const { return recv_queue_depth() == 0; }
  RecvWr rq_pop();
  void complete_send(const SendFlags& flags, std::uint32_t byte_len,
                     Time when);
  void complete_recv(const Cqe& cqe);
  /// Fresh pooled packet charged to this QP's tenant, pre-stamped with the
  /// QP's data lane (builders may still override vl for control packets),
  /// the source host and QP number, and the ECMP flow key
  /// `flow_id = host << 20 | qpn` — the one place that key is defined.
  fabric::PacketRef new_packet();

  Nic& nic_;
  std::uint32_t qpn_;
  Cq* send_cq_;
  Cq* recv_cq_;
  // Receive queue, bounded by NicConfig::max_recv_queue. Its head is one
  // counted run over a ring of `slots` WRs; WR j of the run is slot
  // (head + j) mod slots. A UD staging ring is one run; blank credits (all
  // fields zero: control QPs, UC write-with-imm) are the run with stride 0
  // and one slot. A WR that is the run's next slot extends it while rq_ is
  // empty; a drained run restarts at any WR, keeping its ring if the WR is
  // one of its slots. Every other WR is stored in rq_ behind the run, and
  // once rq_ holds one, every later WR is stored until the queue drains,
  // so FIFO order holds; rq_pop serves the run first.
  struct RecvRun {
    RecvWr first;              // slot 0
    std::uint64_t stride = 0;  // bytes (and wr_id) between slots
    std::uint64_t slots = 1;
    std::uint64_t head = 0;    // slot of the run's first WR
    std::size_t count = 0;
    RecvWr slot(std::uint64_t i) const {
      return {first.wr_id + i * stride, first.laddr + i * stride, first.len};
    }
  };
  RecvRun run_;
  Ring<RecvWr> rq_;
  std::uint16_t tenant_ = 0;
  std::uint8_t data_vl_ = fabric::kBulkLane;
  std::uint8_t qos_band_ = 1;   // NIC arbiter priority (0 = control)
};

// --------------------------------------------------------------------------
// UD
// --------------------------------------------------------------------------

struct UdDest {
  fabric::NodeId host = fabric::kInvalidNode;
  std::uint32_t qpn = 0;
  fabric::McastGroupId group = fabric::kNoMcastGroup;

  static UdDest unicast(fabric::NodeId host, std::uint32_t qpn) {
    return UdDest{host, qpn, fabric::kNoMcastGroup};
  }
  static UdDest multicast(fabric::McastGroupId group) {
    return UdDest{fabric::kInvalidNode, 0, group};
  }
};

class UdQp : public Qp {
 public:
  using Qp::Qp;

  /// Sends one datagram (len <= MTU). Zero-copy of the registered buffer:
  /// the payload snapshot is taken at post time, as the HCA would DMA it.
  void post_send(const UdDest& dest, std::uint64_t laddr, std::uint32_t len,
                 const SendFlags& flags);

  void on_packet(const fabric::PacketPtr& packet) override;

  std::uint64_t rnr_drops() const { return rnr_drops_; }

 private:
  std::uint64_t rnr_drops_ = 0;
};

// --------------------------------------------------------------------------
// UC
// --------------------------------------------------------------------------

class UcQp : public Qp {
 public:
  using Qp::Qp;

  void connect(fabric::NodeId remote_host, std::uint32_t remote_qpn);
  /// Sender-side multicast attachment (the UC multicast extension): writes
  /// are replicated to all group members' attached UC QPs.
  void set_mcast_destination(fabric::McastGroupId group);

  /// RDMA Write (optionally with immediate) of arbitrary length; the NIC
  /// segments into MTU packets — one doorbell, one completion.
  void post_write(std::uint64_t laddr, std::uint64_t len, std::uint64_t raddr,
                  std::uint32_t rkey, const SendFlags& flags);

  void on_packet(const fabric::PacketPtr& packet) override;

  std::uint64_t broken_messages() const { return broken_messages_; }
  std::uint64_t rnr_drops() const { return rnr_drops_; }

 private:
  struct Reassembly {
    std::uint64_t msg_id = 0;
    std::uint64_t next_offset = 0;
    bool broken = false;
  };

  fabric::NodeId remote_host_ = fabric::kInvalidNode;
  std::uint32_t remote_qpn_ = 0;
  fabric::McastGroupId mcast_group_ = fabric::kNoMcastGroup;
  std::uint64_t next_msg_id_ = 1;
  // UC guarantees per-connection ordering, so one in-flight reassembly per
  // remote sender suffices (multicast: many senders, one group QP).
  std::unordered_map<fabric::NodeId, Reassembly> reassembly_;
  std::uint64_t broken_messages_ = 0;
  std::uint64_t rnr_drops_ = 0;
};

// --------------------------------------------------------------------------
// RC
// --------------------------------------------------------------------------

class RcQp : public Qp {
 public:
  RcQp(Nic& nic, std::uint32_t qpn, Cq* send_cq, Cq* recv_cq);

  void connect(fabric::NodeId remote_host, std::uint32_t remote_qpn);

  void post_send(std::uint64_t laddr, std::uint64_t len,
                 const SendFlags& flags);
  /// RDMA Read: fetches [raddr, raddr+len) from the peer into laddr. The
  /// reliability slow path uses this for selective chunk fetches.
  void post_read(std::uint64_t laddr, std::uint64_t len, std::uint64_t raddr,
                 std::uint32_t rkey, const SendFlags& flags);

  void on_packet(const fabric::PacketPtr& packet) override;

  fabric::NodeId remote_host() const { return remote_host_; }
  std::uint64_t retransmissions() const { return retransmissions_; }
  /// True once the retry limit was exhausted: the QP is in a silent error
  /// state and transmits nothing further (peer presumed dead).
  bool dead() const { return dead_; }

  // --- validate-build fault-injection hooks (tests/test_validate.cpp) -----
  /// Feeds a synthetic cumulative ACK straight into the reliability state
  /// machine, bypassing the wire — used to trip "rc.ack_beyond_window".
  void test_inject_ack(std::uint32_t cum_psn, bool nak) {
    handle_ack(cum_psn, nak);
  }
  /// Desynchronizes the validator's shadow of the in-order delivery stream
  /// so the next delivered packet trips "rc.psn_regression".
  void test_desync_rx_psn(std::uint32_t psn) { vld_next_rx_psn_ = psn; }
  /// Stuffs a phantom entry into the inflight ring so the next pump() trips
  /// "rc.window_overflow" (the phantom holds no packet, so no pool leak).
  void test_stuff_inflight() { inflight_.push(InflightPacket{}); }

 private:
  enum class OpKind : std::uint8_t { kSend, kReadReq, kReadResp };

  struct TxOp {
    OpKind kind = OpKind::kSend;
    std::uint64_t laddr = 0;  // local source (send/read-resp)
    std::uint64_t len = 0;
    std::uint64_t raddr = 0;
    std::uint32_t rkey = 0;
    SendFlags flags;
    std::uint64_t msg_id = 0;
    std::uint64_t cursor = 0;  // bytes already packetized
  };

  struct InflightPacket {
    fabric::PacketPtr packet;
    // Completion bookkeeping: set on the last packet of a signaled op.
    bool completes_op = false;
    SendFlags flags;
    std::uint32_t op_len = 0;
  };

  struct PendingRead {
    std::uint64_t laddr = 0;
    std::uint64_t len = 0;
    std::uint64_t received = 0;
    SendFlags flags;
  };

  void enqueue_op(TxOp op);
  void pump();  // packetize + transmit while the window allows
  fabric::PacketPtr make_packet(const TxOp& op, std::uint64_t offset,
                                std::uint32_t seg_len, bool last);
  void transmit(const InflightPacket& pkt);
  void arm_rto();
  void on_rto(std::uint64_t generation);
  void handle_ack(std::uint32_t cum_psn, bool nak);
  void send_ack(bool nak);
  void process_in_order(const fabric::PacketPtr& packet);
  void retransmit_from(std::uint32_t psn, Time delay);

  fabric::NodeId remote_host_ = fabric::kInvalidNode;
  std::uint32_t remote_qpn_ = 0;

  // --- transmit direction ---
  std::uint32_t next_psn_ = 0;   // next new psn to assign
  std::uint32_t acked_psn_ = 0;  // cumulative: all < acked_psn_ are acked
  Ring<InflightPacket> inflight_;  // psn order: [acked_psn_, next_psn_)
  Ring<TxOp> txq_;
  std::uint64_t next_msg_id_ = 1;
  std::uint64_t rto_generation_ = 0;
  bool rto_armed_ = false;
  Time retrans_backoff_until_ = 0;
  std::uint64_t retransmissions_ = 0;
  std::uint32_t rto_rounds_ = 0;  // consecutive RTOs with no ACK progress
  bool dead_ = false;             // retry limit exhausted

  // --- receive direction ---
  std::uint32_t expected_psn_ = 0;
  std::uint32_t last_acked_sent_ = 0;
  std::uint32_t unacked_count_ = 0;
  bool nak_outstanding_ = false;
  Time nak_rate_until_ = 0;
  // Two-sided message reassembly (in-order by reliability).
  bool recv_active_ = false;
  RecvWr active_recv_{};
  // RDMA Read responses in flight, keyed by msg_id.
  std::unordered_map<std::uint64_t, PendingRead> pending_reads_;

  // --- validate plane (constant-folded away without MCCL_VALIDATE) ---
  // Shadow counter of the in-order delivery stream: every packet handed to
  // process_in_order must carry exactly this PSN.
  std::uint32_t vld_next_rx_psn_ = 0;
};

}  // namespace mccl::rdma
