// RC transport: go-back-N hardware reliability, two-sided sends and RDMA
// Read. Each connected QP pair forms two independent reliable
// streams (one per direction); read responses travel in the responder's
// stream, so a single cumulative-ACK window per direction covers all ops.
#include <algorithm>

#include "src/debug/validate.hpp"
#include "src/rdma/nic.hpp"
#include "src/rdma/qp.hpp"
#include "src/telemetry/telemetry.hpp"

namespace mccl::rdma {

RcQp::RcQp(Nic& nic, std::uint32_t qpn, Cq* send_cq, Cq* recv_cq)
    : Qp(nic, qpn, send_cq, recv_cq) {}

void RcQp::connect(fabric::NodeId remote_host, std::uint32_t remote_qpn) {
  remote_host_ = remote_host;
  remote_qpn_ = remote_qpn;
}

void RcQp::post_send(std::uint64_t laddr, std::uint64_t len,
                     const SendFlags& flags) {
  TxOp op;
  op.kind = OpKind::kSend;
  op.laddr = laddr;
  op.len = len;
  op.flags = flags;
  op.msg_id = next_msg_id_++;
  enqueue_op(std::move(op));
}

void RcQp::post_read(std::uint64_t laddr, std::uint64_t len,
                     std::uint64_t raddr, std::uint32_t rkey,
                     const SendFlags& flags) {
  TxOp op;
  op.kind = OpKind::kReadReq;
  op.laddr = laddr;  // local placement target, carried in PendingRead
  op.len = len;
  op.raddr = raddr;
  op.rkey = rkey;
  op.flags = flags;
  op.msg_id = next_msg_id_++;
  pending_reads_.emplace(op.msg_id, PendingRead{laddr, len, 0, flags});
  enqueue_op(std::move(op));
}

void RcQp::enqueue_op(TxOp op) {
  MCCL_CHECK_MSG(remote_host_ != fabric::kInvalidNode, "RC QP not connected");
  txq_.push(std::move(op));
  pump();
}

fabric::PacketPtr RcQp::make_packet(const TxOp& op, std::uint64_t offset,
                                    std::uint32_t seg_len, bool last) {
  fabric::PacketRef pref = new_packet();
  fabric::Packet* pkt = &pref.mut();
  pkt->dst_host = remote_host_;
  auto& th = pkt->th;
  th.dst_qpn = remote_qpn_;
  th.msg_id = op.msg_id;
  th.seg_offset = offset;
  th.msg_len = op.len;
  th.last_segment = last;
  switch (op.kind) {
    case OpKind::kSend:
      th.op = fabric::TransportOp::kRcSendSeg;
      break;
    case OpKind::kReadReq:
      th.op = fabric::TransportOp::kRcReadReq;
      th.raddr = op.raddr;
      th.rkey = op.rkey;
      break;
    case OpKind::kReadResp:
      th.op = fabric::TransportOp::kRcReadResp;
      break;
  }
  if (last && op.kind == OpKind::kSend) {
    th.imm = op.flags.imm;
    th.has_imm = op.flags.has_imm;
  }
  th.seg_len = seg_len;
  // Zero-length sends (barrier / chain / handshake tokens) and read
  // requests ride the strict-priority control lane.
  if (op.len == 0 || op.kind == OpKind::kReadReq) pkt->vl = fabric::kCtrlLane;
  if (op.kind == OpKind::kReadReq) {
    pkt->wire_size = Nic::kControlWireSize;
  } else {
    pkt->wire_size = seg_len;
    if (seg_len > 0 && nic_.config().carry_payload) {
      pkt->payload = nic_.memory().snapshot_slice(op.laddr + offset, seg_len);
      if (nic_.crc_enabled()) {
        th.crc = crc32c(pkt->payload.data(), pkt->payload.size());
        th.has_crc = true;
      }
    }
  }
  return pref;
}

// mccl-lint: begin-hot rc-pump
void RcQp::pump() {
  // Window accounting: the inflight ring covers exactly [acked_psn_,
  // next_psn_) and never exceeds the configured window. The loop condition
  // below preserves this; a violation means some path bypassed it.
  MCCL_VALIDATE_THAT(inflight_.size() <= nic_.config().rc_window,
                     "rc.window_overflow",
                     "qpn %u: %zu packets in flight exceeds window %u", qpn_,
                     inflight_.size(), nic_.config().rc_window);
  MCCL_VALIDATE_THAT(
      inflight_.size() == static_cast<std::size_t>(next_psn_ - acked_psn_),
      "rc.window_overflow",
      "qpn %u: inflight ring holds %zu but psn span is [%u, %u)", qpn_,
      inflight_.size(), acked_psn_, next_psn_);
  while (!txq_.empty() && inflight_.size() < nic_.config().rc_window) {
    TxOp& op = txq_.front();
    bool last;
    std::uint32_t seg;
    if (op.kind == OpKind::kReadReq) {
      seg = 0;
      last = true;
      op.cursor = op.len;
    } else {
      seg = static_cast<std::uint32_t>(
          std::min<std::uint64_t>(Nic::kMtu, op.len - op.cursor));
      last = op.cursor + seg >= op.len;
    }
    fabric::PacketPtr packet = make_packet(op, op.cursor, seg, last);
    packet.mut().th.psn = next_psn_++;  // still builder-owned: sole reference

    InflightPacket ip;
    ip.packet = packet;
    ip.completes_op = last && op.kind == OpKind::kSend;
    ip.flags = op.flags;
    ip.op_len = static_cast<std::uint32_t>(op.len);
    transmit(ip);
    inflight_.push(std::move(ip));

    if (op.kind != OpKind::kReadReq) op.cursor += seg;
    if (op.cursor >= op.len) txq_.pop();
  }
}
// mccl-lint: end-hot

void RcQp::transmit(const InflightPacket& pkt) {
  if (dead_) return;
  nic_.transmit(qpn_, pkt.packet);
  arm_rto();
}

void RcQp::arm_rto() {
  if (rto_armed_ || dead_) return;
  rto_armed_ = true;
  const std::uint64_t gen = ++rto_generation_;
  nic_.engine().schedule(nic_.config().rc_rto,
                         [this, gen] { on_rto(gen); });
}

void RcQp::on_rto(std::uint64_t generation) {
  if (generation != rto_generation_) return;  // superseded
  rto_armed_ = false;
  if (nic_.crashed()) return;  // a dead host retransmits nothing
  if (inflight_.empty()) return;
  if (++rto_rounds_ > Nic::kRcRetryLimit) {
    // Retry limit exhausted: the peer is presumed dead. The QP enters a
    // silent error state — no more retransmissions, no more RTOs — so the
    // event queue stays bounded. The collective layer learns about the
    // peer through the failure detector, not through this QP.
    dead_ = true;
    if (auto* t = nic_.telemetry())
      t->recorder.record(nic_.engine().now(),
                         static_cast<std::int32_t>(nic_.host()),
                         telemetry::EventCat::kQp, "rc_retry_exhausted", qpn_,
                         static_cast<std::uint64_t>(remote_host_));
    return;
  }
  retransmit_from(acked_psn_, 0);
  arm_rto();
}

void RcQp::retransmit_from(std::uint32_t psn, Time delay) {
  if (inflight_.empty() || dead_) return;
  const Time now = nic_.engine().now();
  Time when = std::max(now + delay, retrans_backoff_until_);
  retrans_backoff_until_ = when + Nic::kRcNakBackoff;
  MCCL_CHECK(psn >= acked_psn_);
  const std::size_t start = psn - acked_psn_;
  if (start >= inflight_.size()) return;
  // Capture the packets to resend; by the time the event fires some may be
  // acked, so re-check against acked_psn_ then.
  nic_.engine().schedule_at(when, [this, psn] {
    if (psn < acked_psn_ || inflight_.empty() || dead_) return;
    const std::size_t start = psn - acked_psn_;
    for (std::size_t i = start; i < inflight_.size(); ++i) {
      nic_.transmit(qpn_, inflight_[i].packet);
      ++retransmissions_;
    }
    if (auto* t = nic_.telemetry())
      t->recorder.record(nic_.engine().now(),
                         static_cast<std::int32_t>(nic_.host()),
                         telemetry::EventCat::kQp, "rc_retransmit", qpn_,
                         inflight_.size() - start);
    arm_rto();
  });
}

void RcQp::handle_ack(std::uint32_t cum_psn, bool nak) {
  if (debug::kValidate && cum_psn > next_psn_) {
    // A cumulative ACK can never cover PSNs we have not yet transmitted.
    // Report and contain: dropping the bogus ACK keeps the state machine
    // consistent so the run (and the test harness) can continue.
    debug::report("rc.ack_beyond_window",
                  "qpn %u: cumulative ACK for psn %u but next_psn is %u",
                  qpn_, cum_psn, next_psn_);
    return;
  }
  if (cum_psn > acked_psn_) {
    std::uint32_t n = cum_psn - acked_psn_;
    while (n-- > 0) {
      MCCL_CHECK(!inflight_.empty());
      const InflightPacket ip = inflight_.pop();
      if (ip.completes_op)
        complete_send(ip.flags, ip.op_len, nic_.engine().now());
    }
    acked_psn_ = cum_psn;
    // Progress: invalidate the pending RTO, reset the retry budget, and
    // re-arm if needed.
    ++rto_generation_;
    rto_armed_ = false;
    rto_rounds_ = 0;
    if (!inflight_.empty()) arm_rto();
    pump();
  }
  if (nak) retransmit_from(std::max(cum_psn, acked_psn_), 0);
}

void RcQp::send_ack(bool nak) {
  fabric::PacketRef pref = new_packet();
  fabric::Packet* pkt = &pref.mut();
  pkt->dst_host = remote_host_;
  pkt->wire_size = Nic::kControlWireSize;
  pkt->vl = fabric::kCtrlLane;
  pkt->th.op = fabric::TransportOp::kRcAck;
  pkt->th.dst_qpn = remote_qpn_;
  pkt->th.psn = expected_psn_;
  pkt->th.nak = nak;
  nic_.transmit(qpn_, pref);
  last_acked_sent_ = expected_psn_;
  unacked_count_ = 0;
}

void RcQp::on_packet(const fabric::PacketPtr& packet) {
  const fabric::TransportHeader& th = packet->th;
  if (payload_corrupt(*packet)) {
    // Bad ICRC: the NIC discards the packet as if it were lost; go-back-N
    // (NAK on the resulting gap, or the sender's RTO) retransmits it.
    nic_.count_crc_drop();
    if (auto* t = nic_.telemetry())
      t->recorder.record(nic_.engine().now(),
                         static_cast<std::int32_t>(nic_.host()),
                         telemetry::EventCat::kQp, "rc_crc_drop", qpn_,
                         th.psn);
    return;
  }
  if (th.op == fabric::TransportOp::kRcAck) {
    handle_ack(th.psn, th.nak);
    return;
  }
  if (th.psn == expected_psn_) {
    // Receiver-not-ready check must precede PSN consumption: a two-sided
    // first segment needs a posted WR.
    if (th.op == fabric::TransportOp::kRcSendSeg && th.seg_offset == 0 &&
        rq_empty()) {
      // Receiver-not-ready NAK, rate limited: the sender's go-back-N
      // retries until a WR is posted.
      if (nic_.engine().now() >= nak_rate_until_) {
        send_ack(/*nak=*/true);
        nak_outstanding_ = true;
        nak_rate_until_ = nic_.engine().now() + Nic::kRcNakBackoff;
      }
      return;
    }
    ++expected_psn_;
    nak_outstanding_ = false;
    process_in_order(packet);
    ++unacked_count_;
    if (th.last_segment || unacked_count_ >= Nic::kRcAckInterval)
      send_ack(/*nak=*/false);
  } else if (th.psn < expected_psn_) {
    // Duplicate from a go-back-N burst: refresh the sender's window.
    send_ack(/*nak=*/false);
  } else {
    // Gap: a packet was lost; NAK once per loss event.
    if (!nak_outstanding_) {
      send_ack(/*nak=*/true);
      nak_outstanding_ = true;
    }
  }
}

void RcQp::process_in_order(const fabric::PacketPtr& packet) {
  const fabric::TransportHeader& th = packet->th;
  if constexpr (debug::kValidate) {
    // PSN monotonicity of the delivered stream: reliability must hand each
    // PSN to the consumer exactly once, in order. Contain on violation —
    // reprocessing a segment would corrupt reassembly state downstream.
    if (th.psn != vld_next_rx_psn_) {
      debug::report("rc.psn_regression",
                    "qpn %u: in-order delivery of psn %u, expected %u", qpn_,
                    th.psn, vld_next_rx_psn_);
      return;
    }
    vld_next_rx_psn_ = th.psn + 1;
  }
  const std::uint32_t len = th.seg_len;
  MCCL_CHECK(packet->payload.empty() || packet->payload.size() == len);
  switch (th.op) {
    case fabric::TransportOp::kRcSendSeg: {
      if (th.seg_offset == 0) {
        MCCL_CHECK(!rq_empty());
        active_recv_ = rq_pop();
        recv_active_ = true;
        MCCL_CHECK_MSG(th.msg_len <= active_recv_.len,
                       "RC send larger than receive buffer");
      }
      if (!packet->payload.empty())
        nic_.memory().write(active_recv_.laddr + th.seg_offset,
                            packet->payload.data(), len);
      if (th.last_segment) {
        Cqe cqe;
        cqe.wr_id = active_recv_.wr_id;
        cqe.opcode = CqeOpcode::kRecv;
        cqe.qpn = qpn_;
        cqe.byte_len = static_cast<std::uint32_t>(th.msg_len);
        cqe.imm = th.imm;
        cqe.has_imm = th.has_imm;
        cqe.src = packet->src_host;
        recv_active_ = false;
        complete_recv(cqe);
      }
      break;
    }
    case fabric::TransportOp::kRcReadReq: {
      nic_.mrs().check_remote(th.rkey, th.raddr, th.msg_len);
      TxOp resp;
      resp.kind = OpKind::kReadResp;
      resp.laddr = th.raddr;  // read from our memory
      resp.len = th.msg_len;
      resp.msg_id = th.msg_id;
      resp.flags.signaled = false;
      txq_.push(std::move(resp));
      pump();
      break;
    }
    case fabric::TransportOp::kRcReadResp: {
      auto it = pending_reads_.find(th.msg_id);
      MCCL_CHECK_MSG(it != pending_reads_.end(), "unexpected read response");
      PendingRead& pr = it->second;
      if (!packet->payload.empty())
        nic_.memory().write(pr.laddr + th.seg_offset, packet->payload.data(),
                            len);
      pr.received += len;
      if (th.last_segment) {
        MCCL_CHECK(pr.received == pr.len);
        if (pr.flags.signaled && send_cq_ != nullptr) {
          Cqe cqe;
          cqe.wr_id = pr.flags.wr_id;
          cqe.opcode = CqeOpcode::kRead;
          cqe.qpn = qpn_;
          cqe.byte_len = static_cast<std::uint32_t>(pr.len);
          cqe.src = packet->src_host;
          send_cq_->push(cqe);
        }
        pending_reads_.erase(it);
      }
      break;
    }
    default:
      MCCL_CHECK_MSG(false, "unexpected op on RC QP");
  }
}

}  // namespace mccl::rdma
