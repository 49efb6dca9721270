// Qp base and the UD transport.
#include "src/rdma/qp.hpp"

#include "src/rdma/nic.hpp"
#include "src/telemetry/telemetry.hpp"

namespace mccl::rdma {

Qp::Qp(Nic& nic, std::uint32_t qpn, Cq* send_cq, Cq* recv_cq)
    : nic_(nic), qpn_(qpn), send_cq_(send_cq), recv_cq_(recv_cq) {}

void Qp::post_recv(const RecvWr& wr) {
  MCCL_CHECK_MSG(recv_queue_depth() < nic_.config().max_recv_queue,
                 "receive queue overflow");
  if (!rq_.empty()) {
    rq_.push(wr);
    return;
  }
  if (run_.count > 0) {
    if (wr == run_.slot((run_.head + run_.count) % run_.slots))
      ++run_.count;
    else
      rq_.push(wr);
    return;
  }
  // The queue is empty: restart the run at `wr`, on the same ring when
  // `wr` is one of its slots (a staging repost out of drain order).
  if (run_.stride == 0) {
    if (wr != run_.first) run_ = RecvRun{.first = wr};
  } else if (const std::uint64_t i =
                 (wr.laddr - run_.first.laddr) / run_.stride;
             i < run_.slots && wr == run_.slot(i)) {
    run_.head = i;
  } else {
    run_ = RecvRun{.first = wr};
  }
  run_.count = 1;
}

void Qp::post_recv_ring(const RecvWr& first, std::uint64_t stride,
                        std::size_t n) {
  MCCL_CHECK_MSG(recv_queue_depth() + n <= nic_.config().max_recv_queue,
                 "receive queue overflow");
  if (n == 0) return;
  if (recv_queue_depth() == 0) {
    run_ = RecvRun{.first = first,
                   .stride = stride,
                   .slots = stride == 0 ? 1 : n,
                   .count = n};
    return;
  }
  MCCL_CHECK_MSG(stride == 0, "a receive ring goes into an empty queue");
  if (rq_.empty() && run_.stride == 0 && first == run_.first) {
    run_.count += n;  // more of the same WR: blank credits
    return;
  }
  for (std::size_t i = 0; i < n; ++i) rq_.push(first);
}

RecvWr Qp::rq_pop() {
  if (run_.count > 0) {
    const RecvWr wr = run_.slot(run_.head);
    if (++run_.head == run_.slots) run_.head = 0;
    --run_.count;
    return wr;
  }
  MCCL_CHECK(!rq_.empty());
  return rq_.pop();
}

fabric::PacketRef Qp::new_packet() {
  fabric::PacketRef pref = nic_.fabric().pool().acquire(tenant_);
  fabric::Packet& pkt = pref.mut();
  pkt.vl = data_vl_;
  pkt.src_host = nic_.host();
  // The ECMP flow key: one flow per (source host, QP).
  pkt.flow_id = (static_cast<std::uint64_t>(nic_.host()) << 20) | qpn_;
  pkt.th.src_qpn = qpn_;
  return pref;
}

void Qp::complete_send(const SendFlags& flags, std::uint32_t byte_len,
                       Time when) {
  if (!flags.signaled || send_cq_ == nullptr) return;
  Cqe cqe;
  cqe.wr_id = flags.wr_id;
  cqe.opcode = CqeOpcode::kSend;
  cqe.qpn = qpn_;
  cqe.byte_len = byte_len;
  // A crashed host's QPs stop generating CQEs — including completions that
  // were already scheduled when the crash hit (checked at fire time).
  if (nic_.crashed()) return;
  Cq* cq = send_cq_;
  if (when <= nic_.engine().now()) {
    cq->push(cqe);
  } else {
    Nic* nic = &nic_;
    nic_.engine().schedule_at(when, [nic, cq, cqe] {
      if (nic->crashed()) return;
      cq->push(cqe);
    });
  }
}

void Qp::complete_recv(const Cqe& cqe) {
  MCCL_CHECK(recv_cq_ != nullptr);
  if (nic_.crashed()) return;
  recv_cq_->push(cqe);
}

// --------------------------------------------------------------------------
// UD
// --------------------------------------------------------------------------

void UdQp::post_send(const UdDest& dest, std::uint64_t laddr,
                     std::uint32_t len, const SendFlags& flags) {
  MCCL_CHECK_MSG(len <= Nic::kMtu, "UD datagram exceeds MTU");
  fabric::PacketRef pref = new_packet();
  fabric::Packet* pkt = &pref.mut();
  if (dest.group != fabric::kNoMcastGroup) {
    pkt->mcast_group = dest.group;
  } else {
    pkt->dst_host = dest.host;
  }
  pkt->wire_size = len;
  pkt->th.op = fabric::TransportOp::kUdSend;
  pkt->th.dst_qpn = dest.qpn;
  pkt->th.imm = flags.imm;
  pkt->th.has_imm = flags.has_imm;
  pkt->th.seg_len = len;
  if (len > 0 && nic_.config().carry_payload) {
    // Zero-copy: a shared slice of the arena's snapshot cache (the same
    // scheme UC uses for multi-segment messages), not a per-send copy.
    pkt->payload = nic_.memory().snapshot_slice(laddr, len);
    if (nic_.crc_enabled()) {
      pkt->th.crc = crc32c(pkt->payload.data(), pkt->payload.size());
      pkt->th.has_crc = true;
    }
  }
  if (flags.signaled) {
    nic_.transmit(qpn_, pref, [this, flags, len](Time departed) {
      complete_send(flags, len, departed);
    });
  } else {
    nic_.transmit(qpn_, pref);
  }
}

void UdQp::on_packet(const fabric::PacketPtr& packet) {
  MCCL_CHECK(packet->th.op == fabric::TransportOp::kUdSend);
  if (payload_corrupt(*packet)) {
    // Bad ICRC: the NIC drops the datagram before it can consume a WR. The
    // chunk is never bitmap-set, so the fetch slow path recovers it.
    nic_.count_crc_drop();
    if (auto* t = nic_.telemetry())
      t->recorder.record(nic_.engine().now(),
                         static_cast<std::int32_t>(nic_.host()),
                         telemetry::EventCat::kQp, "ud_crc_drop", qpn_,
                         static_cast<std::uint64_t>(packet->src_host));
    return;
  }
  if (rq_empty()) {
    // Receiver-not-ready: the datagram is dropped by the NIC (paper
    // Section III-C scenario 1).
    ++rnr_drops_;
    if (auto* t = nic_.telemetry())
      t->recorder.record(nic_.engine().now(),
                         static_cast<std::int32_t>(nic_.host()),
                         telemetry::EventCat::kQp, "ud_rnr_drop", qpn_,
                         static_cast<std::uint64_t>(packet->src_host));
    return;
  }
  RecvWr wr = rq_pop();
  const std::uint32_t len = packet->th.seg_len;
  MCCL_CHECK_MSG(len <= wr.len, "UD datagram larger than receive buffer");
  if (!packet->payload.empty()) {
    MCCL_CHECK(packet->payload.size() == len);
    nic_.memory().write(wr.laddr, packet->payload.data(), len);
  }
  Cqe cqe;
  cqe.wr_id = wr.wr_id;
  cqe.opcode = CqeOpcode::kRecv;
  cqe.qpn = qpn_;
  cqe.byte_len = len;
  cqe.imm = packet->th.imm;
  cqe.has_imm = packet->th.has_imm;
  cqe.src = packet->src_host;
  complete_recv(cqe);
}

// --------------------------------------------------------------------------
// UC
// --------------------------------------------------------------------------

void UcQp::connect(fabric::NodeId remote_host, std::uint32_t remote_qpn) {
  remote_host_ = remote_host;
  remote_qpn_ = remote_qpn;
}

void UcQp::set_mcast_destination(fabric::McastGroupId group) {
  mcast_group_ = group;
}

void UcQp::post_write(std::uint64_t laddr, std::uint64_t len,
                      std::uint64_t raddr, std::uint32_t rkey,
                      const SendFlags& flags) {
  MCCL_CHECK_MSG(
      mcast_group_ != fabric::kNoMcastGroup ||
          remote_host_ != fabric::kInvalidNode,
      "UC QP not connected");
  const std::uint64_t msg_id = next_msg_id_++;
  // One snapshot of the source buffer, sliced zero-copy per segment.
  fabric::Payload whole;
  if (len > 0 && nic_.config().carry_payload)
    whole = nic_.memory().snapshot_slice(laddr, len);

  std::uint64_t offset = 0;
  do {
    const std::uint32_t seg = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(Nic::kMtu, len - offset));
    const bool last = offset + seg >= len;
    fabric::PacketRef pref = new_packet();
    fabric::Packet* pkt = &pref.mut();
    if (mcast_group_ != fabric::kNoMcastGroup)
      pkt->mcast_group = mcast_group_;
    else
      pkt->dst_host = remote_host_;
    pkt->wire_size = seg;
    pkt->th.op = fabric::TransportOp::kUcWriteSeg;
    pkt->th.dst_qpn = remote_qpn_;
    pkt->th.msg_id = msg_id;
    pkt->th.seg_offset = offset;
    pkt->th.msg_len = len;
    pkt->th.last_segment = last;
    pkt->th.raddr = raddr;
    pkt->th.rkey = rkey;
    pkt->th.seg_len = seg;
    if (last) {
      pkt->th.imm = flags.imm;
      pkt->th.has_imm = flags.has_imm;
    }
    if (seg > 0 && !whole.empty()) {
      pkt->payload = whole.slice(offset, seg);
      if (nic_.crc_enabled()) {
        pkt->th.crc = crc32c(pkt->payload.data(), pkt->payload.size());
        pkt->th.has_crc = true;
      }
    }
    if (last && flags.signaled) {
      nic_.transmit(qpn_, pref, [this, flags, len](Time departed) {
        complete_send(flags, static_cast<std::uint32_t>(len), departed);
      });
    } else {
      nic_.transmit(qpn_, pref);
    }
    offset += seg;
  } while (offset < len);

}

void UcQp::on_packet(const fabric::PacketPtr& packet) {
  MCCL_CHECK(packet->th.op == fabric::TransportOp::kUcWriteSeg);
  const fabric::TransportHeader& th = packet->th;
  Reassembly& r = reassembly_[packet->src_host];
  if (r.msg_id != th.msg_id) {
    // UC is in-order per connection: a new message id supersedes any stale
    // (possibly broken) reassembly state from this sender.
    r = Reassembly{th.msg_id, 0, false};
  }
  if (r.broken) return;
  if (payload_corrupt(*packet)) {
    // A corrupted segment poisons the whole UC message, exactly like a lost
    // one — nothing of it may land in the target buffer.
    r.broken = true;
    nic_.count_crc_drop();
    if (auto* t = nic_.telemetry())
      t->recorder.record(nic_.engine().now(),
                         static_cast<std::int32_t>(nic_.host()),
                         telemetry::EventCat::kQp, "uc_crc_drop", qpn_,
                         th.msg_id);
    return;
  }
  if (th.seg_offset != r.next_offset) {
    // A segment was lost or reordered: UC drops the whole message.
    r.broken = true;
    ++broken_messages_;
    if (auto* t = nic_.telemetry())
      t->recorder.record(nic_.engine().now(),
                         static_cast<std::int32_t>(nic_.host()),
                         telemetry::EventCat::kQp, "uc_broken_message", qpn_,
                         th.msg_id);
    return;
  }
  const std::uint32_t len = packet->th.seg_len;
  if (len > 0) {
    nic_.mrs().check_remote(th.rkey, th.raddr + th.seg_offset, len);
    if (!packet->payload.empty()) {
      MCCL_CHECK(packet->payload.size() == len);
      nic_.memory().write(th.raddr + th.seg_offset, packet->payload.data(),
                          len);
    }
  }
  r.next_offset += len;
  if (!th.last_segment) return;

  if (th.has_imm) {
    if (rq_empty()) {
      // Write-with-immediate needs a posted receive to consume; without one
      // the completion (and thus the message, as far as the protocol can
      // tell) is lost.
      ++rnr_drops_;
      if (auto* t = nic_.telemetry())
        t->recorder.record(nic_.engine().now(),
                           static_cast<std::int32_t>(nic_.host()),
                           telemetry::EventCat::kQp, "uc_rnr_drop", qpn_,
                           static_cast<std::uint64_t>(packet->src_host));
      return;
    }
    RecvWr wr = rq_pop();
    Cqe cqe;
    cqe.wr_id = wr.wr_id;
    cqe.opcode = CqeOpcode::kRecvWriteImm;
    cqe.qpn = qpn_;
    cqe.byte_len = static_cast<std::uint32_t>(th.msg_len);
    cqe.imm = th.imm;
    cqe.has_imm = true;
    cqe.src = packet->src_host;
    complete_recv(cqe);
  }
}

}  // namespace mccl::rdma
