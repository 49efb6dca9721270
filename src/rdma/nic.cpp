#include "src/rdma/nic.hpp"

#include <algorithm>
#include <utility>

namespace mccl::rdma {
namespace {

/// First set bit of `ready` at or after slot `start`, cyclic over `nslots`
/// slots. `ready` must have a set bit.
std::size_t first_ready(const std::vector<std::uint64_t>& ready,
                        std::size_t nslots, std::size_t start) {
  if (start >= nslots) start -= nslots;  // the cursor is at most nslots
  std::size_t w = start >> 6;
  std::uint64_t bits = (ready[w] >> (start & 63)) << (start & 63);
  while (bits == 0) {
    if (++w == ready.size()) w = 0;
    bits = ready[w];  // back at start's word: only bits below start remain
  }
  return (w << 6) + static_cast<std::size_t>(__builtin_ctzll(bits));
}

}  // namespace

Nic::Nic(sim::Engine& engine, fabric::Fabric& fabric, fabric::NodeId host,
         NicConfig config)
    : engine_(engine),
      fabric_(fabric),
      host_(host),
      config_(config),
      memory_(config.memory_capacity, config.carry_payload) {
  crc_enabled_ =
      config_.carry_payload && fabric.faults().corruption_possible();
  fabric_.set_delivery(host_,
                       [this](const fabric::PacketPtr& p) { on_packet(p); });
}

Cq& Nic::create_cq() {
  cqs_.push_back(std::make_unique<Cq>());
  return *cqs_.back();
}

UdQp& Nic::create_ud_qp(Cq* send_cq, Cq* recv_cq) {
  const auto qpn = static_cast<std::uint32_t>(qps_.size());
  qps_.push_back(std::make_unique<UdQp>(*this, qpn, send_cq, recv_cq));
  return static_cast<UdQp&>(*qps_.back());
}

UcQp& Nic::create_uc_qp(Cq* send_cq, Cq* recv_cq) {
  const auto qpn = static_cast<std::uint32_t>(qps_.size());
  qps_.push_back(std::make_unique<UcQp>(*this, qpn, send_cq, recv_cq));
  return static_cast<UcQp&>(*qps_.back());
}

RcQp& Nic::create_rc_qp(Cq* send_cq, Cq* recv_cq) {
  const auto qpn = static_cast<std::uint32_t>(qps_.size());
  qps_.push_back(std::make_unique<RcQp>(*this, qpn, send_cq, recv_cq));
  return static_cast<RcQp&>(*qps_.back());
}

void Nic::attach_ud_mcast(fabric::McastGroupId group, UdQp& qp) {
  fabric_.mcast_attach(group, host_);
  if (static_cast<std::size_t>(group) >= ud_mcast_.size())
    ud_mcast_.resize(static_cast<std::size_t>(group) + 1);
  auto& list = ud_mcast_[static_cast<std::size_t>(group)];
  if (std::find(list.begin(), list.end(), &qp) == list.end())
    list.push_back(&qp);
}

void Nic::attach_uc_mcast(fabric::McastGroupId group, UcQp& qp) {
  fabric_.mcast_attach(group, host_);
  if (static_cast<std::size_t>(group) >= uc_mcast_.size())
    uc_mcast_.resize(static_cast<std::size_t>(group) + 1);
  auto& list = uc_mcast_[static_cast<std::size_t>(group)];
  if (std::find(list.begin(), list.end(), &qp) == list.end())
    list.push_back(&qp);
}

void Nic::join_mcast(fabric::McastGroupId group) {
  fabric_.mcast_attach(group, host_);
}

void Nic::set_crashed(bool crashed) {
  crashed_ = crashed;
  if (crashed_) {
    // Discard everything queued for egress: a dead host transmits nothing.
    for (TxQueue& q : tx_queues_) q.items.clear();
    for (TxBand& band : tx_bands_) {
      std::fill(band.ready.begin(), band.ready.end(), 0);
      band.count = 0;
    }
  }
  // Close (or reopen) every CQ's crash gate: a crashed NIC must never
  // surface new completions, and the validator flags any push that tries.
  for (auto& cq : cqs_) {
    if (crashed_)
      cq->close_gate();
    else
      cq->open_gate();
  }
}

std::size_t Nic::add_tx_queue() {
  const std::size_t slot = tx_queues_.size();
  tx_queues_.emplace_back();
  if ((slot >> 6) >= tx_bands_[0].ready.size())
    for (TxBand& band : tx_bands_) band.ready.push_back(0);
  return slot;
}

std::uint8_t Nic::tx_band(std::uint32_t queue) {
  // The INC transport has no QP; its aggregation traffic ranks as control.
  if (!strict_priority_ || queue == kIncTxQueue) return 0;
  const Qp* qp = find_qp(queue);
  return qp != nullptr ? qp->qos_band() : 1;
}

void Nic::transmit(std::uint32_t queue, const fabric::PacketPtr& packet,
                   TxCallback done) {
  if (crashed_) return;  // the send evaporates; no departure callback
  std::size_t slot;
  if (queue == kIncTxQueue) {
    if (inc_tx_slot_ == kNoTxQueue) inc_tx_slot_ = add_tx_queue();
    slot = inc_tx_slot_;
  } else {
    if (queue >= tx_slot_of_.size()) tx_slot_of_.resize(queue + 1, -1);
    if (tx_slot_of_[queue] < 0)
      tx_slot_of_[queue] = static_cast<std::int32_t>(add_tx_queue());
    slot = static_cast<std::size_t>(tx_slot_of_[queue]);
  }
  TxQueue& q = tx_queues_[slot];
  if (q.items.empty()) {
    // Filed once per busy period, so a set_qos made after the QP's first
    // send takes effect on its next one.
    const std::uint8_t b = tx_band(queue);
    if (b >= tx_bands_.size()) {
      const std::size_t words = tx_bands_[0].ready.size();
      tx_bands_.resize(std::size_t{b} + 1);
      for (TxBand& band : tx_bands_) band.ready.resize(words, 0);
    }
    TxBand& band = tx_bands_[b];
    band.ready[slot >> 6] |= std::uint64_t{1} << (slot & 63);
    ++band.count;
    q.band = b;
  }
  q.items.push(TxItem{packet, std::move(done)});
  pump_tx();
}

// mccl-lint: begin-hot nic-egress
std::size_t Nic::pick_tx_slot() {
  // Lowest band with a ready queue; round-robin from the shared cursor
  // inside it. A round-robin NIC stops at band 0.
  for (const TxBand& band : tx_bands_) {
    if (band.count == 0) continue;
    const std::size_t slot =
        first_ready(band.ready, tx_queues_.size(), tx_rr_);
    tx_rr_ = slot + 1;
    return slot;
  }
  return kNoTxQueue;
}

void Nic::pump_tx() {
  if (tx_active_) return;
  const std::size_t picked = pick_tx_slot();
  if (picked == kNoTxQueue) return;
  TxQueue& queue = tx_queues_[picked];
  TxItem item = queue.items.pop();
  if (queue.items.empty()) {
    TxBand& band = tx_bands_[queue.band];
    band.ready[picked >> 6] &= ~(std::uint64_t{1} << (picked & 63));
    --band.count;
  }
  tx_active_ = true;
  const Time departure = fabric_.inject(item.packet);
  if (item.done) item.done(departure);
  engine_.schedule_at(departure, [this] {
    tx_active_ = false;
    pump_tx();
  });
}
// mccl-lint: end-hot

Time Nic::book_local_copy(std::uint64_t len) {
  ++dma_ops_;
  dma_bytes_ += len;
  const Time xfer = serialization_time(len, kDmaGbps);
  return dma_.acquire(engine_.now(), xfer) + kDmaLatency;
}

void Nic::finish_local_copy(std::uint64_t src, std::uint64_t dst,
                            std::uint64_t len) {
  if (config_.carry_payload)
    memory_.write(dst, std::as_const(memory_).span(src, len).data(), len);
}

Qp* Nic::find_qp(std::uint32_t qpn) {
  if (qpn >= qps_.size()) return nullptr;
  return qps_[qpn].get();
}

std::uint64_t Nic::ud_rnr_drops() const {
  std::uint64_t total = 0;
  for (const auto& qp : qps_)
    if (auto* ud = dynamic_cast<const UdQp*>(qp.get()))
      total += ud->rnr_drops();
  return total;
}

std::uint64_t Nic::uc_rnr_drops() const {
  std::uint64_t total = 0;
  for (const auto& qp : qps_)
    if (auto* uc = dynamic_cast<const UcQp*>(qp.get()))
      total += uc->rnr_drops();
  return total;
}

std::uint64_t Nic::uc_broken_messages() const {
  std::uint64_t total = 0;
  for (const auto& qp : qps_)
    if (auto* uc = dynamic_cast<const UcQp*>(qp.get()))
      total += uc->broken_messages();
  return total;
}

std::uint64_t Nic::rc_retransmissions() const {
  std::uint64_t total = 0;
  for (const auto& qp : qps_)
    if (auto* rc = dynamic_cast<const RcQp*>(qp.get()))
      total += rc->retransmissions();
  return total;
}

void Nic::on_packet(const fabric::PacketPtr& packet) {
  if (crashed_) return;  // dead host: arriving packets vanish
  if (packet->th.op == fabric::TransportOp::kIncContribution) {
    MCCL_CHECK_MSG(static_cast<bool>(inc_handler_),
                   "INC packet at host without INC handler");
    inc_handler_(packet);
    return;
  }
  if (packet->is_mcast()) {
    switch (packet->th.op) {
      case fabric::TransportOp::kUdSend: {
        const auto g = static_cast<std::size_t>(packet->mcast_group);
        if (g >= ud_mcast_.size()) return;  // send-only member
        for (UdQp* qp : ud_mcast_[g]) qp->on_packet(packet);
        return;
      }
      case fabric::TransportOp::kUcWriteSeg: {
        const auto g = static_cast<std::size_t>(packet->mcast_group);
        if (g >= uc_mcast_.size()) return;
        for (UcQp* qp : uc_mcast_[g]) qp->on_packet(packet);
        return;
      }
      default:
        MCCL_CHECK_MSG(false, "unsupported multicast transport op");
    }
  }
  Qp* qp = find_qp(packet->th.dst_qpn);
  MCCL_CHECK_MSG(qp != nullptr, "packet for unknown QP");
  qp->on_packet(packet);
}

}  // namespace mccl::rdma
