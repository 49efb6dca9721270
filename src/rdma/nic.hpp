// Per-host NIC: QP/CQ/MR factory, packet demultiplexer, multicast group
// attachment, RNR accounting, and the on-NIC DMA engine used for staging →
// user-buffer copies (paper Section III-B, "receive-side staging").
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/ring.hpp"
#include "src/common/units.hpp"
#include "src/fabric/fabric.hpp"
#include "src/rdma/cq.hpp"
#include "src/rdma/memory.hpp"
#include "src/rdma/qp.hpp"
#include "src/sim/engine.hpp"
#include "src/sim/resource.hpp"

namespace mccl::telemetry {
class Telemetry;
}  // namespace mccl::telemetry

namespace mccl::rdma {

struct NicConfig {
  std::uint32_t max_recv_queue = 8192;  // BlueField-3 receive queue bound
  bool carry_payload = true;  // false: timing-only packets (large benches)

  // RC reliability.
  std::uint32_t rc_window = 1024;    // max unacked packets in flight
  Time rc_rto = 100 * kMicrosecond;  // retransmission timeout

  std::uint64_t memory_capacity = std::uint64_t{1} << 31;  // 2 GiB arena
};

class Nic {
 public:
  static constexpr std::uint32_t kMtu = 4096;
  static constexpr std::uint32_t kControlWireSize = 64;  // ACK / read request
  // RC reliability.
  static constexpr std::uint32_t kRcAckInterval = 16;  // coalesced ACKs
  // Minimum gap between go-back-N retransmission bursts, and between RNR
  // NAKs.
  static constexpr Time kRcNakBackoff = 5 * kMicrosecond;
  // Consecutive RTO-driven retransmission rounds without cumulative-ACK
  // progress before the QP gives up and goes silent (a real HCA would raise
  // IBV_WC_RETRY_EXC_ERR). Bounds the event load of talking to a crashed
  // peer: without a limit, go-back-N retransmits into the void forever.
  static constexpr std::uint32_t kRcRetryLimit = 64;
  // On-NIC DMA engine (staging copies / loopback writes); its latency is a
  // PCIe round trip (paper: 1-3 us).
  static constexpr double kDmaGbps = 400.0;
  static constexpr Time kDmaLatency = 2 * kMicrosecond;

  Nic(sim::Engine& engine, fabric::Fabric& fabric, fabric::NodeId host,
      NicConfig config = {});

  Nic(const Nic&) = delete;
  Nic& operator=(const Nic&) = delete;

  sim::Engine& engine() { return engine_; }
  fabric::Fabric& fabric() { return fabric_; }
  fabric::NodeId host() const { return host_; }
  const NicConfig& config() const { return config_; }

  HostMemory& memory() { return memory_; }
  MrTable& mrs() { return mrs_; }

  /// Fresh packet from the fabric's recycling pool (fill via mut()).
  fabric::PacketRef make_packet() { return fabric_.pool().acquire(); }

  /// CRC32C stamping/verification policy, fixed at construction: only worth
  /// paying for when payload bytes are carried AND the fault timeline has a
  /// corruption window (otherwise no packet can ever fail the check — the
  /// `corrupted` flag plumbing covers synthetic mode).
  bool crc_enabled() const { return crc_enabled_; }

  Cq& create_cq();
  UdQp& create_ud_qp(Cq* send_cq, Cq* recv_cq);
  UcQp& create_uc_qp(Cq* send_cq, Cq* recv_cq);
  RcQp& create_rc_qp(Cq* send_cq, Cq* recv_cq);

  /// Receive-side multicast attachment: packets to `group` arriving at this
  /// host are delivered to the attached QP(s). Also joins the fabric group.
  void attach_ud_mcast(fabric::McastGroupId group, UdQp& qp);
  void attach_uc_mcast(fabric::McastGroupId group, UcQp& qp);
  /// Joins the fabric group without a receive QP (send-only member).
  void join_mcast(fabric::McastGroupId group);

  /// Wire-departure callback for transmit(). Inline (no allocation) for
  /// captures up to the 64-byte budget — this runs once per egress packet.
  using TxCallback = sim::InlineFn<void(Time)>;

  /// TX queue id reserved for the in-network-compute transport.
  static constexpr std::uint32_t kIncTxQueue = 0xffffffffu;

  /// Queues a packet for transmission. The NIC egress arbiter serializes
  /// the host link and services TX queues round-robin (the per-QP WQE
  /// arbitration of a real HCA) so one bulk flow cannot head-of-line-block
  /// other QPs — e.g. a Reduce-Scatter burst must not starve concurrent
  /// Allgather multicast or control tokens. Each queue is filed under a
  /// priority band when it turns non-empty; the pick serves the lowest
  /// band with a ready queue, round-robin from one shared cursor inside it.
  void transmit(std::uint32_t queue, const fabric::PacketPtr& packet,
                TxCallback done = {});

  /// Egress strict priority (cluster-scheduler plane). Off (the default):
  /// every queue is in band 0, a plain round-robin. On: a QP's queue is
  /// filed under Qp::qos_band() — control QPs and the INC transport in
  /// band 0, tenant data in 1 + class, a queue with no QP in band 1. The
  /// band is read each time a queue turns non-empty, so set this before
  /// traffic.
  void set_strict_priority(bool on) { strict_priority_ = on; }

  /// Capture budget of a post_local_copy completion: the engine cell also
  /// holds the NIC's own 32-byte capture (this, src, dst, len).
  static constexpr std::size_t kCopyDoneBytes =
      sim::InlineCallback::kInlineBytes - 32;

  /// Asynchronous on-NIC DMA copy between local buffers (staging → user).
  /// Models non-blocking queuing: posting returns immediately; `done` runs
  /// after queuing + transfer + PCIe latency. `done` is stored inline in
  /// the completion event (once per received UD chunk), never in a
  /// std::function.
  template <typename F>
  void post_local_copy(std::uint64_t src, std::uint64_t dst,
                       std::uint64_t len, F&& done) {
    static_assert(sizeof(std::decay_t<F>) <= kCopyDoneBytes,
                  "local-copy completion would leave the inline budget");
    engine_.schedule_at(book_local_copy(len),
                        [this, src, dst, len,
                         done = std::forward<F>(done)]() mutable {
                          if (crashed_) return;  // dies with the host
                          finish_local_copy(src, dst, len);
                          done();
                        });
  }

  Qp* find_qp(std::uint32_t qpn);

  /// Handler for in-network-compute result packets arriving at this host
  /// (SHARP-like transport, outside the QP model).
  void set_inc_handler(std::function<void(const fabric::PacketPtr&)> fn) {
    inc_handler_ = std::move(fn);
  }

  std::uint64_t ud_rnr_drops() const;
  std::uint64_t uc_rnr_drops() const;
  std::uint64_t uc_broken_messages() const;
  std::uint64_t rc_retransmissions() const;
  std::uint64_t dma_ops() const { return dma_ops_; }
  std::uint64_t dma_bytes() const { return dma_bytes_; }
  /// Packets whose payload failed the receive-side CRC32C check (dropped
  /// before consuming a WR, like a real NIC's bad-ICRC path).
  std::uint64_t crc_drops() const { return crc_drops_; }
  void count_crc_drop() { ++crc_drops_; }

  /// Host crash: the NIC goes permanently silent. Arriving packets are
  /// dropped, transmit becomes a no-op (queued packets are discarded, so
  /// multicast sends cease), DMA completions are suppressed, and QPs stop
  /// generating CQEs (Qp::complete_* consult this flag at fire time — a CQE
  /// already scheduled when the crash hits never reaches its consumer).
  void set_crashed(bool crashed);
  bool crashed() const { return crashed_; }

  /// Telemetry sink shared by this NIC's QPs (flight-recorder entries for
  /// RNR drops / retransmits / broken messages). May stay null.
  void set_telemetry(telemetry::Telemetry* telem) { telem_ = telem; }
  telemetry::Telemetry* telemetry() const { return telem_; }

 private:
  struct TxItem {
    fabric::PacketPtr packet;
    TxCallback done;
  };

  void on_packet(const fabric::PacketPtr& packet);
  /// Queues a local copy on the DMA engine; returns its completion time.
  Time book_local_copy(std::uint64_t len);
  /// Moves the bytes of a completed local copy (payload mode only).
  void finish_local_copy(std::uint64_t src, std::uint64_t dst,
                         std::uint64_t len);
  void pump_tx();
  std::size_t add_tx_queue();
  /// Band a queue is filed under when it turns non-empty.
  std::uint8_t tx_band(std::uint32_t queue);
  /// Next queue to serve (advancing the cursor), or kNoTxQueue.
  std::size_t pick_tx_slot();

  static constexpr std::size_t kNoTxQueue = ~std::size_t{0};

  sim::Engine& engine_;
  fabric::Fabric& fabric_;
  fabric::NodeId host_;
  NicConfig config_;
  HostMemory memory_;
  MrTable mrs_;
  std::vector<std::unique_ptr<Cq>> cqs_;
  std::vector<std::unique_ptr<Qp>> qps_;
  // Indexed by group id (dense, fabric-assigned sequentially): mcast demux
  // runs once per delivered packet per member host, so it must be a plain
  // vector walk, not a hash probe.
  std::vector<std::vector<UdQp*>> ud_mcast_;
  std::vector<std::vector<UcQp*>> uc_mcast_;
  std::function<void(const fabric::PacketPtr&)> inc_handler_;
  sim::Resource dma_;
  // Egress arbiter state. Queue ids are QPNs (dense small integers) plus
  // the kIncTxQueue sentinel, so the id->slot map is a flat vector, and the
  // round-robin scan reads a non-empty bitmap (one ctz per word) instead of
  // probing every queue — with hundreds of QPs per NIC the linear probe was
  // one of the hottest loops in the simulator. One bitmap per band; a
  // round-robin NIC only ever uses band 0.
  struct TxQueue {
    Ring<TxItem> items;
    std::uint8_t band = 0;  // band it is filed under while non-empty
  };
  struct TxBand {
    std::vector<std::uint64_t> ready;  // bit per slot: non-empty, filed here
    std::size_t count = 0;             // bits set in `ready`
  };
  std::vector<std::int32_t> tx_slot_of_;    // queue id -> slot, -1 = none
  std::size_t inc_tx_slot_ = kNoTxQueue;    // slot for kIncTxQueue
  std::vector<TxQueue> tx_queues_;
  std::vector<TxBand> tx_bands_ = std::vector<TxBand>(1);
  std::size_t tx_rr_ = 0;
  bool tx_active_ = false;
  bool strict_priority_ = false;
  telemetry::Telemetry* telem_ = nullptr;
  bool crashed_ = false;
  bool crc_enabled_ = false;
  std::uint64_t dma_ops_ = 0;
  std::uint64_t dma_bytes_ = 0;
  std::uint64_t crc_drops_ = 0;
};

}  // namespace mccl::rdma
