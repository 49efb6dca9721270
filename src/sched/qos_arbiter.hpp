// Per-tenant QoS arbitration for egress queues (cluster scheduler plane).
//
// The arbiter is pure selection logic over a ready-bitmap: the NIC keeps
// its per-QP TX queues and the "which slots are non-empty" bitmap exactly
// as before, and asks the arbiter which ready slot to serve next. Three
// policies:
//
//  - kFifo:   cyclic round-robin from the caller's cursor — bit-identical
//             to the pre-QoS NIC arbiter (the baseline mode).
//  - kStrict: lowest priority band wins; round-robin among equals. Control
//             QPs ride band 0, tenant data bands 1 + qos_class, so a
//             high-priority tenant's chunks always inject ahead of
//             best-effort bulk.
//  - kWfq:    deficit round robin over bytes: every ready slot earns
//             weight * kWfqQuantum credit per replenish round and pays the
//             wire size of each packet it dequeues, converging to
//             weight-proportional link shares without starving anyone.
//
// Determinism: all state is plain arrays indexed by slot, every decision is
// a function of (ready bitmap, cursor, per-slot attributes) — no clocks, no
// randomness, no pointer ordering.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace mccl::sched {

enum class QosPolicy : std::uint8_t { kFifo, kStrict, kWfq };

inline const char* to_string(QosPolicy p) {
  switch (p) {
    case QosPolicy::kFifo: return "fifo";
    case QosPolicy::kStrict: return "strict";
    case QosPolicy::kWfq: return "wfq";
  }
  return "?";
}

class QosArbiter {
 public:
  static constexpr std::size_t kNone = ~std::size_t{0};
  /// Bytes of credit per weight unit per WFQ replenish round (one MTU: a
  /// weight-1 slot sends at least one full packet per round).
  static constexpr std::int64_t kWfqQuantum = 4096;

  void set_policy(QosPolicy p) { policy_ = p; }

  /// Registers (or refreshes) a slot's arbitration attributes. `band` is
  /// the strict-priority class (0 = highest), `weight` the WFQ share.
  void set_queue(std::size_t slot, std::uint8_t band, std::uint16_t weight);

  /// Picks the next ready slot to serve. `ready` is a bitmap of `words`
  /// 64-bit words covering `nslots` slots (bits at or above nslots are
  /// never set); `rr` is the round-robin / tie-break cursor, advanced past
  /// the pick on return. Returns kNone when nothing is ready.
  std::size_t pick(const std::uint64_t* ready, std::size_t words,
                   std::size_t nslots, std::size_t& rr);

  /// Charges the dequeued packet's wire bytes to `slot` (WFQ deficit).
  void on_dequeue(std::size_t slot, std::uint32_t bytes);

  /// WFQ replenish rounds completed (diagnostic).
  std::uint64_t wfq_rounds() const { return wfq_rounds_; }

 private:
  struct Slot {
    std::uint8_t band = 1;
    std::uint16_t weight = 1;
    std::int64_t deficit = 0;
  };

  /// First ready slot at or after `start`, cyclic; kNone if none.
  static std::size_t first_ready(const std::uint64_t* ready,
                                 std::size_t words, std::size_t nslots,
                                 std::size_t start);

  std::size_t pick_strict(const std::uint64_t* ready, std::size_t words,
                          std::size_t nslots, std::size_t& rr);
  std::size_t pick_wfq(const std::uint64_t* ready, std::size_t words,
                       std::size_t nslots, std::size_t& rr);

  Slot& slot_row(std::size_t slot);

  QosPolicy policy_ = QosPolicy::kFifo;
  std::vector<Slot> slots_;
  std::uint64_t wfq_rounds_ = 0;
};

}  // namespace mccl::sched
