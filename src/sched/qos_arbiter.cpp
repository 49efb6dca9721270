#include "src/sched/qos_arbiter.hpp"

namespace mccl::sched {

QosArbiter::Slot& QosArbiter::slot_row(std::size_t slot) {
  if (slot >= slots_.size()) slots_.resize(slot + 1);
  return slots_[slot];
}

void QosArbiter::set_queue(std::size_t slot, std::uint8_t band,
                           std::uint16_t weight) {
  Slot& s = slot_row(slot);
  s.band = band;
  s.weight = weight == 0 ? 1 : weight;
}

std::size_t QosArbiter::first_ready(const std::uint64_t* ready,
                                    std::size_t words, std::size_t nslots,
                                    std::size_t start) {
  if (nslots == 0) return kNone;
  if (start >= nslots) start -= nslots;  // cursor is at most nslots
  std::size_t w = start >> 6;
  std::uint64_t bits = (ready[w] >> (start & 63)) << (start & 63);
  for (;;) {
    if (bits != 0)
      return (w << 6) + static_cast<std::size_t>(__builtin_ctzll(bits));
    if (++w == words) break;
    bits = ready[w];
  }
  const std::size_t stop = start >> 6;
  for (w = 0; w <= stop; ++w) {
    bits = ready[w];
    if (w == stop) bits &= (std::uint64_t{1} << (start & 63)) - 1;
    if (bits != 0)
      return (w << 6) + static_cast<std::size_t>(__builtin_ctzll(bits));
  }
  return kNone;
}

std::size_t QosArbiter::pick(const std::uint64_t* ready, std::size_t words,
                             std::size_t nslots, std::size_t& rr) {
  switch (policy_) {
    case QosPolicy::kFifo: {
      const std::size_t s = first_ready(ready, words, nslots, rr);
      if (s != kNone) rr = s + 1;
      return s;
    }
    case QosPolicy::kStrict:
      return pick_strict(ready, words, nslots, rr);
    case QosPolicy::kWfq:
      return pick_wfq(ready, words, nslots, rr);
  }
  return kNone;
}

std::size_t QosArbiter::pick_strict(const std::uint64_t* ready,
                                    std::size_t words, std::size_t nslots,
                                    std::size_t& rr) {
  // Pass 1: lowest band among ready slots. Slots the NIC created before any
  // set_queue call keep the default band 1 (data).
  std::uint32_t best = ~0u;
  for (std::size_t w = 0; w < words; ++w) {
    std::uint64_t bits = ready[w];
    while (bits != 0) {
      const std::size_t s =
          (w << 6) + static_cast<std::size_t>(__builtin_ctzll(bits));
      bits &= bits - 1;
      const std::uint32_t band = s < slots_.size() ? slots_[s].band : 1u;
      if (band < best) best = band;
    }
  }
  if (best == ~0u) return kNone;
  // Pass 2: round-robin among the winning band, cyclically from rr.
  std::size_t cursor = rr;
  for (;;) {
    const std::size_t s = first_ready(ready, words, nslots, cursor);
    // first_ready cannot fail here: pass 1 saw a ready slot.
    const std::uint32_t band = s < slots_.size() ? slots_[s].band : 1u;
    if (band == best) {
      rr = s + 1;
      return s;
    }
    cursor = s + 1;
  }
}

std::size_t QosArbiter::pick_wfq(const std::uint64_t* ready,
                                 std::size_t words, std::size_t nslots,
                                 std::size_t& rr) {
  // Deficit round robin: serve the first ready slot (cyclic from rr) whose
  // deficit is positive; when no ready slot has credit left, start a new
  // round — every ready slot's deficit resets to weight * quantum. The
  // reset (rather than +=) keeps an idle-then-bursty queue from hoarding
  // unbounded credit and then monopolizing the link.
  for (int round = 0; round < 2; ++round) {
    std::size_t cursor = rr;
    std::size_t remaining = nslots;  // each slot visited at most once
    while (remaining-- > 0) {
      const std::size_t s = first_ready(ready, words, nslots, cursor);
      if (s == kNone) return kNone;
      const std::int64_t deficit =
          s < slots_.size() ? slots_[s].deficit : std::int64_t{0};
      if (deficit > 0) {
        rr = s + 1;
        return s;
      }
      cursor = s + 1;
      if (cursor >= nslots) cursor = 0;
      if (cursor == rr) break;  // wrapped the whole ring
    }
    if (round == 0) {
      ++wfq_rounds_;
      for (std::size_t w = 0; w < words; ++w) {
        std::uint64_t bits = ready[w];
        while (bits != 0) {
          const std::size_t s =
              (w << 6) + static_cast<std::size_t>(__builtin_ctzll(bits));
          bits &= bits - 1;
          Slot& row = slot_row(s);
          row.deficit = static_cast<std::int64_t>(row.weight) * kWfqQuantum;
        }
      }
    }
  }
  // Replenish gave every ready slot positive credit, so the second round
  // always returned above — unless nothing was ready at all.
  return kNone;
}

void QosArbiter::on_dequeue(std::size_t slot, std::uint32_t bytes) {
  Slot& s = slot_row(slot);
  s.deficit -= static_cast<std::int64_t>(bytes);
}

}  // namespace mccl::sched
