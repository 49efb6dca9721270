// Discrete-event simulation engine.
//
// All substrates (fabric links, NIC DMA engines, DPA/CPU workers) schedule
// callbacks on one single-threaded engine. Ties are broken by insertion
// order, so runs are fully deterministic for a given seed.
//
// Hot-path design (see DESIGN.md "Simulator performance"):
//
//  * Zero-delay fast path. Events scheduled at exactly `now()` (completion
//    cascades: CQE delivery, worker pumps, token handlers) bypass the heap
//    entirely and go to a FIFO ring. This is order-exact: every heap entry
//    with `when == now` was scheduled *before* the clock reached `now` and
//    therefore carries a smaller seq than anything scheduled at `now`, so
//    "drain equal-time heap entries first, then the FIFO in push order" is
//    precisely the (when, seq) order. It is also the profitable case: a
//    min-key push is the most expensive heap insertion possible (sift-up
//    across the full height) and its pop is a full-depth sift-down.
//
//  * Monotone lanes. Fixed-delay event streams (switch forwarding latency,
//    RTO arms, heartbeat timers) produce nondecreasing `when` values as the
//    clock advances, so they are already sorted on arrival. Each push goes
//    to the lane whose back is the tightest fit <= when (patience-sorting
//    style: distinct delay classes settle into distinct lanes); pushes that
//    fit no lane go to the heap. Every lane is sorted by (when, seq) by
//    construction — `when` nondecreasing by the routing rule, seq by push
//    order — so dispatching the global (when, seq) minimum across lane
//    fronts and the heap top is an exact k-way merge of sorted runs: the
//    same total order, with O(1) push/pop for the common streams.
//
//  * The overflow queue proper is a 4-ary implicit heap of 16-byte packed
//    {when, seq<<24|slot} entries — shallower than a binary heap, four
//    entries per cache line. Ordering is exactly the old
//    `std::priority_queue` ordering: strict weak order on (when, seq), seq
//    assigned at schedule time. seq is unique, so the low slot bits never
//    influence a comparison and heap-shape differences cannot leak into
//    dispatch order.
//
//  * Callbacks live in a slot pool of InlineCallback cells recycled across
//    events, so steady-state scheduling touches no allocator at all. The
//    pool is chunked (stable addresses) so dispatch can invoke the callback
//    in place via InlineFn::consume() instead of paying a move per event.
//
//  * Reserved tickets. A caller that may not need an event at all (a switch
//    egress port whose release would find its queues empty) reserves the
//    event's place instead: reserve_at() uses up the seq a schedule_at()
//    would have taken and queues nothing. If the event turns out to be
//    needed before the dispatch order passes that place, schedule_ticket()
//    puts it there; otherwise it never exists. Every other event keeps its
//    seq, so the dispatch order of all remaining events is unchanged.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "src/common/check.hpp"
#include "src/common/ring.hpp"
#include "src/common/units.hpp"
#include "src/debug/validate.hpp"
#include "src/sim/callback.hpp"
#include "src/telemetry/trace.hpp"

namespace mccl::sim {

class Engine {
 public:
  using Callback = InlineCallback;

  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;
  ~Engine() { validate_quiescent("engine destruction"); }

  Time now() const { return now_; }

  /// Schedules `fn` to run `delay` picoseconds from now.
  template <typename F>
  void schedule(Time delay, F&& fn) {
    MCCL_CHECK(delay >= 0);
    schedule_at(now_ + delay, std::forward<F>(fn));
  }

  /// Schedules `fn` at absolute simulated time `when` (>= now).
  template <typename F>
  void schedule_at(Time when, F&& fn) {
    MCCL_CHECK_MSG(when >= now_, "cannot schedule into the past");
    const std::uint32_t slot = make_slot(std::forward<F>(fn));
    if (when == now_) {
      fifo_.push(slot);
      return;
    }
    const Entry e{when, (seq_++ << kSlotBits) | slot};
    // Tightest-fitting monotone lane, if any; empty lanes are weakest fit.
    int pick = -1;
    Time pick_back = kNoFit;
    for (int i = 0; i < kLanes; ++i) {
      if ((lane_live_ & (1u << i)) == 0) {
        if (pick == -1) pick = i;
        continue;
      }
      const Time back = lane_back_when_[i];
      if (back <= when && back > pick_back) {
        pick = i;
        pick_back = back;
      }
    }
    if (pick >= 0) {
      if ((lane_live_ & (1u << pick)) == 0) {
        lane_live_ |= 1u << pick;
        lane_head_[pick] = e;  // head cached outside the ring
      } else {
        lane_tail_[pick].push(e);
      }
      lane_back_when_[pick] = when;
      return;
    }
    heap_.push_back(e);
    sift_up(heap_.size() - 1);
  }

  /// A reserved place (when, seq) in the dispatch order; see reserve_at().
  struct Ticket {
    Time when = 0;
    std::uint64_t seq = 0;
  };

  /// Reserves the place in the dispatch order that `schedule_at(when, fn)`
  /// would give an event now, without scheduling anything. `when` must lie
  /// in the future: events due now take no seq (they go to the FIFO), so
  /// there is nothing to reserve.
  Ticket reserve_at(Time when) {
    MCCL_CHECK_MSG(when > now_, "tickets reserve a future place");
    if (when > horizon_) horizon_ = when;
    return Ticket{when, seq_++};
  }

  /// True once the dispatch order has gone past `t`: an event at the
  /// ticket's place would already have run. The event being dispatched
  /// decides; one taken from the zero-delay FIFO is later than every heap
  /// or lane entry due at now.
  bool passed(const Ticket& t) const {
    return t.when < now_ || (t.when == now_ && t.seq < cur_seq_);
  }

  /// Schedules `fn` at the ticket's reserved place, which must not have
  /// passed. Dispatch order is exactly that of a schedule_at() made when
  /// the ticket was reserved.
  template <typename F>
  void schedule_ticket(const Ticket& t, F&& fn) {
    MCCL_CHECK_MSG(!passed(t), "ticket already passed");
    // Always the heap: the entry's seq is older than the lanes' backs, so
    // appending it to a lane could break that lane's (when, seq) order.
    heap_.push_back(
        Entry{t.when, (t.seq << kSlotBits) | make_slot(std::forward<F>(fn))});
    sift_up(heap_.size() - 1);
  }

  /// Runs events until the queue drains. Returns the number of events run.
  /// The clock ends where the last event would have left it had every
  /// reserved ticket been scheduled (see drained()).
  std::uint64_t run() {
    std::uint64_t n = 0;
    while (!empty()) {
      step();
      ++n;
    }
    drained();
    return n;
  }

  /// Runs events with timestamps <= `deadline`; the clock stops at the later
  /// of the last event and `deadline`.
  std::uint64_t run_until(Time deadline) {
    std::uint64_t n = 0;
    while (!empty() && next_when() <= deadline) {
      step();
      ++n;
    }
    if (now_ <= deadline) {
      now_ = deadline;
      cur_seq_ = kAfterAll;  // everything due by the deadline has run
    }
    return n;
  }

  /// Runs events until `done()` becomes true (checked before each event) or
  /// the queue drains. Returns true iff the predicate was satisfied.
  template <typename Pred>
  bool run_while_pending(Pred&& done) {
    while (!empty()) {
      if (done()) return true;
      step();
    }
    drained();
    return done();
  }

  bool empty() const {
    return heap_.empty() && fifo_.empty() && lane_live_ == 0;
  }
  std::size_t pending() const {
    std::size_t n = heap_.size() + fifo_.size();
    for (int i = 0; i < kLanes; ++i)
      if (lane_live_ & (1u << i)) n += 1 + lane_tail_[i].size();
    return n;
  }
  std::uint64_t dispatched() const { return dispatched_; }

  /// Number of callback cells ever created; once the simulation reaches its
  /// steady-state event population this stops growing (slots are recycled).
  /// Exposed for tests and diagnostics.
  std::size_t event_pool_capacity() const { return pool_size_; }

  /// Callback cells currently held by queued events (slot-pool leak
  /// accounting: every scheduled event owns exactly one cell until it
  /// dispatches).
  std::size_t slots_in_use() const { return pool_size_ - free_slots_.size(); }

  /// Determinism auditor (MCCL_VALIDATE builds): a running digest of the
  /// dispatched event stream — every (dispatch time, callback slot) pair is
  /// folded in, in dispatch order. Two runs of an identical configuration
  /// must agree; compare across a double run to prove the engine replayed
  /// the same event stream. Constant (never folded into) in regular builds —
  /// the hot path pays nothing for the feature it does not use.
  std::uint64_t stream_hash() const { return stream_hash_; }

  /// Slot-pool leak audit: with no events pending, every callback cell must
  /// be back on the free list. Returns true when clean (trivially true with
  /// events still queued — their cells are legitimately out). Reports
  /// "engine.slot_leak" in validate builds.
  bool validate_quiescent(const char* ctx) const {
    if (!empty() || slots_in_use() == 0) return true;
    MCCL_VALIDATE_THAT(false, "engine.slot_leak",
                       "%zu callback slot(s) unreturned at %s (pool %zu)",
                       slots_in_use(), ctx, pool_size_);
    return false;
  }

  /// Test hook (validator coverage): leaks one recycled callback cell so the
  /// quiescent audit has something to find. Harmless otherwise — the cell
  /// is simply never handed out again.
  void test_leak_slot() {
    if (!free_slots_.empty()) free_slots_.pop_back();
  }

  /// Sampled dispatch tracing: every `sample` dispatched events the engine
  /// emits one span covering the window plus a pending-queue counter on
  /// `track`. Sampling (rather than per-event spans) because sim time does
  /// not advance inside a callback — per-event spans would be zero-width
  /// noise at enormous volume.
  void set_tracer(telemetry::Tracer* tracer, telemetry::TrackId track,
                  std::uint64_t sample = 8192) {
    tracer_ = tracer;
    trace_track_ = track;
    trace_sample_ = sample == 0 ? 1 : sample;
    trace_countdown_ = trace_sample_;
  }

 private:
  /// Low bits of the packed key hold the pool slot; everything above is the
  /// schedule-time seq. 2^24 concurrent events is > 1 GiB of callback cells
  /// — growth past it is checked, not silently wrapped.
  static constexpr std::uint32_t kSlotBits = 24;
  static constexpr std::uint32_t kSlotMask = (1u << kSlotBits) - 1;

  /// Heap entry. The callback is *not* stored here: sift operations shuffle
  /// entries around, and moving 16 trivially-copyable bytes beats moving a
  /// 72-byte type-erased callable every swap.
  struct Entry {
    Time when;
    std::uint64_t key;  // (seq << kSlotBits) | slot
  };

  static bool before(const Entry& a, const Entry& b) {
    // seq is unique, so when `when` ties the key comparison is decided in
    // the seq bits — the slot bits are never reached.
    if (a.when != b.when) return a.when < b.when;
    return a.key < b.key;
  }

  static constexpr std::size_t kArity = 4;
  static constexpr int kLanes = 8;
  static constexpr int kSrcHeap = -1;
  static constexpr Time kNoFit = std::numeric_limits<Time>::min();
  static constexpr Time kNever = std::numeric_limits<Time>::max();
  /// cur_seq_ of a FIFO dispatch, before the first dispatch and after a
  /// drain or deadline: later than every seq at the current time.
  static constexpr std::uint64_t kAfterAll =
      std::numeric_limits<std::uint64_t>::max();

  /// The queue ran dry. Unscheduled tickets stand for events that would
  /// have run (doing nothing) before the drain, so the clock moves to the
  /// latest of them, where those events would have left it.
  void drained() {
    if (horizon_ > now_) now_ = horizon_;
    cur_seq_ = kAfterAll;
  }

  // --- Chunked callback pool (stable addresses) ---------------------------
  static constexpr std::uint32_t kBlockBits = 10;  // 1024 cells per block
  static constexpr std::uint32_t kBlockSize = 1u << kBlockBits;

  InlineCallback& cell(std::uint32_t slot) {
    return blocks_[slot >> kBlockBits][slot & (kBlockSize - 1)];
  }

  template <typename F>
  std::uint32_t make_slot(F&& fn) {
    if (free_slots_.empty()) {
      const std::uint32_t slot = static_cast<std::uint32_t>(pool_size_);
      MCCL_CHECK(slot <= kSlotMask);
      if ((slot & (kBlockSize - 1)) == 0)
        blocks_.push_back(std::make_unique<InlineCallback[]>(kBlockSize));
      ++pool_size_;
      cell(slot) = InlineCallback(std::forward<F>(fn));
      return slot;
    }
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    cell(slot) = InlineCallback(std::forward<F>(fn));
    return slot;
  }

  void sift_up(std::size_t i) {
    const Entry v = heap_[i];
    while (i > 0) {
      const std::size_t parent = (i - 1) / kArity;
      if (!before(v, heap_[parent])) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = v;
  }

  void sift_down(std::size_t i) {
    const std::size_t n = heap_.size();
    const Entry v = heap_[i];
    for (;;) {
      const std::size_t first = kArity * i + 1;
      if (first >= n) break;
      const std::size_t last = first + kArity < n ? first + kArity : n;
      std::size_t best = first;
      for (std::size_t c = first + 1; c < last; ++c)
        if (before(heap_[c], heap_[best])) best = c;
      if (!before(heap_[best], v)) break;
      heap_[i] = heap_[best];
      i = best;
    }
    heap_[i] = v;
  }

  /// Timestamp of the next event; callers must check !empty() first.
  Time next_when() const {
    if (!fifo_.empty()) return now_;  // due immediately by construction
    Time best = kNever;
    if (!heap_.empty()) best = heap_.front().when;
    for (int i = 0; i < kLanes; ++i)
      if ((lane_live_ & (1u << i)) != 0 && lane_head_[i].when < best)
        best = lane_head_[i].when;
    return best;
  }

  // mccl-lint: begin-hot engine-dispatch
  void step() {
    // Global (when, seq) minimum across the heap top and the lane heads —
    // a k-way merge of sorted runs, so dispatch order is the total order.
    // Lane heads live in one contiguous array (a cache line), not in the
    // rings.
    int src = kSrcHeap;
    const Entry* best = heap_.empty() ? nullptr : &heap_.front();
    for (int i = 0; i < kLanes; ++i) {
      if ((lane_live_ & (1u << i)) == 0) continue;
      const Entry& e = lane_head_[i];
      if (best == nullptr || before(e, *best)) {
        best = &e;
        src = i;
      }
    }
    std::uint32_t slot;
    // Heap/lane entries at `when == now_` always precede FIFO entries: they
    // were scheduled before the clock reached now_, hence with smaller seq.
    if (!fifo_.empty() && (best == nullptr || best->when > now_)) {
      slot = fifo_.pop();
      cur_seq_ = kAfterAll;
    } else {
      const Entry top = *best;
      // Monotonic-dispatch invariant: the k-way merge must emit non-FIFO
      // entries in strictly increasing (when, seq) order — a regression
      // here silently reorders the simulation.
      if constexpr (debug::kValidate) {
        MCCL_VALIDATE_THAT(
            top.when > vld_last_when_ ||
                (top.when == vld_last_when_ && top.key > vld_last_key_),
            "engine.dispatch_order",
            "dispatch (when=%lld key=%llu) after (when=%lld key=%llu)",
            static_cast<long long>(top.when),
            static_cast<unsigned long long>(top.key),
            static_cast<long long>(vld_last_when_),
            static_cast<unsigned long long>(vld_last_key_));
        vld_last_when_ = top.when;
        vld_last_key_ = top.key;
      }
      if (src == kSrcHeap) {
        const std::size_t n = heap_.size() - 1;
        if (n > 0) heap_[0] = heap_[n];
        heap_.pop_back();
        if (n > 1) sift_down(0);
      } else if (!lane_tail_[src].empty()) {
        lane_head_[src] = lane_tail_[src].pop();
      } else {
        lane_live_ &= ~(1u << src);
      }
      MCCL_CHECK(top.when >= now_);
      now_ = top.when;
      cur_seq_ = top.key >> kSlotBits;
      slot = static_cast<std::uint32_t>(top.key) & kSlotMask;
    }
    ++dispatched_;
    // Determinism auditor: fold (time, slot) into the stream digest. The
    // slot id is deterministic (free-list recycling order is part of the
    // simulation), so the digest pins the exact dispatch sequence.
    if constexpr (debug::kValidate)
      stream_hash_ = debug::mix(
          stream_hash_, (static_cast<std::uint64_t>(now_) << 20) ^ slot);
    // Countdown instead of `dispatched_ % trace_sample_`: a 64-bit divide
    // per event is measurable at tens of millions of events per second.
    if (--trace_countdown_ == 0) {
      trace_countdown_ = trace_sample_;
      if (tracer_ != nullptr && tracer_->enabled()) {
        tracer_->complete(trace_track_, "dispatch", trace_window_start_, now_,
                          "sim");
        tracer_->counter(trace_track_, "pending_events", now_,
                         static_cast<double>(pending() + 1));
        trace_window_start_ = now_;
      }
    }
    // Invoke in place (pool cells never move), then recycle the slot. The
    // callback may schedule events — growth adds blocks without relocating
    // existing cells, and this slot is not in free_slots_ until after it
    // finishes, so the running cell cannot be reused under itself.
    cell(slot).consume();
    free_slots_.push_back(slot);
  }
  // mccl-lint: end-hot

  Time now_ = 0;
  std::uint64_t seq_ = 0;
  // seq of the event being (or last) dispatched, or kAfterAll: with now_,
  // the place passed() compares tickets against.
  std::uint64_t cur_seq_ = kAfterAll;
  Time horizon_ = 0;  // latest reserved ticket
  std::uint64_t dispatched_ = 0;
  std::vector<Entry> heap_;
  Ring<std::uint32_t> fifo_;  // events due exactly now, in schedule order
  // Sorted monotone runs (fixed-delay streams): head entries cached in a
  // contiguous array for the per-step min scan, tails in rings.
  Entry lane_head_[kLanes] = {};
  Time lane_back_when_[kLanes] = {};
  std::uint32_t lane_live_ = 0;  // bit i: lane i non-empty
  Ring<Entry> lane_tail_[kLanes];
  std::vector<std::unique_ptr<InlineCallback[]>> blocks_;  // slot pool
  std::size_t pool_size_ = 0;
  std::vector<std::uint32_t> free_slots_;  // recycled pool slots
  // Validator-plane state (updated only in MCCL_VALIDATE builds).
  std::uint64_t stream_hash_ = debug::kHashSeed;
  Time vld_last_when_ = std::numeric_limits<Time>::min();
  std::uint64_t vld_last_key_ = 0;
  telemetry::Tracer* tracer_ = nullptr;
  telemetry::TrackId trace_track_ = 0;
  std::uint64_t trace_sample_ = 8192;
  std::uint64_t trace_countdown_ = 8192;
  Time trace_window_start_ = 0;
};

}  // namespace mccl::sim
