// Discrete-event simulation engine.
//
// All substrates (fabric links, NIC DMA engines, DPA/CPU workers) schedule
// callbacks on one single-threaded engine. Ties are broken by insertion
// order, so runs are fully deterministic for a given seed.
//
// Hot-path design (see DESIGN.md "Simulator performance"):
//
//  * One queue: a radix heap (Ahuja, Mehlhorn, Orlin, Tarjan 1990) of
//    16-byte packed {when, seq<<24|slot} entries. Every event takes a seq
//    when it is scheduled, zero-delay ones included, and dispatch order is
//    exactly (when, seq). The heap relies on the engine's one invariant:
//    nothing is scheduled before the event being dispatched. An entry sits
//    in bucket bit_width(when ^ base_), where base_ is the `when` of the
//    last dispatch, and a 64-bit mask marks the non-empty buckets. When
//    bucket 0 runs dry, base_ moves to the smallest `when` of the lowest
//    non-empty bucket, whose entries then all fall into lower buckets. An
//    entry moves down at most once per bit, so push and pop are amortized
//    O(log delay) and most are one vector append.
//
//  * Only a dispatch moves base_. Peeking at the next event (run_until)
//    computes the minimum without moving it, because a later schedule_at
//    may still land between base_ and that minimum.
//
//  * Bucket 0 holds the entries with when == base_, sorted by seq and read
//    from a head index. A schedule_at() due now appends (its seq is the
//    newest); a redistribution sorts what lands in bucket 0, and a ticket
//    due now is insertion-sorted into place.
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

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "src/common/check.hpp"
#include "src/common/units.hpp"
#include "src/debug/validate.hpp"
#include "src/sim/callback.hpp"
#include "src/telemetry/trace.hpp"

namespace mccl::sim {

class Engine {
 public:
  using Callback = InlineCallback;

  /// Low bits of the packed key hold the pool slot; everything above is the
  /// schedule-time seq. 2^24 concurrent events is > 1 GiB of callback cells
  /// — growth past it is checked, not silently wrapped.
  static constexpr std::uint32_t kSlotBits = 24;
  /// Seqs are 40 bits wide; handing out one past the last is checked, since
  /// a wrapped seq would sort new events ahead of old ones.
  static constexpr std::uint64_t kSeqLimit = std::uint64_t{1}
                                             << (64 - kSlotBits);

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
    const std::uint64_t seq = take_seq();
    // The newest seq sorts last, so appending keeps bucket 0 in order.
    push(when, (seq << kSlotBits) | make_slot(std::forward<F>(fn)));
  }

  /// A reserved place (when, seq) in the dispatch order; see reserve_at().
  struct Ticket {
    Time when = 0;
    std::uint64_t seq = 0;
  };

  /// Reserves the place in the dispatch order that `schedule_at(when, fn)`
  /// would give an event now, without scheduling anything. `when` must lie
  /// in the future: a ticket due now would already be the newest place at
  /// now, which a plain schedule_at() takes just as well.
  Ticket reserve_at(Time when) {
    MCCL_CHECK_MSG(when > now_, "tickets reserve a future place");
    if (when > horizon_) horizon_ = when;
    return Ticket{when, take_seq()};
  }

  /// True once the dispatch order has gone past `t`: an event at the
  /// ticket's place would already have run. The (when, seq) of the event
  /// being dispatched decides.
  bool passed(const Ticket& t) const {
    return t.when < now_ || (t.when == now_ && t.seq < cur_seq_);
  }

  /// Schedules `fn` at the ticket's reserved place, which must not have
  /// passed. Dispatch order is exactly that of a schedule_at() made when
  /// the ticket was reserved.
  template <typename F>
  void schedule_ticket(const Ticket& t, F&& fn) {
    MCCL_CHECK_MSG(!passed(t), "ticket already passed");
    const std::uint64_t key =
        (t.seq << kSlotBits) | make_slot(std::forward<F>(fn));
    push(t.when, key);
    if (t.when != base_) return;
    // Due now: the ticket's seq is older than entries scheduled since it
    // was reserved, so sort it into bucket 0's unread part.
    std::vector<Entry>& b0 = bucket_[0];
    std::size_t i = b0.size() - 1;
    for (; i > head_ && b0[i - 1].key > key; --i) b0[i] = b0[i - 1];
    b0[i] = Entry{t.when, key};
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

  bool empty() const { return live_ == 0; }
  std::size_t pending() const {
    std::size_t n = 0;
    for (const std::vector<Entry>& b : bucket_) n += b.size();
    return n - head_;
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

  /// Test hook (seq-space check): the next seq handed out will be `seq`.
  /// Only for an engine that has scheduled nothing yet; seqs must grow.
  void test_start_seq_at(std::uint64_t seq) { seq_ = seq; }

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
  static constexpr std::uint32_t kSlotMask = (1u << kSlotBits) - 1;

  /// Queue entry. The callback is *not* stored here: redistribution moves
  /// entries between buckets, and moving 16 trivially-copyable bytes beats
  /// moving a 72-byte type-erased callable.
  struct Entry {
    Time when;
    std::uint64_t key;  // (seq << kSlotBits) | slot
  };

  /// `when` and base_ are non-negative Times, so their XOR has at most 63
  /// significant bits and bit_width() is at most 63.
  static constexpr int kBuckets = 64;
  /// cur_seq_ before the first dispatch and after a drain or deadline:
  /// later than every seq at the current time.
  static constexpr std::uint64_t kAfterAll =
      std::numeric_limits<std::uint64_t>::max();

  std::uint64_t take_seq() {
    MCCL_CHECK_MSG(seq_ < kSeqLimit,
                   "engine seq space (2^40 schedules) exhausted");
    return seq_++;
  }

  void push(Time when, std::uint64_t key) {
    const int b = std::bit_width(static_cast<std::uint64_t>(when ^ base_));
    bucket_[b].push_back(Entry{when, key});
    live_ |= std::uint64_t{1} << b;
  }

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

  /// Smallest `when` in the lowest non-empty bucket; needs !empty().
  Time lowest_when() const {
    const std::vector<Entry>& b = bucket_[std::countr_zero(live_)];
    Time lo = b.front().when;
    for (const Entry& e : b) lo = std::min(lo, e.when);
    return lo;
  }

  /// Timestamp of the next event; callers must check !empty() first. Does
  /// not move base_ (see the header comment).
  Time next_when() const { return (live_ & 1) != 0 ? base_ : lowest_when(); }

  /// Bucket 0 is empty: moves base_ to the smallest `when` of the lowest
  /// non-empty bucket and redistributes that bucket. Entries there agree
  /// with the new base above their bucket's bit, so each lands lower.
  void refill() {
    const int i = std::countr_zero(live_);
    std::vector<Entry>& src = bucket_[i];
    base_ = lowest_when();
    live_ &= ~(std::uint64_t{1} << i);
    for (const Entry& e : src) push(e.when, e.key);
    src.clear();
    std::vector<Entry>& b0 = bucket_[0];
    if (b0.size() > 1)
      std::sort(b0.begin(), b0.end(),
                [](const Entry& a, const Entry& b) { return a.key < b.key; });
  }

  // mccl-lint: begin-hot engine-dispatch
  void step() {
    std::vector<Entry>& b0 = bucket_[0];
    if ((live_ & 1) == 0) refill();
    const Entry top = b0[head_];
    if (++head_ == b0.size()) {
      // Drained: reset before the callback appends events due now.
      b0.clear();
      head_ = 0;
      live_ &= ~std::uint64_t{1};
    }
    // Monotonic-dispatch invariant: entries must leave in strictly
    // increasing (when, seq) order — a regression here silently reorders
    // the simulation.
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
    MCCL_CHECK(top.when >= now_);
    now_ = top.when;
    cur_seq_ = top.key >> kSlotBits;
    const std::uint32_t slot = static_cast<std::uint32_t>(top.key) & kSlotMask;
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
  // Radix heap: bucket b holds entries with bit_width(when ^ base_) == b;
  // bit b of live_ is set iff bucket b has unread entries. Bucket 0 is read
  // from head_ and kept sorted by key.
  Time base_ = 0;  // `when` of the event being (or last) dispatched
  std::uint64_t live_ = 0;
  std::size_t head_ = 0;
  std::vector<Entry> bucket_[kBuckets];
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
