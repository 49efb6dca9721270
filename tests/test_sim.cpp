// Unit tests for the discrete-event engine and FIFO resources.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "src/common/rng.hpp"
#include "src/debug/validate.hpp"
#include "src/sim/engine.hpp"
#include "src/sim/resource.hpp"

namespace mccl::sim {
namespace {

TEST(Engine, RunsEventsInTimeOrder) {
  Engine e;
  std::vector<int> order;
  e.schedule(30, [&] { order.push_back(3); });
  e.schedule(10, [&] { order.push_back(1); });
  e.schedule(20, [&] { order.push_back(2); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(e.now(), 30);
}

TEST(Engine, TiesBreakByInsertionOrder) {
  Engine e;
  std::vector<int> order;
  e.schedule(5, [&] { order.push_back(1); });
  e.schedule(5, [&] { order.push_back(2); });
  e.schedule(5, [&] { order.push_back(3); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Engine, CallbacksCanScheduleMoreEvents) {
  Engine e;
  int fired = 0;
  e.schedule(1, [&] {
    ++fired;
    e.schedule(1, [&] { ++fired; });
  });
  const auto n = e.run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(n, 2u);
  EXPECT_EQ(e.now(), 2);
}

TEST(Engine, RunUntilStopsAtDeadline) {
  Engine e;
  int fired = 0;
  e.schedule(10, [&] { ++fired; });
  e.schedule(100, [&] { ++fired; });
  e.run_until(50);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(e.now(), 50);
  EXPECT_EQ(e.pending(), 1u);
  e.run();
  EXPECT_EQ(fired, 2);
}

TEST(Engine, RunWhilePendingStopsOnPredicate) {
  Engine e;
  int fired = 0;
  for (int i = 1; i <= 10; ++i) e.schedule(i, [&] { ++fired; });
  const bool done = e.run_while_pending([&] { return fired >= 4; });
  EXPECT_TRUE(done);
  EXPECT_EQ(fired, 4);
}

TEST(Engine, RunWhilePendingDrainsIfPredicateNeverTrue) {
  Engine e;
  int fired = 0;
  for (int i = 1; i <= 3; ++i) e.schedule(i, [&] { ++fired; });
  const bool done = e.run_while_pending([&] { return false; });
  EXPECT_FALSE(done);
  EXPECT_EQ(fired, 3);
}

TEST(Engine, TiesStayStableAcrossScheduleSources) {
  // Equal-timestamp events must fire in global schedule order no matter
  // how they were scheduled: before the clock reached their time, at `now`
  // (zero delay), or with a fixed positive delay from a running event.
  // Interleaves dispatch with scheduling to cover all three.
  Engine e;
  std::vector<int> order;
  e.schedule(5, [&] { order.push_back(1); });
  e.schedule(5, [&] {
    order.push_back(2);
    // Scheduled while dispatching t=5: same timestamp, but strictly after
    // every t=5 event scheduled before the clock got here.
    e.schedule(0, [&] { order.push_back(6); });
    e.schedule(0, [&] { order.push_back(7); });
    // A t=12 tie created during dispatch loses to the one scheduled up
    // front (insertion order is global, not per-queue).
    e.schedule(7, [&] { order.push_back(9); });
  });
  e.schedule(5, [&] { order.push_back(3); });
  e.schedule(5, [&] { order.push_back(4); });
  e.schedule(5, [&] { order.push_back(5); });
  e.schedule(12, [&] { order.push_back(8); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5, 6, 7, 8, 9}));
}

TEST(Engine, CallbackPoolIsRecycledAfterDrain) {
  Engine e;
  int fired = 0;
  for (int i = 0; i < 100; ++i) e.schedule(i, [&] { ++fired; });
  e.run();
  const std::size_t cap = e.event_pool_capacity();
  EXPECT_GE(cap, 100u);
  // Every slot was returned on dispatch: a second wave of the same size
  // reuses the freed cells instead of growing the pool.
  for (int i = 0; i < 100; ++i) e.schedule(i, [&] { ++fired; });
  e.run();
  EXPECT_EQ(fired, 200);
  EXPECT_EQ(e.event_pool_capacity(), cap);
}

TEST(Engine, ScheduleAtAbsoluteTime) {
  Engine e;
  Time seen = -1;
  e.schedule_at(12345, [&] { seen = e.now(); });
  e.run();
  EXPECT_EQ(seen, 12345);
}

TEST(Engine, TicketFilledLateKeepsItsReservedPlace) {
  // Two runs of one script: `reference` schedules X and Y when their places
  // are reserved, `ticketed` reserves tickets and fills them later, from
  // events dispatched before the places pass. Both must dispatch in the same
  // order, with X tied at t=10 against events scheduled up front, from a
  // t=5 event and at t=10 itself, and Y tied against events at t=20.
  const auto run = [](bool tickets) {
    Engine e;
    std::vector<char> order;
    const auto rec = [&order](char c) {
      return [&order, c] { order.push_back(c); };
    };
    Engine::Ticket x, y;
    e.schedule_at(10, [&] {
      order.push_back('A');
      e.schedule(0, rec('F'));  // due now: newest seq, after every t=10 one
    });
    if (tickets)
      x = e.reserve_at(10);
    else
      e.schedule_at(10, rec('X'));
    e.schedule_at(10, rec('B'));
    e.schedule_at(20, rec('D'));
    if (tickets)
      y = e.reserve_at(20);
    else
      e.schedule_at(20, rec('Y'));
    e.schedule_at(20, rec('E'));
    e.schedule_at(5, [&] {
      e.schedule(5, rec('C'));  // t=10, later seq than X
      if (!tickets) return;
      EXPECT_FALSE(e.passed(x));
      e.schedule_ticket(x, rec('X'));
    });
    e.schedule_at(15, [&] {
      if (!tickets) return;
      EXPECT_FALSE(e.passed(y));
      e.schedule_ticket(y, rec('Y'));
    });
    debug::ViolationTrap trap;  // engine.dispatch_order must stay clean
    e.run();
    EXPECT_TRUE(trap.empty());
    EXPECT_EQ(e.now(), 20);
    return order;
  };
  const std::vector<char> want{'A', 'X', 'B', 'C', 'F', 'D', 'Y', 'E'};
  EXPECT_EQ(run(false), want);
  EXPECT_EQ(run(true), want);
}

TEST(Engine, PassedComparesWithTheEventBeingDispatched) {
  Engine e;
  const Engine::Ticket early = e.reserve_at(10);
  Engine::Ticket mid, late;
  std::vector<bool> seen;
  e.schedule_at(10, [&] {
    seen.push_back(e.passed(early));  // true: reserved before this event
    seen.push_back(e.passed(mid));    // false: reserved after it
    e.schedule(0, [&] {
      // Scheduled at now: its seq is newer than every ticket due now.
      seen.push_back(e.passed(mid));
      seen.push_back(e.passed(late));
    });
  });
  mid = e.reserve_at(10);
  late = e.reserve_at(30);
  e.schedule_at(10, [&] { seen.push_back(e.passed(mid)); });
  EXPECT_FALSE(e.passed(early));  // not yet dispatching at all
  e.run();
  EXPECT_EQ(seen, (std::vector<bool>{true, false, true, true, false}));
  // Draining moves the clock to the last ticket, as its event would have.
  EXPECT_EQ(e.now(), 30);
  EXPECT_TRUE(e.passed(late));
  EXPECT_EQ(e.dispatched(), 3u);
}

TEST(Engine, RunUntilPassesEveryTicketUpToTheDeadline) {
  Engine e;
  const Engine::Ticket at_deadline = e.reserve_at(50);
  const Engine::Ticket after = e.reserve_at(51);
  e.schedule_at(50, [] {});
  e.schedule_at(40, [] {});
  e.run_until(50);
  EXPECT_TRUE(e.passed(at_deadline));
  EXPECT_FALSE(e.passed(after));
  EXPECT_EQ(e.now(), 50);
}

/// Randomized differential check of reserve_at/passed/schedule_ticket: one
/// seeded event script runs as `reference` (every reserved place is a real
/// event, a no-op unless filled) and as `ticketed` (places are tickets,
/// scheduled only when filled). Every event records its id, the time, and
/// which open places have passed; fills go only to places not yet passed.
/// The two traces must agree event for event.
class TicketScript {
 public:
  explicit TicketScript(bool tickets) : tickets_(tickets), rng_(20261017) {}

  std::vector<std::int64_t> run() {
    for (int i = 0; i < 8; ++i) spawn(static_cast<Time>(rng_.below(4)));
    for (int i = 0; i < 4; ++i) reserve(1 + static_cast<Time>(rng_.below(6)));
    engine_.run();
    trace_.push_back(engine_.now());
    return trace_;
  }
  const Engine& engine() const { return engine_; }

 private:
  struct Place {
    Engine::Ticket ticket;  // ticketed run
    bool fired = false;     // reference run: its event has dispatched
    bool filled = false;
    int fill_id = 0;
  };

  void spawn(Time delay) {
    const int id = next_id_++;
    engine_.schedule(delay, [this, id] { on_event(id); });
  }

  void reserve(Time delay) {
    const std::size_t k = places_.size();
    places_.emplace_back();
    open_.push_back(k);
    if (tickets_) {
      places_[k].ticket = engine_.reserve_at(engine_.now() + delay);
      return;
    }
    engine_.schedule(delay, [this, k] {
      places_[k].fired = true;
      if (places_[k].filled) on_event(places_[k].fill_id);
    });
  }

  bool passed(std::size_t k) const {
    return tickets_ ? engine_.passed(places_[k].ticket) : places_[k].fired;
  }

  void on_event(int id) {
    trace_.push_back(id);
    trace_.push_back(engine_.now());
    for (std::size_t i = 0; i < open_.size();) {
      if (passed(open_[i])) {
        trace_.push_back(-1 - static_cast<std::int64_t>(open_[i]));
        open_[i] = open_.back();
        open_.pop_back();
      } else {
        ++i;
      }
    }
    if (next_id_ > 4000) return;
    static constexpr Time kDelays[] = {0, 0, 1, 2, 3, 5, 8};
    const std::uint64_t children = rng_.below(3);
    for (std::uint64_t c = 0; c < children; ++c)
      spawn(kDelays[rng_.below(std::size(kDelays))]);
    if (rng_.below(3) == 0) reserve(kDelays[2 + rng_.below(5)]);
    if (!open_.empty() && rng_.below(2) == 0) {
      const std::size_t i = rng_.below(open_.size());
      const std::size_t k = open_[i];
      open_[i] = open_.back();
      open_.pop_back();
      Place& p = places_[k];
      p.filled = true;
      p.fill_id = next_id_++;
      if (tickets_) {
        const int fid = p.fill_id;
        engine_.schedule_ticket(p.ticket, [this, fid] { on_event(fid); });
      }
    }
  }

  bool tickets_;
  Rng rng_;
  Engine engine_;
  std::vector<Place> places_;
  std::vector<std::size_t> open_;  // reserved, neither filled nor passed
  std::vector<std::int64_t> trace_;
  int next_id_ = 0;
};

TEST(Engine, TicketsMatchEagerSchedulingUnderRandomTies) {
  debug::ViolationTrap trap;  // engine.dispatch_order must stay clean
  TicketScript reference(false);
  TicketScript ticketed(true);
  const std::vector<std::int64_t> want = reference.run();
  EXPECT_EQ(ticketed.run(), want);
  EXPECT_TRUE(trap.empty());
  // The unfilled places never became events.
  EXPECT_LT(ticketed.engine().dispatched(), reference.engine().dispatched());
  EXPECT_GT(want.size(), 4000u);
}

TEST(Engine, RunUntilThenScheduleBelowTheNextEvent) {
  // run_until(d) looks at the event at d+10 and stops short of it. An event
  // scheduled afterwards, from outside, at d+5 lies between the last
  // dispatch and that event and must still run first.
  constexpr Time d = 1000;
  Engine e;
  std::vector<char> order;
  e.schedule_at(100, [&] { order.push_back('A'); });
  e.schedule_at(d + 10, [&] { order.push_back('B'); });
  debug::ViolationTrap trap;  // engine.dispatch_order must stay clean
  e.run_until(d);
  EXPECT_EQ(e.now(), d);
  e.schedule_at(d + 5, [&] { order.push_back('C'); });
  e.run();
  EXPECT_TRUE(trap.empty());
  EXPECT_EQ(order, (std::vector<char>{'A', 'C', 'B'}));
  EXPECT_EQ(e.now(), d + 10);
}

TEST(Engine, SeqSpaceExhaustionIsChecked) {
  Engine e;
  e.test_start_seq_at(Engine::kSeqLimit - 2);
  e.schedule(1, [] {});
  const Engine::Ticket last = e.reserve_at(5);  // the last seq there is
  EXPECT_DEATH(e.schedule(0, [] {}), "seq space");
  EXPECT_DEATH(e.reserve_at(6), "seq space");
  e.run();
  EXPECT_TRUE(e.passed(last));
}

/// Reference model of the engine's dispatch contract: a std::set ordered by
/// (when, seq), seqs taken at schedule time, and the engine's clock rules
/// for tickets, drains and deadlines.
class ModelEngine {
 public:
  using Ticket = Engine::Ticket;

  Time now() const { return now_; }
  bool empty() const { return queue_.empty(); }
  void schedule(Time delay, std::function<void()> fn) {
    schedule_at(now_ + delay, std::move(fn));
  }
  void schedule_at(Time when, std::function<void()> fn) {
    add(when, seq_++, std::move(fn));
  }
  Ticket reserve_at(Time when) {
    horizon_ = std::max(horizon_, when);
    return Ticket{when, seq_++};
  }
  bool passed(const Ticket& t) const {
    return t.when < now_ || (t.when == now_ && t.seq < cur_seq_);
  }
  void schedule_ticket(const Ticket& t, std::function<void()> fn) {
    add(t.when, t.seq, std::move(fn));
  }
  void run() {
    while (!empty()) step();
    drained();
  }
  void run_until(Time deadline) {
    while (!empty() && queue_.begin()->first <= deadline) step();
    if (now_ <= deadline) {
      now_ = deadline;
      cur_seq_ = kAfterAll;
    }
  }
  template <typename Pred>
  bool run_while_pending(Pred&& done) {
    while (!empty()) {
      if (done()) return true;
      step();
    }
    drained();
    return done();
  }

 private:
  static constexpr std::uint64_t kAfterAll = ~std::uint64_t{0};

  void add(Time when, std::uint64_t seq, std::function<void()> fn) {
    queue_.emplace(when, seq);
    fns_.emplace(seq, std::move(fn));
  }
  void step() {
    const auto [when, seq] = *queue_.begin();
    queue_.erase(queue_.begin());
    now_ = when;
    cur_seq_ = seq;
    const auto it = fns_.find(seq);
    const std::function<void()> fn = std::move(it->second);
    fns_.erase(it);
    fn();
  }
  void drained() {
    now_ = std::max(now_, horizon_);
    cur_seq_ = kAfterAll;
  }

  Time now_ = 0;
  Time horizon_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t cur_seq_ = kAfterAll;
  std::set<std::pair<Time, std::uint64_t>> queue_;
  std::map<std::uint64_t, std::function<void()>> fns_;
};

/// One seeded random script, run on the engine and on ModelEngine. Events
/// spawn children at zero delay (chains), small delays (ties), fixed delays
/// and delays from 1 ps to beyond 2^40 ps; they reserve tickets and fill
/// them later, also at the ticket's own time. Between rounds the script
/// runs to a deadline or to a predicate and schedules from outside. Every
/// event records its id and the time, and which open tickets have passed.
template <typename E>
class DispatchScript {
 public:
  explicit DispatchScript(std::uint64_t seed) : rng_(seed) {}

  std::vector<std::int64_t> run() {
    for (int i = 0; i < 16; ++i) spawn(delay());
    while (!engine_.empty() && next_id_ < kBudget) {
      switch (rng_.below(3)) {
        case 0:
          engine_.run_until(engine_.now() + delay());
          break;
        case 1: {
          const int stop = dispatched_ + 1 + static_cast<int>(rng_.below(300));
          engine_.run_while_pending([&] { return dispatched_ >= stop; });
          break;
        }
        default:
          for (std::uint64_t i = rng_.below(4); i-- > 0;) spawn(delay());
          if (rng_.below(2) == 0) reserve();
      }
      trace_.push_back(kRoundMark);
      trace_.push_back(engine_.now());
    }
    engine_.run();
    trace_.push_back(engine_.now());
    return trace_;
  }
  int fills_due_now() const { return fills_due_now_; }

 private:
  static constexpr int kBudget = 30000;
  static constexpr std::int64_t kRoundMark = -1000000;

  Time delay() {
    static constexpr Time kFixed[] = {100, 1000, 1500};
    switch (rng_.below(4)) {
      case 0:
        return 0;
      case 1:
        return 1 + static_cast<Time>(rng_.below(4));
      case 2:
        return kFixed[rng_.below(std::size(kFixed))];
      default:
        return static_cast<Time>(rng_.below(std::uint64_t{2}
                                            << rng_.below(43)));
    }
  }

  void spawn(Time d) {
    const int id = next_id_++;
    engine_.schedule(d, [this, id] { on_event(id); });
  }

  void reserve() {
    const Time d =
        1 + (rng_.below(4) == 0 ? delay() : static_cast<Time>(rng_.below(4)));
    tickets_.push_back(engine_.reserve_at(engine_.now() + d));
    open_.push_back(tickets_.size() - 1);
  }

  void fill(std::size_t i) {
    const std::size_t k = open_[i];
    open_[i] = open_.back();
    open_.pop_back();
    const int id = next_id_++;
    engine_.schedule_ticket(tickets_[k], [this, id] { on_event(id); });
  }

  void on_event(int id) {
    ++dispatched_;
    trace_.push_back(id);
    trace_.push_back(engine_.now());
    for (std::size_t i = 0; i < open_.size();) {
      if (engine_.passed(tickets_[open_[i]])) {
        trace_.push_back(-1 - static_cast<std::int64_t>(open_[i]));
        open_[i] = open_.back();
        open_.pop_back();
      } else if (tickets_[open_[i]].when == engine_.now() &&
                 rng_.below(2) == 0) {
        ++fills_due_now_;
        fill(i);
      } else {
        ++i;
      }
    }
    if (next_id_ >= kBudget) return;
    for (std::uint64_t c = rng_.below(3); c-- > 0;) spawn(delay());
    if (rng_.below(3) == 0) reserve();
    if (!open_.empty() && rng_.below(3) == 0) fill(rng_.below(open_.size()));
  }

  Rng rng_;
  E engine_;
  std::vector<Engine::Ticket> tickets_;
  std::vector<std::size_t> open_;  // reserved, neither filled nor passed
  std::vector<std::int64_t> trace_;
  int next_id_ = 0;
  int dispatched_ = 0;
  int fills_due_now_ = 0;
};

TEST(Engine, DispatchOrderMatchesReferenceModel) {
  debug::ViolationTrap trap;  // engine.dispatch_order must stay clean
  for (const std::uint64_t seed : {1u, 20261018u, 987654321u}) {
    DispatchScript<Engine> engine(seed);
    DispatchScript<ModelEngine> model(seed);
    const std::vector<std::int64_t> want = model.run();
    EXPECT_EQ(engine.run(), want) << "seed " << seed;
    EXPECT_GT(want.size(), 50000u);
    EXPECT_GT(engine.fills_due_now(), 0);
  }
  EXPECT_TRUE(trap.empty());
}

TEST(Resource, IdleResourceStartsImmediately) {
  Resource r;
  EXPECT_EQ(r.acquire(100, 50), 150);
  EXPECT_EQ(r.free_at(), 150);
}

TEST(Resource, BackToBackAcquisitionsQueueFifo) {
  Resource r;
  EXPECT_EQ(r.acquire(0, 10), 10);
  EXPECT_EQ(r.acquire(0, 10), 20);   // queued behind the first
  EXPECT_EQ(r.acquire(5, 10), 30);   // still queued
  EXPECT_EQ(r.acquire(100, 10), 110);  // idle gap, starts at now
}

TEST(Resource, BusyTimeAccumulates) {
  Resource r;
  r.acquire(0, 10);
  r.acquire(50, 20);
  EXPECT_EQ(r.busy_time(), 30);
  EXPECT_DOUBLE_EQ(r.utilization(100), 0.3);
}

TEST(Resource, ZeroDurationIsAllowed) {
  Resource r;
  EXPECT_EQ(r.acquire(7, 0), 7);
  EXPECT_EQ(r.busy_time(), 0);
}

TEST(Resource, ResetClearsState) {
  Resource r;
  r.acquire(0, 100);
  r.reset();
  EXPECT_EQ(r.free_at(), 0);
  EXPECT_EQ(r.busy_time(), 0);
  EXPECT_EQ(r.last_use_end(), 0);
}

}  // namespace
}  // namespace mccl::sim
