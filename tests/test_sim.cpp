// Unit tests for the discrete-event engine and FIFO resources.
#include <gtest/gtest.h>

#include <cstdint>
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
  // which internal queue they land in: the heap (scheduled before the clock
  // reached their time), the zero-delay FIFO (scheduled at `now`), or a
  // monotone lane (fixed positive delay). Interleaves dispatch with
  // scheduling to cover the merge rule between all three.
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
  // order, with X tied against heap, lane and FIFO events at t=10 and Y
  // tied against lane events at t=20.
  const auto run = [](bool tickets) {
    Engine e;
    std::vector<char> order;
    const auto rec = [&order](char c) {
      return [&order, c] { order.push_back(c); };
    };
    Engine::Ticket x, y;
    e.schedule_at(10, [&] {
      order.push_back('A');
      e.schedule(0, rec('F'));  // FIFO: after every t=10 heap/lane entry
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
      e.schedule(5, rec('C'));  // t=10 lane entry, later seq than X
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
      // A FIFO event is later than every heap or lane entry due now.
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
