// NIC egress-arbiter tests: fair round-robin across TX queues, FIFO within
// a queue, departure callbacks, the no-head-of-line-blocking guarantee
// that keeps concurrent collectives honest, and strict priority bands
// (lowest band first, round-robin inside a band, bands re-read per busy
// period).
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/rdma/nic.hpp"

namespace mccl::rdma {
namespace {

struct ArbiterWorld {
  sim::Engine engine;
  fabric::Fabric fab;
  Cq cq;  // shared by the QPs of Nic a, so it outlives them
  Nic a, b;
  std::vector<std::uint32_t> arrivals;  // th.imm of packets reaching host 1

  ArbiterWorld()
      : fab(engine, fabric::make_back_to_back({100.0, 0}), {}),
        a(engine, fab, 0, {}),
        b(engine, fab, 1, {}) {
    fab.set_delivery(1, [this](const fabric::PacketPtr& p) {
      arrivals.push_back(p->th.imm);
    });
    // Nic b installed its own delivery; override back to our recorder.
    fab.set_delivery(1, [this](const fabric::PacketPtr& p) {
      arrivals.push_back(p->th.imm);
    });
  }

  fabric::PacketPtr packet(std::uint32_t imm, std::uint32_t size = 1000) {
    fabric::PacketRef p = a.make_packet();
    fabric::Packet& m = p.mut();
    m.src_host = 0;
    m.dst_host = 1;
    m.wire_size = size;
    m.th.imm = imm;
    return p;
  }

  /// A QP on the sending NIC with class `cls`; its QPN is its TX queue id.
  std::uint32_t qp(std::uint8_t cls, bool ctrl = false) {
    UdQp& q = a.create_ud_qp(&cq, &cq);
    q.set_qos(/*tenant=*/1, cls, ctrl);
    return q.qpn();
  }

  /// Sends and drains one packet on each of queues 0..n-1, so that TX
  /// slot q is queue q from then on.
  void open_queues(std::uint32_t n) {
    for (std::uint32_t q = 0; q < n; ++q) a.transmit(q, packet(q));
    engine.run();
    arrivals.clear();
  }
};

TEST(NicArbiter, SingleQueueIsFifo) {
  ArbiterWorld w;
  for (std::uint32_t i = 0; i < 10; ++i) w.a.transmit(1, w.packet(i));
  w.engine.run();
  ASSERT_EQ(w.arrivals.size(), 10u);
  for (std::uint32_t i = 0; i < 10; ++i) EXPECT_EQ(w.arrivals[i], i);
}

TEST(NicArbiter, RoundRobinAcrossQueues) {
  ArbiterWorld w;
  // Queue 1 floods first; queue 2's packet must not wait behind all of it.
  for (std::uint32_t i = 0; i < 8; ++i) w.a.transmit(1, w.packet(100 + i));
  w.a.transmit(2, w.packet(200));
  w.engine.run();
  ASSERT_EQ(w.arrivals.size(), 9u);
  // The queue-2 packet departs after at most two queue-1 packets (one in
  // flight when it was enqueued, one round-robin turn).
  const auto pos = std::find(w.arrivals.begin(), w.arrivals.end(), 200u) -
                   w.arrivals.begin();
  EXPECT_LE(pos, 2);
}

TEST(NicArbiter, BulkFlowDoesNotStarveControl) {
  ArbiterWorld w;
  // A 256-packet bulk burst on one queue; small control packets trickle in
  // on another. Every control packet must depart within ~2 packet times.
  for (std::uint32_t i = 0; i < 256; ++i)
    w.a.transmit(7, w.packet(i, 4096));
  std::vector<Time> ctrl_departures;
  for (std::uint32_t c = 0; c < 4; ++c) {
    w.a.transmit(8, w.packet(1000 + c, 64),
                 [&](Time dep) { ctrl_departures.push_back(dep); });
  }
  w.engine.run();
  ASSERT_EQ(ctrl_departures.size(), 4u);
  const Time bulk_pkt = serialization_time(4096, 100.0);
  // 4 control packets interleaved with bulk: the last one leaves within
  // ~(4 bulk + 4 ctrl + 1 in-flight) packet times, far from 256.
  EXPECT_LT(ctrl_departures.back(), 7 * bulk_pkt);
}

TEST(NicArbiter, DepartureCallbackMatchesWireTime) {
  ArbiterWorld w;
  Time dep1 = 0, dep2 = 0;
  w.a.transmit(1, w.packet(1, 1000), [&](Time t) { dep1 = t; });
  w.a.transmit(1, w.packet(2, 1000), [&](Time t) { dep2 = t; });
  w.engine.run();
  const Time pkt = serialization_time(1000, 100.0);
  EXPECT_EQ(dep1, pkt);
  EXPECT_EQ(dep2, 2 * pkt);
}

TEST(NicArbiter, ManyQueuesShareEvenly) {
  ArbiterWorld w;
  constexpr int kQueues = 4, kPer = 16;
  for (int q = 0; q < kQueues; ++q)
    for (int i = 0; i < kPer; ++i)
      w.a.transmit(static_cast<std::uint32_t>(q),
                   w.packet(static_cast<std::uint32_t>(q * 1000 + i)));
  w.engine.run();
  ASSERT_EQ(w.arrivals.size(), static_cast<std::size_t>(kQueues * kPer));
  // After the first full round, arrivals interleave: within any window of
  // kQueues consecutive arrivals, all queues appear.
  for (std::size_t base = kQueues; base + kQueues <= w.arrivals.size();
       base += kQueues) {
    std::vector<bool> seen(kQueues, false);
    for (int k = 0; k < kQueues; ++k)
      seen[w.arrivals[base + k] / 1000] = true;
    for (int q = 0; q < kQueues; ++q) EXPECT_TRUE(seen[q]) << base;
  }
}

// --- Priority bands ---------------------------------------------------------
// Each case sends a blocker packet first: it takes the idle link at once,
// so every queue filled after it is ready when the arbiter next picks.
// The cursor then sits just past the blocker's queue.

TEST(NicArbiter, RoundRobinCursorWrapsAcrossBitmapWords) {
  ArbiterWorld w;
  w.open_queues(66);
  w.a.transmit(3, w.packet(0));  // blocker; cursor -> 4
  for (std::uint32_t i = 1; i <= 2; ++i) {
    w.a.transmit(65, w.packet(650 + i));
    w.a.transmit(3, w.packet(30 + i));
  }
  w.engine.run();
  // From the cursor: 65 (second word), wrap to 3, and again.
  EXPECT_EQ(w.arrivals, (std::vector<std::uint32_t>{0, 651, 31, 652, 32}));
}

std::vector<std::uint32_t> one_band_order(bool strict,
                                          std::uint32_t queues) {
  ArbiterWorld w;
  w.a.set_strict_priority(strict);
  for (std::uint32_t q = 0; q < queues; ++q) w.qp(/*cls=*/1);
  w.open_queues(queues);
  w.a.transmit(queues - 1, w.packet(0));  // blocker; cursor wraps to 0
  for (std::uint32_t q = 0; q < queues; ++q)
    for (std::uint32_t i = 1; i <= 2; ++i) w.a.transmit(q, w.packet(q * 10 + i));
  w.engine.run();
  return w.arrivals;
}

TEST(NicArbiter, RoundRobinInsideOneBandAcrossMoreThan64Queues) {
  constexpr std::uint32_t kQueues = 70;  // two bitmap words
  std::vector<std::uint32_t> want{0};
  for (std::uint32_t i = 1; i <= 2; ++i)
    for (std::uint32_t q = 0; q < kQueues; ++q) want.push_back(q * 10 + i);
  EXPECT_EQ(one_band_order(false, kQueues), want);
  EXPECT_EQ(one_band_order(true, kQueues), want);
}

TEST(NicArbiter, StrictServesLowestBandFirst) {
  ArbiterWorld w;
  w.a.set_strict_priority(true);
  const std::uint32_t hi0 = w.qp(0);    // band 1
  const std::uint32_t bulk = w.qp(2);   // band 3
  const std::uint32_t hi1 = w.qp(0);    // band 1
  const std::uint32_t other = w.qp(2);
  w.a.transmit(other, w.packet(0));  // blocker; cursor wraps to 0
  w.a.transmit(bulk, w.packet(31));
  w.a.transmit(hi0, w.packet(11));
  w.a.transmit(hi0, w.packet(12));
  w.a.transmit(hi1, w.packet(13));
  w.engine.run();
  // Band 1 round-robin (hi0, hi1, hi0) before band 3 gets the link, even
  // though the bulk packet was queued first.
  EXPECT_EQ(w.arrivals, (std::vector<std::uint32_t>{0, 11, 13, 12, 31}));
}

TEST(NicArbiter, StrictFilesQueuesWithoutQpInDataBand) {
  ArbiterWorld w;
  w.a.set_strict_priority(true);
  const std::uint32_t data = w.qp(1);                // band 2
  const std::uint32_t ctrl = w.qp(0, /*ctrl=*/true); // band 0
  constexpr std::uint32_t kNoQp = 5;                 // band 1
  w.a.transmit(9, w.packet(0));  // blocker (no QP either)
  w.a.transmit(data, w.packet(2));
  w.a.transmit(kNoQp, w.packet(1));
  w.a.transmit(ctrl, w.packet(100));
  w.engine.run();
  EXPECT_EQ(w.arrivals, (std::vector<std::uint32_t>{0, 100, 1, 2}));
}

TEST(NicArbiter, StrictSendsControlAndIncBeforeAnyData) {
  ArbiterWorld w;
  w.a.set_strict_priority(true);
  const std::uint32_t hp = w.qp(0);  // the highest data band
  const std::uint32_t ctrl = w.qp(0, /*ctrl=*/true);
  w.a.transmit(hp, w.packet(0));  // blocker
  for (std::uint32_t i = 1; i <= 3; ++i) w.a.transmit(hp, w.packet(i));
  w.a.transmit(Nic::kIncTxQueue, w.packet(200));
  w.a.transmit(ctrl, w.packet(100));
  w.engine.run();
  ASSERT_EQ(w.arrivals.size(), 6u);
  // The cursor decides which of the two band-0 queues goes first.
  EXPECT_EQ(std::min(w.arrivals[1], w.arrivals[2]), 100u);
  EXPECT_EQ(std::max(w.arrivals[1], w.arrivals[2]), 200u);
  EXPECT_EQ(std::vector<std::uint32_t>(w.arrivals.begin() + 3,
                                       w.arrivals.end()),
            (std::vector<std::uint32_t>{1, 2, 3}));
}

TEST(NicArbiter, StrictRefilesAQueueOnItsNextBusyPeriod) {
  ArbiterWorld w;
  w.a.set_strict_priority(true);
  const std::uint32_t x = w.qp(2);
  const std::uint32_t y = w.qp(0);
  const std::uint32_t blocker = w.qp(1);
  const auto busy_period = [&](std::uint32_t tag) {
    w.a.transmit(blocker, w.packet(tag));
    w.a.transmit(x, w.packet(tag + 1));
    w.a.transmit(y, w.packet(tag + 2));
    w.engine.run();
  };
  busy_period(10);  // x in band 3, y in band 1
  // Swap the classes between busy periods: x now outranks y.
  w.a.find_qp(x)->set_qos(1, 0, false);
  w.a.find_qp(y)->set_qos(1, 2, false);
  busy_period(20);
  EXPECT_EQ(w.arrivals,
            (std::vector<std::uint32_t>{10, 12, 11, 20, 21, 22}));
}

}  // namespace
}  // namespace mccl::rdma
