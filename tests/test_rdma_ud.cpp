// UD transport tests: datagram delivery, immediate data, RNR drops,
// multicast fan-out, MTU enforcement.
#include <gtest/gtest.h>

#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <numeric>
#include <vector>

#include "src/common/rng.hpp"
#include "src/rdma/nic.hpp"

namespace mccl::rdma {
namespace {

struct UdPair {
  sim::Engine engine;
  std::unique_ptr<fabric::Fabric> fab;
  std::vector<std::unique_ptr<Nic>> nics;
  std::vector<UdQp*> qps;
  std::vector<Cq*> send_cqs;
  std::vector<Cq*> recv_cqs;

  explicit UdPair(std::size_t hosts = 2, fabric::Fabric::Config fcfg = {},
                  NicConfig ncfg = {}) {
    fabric::Topology topo = hosts == 2
                                ? fabric::make_back_to_back({})
                                : fabric::make_star(hosts, {});
    fab = std::make_unique<fabric::Fabric>(engine, std::move(topo), fcfg);
    for (std::size_t h = 0; h < hosts; ++h) {
      nics.push_back(std::make_unique<Nic>(
          engine, *fab, static_cast<fabric::NodeId>(h), ncfg));
      Cq& scq = nics[h]->create_cq();
      Cq& rcq = nics[h]->create_cq();
      send_cqs.push_back(&scq);
      recv_cqs.push_back(&rcq);
      qps.push_back(&nics[h]->create_ud_qp(&scq, &rcq));
    }
  }
};

std::vector<std::uint8_t> pattern(std::size_t n, std::uint8_t seed = 1) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; ++i)
    v[i] = static_cast<std::uint8_t>(seed + i * 131);
  return v;
}

/// The bytes of [addr, addr+len) in `m`.
std::vector<std::uint8_t> bytes_at(const HostMemory& m, std::uint64_t addr,
                                   std::uint64_t len) {
  const auto s = m.span(addr, len);
  return {s.begin(), s.end()};
}

TEST(UdQp, DatagramMovesBytes) {
  UdPair p;
  auto& m0 = p.nics[0]->memory();
  auto& m1 = p.nics[1]->memory();
  const auto src = m0.alloc(1024);
  const auto dst = m1.alloc(1024);
  const auto data = pattern(1024);
  m0.write(src, data.data(), data.size());

  p.qps[1]->post_recv({.wr_id = 7, .laddr = dst, .len = 1024});
  p.qps[0]->post_send(UdDest::unicast(1, p.qps[1]->qpn()), src, 1024,
                      {.wr_id = 1, .imm = 42, .has_imm = true});
  p.engine.run();

  ASSERT_EQ(p.recv_cqs[1]->depth(), 1u);
  const Cqe cqe = p.recv_cqs[1]->pop();
  EXPECT_EQ(cqe.wr_id, 7u);
  EXPECT_EQ(cqe.opcode, CqeOpcode::kRecv);
  EXPECT_EQ(cqe.byte_len, 1024u);
  EXPECT_EQ(cqe.imm, 42u);
  EXPECT_TRUE(cqe.has_imm);
  EXPECT_EQ(cqe.src, 0);
  EXPECT_EQ(bytes_at(m1, dst, 1024), data);
}

TEST(UdQp, SendCompletionAtWireDeparture) {
  UdPair p;
  const auto src = p.nics[0]->memory().alloc(4096);
  p.qps[1]->post_recv({.laddr = p.nics[1]->memory().alloc(4096), .len = 4096});
  p.qps[0]->post_send(UdDest::unicast(1, p.qps[1]->qpn()), src, 4096,
                      {.wr_id = 5});
  p.engine.run();
  ASSERT_EQ(p.send_cqs[0]->depth(), 1u);
  const Cqe cqe = p.send_cqs[0]->pop();
  EXPECT_EQ(cqe.opcode, CqeOpcode::kSend);
  EXPECT_EQ(cqe.wr_id, 5u);
}

TEST(UdQp, UnsignaledSendProducesNoCompletion) {
  UdPair p;
  const auto src = p.nics[0]->memory().alloc(64);
  p.qps[1]->post_recv({.laddr = p.nics[1]->memory().alloc(64), .len = 64});
  p.qps[0]->post_send(UdDest::unicast(1, p.qps[1]->qpn()), src, 64,
                      {.signaled = false});
  p.engine.run();
  EXPECT_EQ(p.send_cqs[0]->depth(), 0u);
  EXPECT_EQ(p.recv_cqs[1]->depth(), 1u);
}

TEST(UdQp, RnrDropWhenNoReceivePosted) {
  UdPair p;
  const auto src = p.nics[0]->memory().alloc(64);
  p.qps[0]->post_send(UdDest::unicast(1, p.qps[1]->qpn()), src, 64, {});
  p.engine.run();
  EXPECT_EQ(p.recv_cqs[1]->depth(), 0u);
  EXPECT_EQ(p.qps[1]->rnr_drops(), 1u);
  EXPECT_EQ(p.nics[1]->ud_rnr_drops(), 1u);
}

TEST(UdQp, InOrderDeliveryPreservesPsnInImm) {
  UdPair p;
  const auto src = p.nics[0]->memory().alloc(64);
  for (std::uint32_t i = 0; i < 32; ++i)
    p.qps[1]->post_recv({.laddr = p.nics[1]->memory().alloc(64), .len = 64});
  for (std::uint32_t i = 0; i < 32; ++i)
    p.qps[0]->post_send(UdDest::unicast(1, p.qps[1]->qpn()), src, 64,
                        {.imm = i, .has_imm = true, .signaled = false});
  p.engine.run();
  ASSERT_EQ(p.recv_cqs[1]->depth(), 32u);
  for (std::uint32_t i = 0; i < 32; ++i)
    EXPECT_EQ(p.recv_cqs[1]->pop().imm, i);
}

TEST(UdQp, McastFanOutDeliversToAllAttached) {
  UdPair p(5);
  const auto g = p.fab->create_mcast_group();
  for (std::size_t h = 0; h < 5; ++h) {
    p.nics[h]->attach_ud_mcast(g, *p.qps[h]);
    p.qps[h]->post_recv({.laddr = p.nics[h]->memory().alloc(512), .len = 512});
  }
  const auto src = p.nics[2]->memory().alloc(512);
  const auto data = pattern(512, 9);
  p.nics[2]->memory().write(src, data.data(), data.size());
  p.qps[2]->post_send(UdDest::multicast(g), src, 512,
                      {.imm = 3, .has_imm = true});
  p.engine.run();
  for (std::size_t h = 0; h < 5; ++h) {
    if (h == 2) {
      EXPECT_EQ(p.recv_cqs[h]->depth(), 0u) << "sender must not loop back";
      continue;
    }
    ASSERT_EQ(p.recv_cqs[h]->depth(), 1u) << "host " << h;
    EXPECT_EQ(p.recv_cqs[h]->pop().imm, 3u);
  }
}

TEST(UdQp, McastNonMemberDoesNotReceive) {
  UdPair p(4);
  const auto g = p.fab->create_mcast_group();
  for (std::size_t h = 0; h < 3; ++h) {
    p.nics[h]->attach_ud_mcast(g, *p.qps[h]);
    p.qps[h]->post_recv({.laddr = p.nics[h]->memory().alloc(64), .len = 64});
  }
  p.qps[3]->post_recv({.laddr = p.nics[3]->memory().alloc(64), .len = 64});
  const auto src = p.nics[0]->memory().alloc(64);
  p.qps[0]->post_send(UdDest::multicast(g), src, 64, {});
  p.engine.run();
  EXPECT_EQ(p.recv_cqs[3]->depth(), 0u);
  EXPECT_EQ(p.recv_cqs[1]->depth(), 1u);
  EXPECT_EQ(p.recv_cqs[2]->depth(), 1u);
}

TEST(UdQp, SendOnlyMemberCanInjectWithoutReceiving) {
  UdPair p(3);
  const auto g = p.fab->create_mcast_group();
  p.nics[0]->join_mcast(g);  // sender-only join
  for (std::size_t h = 1; h < 3; ++h) {
    p.nics[h]->attach_ud_mcast(g, *p.qps[h]);
    p.qps[h]->post_recv({.laddr = p.nics[h]->memory().alloc(64), .len = 64});
  }
  const auto src = p.nics[0]->memory().alloc(64);
  p.qps[0]->post_send(UdDest::multicast(g), src, 64, {});
  p.engine.run();
  EXPECT_EQ(p.recv_cqs[1]->depth(), 1u);
  EXPECT_EQ(p.recv_cqs[2]->depth(), 1u);
}

TEST(UdQp, DropLosesDatagramSilently) {
  fabric::Fabric::Config fcfg;
  UdPair p(2, fcfg);
  p.fab->set_drop_filter(
      [](fabric::NodeId, fabric::NodeId, const fabric::Packet&) {
        return true;
      });
  const auto src = p.nics[0]->memory().alloc(64);
  p.qps[1]->post_recv({.laddr = p.nics[1]->memory().alloc(64), .len = 64});
  p.qps[0]->post_send(UdDest::unicast(1, p.qps[1]->qpn()), src, 64, {});
  p.engine.run();
  EXPECT_EQ(p.recv_cqs[1]->depth(), 0u);
  // The send side still completes: UD has no delivery guarantee.
  EXPECT_EQ(p.send_cqs[0]->depth(), 1u);
}

TEST(UdQp, RecvQueueBoundEnforced) {
  NicConfig ncfg;
  ncfg.max_recv_queue = 4;
  UdPair p(2, {}, ncfg);
  for (int i = 0; i < 4; ++i)
    p.qps[1]->post_recv({.laddr = 0, .len = 64});
  EXPECT_DEATH(p.qps[1]->post_recv({.laddr = 0, .len = 64}),
               "receive queue overflow");
}

TEST(UdQp, OversizedDatagramRejected) {
  UdPair p;
  const auto src = p.nics[0]->memory().alloc(8192);
  EXPECT_DEATH(p.qps[0]->post_send(UdDest::unicast(1, 0), src, 5000, {}),
               "exceeds MTU");
}

// --- receive queue: the counted run against a plain FIFO ------------------

TEST(UdQp, ReceiveQueueMatchesAFifoModel) {
  // A seeded script of posts and pops against a std::deque reference: the
  // same WRs must come out in the same order, with the same depth and the
  // same RNR drops. Posts mimic a staging ring (in-order reposts, late and
  // duplicate ones), stray addressed WRs, blanks and whole rings posted
  // into a drained queue;
  // pops arrive as 0-byte datagrams (RNR and CQE wr_id checked) or through
  // the test hook (every WR field checked).
  constexpr std::uint64_t kBase = 0x100000;
  constexpr std::uint64_t kStride = 64;
  constexpr std::size_t kSlots = 16;
  constexpr std::size_t kBound = 64;
  const auto slot = [](std::uint64_t i) {
    return RecvWr{kBase + i * kStride, kBase + i * kStride, 64};
  };
  const auto blank = [](const RecvWr& wr) { return wr == RecvWr{}; };
  std::size_t late = 0, duplicates = 0, restarts = 0, blank_behind = 0,
              rnr = 0, rings = 0;
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    NicConfig ncfg;
    ncfg.max_recv_queue = kBound;
    UdPair p(2, {}, ncfg);
    UdQp& rx = *p.qps[1];
    Rng rng(seed);
    std::deque<RecvWr> model;
    std::deque<std::uint64_t> consumed;  // ring slots popped, oldest first
    bool drained = false;
    const auto post = [&](const RecvWr& wr) {
      if (model.size() == kBound) return;
      if (model.empty() && drained) ++restarts;
      if (!model.empty() && blank(wr) && !blank(model.back())) ++blank_behind;
      rx.post_recv(wr);
      model.push_back(wr);
    };
    const auto popped = [&](const RecvWr& wr) {
      const std::uint64_t i = (wr.laddr - kBase) / kStride;
      if (i < kSlots && wr == slot(i)) consumed.push_back(i);
      model.pop_front();
      drained = model.empty();
    };
    rx.post_recv_ring(slot(0), kStride, kSlots);
    for (std::uint64_t i = 0; i < kSlots; ++i) model.push_back(slot(i));
    // Segments of 100 steps: pop-heavy ones drain the queue, and ones
    // without stray WRs or blanks keep the staging ring's run alive.
    bool pop_heavy = false;
    bool strays = false;
    for (int step = 0; step < 1500; ++step) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " step " +
                   std::to_string(step));
      if (step % 100 == 0) {
        pop_heavy = rng.chance(0.5);
        strays = rng.chance(0.5);
      }
      const std::uint64_t dice = rng.below(100);
      if (dice < (pop_heavy ? 60u : 25u)) {
        if (rng.chance(0.5)) {
          const std::optional<RecvWr> got = rx.test_consume_recv();
          ASSERT_EQ(got.has_value(), !model.empty());
          if (!got) {
            ++rnr;
          } else {
            ASSERT_TRUE(*got == model.front());
            popped(*got);
          }
        } else {
          const std::uint64_t drops = rx.rnr_drops();
          p.qps[0]->post_send(UdDest::unicast(1, rx.qpn()), 0, 0,
                              {.signaled = false});
          p.engine.run();
          if (model.empty()) {
            ASSERT_EQ(rx.rnr_drops(), drops + 1);
            ASSERT_TRUE(p.recv_cqs[1]->empty());
            ++rnr;
          } else {
            ASSERT_EQ(rx.rnr_drops(), drops);
            ASSERT_EQ(p.recv_cqs[1]->depth(), 1u);
            ASSERT_EQ(p.recv_cqs[1]->pop().wr_id, model.front().wr_id);
            popped(model.front());
          }
        }
      } else if (dice < 73) {
        // Staging reposts: mostly in consumption order.
        if (consumed.empty()) continue;
        std::size_t k = 0;
        if (rng.chance(0.05) && consumed.size() > 1) {
          k = 1 + rng.below(consumed.size() - 1);  // a late CQE
          ++late;
        }
        const std::uint64_t i = consumed[k];
        consumed.erase(consumed.begin() + static_cast<std::ptrdiff_t>(k));
        post(slot(i));
      } else if (dice < 75) {
        post(slot(rng.below(kSlots)));  // a duplicate chunk's slot
        ++duplicates;
      } else if (dice < 80) {
        // A whole ring into a drained queue: the staging ring itself or a
        // smaller one.
        if (!model.empty()) continue;
        const bool staging = rng.chance(0.5);
        const RecvWr first =
            staging ? slot(0) : RecvWr{0x500000, 0x500000, 128};
        const std::uint64_t stride = staging ? kStride : 256;
        const std::size_t n = staging ? kSlots : 5;
        if (drained) ++restarts;
        rx.post_recv_ring(first, stride, n);
        for (std::size_t i = 0; i < n; ++i)
          model.push_back({first.wr_id + i * stride,
                           first.laddr + i * stride, first.len});
        ++rings;
      } else if (!strays) {
        continue;
      } else if (dice < 87) {
        // Stray addressed WRs, some a near miss of the slot that would
        // extend the run.
        const RecvWr s = slot(consumed.empty() ? rng.below(kSlots)
                                               : consumed.front());
        switch (rng.below(3)) {
          case 0: post({s.wr_id + 1, s.laddr, s.len}); break;
          case 1: post({s.wr_id, s.laddr, 32}); break;
          default: post({7 + rng.below(4), 0x900000, 32}); break;
        }
      } else if (dice < 93) {
        post({});
      } else {
        const std::size_t n = rng.below(4);
        if (model.size() + n > kBound) continue;
        if (n > 0 && !model.empty() && !blank(model.back())) ++blank_behind;
        if (n > 0 && model.empty() && drained) ++restarts;
        rx.post_blank_recvs(n);
        model.insert(model.end(), n, RecvWr{});
      }
      ASSERT_EQ(rx.recv_queue_depth(), model.size());
    }
  }
  // The script reached every case it is meant to cover.
  EXPECT_GT(late, 0u);
  EXPECT_GT(duplicates, 0u);
  EXPECT_GT(restarts, 0u);
  EXPECT_GT(blank_behind, 0u);
  EXPECT_GT(rnr, 0u);
  EXPECT_GT(rings, 0u);
}

TEST(UdQp, RingPostNeedsAnEmptyQueue) {
  // A strided ring is one run or nothing: it may not go behind posted WRs.
  // Copies of one WR (stride 0) may.
  UdPair p;
  UdQp& rx = *p.qps[1];
  rx.post_recv({.laddr = 0x100000, .len = 64});
  rx.post_blank_recvs(3);
  EXPECT_EQ(rx.recv_queue_depth(), 4u);
  EXPECT_DEATH(rx.post_recv_ring({0x200000, 0x200000, 64}, 64, 4),
               "a receive ring goes into an empty queue");
}

TEST(UdQp, InOrderStagingRepostsNeverStoreAWr) {
  // A staging ring consumed and reposted in order, through several wraps
  // and a full drain, stays one counted run.
  UdPair p;
  UdQp& rx = *p.qps[1];
  constexpr std::uint64_t kBase = 0x100000;
  rx.post_recv_ring({kBase, kBase, 64}, 64, 8);
  std::uint64_t next = 0;  // slot the next pop must return
  for (int round = 0; round < 5; ++round) {
    // One slot at a time, reposted at once: the run wraps.
    for (int k = 0; k < 12; ++k) {
      const std::optional<RecvWr> got = rx.test_consume_recv();
      ASSERT_TRUE(got.has_value());
      EXPECT_EQ(got->laddr, kBase + next++ % 8 * 64);
      rx.post_recv(*got);
    }
    // A full drain, then every slot back in drain order.
    std::vector<RecvWr> out;
    while (const std::optional<RecvWr> got = rx.test_consume_recv()) {
      EXPECT_EQ(got->laddr, kBase + next++ % 8 * 64);
      out.push_back(*got);
    }
    ASSERT_EQ(out.size(), 8u);
    for (const RecvWr& wr : out) rx.post_recv(wr);
  }
  EXPECT_EQ(rx.recv_queue_depth(), 8u);
  EXPECT_EQ(rx.stored_recv_capacity(), 0u);
}

TEST(UdQp, WrsOffTheRunAreStoredBehindIt) {
  // A WR that differs from the run's next slot in any field is stored, and
  // so is everything posted behind it, even the next slot itself.
  UdPair p;
  UdQp& rx = *p.qps[1];
  constexpr std::uint64_t kBase = 0x100000;
  rx.post_recv_ring({kBase, kBase, 64}, 64, 4);
  ASSERT_TRUE(rx.test_consume_recv().has_value());  // slot 0
  const std::vector<RecvWr> posted = {
      {kBase, kBase, 32}, {kBase + 1, kBase, 64}, {kBase, kBase, 64}};
  for (const RecvWr& wr : posted) rx.post_recv(wr);
  EXPECT_GT(rx.stored_recv_capacity(), 0u);
  std::vector<RecvWr> want = {{kBase + 64, kBase + 64, 64},
                              {kBase + 128, kBase + 128, 64},
                              {kBase + 192, kBase + 192, 64}};
  want.insert(want.end(), posted.begin(), posted.end());
  for (const RecvWr& w : want) {
    const std::optional<RecvWr> got = rx.test_consume_recv();
    ASSERT_TRUE(got.has_value());
    EXPECT_TRUE(*got == w) << got->wr_id << " " << got->len;
  }
  EXPECT_FALSE(rx.test_consume_recv().has_value());
}

}  // namespace
}  // namespace mccl::rdma
