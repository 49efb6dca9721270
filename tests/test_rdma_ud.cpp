// UD transport tests: datagram delivery, immediate data, RNR drops,
// multicast fan-out, MTU enforcement.
#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <vector>

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

}  // namespace
}  // namespace mccl::rdma
