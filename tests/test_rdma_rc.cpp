// RC transport tests: reliable delivery, ACK/NAK go-back-N recovery, RDMA
// Read, RNR NAK retry, window-limited pipelining.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/rdma/nic.hpp"

namespace mccl::rdma {
namespace {

struct RcWorld {
  sim::Engine engine;
  std::unique_ptr<fabric::Fabric> fab;
  std::vector<std::unique_ptr<Nic>> nics;
  std::vector<RcQp*> qps;
  std::vector<Cq*> send_cqs;
  std::vector<Cq*> recv_cqs;

  explicit RcWorld(fabric::Fabric::Config fcfg = {}, NicConfig ncfg = {}) {
    fab = std::make_unique<fabric::Fabric>(engine, fabric::make_back_to_back({}),
                                           fcfg);
    for (std::size_t h = 0; h < 2; ++h) {
      nics.push_back(std::make_unique<Nic>(
          engine, *fab, static_cast<fabric::NodeId>(h), ncfg));
      Cq& scq = nics[h]->create_cq();
      Cq& rcq = nics[h]->create_cq();
      send_cqs.push_back(&scq);
      recv_cqs.push_back(&rcq);
      qps.push_back(&nics[h]->create_rc_qp(&scq, &rcq));
    }
    qps[0]->connect(1, qps[1]->qpn());
    qps[1]->connect(0, qps[0]->qpn());
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

TEST(RcQp, TwoSidedSendDelivers) {
  RcWorld w;
  const std::size_t len = 6 * 4096 + 5;
  const auto src = w.nics[0]->memory().alloc(len);
  const auto dst = w.nics[1]->memory().alloc(len);
  const auto data = pattern(len);
  w.nics[0]->memory().write(src, data.data(), len);
  w.qps[1]->post_recv({.wr_id = 3, .laddr = dst, .len = len});
  w.qps[0]->post_send(src, len, {.wr_id = 1, .imm = 4, .has_imm = true});
  w.engine.run();

  ASSERT_EQ(w.recv_cqs[1]->depth(), 1u);
  const Cqe cqe = w.recv_cqs[1]->pop();
  EXPECT_EQ(cqe.opcode, CqeOpcode::kRecv);
  EXPECT_EQ(cqe.byte_len, len);
  EXPECT_EQ(cqe.imm, 4u);
  EXPECT_EQ(bytes_at(w.nics[1]->memory(), dst, len), data);
  // Send completion only after the ACK.
  ASSERT_EQ(w.send_cqs[0]->depth(), 1u);
  EXPECT_EQ(w.send_cqs[0]->pop().wr_id, 1u);
}

TEST(RcQp, RdmaReadFetchesRemoteBytes) {
  RcWorld w;
  const std::size_t len = 5 * 4096 + 123;
  const auto remote = w.nics[1]->memory().alloc(len);
  const auto local = w.nics[0]->memory().alloc(len);
  const auto mr = w.nics[1]->mrs().register_region(remote, len);
  const auto data = pattern(len, 21);
  w.nics[1]->memory().write(remote, data.data(), len);
  w.qps[0]->post_read(local, len, remote, mr.rkey, {.wr_id = 8});
  w.engine.run();
  ASSERT_EQ(w.send_cqs[0]->depth(), 1u);
  const Cqe cqe = w.send_cqs[0]->pop();
  EXPECT_EQ(cqe.opcode, CqeOpcode::kRead);
  EXPECT_EQ(cqe.wr_id, 8u);
  EXPECT_EQ(cqe.byte_len, len);
  EXPECT_EQ(bytes_at(w.nics[0]->memory(), local, len), data);
}

TEST(RcQp, RecoversFromDataPacketDrop) {
  RcWorld w;
  const std::size_t len = 16 * 4096;
  const auto src = w.nics[0]->memory().alloc(len);
  const auto dst = w.nics[1]->memory().alloc(len);
  const auto data = pattern(len, 3);
  w.nics[0]->memory().write(src, data.data(), len);

  int count = 0;
  w.fab->set_drop_filter(
      [&](fabric::NodeId, fabric::NodeId, const fabric::Packet& p) {
        return p.th.op == fabric::TransportOp::kRcSendSeg && ++count == 5;
      });
  w.qps[1]->post_recv({.laddr = dst, .len = len});
  w.qps[0]->post_send(src, len, {.wr_id = 1});
  w.engine.run();

  ASSERT_EQ(w.recv_cqs[1]->depth(), 1u);
  EXPECT_EQ(bytes_at(w.nics[1]->memory(), dst, len), data);
  EXPECT_GT(w.qps[0]->retransmissions(), 0u);
  EXPECT_EQ(w.send_cqs[0]->depth(), 1u);
}

TEST(RcQp, RecoversFromAckDrop) {
  RcWorld w;
  const std::size_t len = 4 * 4096;
  const auto src = w.nics[0]->memory().alloc(len);
  const auto dst = w.nics[1]->memory().alloc(len);
  int acks = 0;
  w.fab->set_drop_filter(
      [&](fabric::NodeId, fabric::NodeId, const fabric::Packet& p) {
        return p.th.op == fabric::TransportOp::kRcAck && ++acks <= 2;
      });
  w.qps[1]->post_recv({.laddr = dst, .len = len});
  w.qps[0]->post_send(src, len, {.wr_id = 1});
  w.engine.run();
  // Despite dropped ACKs, the RTO path eventually completes the send.
  EXPECT_EQ(w.send_cqs[0]->depth(), 1u);
  EXPECT_EQ(w.recv_cqs[1]->depth(), 1u);
}

TEST(RcQp, RecoversFromBurstLoss) {
  RcWorld w;
  const std::size_t len = 64 * 4096;
  const auto src = w.nics[0]->memory().alloc(len);
  const auto dst = w.nics[1]->memory().alloc(len);
  const auto data = pattern(len, 77);
  w.nics[0]->memory().write(src, data.data(), len);
  int count = 0;
  w.fab->set_drop_filter(
      [&](fabric::NodeId, fabric::NodeId, const fabric::Packet& p) {
        if (p.th.op != fabric::TransportOp::kRcSendSeg) return false;
        ++count;
        return count >= 10 && count < 20;  // 10-packet burst loss
      });
  w.qps[1]->post_recv({.laddr = dst, .len = len});
  w.qps[0]->post_send(src, len, {});
  w.engine.run();
  ASSERT_EQ(w.recv_cqs[1]->depth(), 1u);
  EXPECT_EQ(bytes_at(w.nics[1]->memory(), dst, len), data);
}

TEST(RcQp, RecoversUnderRandomLoss) {
  fabric::Fabric::Config fcfg;
  fcfg.faults.burst.drop_good = 0.01;
  fcfg.seed = 1234;
  RcWorld w(fcfg);
  const std::size_t len = 128 * 4096;  // 128 packets at 1% loss
  const auto src = w.nics[0]->memory().alloc(len);
  const auto dst = w.nics[1]->memory().alloc(len);
  const auto data = pattern(len, 50);
  w.nics[0]->memory().write(src, data.data(), len);
  w.qps[1]->post_recv({.laddr = dst, .len = len});
  w.qps[0]->post_send(src, len, {});
  w.engine.run();
  ASSERT_EQ(w.recv_cqs[1]->depth(), 1u);
  EXPECT_EQ(bytes_at(w.nics[1]->memory(), dst, len), data);
}

TEST(RcQp, ReadSurvivesResponseDrop) {
  RcWorld w;
  const std::size_t len = 8 * 4096;
  const auto remote = w.nics[1]->memory().alloc(len);
  const auto local = w.nics[0]->memory().alloc(len);
  const auto mr = w.nics[1]->mrs().register_region(remote, len);
  const auto data = pattern(len, 31);
  w.nics[1]->memory().write(remote, data.data(), len);
  int count = 0;
  w.fab->set_drop_filter(
      [&](fabric::NodeId, fabric::NodeId, const fabric::Packet& p) {
        return p.th.op == fabric::TransportOp::kRcReadResp && ++count == 2;
      });
  w.qps[0]->post_read(local, len, remote, mr.rkey, {});
  w.engine.run();
  ASSERT_EQ(w.send_cqs[0]->depth(), 1u);
  EXPECT_EQ(bytes_at(w.nics[0]->memory(), local, len), data);
}

TEST(RcQp, RnrNakRetriesUntilReceivePosted) {
  RcWorld w;
  const auto src = w.nics[0]->memory().alloc(256);
  const auto dst = w.nics[1]->memory().alloc(256);
  w.qps[0]->post_send(src, 256, {.wr_id = 1});
  // Post the receive only later: the sender must keep retrying.
  w.engine.schedule(50 * kMicrosecond, [&] {
    w.qps[1]->post_recv({.laddr = dst, .len = 256});
  });
  w.engine.run();
  EXPECT_EQ(w.recv_cqs[1]->depth(), 1u);
  EXPECT_EQ(w.send_cqs[0]->depth(), 1u);
}

TEST(RcQp, ManyMessagesArriveInOrder) {
  RcWorld w;
  const auto src = w.nics[0]->memory().alloc(64);
  const auto dst = w.nics[1]->memory().alloc(64);
  const int n = 100;
  for (int i = 0; i < n; ++i)
    w.qps[1]->post_recv({.wr_id = static_cast<std::uint64_t>(i),
                         .laddr = dst,
                         .len = 64});
  for (int i = 0; i < n; ++i)
    w.qps[0]->post_send(src, 64,
                        {.imm = static_cast<std::uint32_t>(i),
                         .has_imm = true,
                         .signaled = false});
  w.engine.run();
  ASSERT_EQ(w.recv_cqs[1]->depth(), static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const Cqe cqe = w.recv_cqs[1]->pop();
    EXPECT_EQ(cqe.imm, static_cast<std::uint32_t>(i));
    EXPECT_EQ(cqe.wr_id, static_cast<std::uint64_t>(i));
  }
}

TEST(RcQp, WindowLimitsInflightButAllComplete) {
  NicConfig ncfg;
  ncfg.rc_window = 4;  // tiny window forces pipelined pumping
  RcWorld w({}, ncfg);
  const std::size_t len = 32 * 4096;
  const auto src = w.nics[0]->memory().alloc(len);
  const auto dst = w.nics[1]->memory().alloc(len);
  const auto data = pattern(len, 13);
  w.nics[0]->memory().write(src, data.data(), len);
  w.qps[1]->post_recv({.laddr = dst, .len = len});
  w.qps[0]->post_send(src, len, {});
  w.engine.run();
  ASSERT_EQ(w.recv_cqs[1]->depth(), 1u);
  EXPECT_EQ(bytes_at(w.nics[1]->memory(), dst, len), data);
}

TEST(RcQp, BidirectionalTrafficSimultaneously) {
  RcWorld w;
  const std::size_t len = 8 * 4096;
  const auto s0 = w.nics[0]->memory().alloc(len);
  const auto d0 = w.nics[0]->memory().alloc(len);
  const auto s1 = w.nics[1]->memory().alloc(len);
  const auto d1 = w.nics[1]->memory().alloc(len);
  const auto a = pattern(len, 1), b = pattern(len, 2);
  w.nics[0]->memory().write(s0, a.data(), len);
  w.nics[1]->memory().write(s1, b.data(), len);
  w.qps[0]->post_recv({.laddr = d0, .len = len});
  w.qps[1]->post_recv({.laddr = d1, .len = len});
  w.qps[0]->post_send(s0, len, {});
  w.qps[1]->post_send(s1, len, {});
  w.engine.run();
  EXPECT_EQ(bytes_at(w.nics[1]->memory(), d1, len), a);
  EXPECT_EQ(bytes_at(w.nics[0]->memory(), d0, len), b);
}

TEST(RcQp, MixedOpsShareOneReliableStream) {
  RcWorld w;
  const auto src = w.nics[0]->memory().alloc(4096);
  const auto dst = w.nics[1]->memory().alloc(4096);
  const auto rsrc = w.nics[1]->memory().alloc(4096);
  const auto rdst = w.nics[0]->memory().alloc(4096);
  const auto rmr = w.nics[1]->mrs().register_region(rsrc, 4096);
  const auto sent = pattern(4096, 59);
  const auto data = pattern(4096, 60);
  w.nics[0]->memory().write(src, sent.data(), 4096);
  w.nics[1]->memory().write(rsrc, data.data(), 4096);

  w.qps[1]->post_recv({.laddr = dst, .len = 4096});
  w.qps[0]->post_send(src, 4096, {.wr_id = 1});
  w.qps[0]->post_read(rdst, 4096, rsrc, rmr.rkey, {.wr_id = 3});
  w.engine.run();

  // One send completion + one read completion.
  EXPECT_EQ(w.send_cqs[0]->depth(), 2u);
  EXPECT_EQ(bytes_at(w.nics[1]->memory(), dst, 4096), sent);
  EXPECT_EQ(bytes_at(w.nics[0]->memory(), rdst, 4096), data);
}

TEST(RcQp, ZeroLengthSendCompletes) {
  RcWorld w;
  w.qps[1]->post_recv({.wr_id = 1, .laddr = 0, .len = 0});
  w.qps[0]->post_send(0, 0, {.wr_id = 2, .imm = 5, .has_imm = true});
  w.engine.run();
  ASSERT_EQ(w.recv_cqs[1]->depth(), 1u);
  const Cqe cqe = w.recv_cqs[1]->pop();
  EXPECT_EQ(cqe.byte_len, 0u);
  EXPECT_EQ(cqe.imm, 5u);
  EXPECT_EQ(w.send_cqs[0]->depth(), 1u);
}

TEST(RcQp, BlankAndAddressedReceivesKeepFifoOrder) {
  // Blank WRs (all fields zero) at the head of the RQ are only counted;
  // one posted behind an addressed WR is stored. Either way the receives
  // complete in post order.
  RcWorld w;
  const auto dst = w.nics[1]->memory().alloc(64);
  const auto src = w.nics[0]->memory().alloc(64);
  RcQp& rx = *w.qps[1];
  rx.post_recv({});
  rx.post_recv({.wr_id = 7, .laddr = dst, .len = 64});
  rx.post_blank_recvs(2);      // behind a stored WR: stored too
  rx.post_recv({.wr_id = 9});  // zero length but named: not blank
  rx.post_recv({});
  EXPECT_EQ(rx.recv_queue_depth(), 6u);
  for (std::uint32_t i = 0; i < 6; ++i)
    w.qps[0]->post_send(src, i == 1 ? 64 : 0,
                        {.imm = i, .has_imm = true, .signaled = false});
  w.engine.run();
  EXPECT_EQ(rx.recv_queue_depth(), 0u);
  std::vector<std::uint64_t> wr_ids;
  std::vector<std::uint32_t> lens;
  while (!w.recv_cqs[1]->empty()) {
    const Cqe cqe = w.recv_cqs[1]->pop();
    EXPECT_EQ(cqe.imm, wr_ids.size());
    wr_ids.push_back(cqe.wr_id);
    lens.push_back(cqe.byte_len);
  }
  EXPECT_EQ(wr_ids, (std::vector<std::uint64_t>{0, 7, 0, 0, 9, 0}));
  EXPECT_EQ(lens, (std::vector<std::uint32_t>{0, 64, 0, 0, 0, 0}));
}

TEST(RcQp, BlankReceivesCountTowardTheQueueBound) {
  NicConfig ncfg;
  ncfg.max_recv_queue = 4;
  RcWorld w({}, ncfg);
  RcQp& rx = *w.qps[1];
  rx.post_blank_recvs(2);
  rx.post_recv({.wr_id = 1});
  rx.post_recv({});
  EXPECT_EQ(rx.recv_queue_depth(), 4u);
  EXPECT_DEATH(rx.post_recv({}), "receive queue overflow");
  EXPECT_DEATH(rx.post_blank_recvs(1), "receive queue overflow");
  RcQp& tx = *w.qps[0];
  EXPECT_DEATH(tx.post_blank_recvs(5), "receive queue overflow");
  tx.post_blank_recvs(4);
  EXPECT_EQ(tx.recv_queue_depth(), 4u);
}

/// Reposts one blank credit per consumed receive, like the control plane's
/// credit recycling.
struct CreditRecycler : Cq::Consumer {
  Qp* qp = nullptr;
  std::vector<std::uint32_t> imms;
  void on_cqe(Cq& cq) override {
    while (!cq.empty()) {
      imms.push_back(cq.pop().imm);
      qp->post_recv({});
    }
  }
};

TEST(RcQp, RecycledBlankCreditsCarryAStreamLongerThanTheQueue) {
  NicConfig ncfg;
  ncfg.max_recv_queue = 4;
  RcWorld w({}, ncfg);
  CreditRecycler recycler;
  recycler.qp = w.qps[1];
  w.recv_cqs[1]->set_consumer(&recycler);
  w.qps[1]->post_blank_recvs(4);
  for (std::uint32_t i = 0; i < 40; ++i)
    w.qps[0]->post_send(0, 0, {.imm = i, .has_imm = true, .signaled = false});
  w.engine.run();
  ASSERT_EQ(recycler.imms.size(), 40u);
  for (std::uint32_t i = 0; i < 40; ++i) EXPECT_EQ(recycler.imms[i], i);
  EXPECT_EQ(w.qps[1]->recv_queue_depth(), 4u);
  EXPECT_EQ(w.qps[0]->retransmissions(), 0u);
}

}  // namespace
}  // namespace mccl::rdma
