// UC transport tests: segmentation/arbitrary-length writes, all-or-nothing
// message drop semantics, write-with-immediate, and the multicast UC Write
// extension (paper Section V-B).
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/rdma/nic.hpp"

namespace mccl::rdma {
namespace {

struct UcWorld {
  sim::Engine engine;
  std::unique_ptr<fabric::Fabric> fab;
  std::vector<std::unique_ptr<Nic>> nics;
  std::vector<UcQp*> qps;
  std::vector<Cq*> send_cqs;
  std::vector<Cq*> recv_cqs;

  explicit UcWorld(std::size_t hosts = 2, fabric::Fabric::Config fcfg = {},
                   NicConfig ncfg = {}) {
    fabric::Topology topo = hosts == 2 ? fabric::make_back_to_back({})
                                       : fabric::make_star(hosts, {});
    fab = std::make_unique<fabric::Fabric>(engine, std::move(topo), fcfg);
    for (std::size_t h = 0; h < hosts; ++h) {
      nics.push_back(std::make_unique<Nic>(
          engine, *fab, static_cast<fabric::NodeId>(h), ncfg));
      Cq& scq = nics[h]->create_cq();
      Cq& rcq = nics[h]->create_cq();
      send_cqs.push_back(&scq);
      recv_cqs.push_back(&rcq);
      qps.push_back(&nics[h]->create_uc_qp(&scq, &rcq));
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

TEST(UcQp, MultiPacketWriteWithImm) {
  UcWorld w;
  w.qps[0]->connect(1, w.qps[1]->qpn());
  const std::size_t len = 3 * 4096 + 100;  // 4 segments
  const auto src = w.nics[0]->memory().alloc(len);
  const auto dst = w.nics[1]->memory().alloc(len);
  const auto mr = w.nics[1]->mrs().register_region(dst, len);
  const auto data = pattern(len);
  w.nics[0]->memory().write(src, data.data(), len);

  w.qps[1]->post_recv({.wr_id = 11});
  w.qps[0]->post_write(src, len, dst, mr.rkey,
                       {.wr_id = 1, .imm = 77, .has_imm = true});
  w.engine.run();

  ASSERT_EQ(w.recv_cqs[1]->depth(), 1u);
  const Cqe cqe = w.recv_cqs[1]->pop();
  EXPECT_EQ(cqe.opcode, CqeOpcode::kRecvWriteImm);
  EXPECT_EQ(cqe.wr_id, 11u);
  EXPECT_EQ(cqe.byte_len, len);
  EXPECT_EQ(cqe.imm, 77u);
  EXPECT_EQ(bytes_at(w.nics[1]->memory(), dst, len), data);
  // Sender got exactly one completion for the whole message.
  ASSERT_EQ(w.send_cqs[0]->depth(), 1u);
  EXPECT_EQ(w.send_cqs[0]->pop().opcode, CqeOpcode::kSend);
}

TEST(UcQp, DroppedSegmentBreaksWholeMessage) {
  UcWorld w;
  w.qps[0]->connect(1, w.qps[1]->qpn());
  const std::size_t len = 8 * 4096;
  const auto src = w.nics[0]->memory().alloc(len);
  const auto dst = w.nics[1]->memory().alloc(len);
  const auto mr = w.nics[1]->mrs().register_region(dst, len);

  int count = 0;
  w.fab->set_drop_filter(
      [&](fabric::NodeId, fabric::NodeId, const fabric::Packet& p) {
        return p.th.op == fabric::TransportOp::kUcWriteSeg && ++count == 3;
      });
  w.qps[1]->post_recv({});
  w.qps[0]->post_write(src, len, dst, mr.rkey, {.has_imm = true});
  w.engine.run();

  EXPECT_EQ(w.recv_cqs[1]->depth(), 0u);
  EXPECT_EQ(w.qps[1]->broken_messages(), 1u);
  // Sender is oblivious (unreliable transport): its completion still fires.
  EXPECT_EQ(w.send_cqs[0]->depth(), 1u);
}

TEST(UcQp, NextMessageAfterBrokenOneIsDelivered) {
  UcWorld w;
  w.qps[0]->connect(1, w.qps[1]->qpn());
  const std::size_t len = 4 * 4096;
  const auto src = w.nics[0]->memory().alloc(len);
  const auto dst = w.nics[1]->memory().alloc(len);
  const auto mr = w.nics[1]->mrs().register_region(dst, len);

  int count = 0;
  w.fab->set_drop_filter(
      [&](fabric::NodeId, fabric::NodeId, const fabric::Packet& p) {
        return p.th.op == fabric::TransportOp::kUcWriteSeg && ++count == 1;
      });
  w.qps[1]->post_recv({.wr_id = 1});
  w.qps[1]->post_recv({.wr_id = 2});
  w.qps[0]->post_write(src, len, dst, mr.rkey, {.has_imm = true});
  w.qps[0]->post_write(src, len, dst, mr.rkey, {.has_imm = true});
  w.engine.run();

  ASSERT_EQ(w.recv_cqs[1]->depth(), 1u);
  EXPECT_EQ(w.recv_cqs[1]->pop().wr_id, 1u);  // first posted WR consumed
  EXPECT_EQ(w.qps[1]->broken_messages(), 1u);
}

TEST(UcQp, WriteWithImmNeedsPostedReceive) {
  UcWorld w;
  w.qps[0]->connect(1, w.qps[1]->qpn());
  const auto src = w.nics[0]->memory().alloc(128);
  const auto dst = w.nics[1]->memory().alloc(128);
  const auto mr = w.nics[1]->mrs().register_region(dst, 128);
  w.qps[0]->post_write(src, 128, dst, mr.rkey, {.has_imm = true});
  w.engine.run();
  EXPECT_EQ(w.recv_cqs[1]->depth(), 0u);
  EXPECT_EQ(w.qps[1]->rnr_drops(), 1u);
}

TEST(UcQp, McastWriteReplicatesToAllMembers) {
  UcWorld w(4);
  const auto g = w.fab->create_mcast_group();
  const std::size_t len = 2 * 4096 + 17;
  const auto data = pattern(len, 5);
  // All members register the destination with the same (agreed) rkey.
  constexpr std::uint32_t kSharedKey = 5000;
  std::vector<std::uint64_t> dsts(4);
  for (std::size_t h = 1; h < 4; ++h) {
    dsts[h] = w.nics[h]->memory().alloc(len);
    w.nics[h]->mrs().register_with_rkey(dsts[h], len, kSharedKey);
    w.nics[h]->attach_uc_mcast(g, *w.qps[h]);
    w.qps[h]->post_recv({.wr_id = h});
  }
  w.nics[0]->join_mcast(g);
  w.qps[0]->set_mcast_destination(g);
  const auto src = w.nics[0]->memory().alloc(len);
  w.nics[0]->memory().write(src, data.data(), len);
  // Multicast write targets the same raddr on every member. Here all
  // members allocated at the same offset, as the collective layer arranges.
  ASSERT_TRUE(dsts[1] == dsts[2] && dsts[2] == dsts[3]);
  w.qps[0]->post_write(src, len, dsts[1], kSharedKey,
                       {.imm = 9, .has_imm = true});
  w.engine.run();

  for (std::size_t h = 1; h < 4; ++h) {
    ASSERT_EQ(w.recv_cqs[h]->depth(), 1u) << "host " << h;
    const Cqe cqe = w.recv_cqs[h]->pop();
    EXPECT_EQ(cqe.imm, 9u);
    EXPECT_EQ(bytes_at(w.nics[h]->memory(), dsts[h], len), data);
  }
}

TEST(UcQp, InterleavedSendersOnMcastGroupReassembleIndependently) {
  // Two senders writing to the same group QP: reassembly state is keyed by
  // source, so interleaved segments must not corrupt each other.
  UcWorld w(3);
  const auto g = w.fab->create_mcast_group();
  constexpr std::uint32_t kSharedKey = 6000;
  const std::size_t len = 4 * 4096;
  const auto dst = w.nics[2]->memory().alloc(2 * len);
  w.nics[2]->mrs().register_with_rkey(dst, 2 * len, kSharedKey);
  w.nics[2]->attach_uc_mcast(g, *w.qps[2]);
  w.qps[2]->post_recv({.wr_id = 1});
  w.qps[2]->post_recv({.wr_id = 2});

  const auto d0 = pattern(len, 10), d1 = pattern(len, 99);
  for (int s = 0; s < 2; ++s) {
    w.nics[s]->join_mcast(g);
    w.qps[s]->set_mcast_destination(g);
    const auto src = w.nics[s]->memory().alloc(len);
    w.nics[s]->memory().write(src, (s ? d1 : d0).data(), len);
    w.qps[s]->post_write(src, len, dst + s * len, kSharedKey,
                         {.imm = static_cast<std::uint32_t>(s),
                          .has_imm = true});
  }
  w.engine.run();

  EXPECT_EQ(w.recv_cqs[2]->depth(), 2u);
  auto& m = w.nics[2]->memory();
  EXPECT_EQ(bytes_at(m, dst, len), d0);
  EXPECT_EQ(bytes_at(m, dst + len, len), d1);
}

TEST(UcQp, OutOfBoundsWriteAborts) {
  UcWorld w;
  w.qps[0]->connect(1, w.qps[1]->qpn());
  const auto src = w.nics[0]->memory().alloc(256);
  const auto dst = w.nics[1]->memory().alloc(128);
  const auto mr = w.nics[1]->mrs().register_region(dst, 128);
  w.qps[1]->post_recv({});
  EXPECT_DEATH(
      {
        w.qps[0]->post_write(src, 256, dst, mr.rkey, {.has_imm = true});
        w.engine.run();
      },
      "out of registered bounds");
}

TEST(UcQp, ZeroCopySegmentationSendsExactBytes) {
  UcWorld w;
  w.qps[0]->connect(1, w.qps[1]->qpn());
  const std::size_t len = 10 * 4096 + 1;  // 11 segments
  const auto src = w.nics[0]->memory().alloc(len);
  const auto dst = w.nics[1]->memory().alloc(len);
  const auto mr = w.nics[1]->mrs().register_region(dst, len);
  w.qps[1]->post_recv({});
  w.qps[0]->post_write(src, len, dst, mr.rkey, {.has_imm = true});
  w.engine.run();
  const auto t = w.fab->traffic();
  EXPECT_EQ(t.total_bytes, len);
  EXPECT_EQ(t.packets, 11u);
}

TEST(UcQp, BlankAndNamedReceivesKeepFifoOrder) {
  // Each write-with-imm consumes the RQ head: counted blanks first, then
  // the stored WRs in post order (a blank behind a named WR is stored).
  UcWorld w;
  w.qps[0]->connect(1, w.qps[1]->qpn());
  const auto src = w.nics[0]->memory().alloc(64);
  const auto dst = w.nics[1]->memory().alloc(64);
  const auto mr = w.nics[1]->mrs().register_region(dst, 64);
  UcQp& rx = *w.qps[1];
  rx.post_recv({});
  rx.post_recv({.wr_id = 4});
  rx.post_recv({});
  EXPECT_EQ(rx.recv_queue_depth(), 3u);
  for (std::uint32_t i = 0; i < 4; ++i)
    w.qps[0]->post_write(src, 64, dst, mr.rkey,
                         {.imm = i, .has_imm = true, .signaled = false});
  w.engine.run();
  std::vector<std::uint64_t> wr_ids;
  while (!w.recv_cqs[1]->empty()) {
    const Cqe cqe = w.recv_cqs[1]->pop();
    EXPECT_EQ(cqe.imm, wr_ids.size());
    wr_ids.push_back(cqe.wr_id);
  }
  EXPECT_EQ(wr_ids, (std::vector<std::uint64_t>{0, 4, 0}));
  EXPECT_EQ(rx.recv_queue_depth(), 0u);
  EXPECT_EQ(rx.rnr_drops(), 1u);  // the fourth found the RQ empty
}

/// Tops the RQ back up to `slots` blank WRs after every completion, like
/// the collective layer's UC receive top-up.
struct TopUp : Cq::Consumer {
  Qp* qp = nullptr;
  std::size_t slots = 0;
  std::size_t completions = 0;
  void on_cqe(Cq& cq) override {
    while (!cq.empty()) {
      cq.pop();
      ++completions;
    }
    qp->post_blank_recvs(slots - qp->recv_queue_depth());
  }
};

TEST(UcQp, BlankTopUpSustainsAStreamWithinTheQueueBound) {
  NicConfig ncfg;
  ncfg.max_recv_queue = 3;
  UcWorld w(2, {}, ncfg);
  w.qps[0]->connect(1, w.qps[1]->qpn());
  const auto src = w.nics[0]->memory().alloc(64);
  const auto dst = w.nics[1]->memory().alloc(64);
  const auto mr = w.nics[1]->mrs().register_region(dst, 64);
  TopUp top_up;
  top_up.qp = w.qps[1];
  top_up.slots = 3;
  w.recv_cqs[1]->set_consumer(&top_up);
  for (int i = 0; i < 3; ++i) w.qps[1]->post_recv({});
  EXPECT_DEATH(w.qps[1]->post_recv({}), "receive queue overflow");
  for (int i = 0; i < 25; ++i)
    w.qps[0]->post_write(src, 64, dst, mr.rkey,
                         {.has_imm = true, .signaled = false});
  w.engine.run();
  EXPECT_EQ(top_up.completions, 25u);
  EXPECT_EQ(w.qps[1]->rnr_drops(), 0u);
  EXPECT_EQ(w.qps[1]->recv_queue_depth(), 3u);
}

}  // namespace
}  // namespace mccl::rdma
