// End-to-end Broadcast tests: the multicast protocol and every P2P
// baseline, across transports, progress engines, roots and message shapes.
#include <gtest/gtest.h>

#include "tests/coll_test_util.hpp"

namespace mccl::coll {
namespace {

using testing::World;

TEST(McastBroadcast, DeliversAndVerifies) {
  World w(4);
  const OpResult res = w.comm->broadcast(0, 64 * 1024, BcastAlgo::kMcast);
  EXPECT_TRUE(res.data_verified);
  EXPECT_GT(res.duration(), 0);
  EXPECT_EQ(res.fetched_chunks, 0u);
}

TEST(McastBroadcast, NonZeroRoot) {
  World w(5);
  EXPECT_TRUE(w.comm->broadcast(3, 32 * 1024, BcastAlgo::kMcast)
                  .data_verified);
}

TEST(McastBroadcast, SingleChunkMessage) {
  World w(3);
  EXPECT_TRUE(w.comm->broadcast(0, 100, BcastAlgo::kMcast).data_verified);
}

TEST(McastBroadcast, RaggedTailChunk) {
  World w(3);
  EXPECT_TRUE(
      w.comm->broadcast(1, 3 * 4096 + 77, BcastAlgo::kMcast).data_verified);
}

TEST(McastBroadcast, TwoRanks) {
  World w(2);
  EXPECT_TRUE(w.comm->broadcast(0, 16 * 1024, BcastAlgo::kMcast)
                  .data_verified);
}

TEST(McastBroadcast, SubgroupsSplitTraffic) {
  CommConfig cfg;
  cfg.subgroups = 4;
  cfg.recv_workers = 4;
  cfg.send_workers = 2;
  World w(4, cfg);
  EXPECT_TRUE(w.comm->broadcast(0, 256 * 1024, BcastAlgo::kMcast)
                  .data_verified);
}

// settle() verifies at the event that completes the op; checking again
// after the run must agree, for both datapaths.
TEST(McastBroadcast, SettledVerdictMatchesReferenceVerifyUd) {
  World w(4);
  OpBase& op = w.comm->start_broadcast(1, 96 * 1024 + 5, BcastAlgo::kMcast);
  const OpResult res = w.comm->finish(op);
  EXPECT_TRUE(res.data_verified);
  EXPECT_EQ(op.verify(), res.data_verified);
}

TEST(McastBroadcast, SettledVerdictMatchesReferenceVerifyUc) {
  CommConfig cfg;
  cfg.transport = Transport::kUcMcast;
  World w(4, cfg);
  OpBase& op = w.comm->start_broadcast(1, 96 * 1024 + 5, BcastAlgo::kMcast);
  const OpResult res = w.comm->finish(op);
  EXPECT_TRUE(res.data_verified);
  EXPECT_EQ(op.verify(), res.data_verified);
}

TEST(McastBroadcast, UcTransportNoStaging) {
  CommConfig cfg;
  cfg.transport = Transport::kUcMcast;
  World w(4, cfg);
  const OpResult res = w.comm->broadcast(0, 128 * 1024, BcastAlgo::kMcast);
  EXPECT_TRUE(res.data_verified);
}

TEST(McastBroadcast, UcMultiPacketChunks) {
  CommConfig cfg;
  cfg.transport = Transport::kUcMcast;
  cfg.chunk_bytes = 64 * 1024;  // 16 MTUs per chunk (Fig 15)
  World w(3, cfg);
  EXPECT_TRUE(w.comm->broadcast(0, 512 * 1024, BcastAlgo::kMcast)
                  .data_verified);
}

TEST(McastBroadcast, DpaOffloadedProgressEngine) {
  CommConfig cfg;
  cfg.progress_engine = EngineKind::kDpa;
  cfg.recv_workers = 4;
  World w(4, cfg);
  EXPECT_TRUE(w.comm->broadcast(0, 256 * 1024, BcastAlgo::kMcast)
                  .data_verified);
}

TEST(McastBroadcast, FatTreeTopology) {
  World w(8, {}, {}, /*fat_tree=*/true);
  EXPECT_TRUE(w.comm->broadcast(2, 64 * 1024, BcastAlgo::kMcast)
                  .data_verified);
}

TEST(McastBroadcast, PhasesAreRecorded) {
  World w(6);
  const OpResult res = w.comm->broadcast(0, 128 * 1024, BcastAlgo::kMcast);
  ASSERT_TRUE(res.data_verified);
  EXPECT_GT(res.max_phases.barrier, 0);
  EXPECT_GT(res.max_phases.transfer, 0);
  EXPECT_EQ(res.max_phases.reliability, 0);
  EXPECT_GT(res.max_phases.handshake, 0);
}

TEST(McastBroadcast, TrafficIsBandwidthOptimal) {
  // Every byte of the send buffer crosses each used link once: total fabric
  // bytes ~= tree_edges * N, and critically the root injects only ~N.
  World w(8);
  w.cluster->fabric().reset_counters();
  ASSERT_TRUE(w.comm->broadcast(0, 64 * 1024, BcastAlgo::kMcast).data_verified);
  const auto t = w.cluster->fabric().traffic();
  // Host 0 egress = data (64 KiB) + control; far below 2N.
  std::uint64_t root_egress = 0;
  const auto& topo = w.cluster->fabric().topology();
  for (std::size_t d = 0; d < topo.num_dirs(); ++d)
    if (topo.dirs()[d].from == 0)
      root_egress += w.cluster->fabric().dir_counters(d).bytes;
  EXPECT_LT(root_egress, 2 * 64 * 1024u);
  EXPECT_GT(t.total_bytes, 8 * 64 * 1024u);  // 9 tree edges carry N each
}

TEST(P2PBroadcast, BinomialDeliversAllRanks) {
  for (std::size_t P : {2u, 3u, 7u, 8u, 13u}) {
    World w(P);
    EXPECT_TRUE(w.comm->broadcast(0, 32 * 1024, BcastAlgo::kBinomial)
                    .data_verified)
        << "P=" << P;
  }
}

TEST(P2PBroadcast, BinomialNonZeroRoot) {
  World w(9);
  EXPECT_TRUE(
      w.comm->broadcast(5, 16 * 1024, BcastAlgo::kBinomial).data_verified);
}

TEST(P2PBroadcast, BinaryTreeDelivers) {
  for (std::size_t P : {2u, 5u, 10u}) {
    World w(P);
    EXPECT_TRUE(w.comm->broadcast(0, 32 * 1024, BcastAlgo::kBinaryTree)
                    .data_verified)
        << "P=" << P;
  }
}

TEST(McastBroadcast, FasterThanBinaryTreeForLargeMessages) {
  // The headline Fig 11 relation: multicast beats tree broadcasts.
  const std::uint64_t N = 1 * MiB;
  World a(8);
  const Time mc = a.comm->broadcast(0, N, BcastAlgo::kMcast).duration();
  World b(8);
  const Time bt = b.comm->broadcast(0, N, BcastAlgo::kBinaryTree).duration();
  EXPECT_LT(mc, bt);
}

TEST(McastBroadcast, BackToBackWorks) {
  // The DPA testbed topology: two hosts, no switch.
  CommConfig cfg;
  cfg.progress_engine = EngineKind::kDpa;
  World w(2, cfg);
  EXPECT_TRUE(w.comm->broadcast(0, 1 * MiB, BcastAlgo::kMcast)
                  .data_verified);
}

TEST(McastBroadcast, SequentialBroadcastsReuseInfrastructure) {
  World w(4);
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(w.comm->broadcast(i % 4, 64 * 1024, BcastAlgo::kMcast)
                    .data_verified)
        << "iteration " << i;
  }
}

// --- control-message dispatch contract ----------------------------------
// The endpoint finds a message's op by the id in its immediate. An id no op
// holds, or the detector's reserved id 0 on a communicator without a
// detector, is a protocol bug and aborts.

TEST(CtrlDispatch, MessageForUnknownOpAborts) {
  EXPECT_DEATH(
      {
        World w(2);
        w.comm->ep(0).ctrl_send(1, {CtrlType::kBarrier, 4000, 0});
        w.cluster->engine().run();
      },
      "control message for unknown collective");
}

TEST(CtrlDispatch, HeartbeatWithoutDetectorAborts) {
  CommConfig cfg;
  cfg.detector.enabled = false;
  EXPECT_DEATH(
      {
        World w(2, cfg);
        w.comm->ep(0).ctrl_send(1, {CtrlType::kHeartbeat, 0, 0});
        w.cluster->engine().run();
      },
      "control message for unknown collective");
}

}  // namespace
}  // namespace mccl::coll
