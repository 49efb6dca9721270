// End-to-end Allgather tests: multicast composition (chains, subgroups,
// worker splits), the ring baseline, traffic properties.
#include <gtest/gtest.h>

#include "tests/coll_test_util.hpp"

namespace mccl::coll {
namespace {

using testing::World;

TEST(McastAllgather, BasicCorrectness) {
  World w(4);
  const OpResult res = w.comm->allgather(32 * 1024, AllgatherAlgo::kMcast);
  EXPECT_TRUE(res.data_verified);
  EXPECT_EQ(res.fetched_chunks, 0u);
}

TEST(McastAllgather, TwoRanks) {
  World w(2);
  EXPECT_TRUE(w.comm->allgather(16 * 1024, AllgatherAlgo::kMcast)
                  .data_verified);
}

TEST(McastAllgather, OddRankCount) {
  World w(7);
  EXPECT_TRUE(w.comm->allgather(8 * 1024, AllgatherAlgo::kMcast)
                  .data_verified);
}

TEST(McastAllgather, SingleChunkBlocks) {
  World w(5);
  EXPECT_TRUE(w.comm->allgather(512, AllgatherAlgo::kMcast).data_verified);
}

TEST(McastAllgather, RaggedBlocks) {
  World w(3);
  EXPECT_TRUE(
      w.comm->allgather(2 * 4096 + 123, AllgatherAlgo::kMcast).data_verified);
}

class McastAllgatherParam
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t,
                                                 std::size_t, std::size_t>> {
};

TEST_P(McastAllgatherParam, ParallelismKnobSweep) {
  const auto [ranks, chains, subgroups, recv_workers] = GetParam();
  CommConfig cfg;
  cfg.chains = chains;
  cfg.subgroups = subgroups;
  cfg.recv_workers = recv_workers;
  cfg.send_workers = std::min<std::size_t>(subgroups, 2);
  World w(ranks, cfg);
  const OpResult res = w.comm->allgather(16 * 1024, AllgatherAlgo::kMcast);
  EXPECT_TRUE(res.data_verified)
      << "P=" << ranks << " M=" << chains << " S=" << subgroups;
  EXPECT_EQ(res.fetched_chunks, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Knobs, McastAllgatherParam,
    ::testing::Values(std::make_tuple(4, 1, 1, 1),
                      std::make_tuple(4, 2, 1, 1),
                      std::make_tuple(4, 4, 1, 1),
                      std::make_tuple(6, 2, 2, 2),
                      std::make_tuple(6, 3, 4, 4),
                      std::make_tuple(8, 2, 4, 2),
                      std::make_tuple(8, 8, 2, 2),
                      std::make_tuple(5, 2, 3, 3),
                      std::make_tuple(9, 3, 2, 1)));

TEST(McastAllgather, UcTransport) {
  CommConfig cfg;
  cfg.transport = Transport::kUcMcast;
  cfg.subgroups = 2;
  cfg.recv_workers = 2;
  World w(4, cfg);
  EXPECT_TRUE(w.comm->allgather(64 * 1024, AllgatherAlgo::kMcast)
                  .data_verified);
}

TEST(McastAllgather, DpaEngine) {
  CommConfig cfg;
  cfg.progress_engine = EngineKind::kDpa;
  cfg.subgroups = 4;
  cfg.recv_workers = 4;
  World w(4, cfg);
  EXPECT_TRUE(w.comm->allgather(128 * 1024, AllgatherAlgo::kMcast)
                  .data_verified);
}

TEST(McastAllgather, FatTree) {
  CommConfig cfg;
  cfg.chains = 4;
  World w(16, cfg, {}, /*fat_tree=*/true);
  EXPECT_TRUE(w.comm->allgather(16 * 1024, AllgatherAlgo::kMcast)
                  .data_verified);
}

TEST(McastAllgather, SendPathIsConstantInP) {
  // Insight 1: per-process send bandwidth requirement is ~N regardless of P.
  for (const std::size_t P : {4u, 8u}) {
    World w(P);
    w.cluster->fabric().reset_counters();
    ASSERT_TRUE(
        w.comm->allgather(64 * 1024, AllgatherAlgo::kMcast).data_verified);
    const auto& topo = w.cluster->fabric().topology();
    for (std::size_t r = 0; r < P; ++r) {
      std::uint64_t egress = 0;
      for (std::size_t d = 0; d < topo.num_dirs(); ++d)
        if (topo.dirs()[d].from == static_cast<fabric::NodeId>(r))
          egress += w.cluster->fabric().dir_counters(d).bytes;
      EXPECT_LT(egress, 2 * 64 * 1024u) << "P=" << P << " rank " << r;
    }
  }
}

TEST(RingAllgather, Correctness) {
  for (const std::size_t P : {2u, 3u, 5u, 8u}) {
    World w(P);
    EXPECT_TRUE(w.comm->allgather(16 * 1024, AllgatherAlgo::kRing)
                    .data_verified)
        << "P=" << P;
  }
}

TEST(RingAllgather, SendPathScalesWithP) {
  World w(6);
  w.cluster->fabric().reset_counters();
  ASSERT_TRUE(w.comm->allgather(64 * 1024, AllgatherAlgo::kRing).data_verified);
  const auto& topo = w.cluster->fabric().topology();
  std::uint64_t egress0 = 0;
  for (std::size_t d = 0; d < topo.num_dirs(); ++d)
    if (topo.dirs()[d].from == 0)
      egress0 += w.cluster->fabric().dir_counters(d).bytes;
  EXPECT_GE(egress0, 5 * 64 * 1024u);  // (P-1) * N on the send path
}

TEST(RingAllgather, SurvivesPacketLoss) {
  ClusterConfig kcfg;
  kcfg.fabric.faults.burst.drop_good = 0.01;
  kcfg.fabric.seed = 3;
  World w(8, {}, kcfg);
  EXPECT_TRUE(
      w.comm->allgather(64 * 1024, AllgatherAlgo::kRing).data_verified);
}

TEST(McastAllgather, HalvesFabricTrafficVsRing) {
  // Fig 12: multicast Allgather moves ~half the bytes of ring Allgather
  // through the fabric (and through the switches).
  const std::uint64_t N = 64 * 1024;
  World a(8, {}, {}, /*fat_tree=*/true);
  a.cluster->fabric().reset_counters();
  ASSERT_TRUE(a.comm->allgather(N, AllgatherAlgo::kMcast).data_verified);
  const auto mc = a.cluster->fabric().traffic();

  World b(8, {}, {}, /*fat_tree=*/true);
  b.cluster->fabric().reset_counters();
  ASSERT_TRUE(b.comm->allgather(N, AllgatherAlgo::kRing).data_verified);
  const auto ring = b.cluster->fabric().traffic();

  const double ratio = static_cast<double>(ring.total_bytes) /
                       static_cast<double>(mc.total_bytes);
  EXPECT_GT(ratio, 1.4);
}

TEST(McastAllgather, SequentialOpsOnOneCommunicator) {
  World w(4);
  for (int i = 0; i < 3; ++i)
    EXPECT_TRUE(w.comm->allgather(16 * 1024, AllgatherAlgo::kMcast)
                    .data_verified)
        << "iteration " << i;
}

TEST(McastAllgather, ConcurrentWithBroadcast) {
  // Two in-flight multicast collectives share subgroup QPs and staging but
  // are demultiplexed by the op tag in the immediate.
  World w(4);
  OpBase& ag = w.comm->start_allgather(32 * 1024, AllgatherAlgo::kMcast);
  OpBase& bc = w.comm->start_broadcast(1, 32 * 1024, BcastAlgo::kMcast);
  w.cluster->run_until_done([&] { return ag.done() && bc.done(); });
  EXPECT_TRUE(ag.verify());
  EXPECT_TRUE(bc.verify());
}

TEST(McastAllgather, PhaseBreakdownSumsToDuration) {
  World w(6);
  OpBase& op = w.comm->start_allgather(64 * 1024, AllgatherAlgo::kMcast);
  w.cluster->run_until_done([&] { return op.done(); });
  ASSERT_TRUE(op.verify());
  for (std::size_t r = 0; r < 6; ++r) {
    const Phases& ph = op.rank_phases(r);
    const Time sum = ph.total();
    const Time actual = op.result().rank_finish[r] - op.result().start;
    EXPECT_EQ(sum, actual) << "rank " << r;
  }
}

}  // namespace
}  // namespace mccl::coll
