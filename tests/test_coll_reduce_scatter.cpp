// Reduce-Scatter tests: ring and in-network-compute variants, numerics,
// traffic profiles (Fig 3), concurrent {Allgather, Reduce-Scatter}.
#include <gtest/gtest.h>

#include "tests/coll_test_util.hpp"

namespace mccl::coll {
namespace {

using testing::World;

TEST(RingReduceScatter, Correctness) {
  for (const std::size_t P : {2u, 3u, 4u, 7u}) {
    World w(P);
    EXPECT_TRUE(w.comm->reduce_scatter(16 * 1024, ReduceScatterAlgo::kRing)
                    .data_verified)
        << "P=" << P;
  }
}

TEST(RingReduceScatter, SmallBlock) {
  World w(4);
  EXPECT_TRUE(
      w.comm->reduce_scatter(64, ReduceScatterAlgo::kRing).data_verified);
}

TEST(IncReduceScatter, Correctness) {
  for (const std::size_t P : {2u, 3u, 5u, 8u}) {
    World w(P);
    EXPECT_TRUE(w.comm->reduce_scatter(16 * 1024, ReduceScatterAlgo::kInc)
                    .data_verified)
        << "P=" << P;
  }
}

TEST(IncReduceScatter, LossyFabricIsRefused) {
  // The INC substrate has no reliability layer: a lost contribution never
  // settles the op, so uniform and burst loss are both refused up front.
  fabric::GilbertElliott uniform;
  uniform.drop_good = 0.01;
  fabric::GilbertElliott burst;
  burst.p_enter_bad = 0.002;
  for (const fabric::GilbertElliott& loss : {uniform, burst}) {
    ClusterConfig kcfg;
    kcfg.fabric.faults.burst = loss;
    World w(4, {}, kcfg);
    EXPECT_DEATH(w.comm->reduce_scatter(16 * 1024, ReduceScatterAlgo::kInc),
                 "assumes a lossless fabric");
  }
}

TEST(IncReduceScatter, FatTreeAggregationAcrossSwitches) {
  World w(8, {}, {}, /*fat_tree=*/true);
  EXPECT_TRUE(w.comm->reduce_scatter(32 * 1024, ReduceScatterAlgo::kInc)
                  .data_verified);
  EXPECT_GT(w.cluster->inc().merged_packets(), 0u);
}

TEST(IncReduceScatter, RaggedChunks) {
  World w(3);
  EXPECT_TRUE(w.comm->reduce_scatter(4096 + 1024, ReduceScatterAlgo::kInc)
                  .data_verified);
}

TEST(IncReduceScatter, NodeBoundaryTrafficMatchesFig3) {
  // INC column of Fig 3: NIC send path N*(P-1), receive path ~N.
  const std::uint64_t N = 64 * 1024;
  const std::size_t P = 4;
  World w(P);
  w.cluster->fabric().reset_counters();
  ASSERT_TRUE(w.comm->reduce_scatter(N, ReduceScatterAlgo::kInc).data_verified);
  const auto& topo = w.cluster->fabric().topology();
  std::uint64_t egress0 = 0, ingress0 = 0;
  for (std::size_t d = 0; d < topo.num_dirs(); ++d) {
    if (topo.dirs()[d].from == 0)
      egress0 += w.cluster->fabric().dir_counters(d).bytes;
    if (topo.dirs()[d].to == 0)
      ingress0 += w.cluster->fabric().dir_counters(d).bytes;
  }
  EXPECT_NEAR(static_cast<double>(egress0), (P - 1) * N, 0.1 * (P - 1) * N);
  EXPECT_LT(ingress0, 2 * N);
}

TEST(RingReduceScatter, NodeBoundaryTrafficMatchesFig3) {
  // Ring column of Fig 3: both directions carry N*(P-1).
  const std::uint64_t N = 64 * 1024;
  const std::size_t P = 4;
  World w(P);
  w.cluster->fabric().reset_counters();
  ASSERT_TRUE(
      w.comm->reduce_scatter(N, ReduceScatterAlgo::kRing).data_verified);
  const auto& topo = w.cluster->fabric().topology();
  std::uint64_t egress0 = 0, ingress0 = 0;
  for (std::size_t d = 0; d < topo.num_dirs(); ++d) {
    if (topo.dirs()[d].from == 0)
      egress0 += w.cluster->fabric().dir_counters(d).bytes;
    if (topo.dirs()[d].to == 0)
      ingress0 += w.cluster->fabric().dir_counters(d).bytes;
  }
  EXPECT_GE(egress0, (P - 1) * N);
  EXPECT_GE(ingress0, (P - 1) * N);
}

TEST(Concurrent, AgRsRingRingSharesBothPaths) {
  // Concurrent ring Allgather + ring Reduce-Scatter contend on both NIC
  // directions; mcast+INC split them (Insight 2). The mcast+INC pair must
  // finish faster on the same hardware.
  const std::uint64_t N = 256 * 1024;
  const std::size_t P = 4;
  // Bandwidth-bound premise of Insight 2: provision enough workers that the
  // protocol engines are not the bottleneck.
  CommConfig cfg;
  cfg.subgroups = 4;
  cfg.recv_workers = 4;
  cfg.send_workers = 2;
  cfg.chains = 2;

  World a(P, cfg);
  OpBase& ag1 = a.comm->start_allgather(N, AllgatherAlgo::kRing);
  OpBase& rs1 = a.comm->start_reduce_scatter(N, ReduceScatterAlgo::kRing);
  a.cluster->run_until_done([&] { return ag1.done() && rs1.done(); });
  EXPECT_TRUE(ag1.verify());
  EXPECT_TRUE(rs1.verify());
  const Time t_ring = std::max(ag1.result().finish, rs1.result().finish);

  World b(P, cfg);
  OpBase& ag2 = b.comm->start_allgather(N, AllgatherAlgo::kMcast);
  OpBase& rs2 = b.comm->start_reduce_scatter(N, ReduceScatterAlgo::kInc);
  b.cluster->run_until_done([&] { return ag2.done() && rs2.done(); });
  EXPECT_TRUE(ag2.verify());
  EXPECT_TRUE(rs2.verify());
  const Time t_opt = std::max(ag2.result().finish, rs2.result().finish);

  EXPECT_LT(t_opt, t_ring);
}

}  // namespace
}  // namespace mccl::coll
