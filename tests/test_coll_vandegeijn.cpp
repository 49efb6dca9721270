// Tests for the large-message P2P Broadcast: van de Geijn's scatter plus
// ring allgather.
#include <gtest/gtest.h>

#include "tests/coll_test_util.hpp"

namespace mccl::coll {
namespace {

using testing::World;

TEST(ScatterAllgatherBcast, Correctness) {
  for (const std::size_t P : {2u, 3u, 5u, 8u, 13u}) {
    World w(P);
    EXPECT_TRUE(w.comm->broadcast(0, 64 * 1024,
                                  BcastAlgo::kScatterAllgather)
                    .data_verified)
        << "P=" << P;
  }
}

TEST(ScatterAllgatherBcast, NonZeroRoot) {
  World w(7);
  EXPECT_TRUE(
      w.comm->broadcast(4, 100 * 1000, BcastAlgo::kScatterAllgather)
          .data_verified);
}

TEST(ScatterAllgatherBcast, TinyMessageRaggedPieces) {
  // 10 bytes over 8 ranks: some pieces are 1 byte, some 2.
  World w(8);
  EXPECT_TRUE(w.comm->broadcast(0, 10, BcastAlgo::kScatterAllgather)
                  .data_verified);
}

TEST(ScatterAllgatherBcast, BeatsWholeMessageTreesAtLargeSizes) {
  const std::uint64_t N = 4 * MiB;
  World a(16);
  const Time vdg =
      a.comm->broadcast(0, N, BcastAlgo::kScatterAllgather).duration();
  World b(16);
  const Time binom = b.comm->broadcast(0, N, BcastAlgo::kBinomial).duration();
  EXPECT_LT(vdg, binom);
}

TEST(ScatterAllgatherBcast, McastStillWins) {
  // The paper's point survives the strongest P2P baseline: multicast beats
  // scatter-allgather (which moves ~2N per NIC vs N once per link).
  const std::uint64_t N = 4 * MiB;
  World a(16);
  const Time mc = a.comm->broadcast(0, N, BcastAlgo::kMcast).duration();
  World b(16);
  const Time vdg =
      b.comm->broadcast(0, N, BcastAlgo::kScatterAllgather).duration();
  EXPECT_LT(mc, vdg);
}

TEST(ScatterAllgatherBcast, SurvivesPacketLoss) {
  ClusterConfig kcfg;
  kcfg.fabric.faults.burst.drop_good = 0.005;
  kcfg.fabric.seed = 11;
  World w(6, {}, kcfg);
  EXPECT_TRUE(w.comm->broadcast(0, 256 * 1024,
                                BcastAlgo::kScatterAllgather)
                  .data_verified);
}

}  // namespace
}  // namespace mccl::coll
