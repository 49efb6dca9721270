// Reproducibility: the entire simulation must be a pure function of its
// configuration and seed — identical runs give identical timings, traffic
// and slow-path activity. This is what makes bug reports and benchmark
// numbers from this repository trustworthy.
#include <gtest/gtest.h>

#include "tests/coll_test_util.hpp"

namespace mccl::coll {
namespace {

using testing::World;

struct RunRecord {
  Time finish;
  std::vector<Time> rank_finish;
  std::uint64_t traffic;
  std::uint64_t fetched;
};

RunRecord run_once(double drop, std::uint64_t seed) {
  CommConfig cfg;
  cfg.cutoff_alpha = 50 * kMicrosecond;
  cfg.subgroups = 2;
  cfg.recv_workers = 2;
  ClusterConfig kcfg;
  kcfg.fabric.faults.burst.drop_good = drop;
  kcfg.fabric.seed = seed;
  World w(5, cfg, kcfg);
  const OpResult res = w.comm->allgather(64 * 1024, AllgatherAlgo::kMcast);
  EXPECT_TRUE(res.data_verified);
  return {res.finish, res.rank_finish,
          w.cluster->fabric().traffic().total_bytes, res.fetched_chunks};
}

TEST(Determinism, LosslessRunsAreBitIdentical) {
  const RunRecord a = run_once(0.0, 1), b = run_once(0.0, 1);
  EXPECT_EQ(a.finish, b.finish);
  EXPECT_EQ(a.rank_finish, b.rank_finish);
  EXPECT_EQ(a.traffic, b.traffic);
}

TEST(Determinism, LossyRunsAreBitIdenticalForSameSeed) {
  const RunRecord a = run_once(0.02, 77), b = run_once(0.02, 77);
  EXPECT_EQ(a.finish, b.finish);
  EXPECT_EQ(a.rank_finish, b.rank_finish);
  EXPECT_EQ(a.traffic, b.traffic);
  EXPECT_EQ(a.fetched, b.fetched);
}

TEST(Determinism, DifferentSeedsDivergeUnderLoss) {
  const RunRecord a = run_once(0.02, 1), b = run_once(0.02, 2);
  // Different drop patterns: almost surely different recovery activity.
  EXPECT_TRUE(a.finish != b.finish || a.fetched != b.fetched);
}

}  // namespace
}  // namespace mccl::coll
