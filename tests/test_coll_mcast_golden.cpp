// Golden phase values for the multicast Allgather: every rank's exact Fig 10
// breakdown (rank_phases: barrier, transfer, reliability, handshake) on a
// fault-free run, under uniform loss (the cutoff starts the slow path) and
// across a mid-op root crash on a lossy fabric (crash repair finds a
// survivor that holds the dead root's whole block and re-roots the block
// there, which starts recovery at once). Any change to when a rank enters
// or leaves a phase moves at least one value.
#include <gtest/gtest.h>

#include <array>
#include <sstream>
#include <string>
#include <vector>

#include "src/coll/communicator.hpp"

namespace mccl::coll {
namespace {

enum class Scenario { kClean, kLoss, kRootCrash };

using PhaseRow = std::array<Time, 4>;  // barrier, transfer, reliability,
                                       // handshake

struct Case {
  const char* name;
  Scenario scenario;
  std::uint64_t bytes;
  std::vector<PhaseRow> want;  // one row per rank
};

constexpr std::size_t kRanks = 8;
constexpr std::size_t kVictim = 3;

struct Outcome {
  std::vector<PhaseRow> phases;
  OpResult res;
};

Outcome run_case(const Case& c) {
  CommConfig cfg;
  cfg.cutoff_alpha = 50 * kMicrosecond;
  ClusterConfig kcfg;
  if (c.scenario == Scenario::kLoss) {
    kcfg.fabric.faults.burst.drop_good = 0.02;
    kcfg.fabric.seed = 77;
  } else if (c.scenario == Scenario::kRootCrash) {
    // Without loss the root's block reaches every survivor or none, and
    // the census has nobody to re-root at.
    kcfg.fabric.faults.burst.drop_good = 0.01;
    kcfg.fabric.seed = 77;
    kcfg.fabric.faults.events = {
        fabric::FaultEvent::node_crash(30 * kMicrosecond, kVictim)};
  }
  // Two leaves of four hosts under two spines.
  Cluster cluster(fabric::make_fat_tree(2, 4, 2, 1, {}, {}), kcfg);
  std::vector<fabric::NodeId> ids;
  for (std::size_t h = 0; h < kRanks; ++h)
    ids.push_back(static_cast<fabric::NodeId>(h));
  Communicator comm(cluster, ids, cfg);
  OpBase& op = comm.start_allgather(c.bytes, AllgatherAlgo::kMcast);
  Outcome run;
  run.res = comm.finish(op);
  for (std::size_t r = 0; r < kRanks; ++r) {
    const Phases& p = op.rank_phases(r);
    run.phases.push_back({p.barrier, p.transfer, p.reliability, p.handshake});
  }
  return run;
}

std::string to_literal(const std::vector<PhaseRow>& rows) {
  std::ostringstream os;
  for (const PhaseRow& p : rows)
    os << "{" << p[0] << ", " << p[1] << ", " << p[2] << ", " << p[3]
       << "},\n";
  return os.str();
}

const std::vector<Case>& cases() {
  static const std::vector<Case> kCases = {
      {"FaultFree", Scenario::kClean, 24 * 1024 + 100,
       {{6857690, 28800291, 0, 1419230},
        {6857690, 28800291, 0, 1419230},
        {6857690, 28800291, 0, 1419230},
        {5557690, 30100291, 0, 1091550},
        {6857690, 27172611, 0, 1419230},
        {6857690, 27172611, 0, 1419230},
        {6857690, 27172611, 0, 0},
        {5557690, 25608650, 0, 7210871}}},
      {"UniformLoss", Scenario::kLoss, 64 * 1024,
       {{6857690, 148350080, 264106917, 5856889},
        {6857690, 148350080, 268544576, 0},
        {104138460, 148350080, 129996785, 5825104},
        {5557690, 148350080, 232848814, 11492519},
        {6857690, 148350080, 240052873, 0},
        {6857690, 148350080, 146727540, 5991504},
        {106857690, 148350080, 51165199, 99088646},
        {5557690, 148350080, 156902858, 111357904}}},
      // The crashed rank never completes: its row stays zero.
      {"RootCrashReRoot", Scenario::kRootCrash, 64 * 1024,
       {{6857690, 148350080, 127189842, 5991504},
        {6857690, 148350080, 131627501, 5856889},
        {6857690, 148350080, 136065160, 374739325},
        {0, 0, 0, 0},
        {6857690, 148350080, 508085255, 0},
        {6857690, 148350080, 505900669, 105825104},
        {6857690, 148350080, 610171928, 5690489},
        {5557690, 148350080, 615743187, 0}}},
  };
  return kCases;
}

class McastPhaseGolden : public ::testing::TestWithParam<std::size_t> {};

TEST_P(McastPhaseGolden, ExactRankPhases) {
  const Case& c = cases()[GetParam()];
  const Outcome got = run_case(c);
  ASSERT_FALSE(got.res.failed) << c.name;
  EXPECT_TRUE(got.res.data_verified) << c.name;
  // Each scenario reaches the phase edges it is named for.
  Time reliability = 0;
  for (const PhaseRow& p : got.phases) reliability += p[2];
  switch (c.scenario) {
    case Scenario::kClean:
      EXPECT_EQ(reliability, 0) << c.name;
      break;
    case Scenario::kLoss:
      EXPECT_GT(reliability, 0) << c.name;
      break;
    case Scenario::kRootCrash:
      EXPECT_EQ(got.res.crashed_ranks, (std::vector<std::size_t>{kVictim}));
      EXPECT_GE(got.res.reroots, 1u) << c.name;
      EXPECT_GT(reliability, 0) << c.name;
      break;
  }
  EXPECT_EQ(got.phases, c.want) << c.name << ":\n" << to_literal(got.phases);
}

INSTANTIATE_TEST_SUITE_P(
    Allgather, McastPhaseGolden, ::testing::Range<std::size_t>(0, 3),
    [](const ::testing::TestParamInfo<std::size_t>& info) {
      return std::string(cases()[info.param].name);
    });

}  // namespace
}  // namespace mccl::coll
