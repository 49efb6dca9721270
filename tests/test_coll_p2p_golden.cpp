// Golden timings for the point-to-point baselines: every tree, ring and
// scatter-allgather algorithm reached through start_* is pinned to its exact
// simulated per-rank finish times, phase maxima and fabric packet/byte
// counters. The values were recorded from the per-algorithm state machines
// the schedule interpreter replaced; any change to post order, worker
// costs, signalling or chaining moves at least one of them.
#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "tests/coll_test_util.hpp"

namespace mccl::coll {
namespace {

enum class Kind { kBcast, kAllgather, kReduceScatter };
enum class Net { kFatTree8, kStar6 };

struct Golden {
  std::vector<Time> rank_finish;
  std::array<Time, 4> phases;  // barrier, transfer, reliability, handshake
  std::uint64_t packets;
  std::uint64_t bytes;
};

struct Case {
  // The test parameter, printed in the ctest name: a deleted row leaves a
  // gap instead of renumbering the rows after it.
  std::size_t id;
  const char* name;
  Net net;
  bool payload;
  Kind kind;
  int algo;  // BcastAlgo / AllgatherAlgo / ReduceScatterAlgo value
  Golden want;
};

constexpr std::size_t kBcastRoot = 3;
constexpr std::uint64_t kBcastBytes = 100000;
constexpr std::uint64_t kAllgatherBytes = 24 * 1024 + 100;
constexpr std::uint64_t kRsBlockBytes = 160 * 1024;  // two 128 KiB segments

Golden run_case(const Case& c) {
  ClusterConfig kcfg;
  kcfg.nic.carry_payload = c.payload;
  // Two leaves of four hosts under two spines, or six hosts on one switch.
  fabric::Topology topo = c.net == Net::kFatTree8
                              ? fabric::make_fat_tree(2, 4, 2, 1, {}, {})
                              : fabric::make_star(6, {});
  const std::size_t hosts = c.net == Net::kFatTree8 ? 8 : 6;
  Cluster cluster(std::move(topo), kcfg);
  std::vector<fabric::NodeId> ids;
  for (std::size_t h = 0; h < hosts; ++h)
    ids.push_back(static_cast<fabric::NodeId>(h));
  Communicator comm(cluster, ids);

  OpBase* op = nullptr;
  switch (c.kind) {
    case Kind::kBcast:
      op = &comm.start_broadcast(kBcastRoot, kBcastBytes,
                                 static_cast<BcastAlgo>(c.algo));
      break;
    case Kind::kAllgather:
      op = &comm.start_allgather(kAllgatherBytes,
                                 static_cast<AllgatherAlgo>(c.algo));
      break;
    case Kind::kReduceScatter:
      op = &comm.start_reduce_scatter(kRsBlockBytes,
                                      static_cast<ReduceScatterAlgo>(c.algo));
      break;
  }
  const OpResult res = comm.finish(*op);
  EXPECT_EQ(res.status, OpStatus::kOk) << c.name;
  EXPECT_TRUE(res.data_verified) << c.name;
  // settle() verified at the done event; the buffers it saw are the final
  // ones.
  EXPECT_EQ(op->verify(), res.data_verified) << c.name;
  const auto t = cluster.fabric().traffic();
  return Golden{res.rank_finish,
                {res.max_phases.barrier, res.max_phases.transfer,
                 res.max_phases.reliability, res.max_phases.handshake},
                t.packets,
                t.total_bytes};
}

std::string to_literal(const Golden& g) {
  std::ostringstream os;
  os << "{{";
  for (std::size_t i = 0; i < g.rank_finish.size(); ++i)
    os << (i ? ", " : "") << g.rank_finish[i];
  os << "}, {" << g.phases[0] << ", " << g.phases[1] << ", " << g.phases[2]
     << ", " << g.phases[3] << "}, " << g.packets << ", " << g.bytes << "}";
  return os.str();
}

constexpr int kBinomial = static_cast<int>(BcastAlgo::kBinomial);
constexpr int kBinary = static_cast<int>(BcastAlgo::kBinaryTree);
constexpr int kScatterAg = static_cast<int>(BcastAlgo::kScatterAllgather);
constexpr int kRingAg = static_cast<int>(AllgatherAlgo::kRing);
constexpr int kRingRs = static_cast<int>(ReduceScatterAlgo::kRing);

const std::vector<Case>& cases() {
  static const std::vector<Case> kCases = {
      {0, "FatTree8Timing_BinomialBcast", Net::kFatTree8, false,
       Kind::kBcast, kBinomial,
       {{24092490, 14421500, 20004570, 4000000, 26555290, 16884300, 22467370,
         7210750},
        {0, 26555290, 0, 0}, 644, 2402816}},
      {1, "FatTree8Timing_BinaryTreeBcast", Net::kFatTree8, false,
       Kind::kBcast, kBinary,
       {{24092490, 33763480, 20004570, 4000000, 7210750, 16881740, 12793820,
         19532010},
        {0, 33763480, 0, 0}, 644, 2402816}},
      {3, "FatTree8Timing_ScatterAllgatherBcast", Net::kFatTree8, false,
       Kind::kBcast, kScatterAg,
       {{30899845, 32482915, 21857330, 21478345, 24691655, 26274725,
         26178055, 27763685},
        {0, 32482915, 0, 0}, 878, 2310368}},
      {4, "FatTree8Timing_RingAllgather", Net::kFatTree8, false,
       Kind::kAllgather, kRingAg,
       {{21246130, 21248690, 21264050, 19618450, 21246130, 21248690,
         21264050, 19618450},
        {0, 21264050, 0, 0}, 1110, 3462960}},
      {7, "FatTree8Timing_RingReduceScatter", Net::kFatTree8, false,
       Kind::kReduceScatter, kRingRs,
       {{74840303, 74840303, 74855663, 73212623, 74840303, 74840303,
         74855663, 73212623},
        {0, 74855663, 0, 0}, 6020, 22964480}},
      {9, "FatTree8Payload_BinomialBcast", Net::kFatTree8, true,
       Kind::kBcast, kBinomial,
       {{24092490, 14421500, 20004570, 4000000, 26555290, 16884300, 22467370,
         7210750},
        {0, 26555290, 0, 0}, 644, 2402816}},
      {10, "FatTree8Payload_BinaryTreeBcast", Net::kFatTree8, true,
       Kind::kBcast, kBinary,
       {{24092490, 33763480, 20004570, 4000000, 7210750, 16881740, 12793820,
         19532010},
        {0, 33763480, 0, 0}, 644, 2402816}},
      {12, "FatTree8Payload_ScatterAllgatherBcast", Net::kFatTree8, true,
       Kind::kBcast, kScatterAg,
       {{30899845, 32482915, 21857330, 21478345, 24691655, 26274725,
         26178055, 27763685},
        {0, 32482915, 0, 0}, 878, 2310368}},
      {13, "FatTree8Payload_RingAllgather", Net::kFatTree8, true,
       Kind::kAllgather, kRingAg,
       {{21246130, 21248690, 21264050, 19618450, 21246130, 21248690,
         21264050, 19618450},
        {0, 21264050, 0, 0}, 1110, 3462960}},
      {16, "FatTree8Payload_RingReduceScatter", Net::kFatTree8, true,
       Kind::kReduceScatter, kRingRs,
       {{74840303, 74840303, 74855663, 73212623, 74840303, 74840303,
         74855663, 73212623},
        {0, 74855663, 0, 0}, 6020, 22964480}},
      {18, "Star6Payload_BinomialBcast", Net::kStar6, true,
       Kind::kBcast, kBinomial,
       {{17904330, 5583070, 11166140, 4000000, 19059450, 12321260},
        {0, 19059450, 0, 0}, 269, 1001216}},
      {19, "Star6Payload_BinaryTreeBcast", Net::kStar6, true,
       Kind::kBcast, kBinary,
       {{11166140, 17904330, 17904330, 4000000, 5583070, 12321260},
        {0, 17904330, 0, 0}, 268, 1001152}},
      {21, "Star6Payload_ScatterAllgatherBcast", Net::kStar6, true,
       Kind::kBcast, kScatterAg,
       {{19875625, 19575690, 15256230, 15123815, 16709445, 18292515},
        {0, 19875625, 0, 0}, 434, 1237688}},
      {22, "Star6Payload_RingAllgather", Net::kStar6, true,
       Kind::kAllgather, kRingAg,
       {{12850550, 12850550, 12850550, 12850550, 12850550, 12850550},
        {0, 12850550, 0, 0}, 474, 1484016}},
      {24, "Star6Payload_RingReduceScatter", Net::kStar6, true,
       Kind::kReduceScatter, kRingRs,
       {{51357157, 51357157, 51357157, 51357157, 51357157, 51357157},
        {0, 51357157, 0, 0}, 2580, 9841920}},
  };
  return kCases;
}

const Case& case_with_id(std::size_t id) {
  for (const Case& c : cases())
    if (c.id == id) return c;
  MCCL_CHECK_MSG(false, "no golden row with this id");
  return cases().front();
}

std::vector<std::size_t> case_ids() {
  std::vector<std::size_t> ids;
  for (const Case& c : cases()) ids.push_back(c.id);
  return ids;
}

class P2PGolden : public ::testing::TestWithParam<std::size_t> {};

TEST_P(P2PGolden, ExactTimingAndTraffic) {
  const Case& c = case_with_id(GetParam());
  const Golden got = run_case(c);
  const std::string lit = to_literal(got);
  EXPECT_EQ(got.rank_finish, c.want.rank_finish) << c.name << ": " << lit;
  EXPECT_EQ(got.phases, c.want.phases) << c.name << ": " << lit;
  EXPECT_EQ(got.packets, c.want.packets) << c.name << ": " << lit;
  EXPECT_EQ(got.bytes, c.want.bytes) << c.name << ": " << lit;
}

INSTANTIATE_TEST_SUITE_P(
    Baselines, P2PGolden, ::testing::ValuesIn(case_ids()),
    [](const ::testing::TestParamInfo<std::size_t>& info) {
      return std::string(case_with_id(info.param).name);
    });

}  // namespace
}  // namespace mccl::coll
