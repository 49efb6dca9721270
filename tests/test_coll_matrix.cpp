// Property-style sweep: the full configuration matrix (transport x engine x
// message shape x rank count) must produce byte-correct collectives, with
// zero slow-path activity on a lossless fabric.
#include <gtest/gtest.h>

#include <type_traits>

#include "tests/coll_test_util.hpp"

namespace mccl::coll {
namespace {

using testing::World;

// gtest prints a parameter without a PrintTo as its raw bytes, and that
// print is part of every ctest name. `unused` fills what would otherwise be
// uninitialised padding, so the names are the same in every build.
struct MatrixCase {
  std::size_t ranks;
  Transport transport;
  EngineKind engine;
  std::uint8_t unused[6];
  std::uint64_t bytes;
  std::size_t subgroups;
};
static_assert(std::has_unique_object_representations_v<MatrixCase>,
              "MatrixCase must have no padding bytes");

class CollMatrix : public ::testing::TestWithParam<MatrixCase> {};

TEST_P(CollMatrix, AllgatherCorrectAndCleanFastPath) {
  const MatrixCase c = GetParam();
  CommConfig cfg;
  cfg.transport = c.transport;
  cfg.progress_engine = c.engine;
  cfg.subgroups = c.subgroups;
  cfg.recv_workers = c.subgroups;
  World w(c.ranks, cfg);
  const OpResult res = w.comm->allgather(c.bytes, AllgatherAlgo::kMcast);
  EXPECT_TRUE(res.data_verified);
  EXPECT_EQ(res.fetched_chunks, 0u) << "lossless fabric must not fetch";
  EXPECT_EQ(res.rnr_drops, 0u);
}

TEST_P(CollMatrix, BroadcastCorrect) {
  const MatrixCase c = GetParam();
  CommConfig cfg;
  cfg.transport = c.transport;
  cfg.progress_engine = c.engine;
  cfg.subgroups = c.subgroups;
  cfg.recv_workers = c.subgroups;
  World w(c.ranks, cfg);
  const OpResult res =
      w.comm->broadcast(c.ranks - 1, c.bytes, BcastAlgo::kMcast);
  EXPECT_TRUE(res.data_verified);
}

std::string case_name(const ::testing::TestParamInfo<MatrixCase>& info) {
  const MatrixCase& c = info.param;
  std::string s = "P" + std::to_string(c.ranks);
  s += c.transport == Transport::kUd ? "_ud" : "_uc";
  s += c.engine == EngineKind::kDpa ? "_dpa" : "_cpu";
  s += "_n" + std::to_string(c.bytes);
  s += "_sg" + std::to_string(c.subgroups);
  return s;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CollMatrix,
    ::testing::Values(
        MatrixCase{2, Transport::kUd, EngineKind::kCpu, {}, 4096, 1},
        MatrixCase{2, Transport::kUcMcast, EngineKind::kDpa, {}, 100000, 2},
        MatrixCase{3, Transport::kUd, EngineKind::kDpa, {}, 12345, 1},
        MatrixCase{4, Transport::kUd, EngineKind::kCpu, {}, 65536, 4},
        MatrixCase{4, Transport::kUcMcast, EngineKind::kCpu, {}, 65536, 2},
        MatrixCase{5, Transport::kUd, EngineKind::kDpa, {}, 8192, 2},
        MatrixCase{6, Transport::kUcMcast, EngineKind::kDpa, {}, 262144, 4},
        MatrixCase{7, Transport::kUd, EngineKind::kCpu, {}, 4097, 2},
        MatrixCase{8, Transport::kUd, EngineKind::kDpa, {}, 131072, 8},
        MatrixCase{9, Transport::kUcMcast, EngineKind::kCpu, {}, 31337, 1}),
    case_name);

// Baseline algorithms swept over rank counts and odd sizes.
class BaselineMatrix
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::uint64_t>> {
};

TEST_P(BaselineMatrix, AllP2PAlgorithmsAgree) {
  const auto [ranks, bytes] = GetParam();
  World w(ranks);
  EXPECT_TRUE(w.comm->broadcast(0, bytes, BcastAlgo::kBinomial).data_verified);
  EXPECT_TRUE(
      w.comm->broadcast(1 % ranks, bytes, BcastAlgo::kBinaryTree).data_verified);
  EXPECT_TRUE(w.comm->allgather(bytes, AllgatherAlgo::kRing).data_verified);
}

TEST_P(BaselineMatrix, ReduceScatterAlgorithmsAgree) {
  const auto [ranks, bytes] = GetParam();
  const std::uint64_t rs_bytes = bytes / 4 * 4;  // float-aligned
  if (rs_bytes == 0) return;
  World w(ranks);
  EXPECT_TRUE(w.comm->reduce_scatter(rs_bytes, ReduceScatterAlgo::kRing)
                  .data_verified);
  EXPECT_TRUE(w.comm->reduce_scatter(rs_bytes, ReduceScatterAlgo::kInc)
                  .data_verified);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BaselineMatrix,
    ::testing::Combine(::testing::Values(2, 3, 5, 8),
                       ::testing::Values(512, 16384, 100000)));

}  // namespace
}  // namespace mccl::coll
