// Figure 11 — Per-process receive throughput at the full 188-node testbed
// scale (56 Gbit/s ConnectX-3 fat tree, 1 process per node).
//
//   Broadcast:  multicast vs k-nomial (binomial) vs balanced binary tree.
//   Allgather:  multicast (one active root, as in the paper) vs ring.
//
// Expect: multicast Broadcast beats the binomial tree (up to ~1.3x) and the
// binary tree (up to ~4.75x) at large messages; multicast Allgather matches
// ring throughput (both are receive-path-bound) while moving half the
// fabric traffic (see Fig 12).
#include "bench/bench_common.hpp"

namespace {
using namespace mccl;

constexpr std::size_t kRanks = 188;

// Row names carry the algorithm's integer value
// (Fig11/bcast_scatter_allgather/4/...), and BENCH_figures.json and the
// figure-drift gate key on those names: renumbering an enum fails here.
static_assert(static_cast<int>(coll::BcastAlgo::kMcast) == 0);
static_assert(static_cast<int>(coll::BcastAlgo::kBinomial) == 1);
static_assert(static_cast<int>(coll::BcastAlgo::kBinaryTree) == 2);
static_assert(static_cast<int>(coll::BcastAlgo::kScatterAllgather) == 4);
static_assert(static_cast<int>(coll::AllgatherAlgo::kMcast) == 0);
static_assert(static_cast<int>(coll::AllgatherAlgo::kRing) == 1);

void BM_Bcast(benchmark::State& state) {
  const auto algo = static_cast<coll::BcastAlgo>(state.range(0));
  const std::uint64_t bytes = static_cast<std::uint64_t>(state.range(1));
  coll::CommConfig cfg;
  cfg.cutoff_alpha = 20 * kMillisecond;
  Time dur = 0;
  for (auto _ : state) {
    bench::World w(bench::ucc_testbed_topology(), bench::ucc_testbed_cluster(),
                   cfg, kRanks);
    const coll::OpResult res = w.comm->broadcast(0, bytes, algo);
    MCCL_CHECK(res.data_verified);
    MCCL_CHECK(res.fetched_chunks == 0);
    dur = res.duration();
    bench::record_sim_time(state, dur);
  }
  bench::set_gbps(state, "per_rank_Gbit_s", bytes, dur);
}

void BM_Allgather(benchmark::State& state) {
  const auto algo = static_cast<coll::AllgatherAlgo>(state.range(0));
  const std::uint64_t bytes = static_cast<std::uint64_t>(state.range(1));
  coll::CommConfig cfg;
  cfg.cutoff_alpha = 50 * kMillisecond;
  Time dur = 0;
  for (auto _ : state) {
    bench::World w(bench::ucc_testbed_topology(), bench::ucc_testbed_cluster(),
                   cfg, kRanks);
    const coll::OpResult res = w.comm->allgather(bytes, algo);
    MCCL_CHECK(res.data_verified);
    MCCL_CHECK(res.fetched_chunks == 0);
    dur = res.duration();
    bench::record_sim_time(state, dur);
  }
  // Per-rank receive throughput: each rank ingests (P-1)*N.
  bench::set_gbps(state, "per_rank_recv_Gbit_s", bytes * (kRanks - 1), dur);
}

void register_all() {
  const std::vector<std::pair<const char*, coll::BcastAlgo>> bcasts = {
      {"Fig11/bcast_mcast", coll::BcastAlgo::kMcast},
      {"Fig11/bcast_knomial", coll::BcastAlgo::kBinomial},
      {"Fig11/bcast_binary_tree", coll::BcastAlgo::kBinaryTree},
      // The strongest P2P baseline (what production stacks actually run for
      // large messages); the paper's "up to 1.3x" margin is against this
      // class of algorithm.
      {"Fig11/bcast_scatter_allgather", coll::BcastAlgo::kScatterAllgather},
  };
  for (const auto& [name, algo] : bcasts) {
    auto* b = benchmark::RegisterBenchmark(name, BM_Bcast);
    for (std::uint64_t sz = 16 * mccl::KiB; sz <= 4 * mccl::MiB; sz *= 4)
      b->Args({static_cast<long>(algo), static_cast<long>(sz)});
    b->UseManualTime()->Iterations(1);
  }
  const std::vector<std::pair<const char*, coll::AllgatherAlgo>> ags = {
      {"Fig11/allgather_mcast", coll::AllgatherAlgo::kMcast},
      {"Fig11/allgather_ring", coll::AllgatherAlgo::kRing},
  };
  for (const auto& [name, algo] : ags) {
    auto* b = benchmark::RegisterBenchmark(name, BM_Allgather);
    for (std::uint64_t sz = 16 * mccl::KiB; sz <= 256 * mccl::KiB; sz *= 4)
      b->Args({static_cast<long>(algo), static_cast<long>(sz)});
    b->UseManualTime()->Iterations(1);
  }
}

}  // namespace

int main(int argc, char** argv) {
  bench::banner("Figure 11: throughput at 188 nodes (56 Gbit/s fat tree)",
                "Expect: mcast bcast > binomial > binary tree at large "
                "sizes; mcast allgather ~= ring allgather throughput.");
  register_all();
  return bench::run_main(argc, argv);
}
