// Appendix B — Concurrent {Allgather, Reduce-Scatter} on the same nodes:
// runtime of {mcast AG, INC RS} vs {ring AG, ring RS}, against the model
//
//     S = 2 - 2/P.
//
// Expect: the measured speedup tracks the analytic curve — approaching 2x
// as P grows — because the bandwidth-optimal pair splits the NIC's two
// directions instead of halving each (Insight 2).
#include "bench/bench_common.hpp"

namespace {
using namespace mccl;

Time run_pair(bench::World& w, bool optimal, std::uint64_t bytes) {
  coll::OpBase& ag = w.comm->start_allgather(
      bytes, optimal ? coll::AllgatherAlgo::kMcast : coll::AllgatherAlgo::kRing);
  coll::OpBase& rs = w.comm->start_reduce_scatter(
      bytes,
      optimal ? coll::ReduceScatterAlgo::kInc : coll::ReduceScatterAlgo::kRing);
  w.cluster->run_until_done([&] { return ag.done() && rs.done(); });
  const coll::OpResult& a = ag.result();
  const coll::OpResult& b = rs.result();
  MCCL_CHECK(!a.failed && !b.failed);
  return std::max(a.finish, b.finish) - std::min(a.start, b.start);
}

void BM_Concurrent(benchmark::State& state) {
  const std::size_t ranks = static_cast<std::size_t>(state.range(0));
  const std::uint64_t bytes = 512 * KiB;
  coll::CommConfig cfg;
  cfg.cutoff_alpha = 50 * kMillisecond;
  // The Appendix B model assumes enough protocol-processing capacity that
  // the NIC directions are the only bottleneck: provision parallel workers
  // (packet parallelism) and several chains (multicast parallelism) so the
  // receive link stays saturated between schedule steps.
  cfg.subgroups = 4;
  cfg.recv_workers = 4;
  cfg.send_workers = 2;
  cfg.chains = 4;
  double speedup = 0;
  for (auto _ : state) {
    bench::World a(fabric::make_fat_tree_for_hosts(ranks, 16, {}),
                   bench::synthetic_cluster(), cfg, ranks);
    const Time t_ring = run_pair(a, /*optimal=*/false, bytes);
    bench::World b(fabric::make_fat_tree_for_hosts(ranks, 16, {}),
                   bench::synthetic_cluster(), cfg, ranks);
    const Time t_opt = run_pair(b, /*optimal=*/true, bytes);
    speedup = static_cast<double>(t_ring) / static_cast<double>(t_opt);
    bench::record_sim_time(state, t_opt);
  }
  state.counters["speedup_measured"] = speedup;
  state.counters["speedup_model_2m2overP"] = model::concurrent_speedup(ranks);
}

void register_all() {
  auto* b = benchmark::RegisterBenchmark("AppB/concurrent_ag_rs",
                                         BM_Concurrent);
  for (long p : {2, 4, 8, 16, 32}) b->Args({p});
  b->UseManualTime()->Iterations(1);
}

}  // namespace

int main(int argc, char** argv) {
  bench::banner("Appendix B: concurrent {Allgather, Reduce-Scatter} speedup",
                "Expect: measured speedup tracks S = 2 - 2/P (1.0 at P=2 "
                "toward 2.0 at scale).");
  register_all();
  return bench::run_main(argc, argv);
}
