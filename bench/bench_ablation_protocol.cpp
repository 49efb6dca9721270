// Ablation — protocol mechanics: doorbell batching (Section V-A), staging
// ring depth (Section III-D), broadcast chains (Section IV-A).
//
// Expect:
//  - batching amortizes the doorbell: send-side throughput rises with the
//    batch factor and saturates;
//  - an undersized staging ring causes RNR drops and slow-path rescues;
//  - more chains shorten the Allgather schedule until the receive links
//    saturate, after which extra chains stop helping.
#include "bench/bench_common.hpp"

namespace {
using namespace mccl;

void BM_DoorbellBatching(benchmark::State& state) {
  const std::size_t batch = static_cast<std::size_t>(state.range(0));
  coll::CommConfig cfg;
  cfg.cutoff_alpha = 1 * kSecond;
  cfg.progress_engine = coll::EngineKind::kDpa;
  cfg.recv_workers = 16;
  cfg.subgroups = 16;
  cfg.send_workers = 1;  // stress the send path
  cfg.send_batch = batch;
  cfg.staging_slots = 4096;
  bench::DatapathResult r;
  for (auto _ : state) {
    bench::World w(bench::dpa_testbed_topology(),
                   bench::dpa_testbed_cluster(), cfg, 2);
    r = bench::run_datapath(w, 8 * MiB);
    bench::record_sim_time(state, r.transfer);
  }
  state.counters["Gbit_s"] = r.gbps;
}

void BM_StagingDepth(benchmark::State& state) {
  const std::size_t slots = static_cast<std::size_t>(state.range(0));
  coll::CommConfig cfg;
  cfg.cutoff_alpha = 500 * kMicrosecond;
  cfg.progress_engine = coll::EngineKind::kDpa;
  cfg.send_engine = coll::EngineKind::kCpu;
  // Deliberately under-provisioned receiver (2 threads < line rate): a
  // backlog builds, so the staging ring depth decides between absorbing the
  // burst and RNR-dropping into the slow path.
  cfg.recv_workers = 2;
  cfg.subgroups = 2;
  cfg.staging_slots = slots;
  std::uint64_t rnr = 0, fetched = 0;
  Time dur = 0;
  for (auto _ : state) {
    bench::World w(bench::dpa_testbed_topology(),
                   bench::dpa_testbed_cluster(), cfg, 2);
    coll::OpBase& op =
        w.comm->start_broadcast(0, 8 * MiB, coll::BcastAlgo::kMcast);
    w.cluster->run_until_done([&op] { return op.done(); });
    const coll::OpResult& res = op.result();
    MCCL_CHECK(!res.failed);
    dur = res.duration();
    rnr = w.comm->ep(1).rnr_drops();
    fetched = res.fetched_chunks;
    bench::record_sim_time(state, dur);
  }
  state.counters["rnr_drops"] = static_cast<double>(rnr);
  state.counters["fetched"] = static_cast<double>(fetched);
  state.counters["Gbit_s"] = gbps(8 * MiB, dur);
}

void BM_Chains(benchmark::State& state) {
  const std::size_t chains = static_cast<std::size_t>(state.range(0));
  const std::size_t ranks = 32;
  coll::CommConfig cfg;
  cfg.cutoff_alpha = 50 * kMillisecond;
  cfg.chains = chains;
  cfg.subgroups = 4;
  cfg.recv_workers = 4;
  Time dur = 0;
  for (auto _ : state) {
    bench::World w(fabric::make_fat_tree_for_hosts(ranks, 16, {}),
                   bench::synthetic_cluster(), cfg, ranks);
    const coll::OpResult res =
        w.comm->allgather(256 * KiB, coll::AllgatherAlgo::kMcast);
    MCCL_CHECK(res.data_verified);
    dur = res.duration();
    bench::record_sim_time(state, dur);
  }
  bench::set_gbps(state, "per_rank_recv_Gbit_s", 256 * KiB * (ranks - 1),
                  dur);
}

void BM_VirtualLanes(benchmark::State& state) {
  // Concurrent {mcast AG, INC RS} with and without the strict-priority
  // control lane (paper Section VII): without it, chain tokens queue
  // behind Reduce-Scatter bulk and the speedup collapses.
  const bool vl = state.range(0) != 0;
  const std::size_t ranks = 16;
  const std::uint64_t bytes = 512 * KiB;
  coll::CommConfig cfg;
  cfg.cutoff_alpha = 50 * kMillisecond;
  cfg.subgroups = 4;
  cfg.recv_workers = 4;
  cfg.send_workers = 2;
  cfg.chains = 4;
  Time dur = 0;
  for (auto _ : state) {
    coll::ClusterConfig kcfg = bench::synthetic_cluster();
    kcfg.fabric.virtual_lanes = vl;
    bench::World w(fabric::make_fat_tree_for_hosts(ranks, 16, {}), kcfg, cfg,
                   ranks);
    coll::OpBase& ag =
        w.comm->start_allgather(bytes, coll::AllgatherAlgo::kMcast);
    coll::OpBase& rs =
        w.comm->start_reduce_scatter(bytes, coll::ReduceScatterAlgo::kInc);
    w.cluster->run_until_done([&] { return ag.done() && rs.done(); });
    const coll::OpResult& a = ag.result();
    const coll::OpResult& b = rs.result();
    MCCL_CHECK(!a.failed && !b.failed);
    dur = std::max(a.finish, b.finish) - std::min(a.start, b.start);
    bench::record_sim_time(state, dur);
  }
  state.counters["pair_us"] = to_microseconds(dur);
}

void register_all() {
  auto* v = benchmark::RegisterBenchmark("Ablation/virtual_lanes",
                                         BM_VirtualLanes);
  v->Arg(0)->Arg(1)->UseManualTime()->Iterations(1);

  auto* b = benchmark::RegisterBenchmark("Ablation/doorbell_batch",
                                         BM_DoorbellBatching);
  for (long n : {1, 2, 4, 16, 64}) b->Args({n});
  b->UseManualTime()->Iterations(1);

  auto* s = benchmark::RegisterBenchmark("Ablation/staging_slots",
                                         BM_StagingDepth);
  for (long n : {64, 256, 1024, 4096}) s->Args({n});
  s->UseManualTime()->Iterations(1);

  auto* c = benchmark::RegisterBenchmark("Ablation/chains", BM_Chains);
  for (long n : {1, 2, 4, 8, 16, 32}) c->Args({n});
  c->UseManualTime()->Iterations(1);
}

}  // namespace

int main(int argc, char** argv) {
  bench::banner("Ablation: doorbell batching, staging depth, chain count",
                "Expect: batching helps the send path; small staging rings "
                "trigger RNR + slow-path rescues; chains help until links "
                "saturate.");
  register_all();
  return bench::run_main(argc, argv);
}
