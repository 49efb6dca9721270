// Multi-tenant cluster tenancy: SLO cost/benefit of NIC+lane QoS policies.
//
// One k=8 multi-rail fat tree carries the seeded mixed workload from
// sched/arrival.hpp (three wide training allgather tenants + a Poisson
// burst of narrow inference broadcast tenants, two of them high
// priority). The sweep runs the identical workload under fifo (no QoS)
// and strict priority bands, and reports the two numbers a cluster
// operator trades off: the high-priority tenants' p99 op latency and the
// training class's aggregate goodput. Expect: strict slashes hp p99 at
// near-zero training cost (training is bandwidth-bound, hp bursts are
// small).
//
// A third row (strict_chaos) reruns strict with a degraded trunk and a
// mid-storm host crash under per-class failure policies, so the
// robustness counters in every --mccl_json row (jobs by terminal state,
// retries, requeues, degraded ops, shrunk ranks) have a non-zero
// reference: the fault-free rows must report all-zero robustness
// activity, the chaos row must not.
#include <algorithm>
#include <vector>

#include "bench/bench_common.hpp"
#include "src/common/stats.hpp"
#include "src/sched/arrival.hpp"
#include "src/sched/cluster_sched.hpp"

namespace {
using namespace mccl;

void BM_Tenancy(benchmark::State& state, sched::QosPolicy policy,
                bool classes, bool chaos) {
  for (auto _ : state) {
    sched::WorkloadConfig wl;
    wl.seed = 42;
    wl.training_bytes = 256 * KiB;
    wl.inference_jobs = 8;
    wl.inference_bytes = 32 * KiB;
    wl.inference_mean_gap = 10 * kMicrosecond;
    wl.comm.cutoff_alpha = 100 * kMicrosecond;
    coll::ClusterConfig kcfg = bench::synthetic_cluster();
    if (chaos) {
      // Same per-class robustness posture as example_cluster_chaos_storm:
      // training rides out a crashed rank as degraded progress, inference
      // retries over the shrunk survivor set with a tight detector.
      wl.training_policy.accept_partial = true;
      wl.training_policy.max_requeues = 1;
      wl.inference_policy.max_retries = 2;
      wl.inference_policy.retry_backoff = 15 * kMicrosecond;
      wl.inference_policy.retry_budget = 1 * kMillisecond;
      wl.inference_policy.max_requeues = 1;
      wl.high_priority_policy = wl.inference_policy;
      wl.inference_heartbeat = 20 * kMicrosecond;
      wl.inference_lease = 80 * kMicrosecond;
      fabric::FaultConfig fc;
      fc.events = {
          fabric::FaultEvent::degrade(30 * kMicrosecond, 16, 20, 0.08,
                                      15 * kMicrosecond),
          // Host 15 sits outside the seed-42 high-priority windows; its
          // death lands mid-storm on the wide training tenants.
          fabric::FaultEvent::node_crash(60 * kMicrosecond, 15),
      };
      kcfg.fabric.faults = fc;
      kcfg.fabric.seed = wl.seed ^ 0xc4a05ull;
      kcfg.nic.rc_rto = 20 * kMicrosecond;
    }
    coll::Cluster cluster(
        fabric::make_multi_rail_fat_tree(2, 4, 4, 4, 1, {}, {}), kcfg);
    std::vector<fabric::NodeId> hosts;
    for (std::size_t h = 0; h < cluster.num_hosts(); ++h)
      hosts.push_back(static_cast<fabric::NodeId>(h));
    sched::SchedulerConfig scfg;
    scfg.policy = policy;
    scfg.apply_classes = classes;
    scfg.admission.max_running_jobs = 16;
    sched::ClusterScheduler scheduler(cluster, scfg);
    for (sched::JobSpec& s : sched::make_mixed_workload(wl, hosts))
      scheduler.submit(std::move(s));
    scheduler.run();

    std::vector<double> hp_lat;
    double train_goodput = 0;
    Time makespan = 0;
    std::size_t completed = 0, degraded = 0, failed = 0, rejected = 0;
    std::uint64_t retries = 0, requeues = 0, ops_degraded = 0, shrunk = 0;
    for (std::size_t id = 0; id < scheduler.num_jobs(); ++id) {
      const sched::JobRecord& rec = scheduler.job(id);
      if (rec.spec.qos_class == 0)
        hp_lat.insert(hp_lat.end(), rec.op_latency_us.begin(),
                      rec.op_latency_us.end());
      makespan = std::max(makespan, rec.finish_time);
      completed += rec.state == sched::JobState::kCompleted;
      degraded += rec.state == sched::JobState::kDegraded;
      failed += rec.state == sched::JobState::kFailed;
      rejected += rec.state == sched::JobState::kRejected;
      retries += rec.retries_used;
      requeues += rec.requeues_used;
      ops_degraded += rec.ops_degraded;
      shrunk += rec.shrunk_ranks;
    }
    for (const sched::TenantId t : scheduler.tenants()) {
      const auto s = scheduler.tenant_stats(t);
      if (s.name.rfind("train", 0) == 0) train_goodput += s.goodput_gbps;
    }
    bench::record_sim_time(state, makespan);
    state.counters["hp_p99_us"] = percentile(hp_lat, 0.99);
    state.counters["train_goodput_gbps"] = train_goodput;
    state.counters["peak_tenants"] =
        static_cast<double>(scheduler.peak_running());
    // Robustness accounting: terminal-state census plus the failure-policy
    // ledger. Fault-free rows must be all-zero past jobs_completed.
    state.counters["jobs_completed"] = static_cast<double>(completed);
    state.counters["jobs_degraded"] = static_cast<double>(degraded);
    state.counters["jobs_failed"] = static_cast<double>(failed);
    state.counters["jobs_rejected"] = static_cast<double>(rejected);
    state.counters["retries"] = static_cast<double>(retries);
    state.counters["requeues"] = static_cast<double>(requeues);
    state.counters["ops_degraded"] = static_cast<double>(ops_degraded);
    state.counters["shrunk_ranks"] = static_cast<double>(shrunk);
  }
}

void register_all() {
  benchmark::RegisterBenchmark("Tenancy/fifo", BM_Tenancy,
                               sched::QosPolicy::kFifo, false, false)
      ->UseManualTime()
      ->Iterations(1);
  benchmark::RegisterBenchmark("Tenancy/strict", BM_Tenancy,
                               sched::QosPolicy::kStrict, true, false)
      ->UseManualTime()
      ->Iterations(1);
  benchmark::RegisterBenchmark("Tenancy/strict_chaos", BM_Tenancy,
                               sched::QosPolicy::kStrict, true, true)
      ->UseManualTime()
      ->Iterations(1);
}

}  // namespace

int main(int argc, char** argv) {
  bench::banner("Cluster tenancy: QoS policy sweep on one shared fat tree",
                "Expect: strict slashes high-priority p99 vs fifo at "
                "near-zero training goodput cost.");
  register_all();
  return bench::run_main(argc, argv);
}
