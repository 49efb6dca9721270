// Cluster-scheduler tests: per-tenant packet sub-pool accounting, strict
// priority protecting a latency tenant, admission-control gating
// (capacity, bounded queue, timeout, health plane), multi-communicator
// isolation, and double-run determinism of the whole scheduling plane.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/fabric/faults.hpp"
#include "src/fabric/topology.hpp"
#include "src/sched/arrival.hpp"
#include "src/sched/cluster_sched.hpp"

namespace mccl::sched {
namespace {

// --- Per-tenant packet sub-pool accounting -------------------------------

TEST(TenantPool, AccountsPerTenantAndEnforcesSoftQuota) {
  fabric::PacketPool pool;
  {
    const fabric::PacketRef a = pool.acquire(1);
    const fabric::PacketRef b = pool.acquire(1);
    const fabric::PacketRef c = pool.acquire(2);
    EXPECT_EQ(a.get()->tenant, 1u);
    EXPECT_EQ(c.get()->tenant, 2u);
    EXPECT_EQ(pool.tenant_outstanding(1), 2u);
    EXPECT_EQ(pool.tenant_outstanding(2), 1u);
    EXPECT_EQ(pool.tenant_acquired(1), 2u);
  }
  // RAII release flows back to the right sub-pool.
  EXPECT_EQ(pool.tenant_outstanding(1), 0u);
  EXPECT_EQ(pool.tenant_outstanding(2), 0u);
  EXPECT_EQ(pool.tenant_peak(1), 2u);

  // Soft quota: over-quota acquires are *granted* (the datapath never
  // fails) but counted, which is the admission controller's signal.
  pool.set_tenant_quota(1, 1);
  const fabric::PacketRef d = pool.acquire(1);
  EXPECT_EQ(pool.tenant_exhausted(1), 0u);
  const fabric::PacketRef e = pool.acquire(1);
  EXPECT_TRUE(e.get() != nullptr);
  EXPECT_EQ(pool.tenant_exhausted(1), 1u);
  EXPECT_EQ(pool.total_exhausted(), 1u);
}

// --- Admission controller (pure decisions) -------------------------------

TEST(Admission, CapacityQueuesAndBoundedQueueRejects) {
  AdmissionConfig cfg;
  cfg.max_running_jobs = 2;
  cfg.max_queued_jobs = 1;
  AdmissionController ac(cfg);
  JobSpec job;
  FabricView view;
  view.running_jobs = 1;
  EXPECT_EQ(ac.decide(job, view), Verdict::kAdmit);
  view.running_jobs = 2;
  EXPECT_EQ(ac.decide(job, view), Verdict::kQueue);
  view.queued_jobs = 1;
  EXPECT_EQ(ac.decide(job, view), Verdict::kReject);
  EXPECT_EQ(ac.admitted(), 1u);
  EXPECT_EQ(ac.queued(), 1u);
  EXPECT_EQ(ac.rejected(), 1u);
}

TEST(Admission, HealthGateDefersEveryClass) {
  AdmissionConfig cfg;
  cfg.max_deweighted_dirs = 0;
  AdmissionController ac(cfg);
  JobSpec job;
  job.qos_class = 0;  // even the latency class waits out a sick fabric
  FabricView view;
  view.deweighted_dirs = 1;
  EXPECT_EQ(ac.decide(job, view), Verdict::kQueue);
  EXPECT_EQ(ac.health_deferrals(), 1u);
  view.deweighted_dirs = 0;
  EXPECT_EQ(ac.decide(job, view), Verdict::kAdmit);
}

TEST(Admission, PoolPressureGateSparesLatencyClass) {
  AdmissionController ac;
  JobSpec bulk;
  bulk.qos_class = 2;
  JobSpec latency;
  latency.qos_class = 0;
  FabricView view;
  view.tenants_over_quota = 1;
  EXPECT_EQ(ac.decide(bulk, view), Verdict::kQueue);
  EXPECT_EQ(ac.decide(latency, view), Verdict::kAdmit);
  EXPECT_EQ(ac.pool_deferrals(), 1u);
}

// --- Scheduler integration on a one-leaf fat tree ------------------------

JobSpec make_job(TenantId tenant, std::vector<fabric::NodeId> hosts,
                 CollKind coll, std::uint64_t bytes, std::size_t ops) {
  JobSpec s;
  s.tenant = tenant;
  s.name = "t" + std::to_string(tenant);
  s.hosts = std::move(hosts);
  s.coll = coll;
  s.bytes = bytes;
  s.num_ops = ops;
  return s;
}

coll::Cluster one_leaf_cluster() {
  return coll::Cluster(fabric::make_fat_tree(1, 4, 1, 1, {}, {}), {});
}

TEST(ClusterSched, DisjointTenantsMatchSoloLatency) {
  // Solo reference: one tenant alone on hosts {0,1}.
  std::vector<double> solo;
  {
    coll::Cluster cluster = one_leaf_cluster();
    ClusterScheduler sched(cluster);
    const std::size_t id =
        sched.submit(make_job(1, {0, 1}, CollKind::kAllgather, 64 * KiB, 2));
    sched.run();
    ASSERT_EQ(sched.job(id).state, JobState::kCompleted);
    solo = sched.job(id).op_latency_us;
  }
  // Two tenants on disjoint host pairs of the same leaf: no shared link,
  // no shared NIC — per-op latencies must match solo *exactly*. Anything
  // else means tenants leak timing into each other through shared state.
  coll::Cluster cluster = one_leaf_cluster();
  ClusterScheduler sched(cluster);
  const std::size_t a =
      sched.submit(make_job(1, {0, 1}, CollKind::kAllgather, 64 * KiB, 2));
  const std::size_t b =
      sched.submit(make_job(2, {2, 3}, CollKind::kAllgather, 64 * KiB, 2));
  sched.run();
  ASSERT_EQ(sched.job(a).state, JobState::kCompleted);
  ASSERT_EQ(sched.job(b).state, JobState::kCompleted);
  EXPECT_EQ(sched.peak_running(), 2u);
  for (const std::size_t id : {a, b}) {
    const std::vector<double>& lat = sched.job(id).op_latency_us;
    ASSERT_EQ(lat.size(), solo.size());
    for (std::size_t i = 0; i < lat.size(); ++i)
      EXPECT_DOUBLE_EQ(lat[i], solo[i]) << "job " << id << " op " << i;
  }
}

double mean(const std::vector<double>& v) {
  double sum = 0;
  for (const double x : v) sum += x;
  return v.empty() ? 0 : sum / static_cast<double>(v.size());
}

// One bulk tenant and one latency tenant share hosts {0,1}; the latency
// tenant's ops ride behind the bulk backlog in FIFO mode and jump it under
// strict arbitration (NIC bands + egress lanes). The bulk tenant must
// still finish: strict priority across *classes*, no starvation of the
// bulk class because the latency tenant is bursty, not continuous.
double contended_hp_mean(QosPolicy policy, bool apply_classes) {
  coll::Cluster cluster = one_leaf_cluster();
  SchedulerConfig scfg;
  scfg.policy = policy;
  scfg.apply_classes = apply_classes;
  ClusterScheduler sched(cluster, scfg);
  JobSpec bulk = make_job(1, {0, 1}, CollKind::kBroadcast, 512 * KiB, 3);
  bulk.qos_class = 2;
  JobSpec hp = make_job(2, {0, 1}, CollKind::kBroadcast, 16 * KiB, 4);
  hp.qos_class = 0;
  hp.arrival = 5 * kMicrosecond;  // land mid-backlog
  hp.gap = 2 * kMicrosecond;
  const std::size_t b = sched.submit(std::move(bulk));
  const std::size_t h = sched.submit(std::move(hp));
  sched.run();
  EXPECT_EQ(sched.job(b).state, JobState::kCompleted);
  EXPECT_EQ(sched.job(h).state, JobState::kCompleted);
  return mean(sched.job(h).op_latency_us);
}

TEST(ClusterSched, StrictArbitrationProtectsLatencyTenant) {
  const double fifo = contended_hp_mean(QosPolicy::kFifo, false);
  const double strict = contended_hp_mean(QosPolicy::kStrict, true);
  EXPECT_LT(strict, fifo);
}

TEST(ClusterSched, ConcurrencyCapQueuesFifoAndAdmitsOnCompletion) {
  coll::Cluster cluster = one_leaf_cluster();
  SchedulerConfig scfg;
  scfg.admission.max_running_jobs = 1;
  ClusterScheduler sched(cluster, scfg);
  const std::size_t a =
      sched.submit(make_job(1, {0, 1}, CollKind::kAllgather, 128 * KiB, 2));
  JobSpec second = make_job(2, {2, 3}, CollKind::kAllgather, 64 * KiB, 1);
  second.arrival = 1 * kMicrosecond;
  const std::size_t b = sched.submit(std::move(second));
  sched.run();
  ASSERT_EQ(sched.job(a).state, JobState::kCompleted);
  ASSERT_EQ(sched.job(b).state, JobState::kCompleted);
  EXPECT_EQ(sched.peak_running(), 1u);
  EXPECT_GE(sched.job(b).admit_time, sched.job(a).finish_time);
  EXPECT_GT(sched.admission().queued(), 0u);
  EXPECT_TRUE(sched.conservation_ok());
}

TEST(ClusterSched, QueueTimeoutRejects) {
  coll::Cluster cluster = one_leaf_cluster();
  SchedulerConfig scfg;
  scfg.admission.max_running_jobs = 1;
  scfg.admission.queue_timeout = 30 * kMicrosecond;
  scfg.requeue_tick = 10 * kMicrosecond;
  ClusterScheduler sched(cluster, scfg);
  // A long-running foreground job pins the single slot well past the
  // waiting job's timeout.
  const std::size_t a =
      sched.submit(make_job(1, {0, 1}, CollKind::kAllgather, 512 * KiB, 4));
  JobSpec second = make_job(2, {2, 3}, CollKind::kAllgather, 64 * KiB, 1);
  second.arrival = 1 * kMicrosecond;
  const std::size_t b = sched.submit(std::move(second));
  sched.run();
  EXPECT_EQ(sched.job(a).state, JobState::kCompleted);
  EXPECT_EQ(sched.job(b).state, JobState::kRejected);
  EXPECT_EQ(sched.job(b).ops_done, 0u);
  EXPECT_TRUE(sched.conservation_ok());
}

TEST(ClusterSched, HealthGateHoldsJobsUntilFabricRecovers) {
  coll::Cluster cluster = one_leaf_cluster();
  SchedulerConfig scfg;
  scfg.admission.max_deweighted_dirs = 0;
  scfg.requeue_tick = 10 * kMicrosecond;
  ClusterScheduler sched(cluster, scfg);
  // A degraded (health-plane-deweighted) link at t=0; it heals at 100us.
  cluster.fabric().set_dir_weight(0, 2);
  cluster.engine().schedule_at(100 * kMicrosecond,
                               [&cluster] { cluster.fabric().set_dir_weight(0, 1); });
  const std::size_t id =
      sched.submit(make_job(1, {0, 1}, CollKind::kAllgather, 64 * KiB, 1));
  sched.run();
  ASSERT_EQ(sched.job(id).state, JobState::kCompleted);
  EXPECT_GE(sched.job(id).admit_time, 100 * kMicrosecond);
  EXPECT_GT(sched.admission().health_deferrals(), 0u);
}

TEST(ClusterSched, MixedWorkloadReplaysByteIdentical) {
  // The whole scheduling plane — seeded arrivals, admission, QoS
  // arbitration, completion hooks — must replay identically: two runs of
  // the same seed produce the same ledger to the last picosecond.
  auto run_once = [] {
    coll::Cluster cluster = one_leaf_cluster();
    std::vector<fabric::NodeId> hosts = {0, 1, 2, 3};
    WorkloadConfig wl;
    wl.seed = 7;
    wl.training_jobs = 1;
    wl.training_ranks = 4;
    wl.training_ops = 2;
    wl.training_bytes = 64 * KiB;
    wl.inference_jobs = 3;
    wl.inference_ranks = 2;
    wl.inference_ops = 2;
    wl.inference_bytes = 8 * KiB;
    SchedulerConfig scfg;
    scfg.policy = QosPolicy::kStrict;
    scfg.pool_quota_per_weight = 256;
    ClusterScheduler sched(cluster, scfg);
    for (JobSpec& s : make_mixed_workload(wl, hosts))
      sched.submit(std::move(s));
    sched.run();
    std::vector<double> ledger;
    for (std::size_t id = 0; id < sched.num_jobs(); ++id) {
      const JobRecord& rec = sched.job(id);
      ledger.push_back(static_cast<double>(rec.admit_time));
      ledger.push_back(static_cast<double>(rec.finish_time));
      ledger.insert(ledger.end(), rec.op_latency_us.begin(),
                    rec.op_latency_us.end());
    }
    return ledger;
  };
  const std::vector<double> first = run_once();
  const std::vector<double> second = run_once();
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i)
    EXPECT_DOUBLE_EQ(first[i], second[i]) << "ledger index " << i;
}

// --- Fault tolerance: failure policies, elastic admission, predictive gate

coll::Cluster faulty_cluster(std::vector<fabric::FaultEvent> events) {
  coll::ClusterConfig kcfg;
  kcfg.fabric.faults.events = std::move(events);
  return coll::Cluster(fabric::make_fat_tree(1, 4, 1, 1, {}, {}), kcfg);
}

// Tight per-job detector (a crash confirms within ~150us instead of the
// ~600us default) and a low quiescence cutoff so a lossy op settles its
// census promptly. Crash-path tests stay fast and, more importantly, the
// failure timestamps stay well inside the margins the two-crash budget
// test below reasons about.
void tune_for_crash(JobSpec& s) {
  s.comm.cutoff_alpha = 50 * kMicrosecond;
  s.comm.detector.heartbeat_interval = 20 * kMicrosecond;
  s.comm.detector.lease_timeout = 60 * kMicrosecond;
}

std::uint64_t metric_count(coll::Cluster& cluster, const std::string& key) {
  const telemetry::Snapshot snap = cluster.telemetry().metrics.snapshot();
  const auto it = snap.find(key);
  return it == snap.end() ? 0 : it->second.count;
}

TEST(FaultTolerance, DefaultPolicyFailsJobOnCrashPartial) {
  // Rank 3 dies mid-injection of a 512 KiB allgather (injection alone is
  // ~21us at 200G), so no survivor holds its full block: the op settles
  // kPartial, and the default fail-fast policy turns that into kFailed.
  coll::Cluster cluster =
      faulty_cluster({fabric::FaultEvent::node_crash(10 * kMicrosecond, 3)});
  ClusterScheduler sched(cluster);
  JobSpec s = make_job(1, {0, 1, 2, 3}, CollKind::kAllgather, 512 * KiB, 1);
  tune_for_crash(s);
  const std::size_t id = sched.submit(std::move(s));
  sched.run();
  const JobRecord& rec = sched.job(id);
  EXPECT_EQ(rec.state, JobState::kFailed);
  EXPECT_EQ(rec.ops_failed, 1u);
  EXPECT_EQ(rec.ops_done, 0u);
  EXPECT_EQ(rec.ops_degraded, 0u);
  EXPECT_EQ(rec.retries_used, 0u);
  EXPECT_EQ(rec.requeues_used, 0u);
  EXPECT_TRUE(sched.conservation_ok());
  EXPECT_TRUE(sched.retry_ledger_ok());
  EXPECT_EQ(metric_count(cluster, "sched.jobs_failed"), 1u);
}

TEST(FaultTolerance, AcceptPartialSettlesDegradedWithVerifiedProgress) {
  // Same crash, but the tenant opted into partial progress: the op that
  // loses the dead rank's block settles kPartial and counts as degraded
  // progress, the job keeps running (ops started after the detector
  // confirmed the death enroll only survivors and complete clean), and
  // it lands kDegraded with every op accounted.
  coll::Cluster cluster =
      faulty_cluster({fabric::FaultEvent::node_crash(10 * kMicrosecond, 3)});
  ClusterScheduler sched(cluster);
  JobSpec s = make_job(1, {0, 1, 2, 3}, CollKind::kAllgather, 512 * KiB, 2);
  tune_for_crash(s);
  s.on_failure.accept_partial = true;
  const std::size_t id = sched.submit(std::move(s));
  sched.run();
  const JobRecord& rec = sched.job(id);
  EXPECT_EQ(rec.state, JobState::kDegraded);
  EXPECT_EQ(rec.ops_done + rec.ops_degraded, 2u);
  EXPECT_GE(rec.ops_degraded, 1u);
  EXPECT_EQ(rec.ops_failed, 0u);
  EXPECT_EQ(rec.op_latency_us.size(), 2u);
  // Degraded ops still move at least the survivors' payload (3 of 4
  // blocks); a clean post-confirmation op is charged at full comm width.
  EXPECT_GE(rec.bytes_moved, 2u * 3u * 512 * KiB);
  EXPECT_LE(rec.bytes_moved, 2u * 4u * 512 * KiB);
  EXPECT_TRUE(sched.conservation_ok());
  EXPECT_TRUE(sched.retry_ledger_ok());
  EXPECT_EQ(metric_count(cluster, "sched.jobs_degraded"), 1u);
  EXPECT_EQ(metric_count(
                cluster, telemetry::MetricsRegistry::key(
                             "sched.tenant.ops_degraded", {{"tenant", "t1"}})),
            rec.ops_degraded);
}

TEST(FaultTolerance, RetryShrinksCommAndRemapsDeadRoot) {
  // The broadcast root itself dies mid-injection. One retry is granted:
  // the scheduler shrinks the communicator off the confirmed-dead rank,
  // hands the root role to the first survivor, and the re-issued op
  // completes clean.
  coll::Cluster cluster =
      faulty_cluster({fabric::FaultEvent::node_crash(10 * kMicrosecond, 0)});
  ClusterScheduler sched(cluster);
  JobSpec s = make_job(1, {0, 1, 2, 3}, CollKind::kBroadcast, 512 * KiB, 1);
  tune_for_crash(s);
  s.bcast_root = 0;
  s.on_failure.max_retries = 1;
  s.on_failure.retry_backoff = 5 * kMicrosecond;
  const std::size_t id = sched.submit(std::move(s));
  sched.run();
  const JobRecord& rec = sched.job(id);
  EXPECT_EQ(rec.state, JobState::kCompleted);
  EXPECT_EQ(rec.ops_done, 1u);
  EXPECT_EQ(rec.ops_failed, 1u);
  EXPECT_EQ(rec.retries_used, 1u);
  EXPECT_EQ(rec.requeues_used, 0u);
  EXPECT_EQ(rec.shrunk_ranks, 1u);
  ASSERT_TRUE(rec.comm != nullptr);
  EXPECT_EQ(rec.comm->size(), 3u);
  EXPECT_EQ(rec.launch_hosts, (std::vector<fabric::NodeId>{1, 2, 3}));
  EXPECT_EQ(rec.launch_root, 0u);  // dead root's role fell to host 1
  EXPECT_EQ(rec.retired_comms.size(), 1u);
  EXPECT_TRUE(sched.conservation_ok());
  EXPECT_TRUE(sched.retry_ledger_ok());
  EXPECT_EQ(metric_count(cluster, "sched.retries"), 1u);
  EXPECT_EQ(metric_count(cluster, "sched.shrunk_ranks"), 1u);
}

TEST(FaultTolerance, RetryBudgetDeadlineEndsTheCycle) {
  // Two crashes, one admission cycle. The first (the root, mid-injection
  // of a 4 MiB broadcast, ~170us of wire time) confirms at ~160us and is
  // retried inside the 100us budget — the budget clock starts at that
  // first failure. The replacement root then dies mid-retry; by the time
  // its death confirms, the cycle is far past the budget, so the second
  // failure cannot retry (and with no requeues granted the job fails),
  // even though the retry *count* still had headroom.
  coll::Cluster cluster =
      faulty_cluster({fabric::FaultEvent::node_crash(20 * kMicrosecond, 0),
                      fabric::FaultEvent::node_crash(270 * kMicrosecond, 1)});
  ClusterScheduler sched(cluster);
  JobSpec s = make_job(1, {0, 1, 2, 3}, CollKind::kBroadcast, 4 * MiB, 1);
  tune_for_crash(s);
  s.bcast_root = 0;
  s.on_failure.max_retries = 3;
  s.on_failure.retry_backoff = 5 * kMicrosecond;
  s.on_failure.retry_budget = 100 * kMicrosecond;
  const Time budget = s.on_failure.retry_budget;
  const std::size_t id = sched.submit(std::move(s));
  sched.run();
  const JobRecord& rec = sched.job(id);
  EXPECT_EQ(rec.state, JobState::kFailed);
  EXPECT_EQ(rec.ops_failed, 2u);
  EXPECT_EQ(rec.retries_used, 1u);  // count cap was 3; the deadline bound
  EXPECT_EQ(rec.requeues_used, 0u);
  EXPECT_EQ(rec.shrunk_ranks, 1u);  // only the first failure shrank
  EXPECT_GT(rec.finish_time - rec.cycle_first_failure, budget);
  EXPECT_TRUE(sched.conservation_ok());
  EXPECT_TRUE(sched.retry_ledger_ok());
}

TEST(FaultTolerance, RequeueReadmitsOverSurvivorsAfterRetriesExhausted) {
  // No in-place retries granted, one requeue: the root's death sends the
  // job back through admission, where the crash filter drops the dead
  // host and a fresh three-rank communicator finishes the work.
  coll::Cluster cluster =
      faulty_cluster({fabric::FaultEvent::node_crash(10 * kMicrosecond, 0)});
  ClusterScheduler sched(cluster);
  JobSpec s = make_job(1, {0, 1, 2, 3}, CollKind::kBroadcast, 512 * KiB, 1);
  tune_for_crash(s);
  s.bcast_root = 0;
  s.on_failure.max_requeues = 1;
  const std::size_t id = sched.submit(std::move(s));
  sched.run();
  const JobRecord& rec = sched.job(id);
  EXPECT_EQ(rec.state, JobState::kCompleted);
  EXPECT_EQ(rec.ops_done, 1u);
  EXPECT_EQ(rec.ops_failed, 1u);
  EXPECT_EQ(rec.retries_used, 0u);
  EXPECT_EQ(rec.requeues_used, 1u);
  EXPECT_EQ(rec.shrunk_ranks, 1u);
  ASSERT_TRUE(rec.comm != nullptr);
  EXPECT_EQ(rec.comm->size(), 3u);
  EXPECT_EQ(rec.retired_comms.size(), 1u);
  // The re-admission happened after the crash confirmed (lease floor).
  EXPECT_GE(rec.admit_time, 70 * kMicrosecond);
  EXPECT_TRUE(sched.conservation_ok());
  EXPECT_TRUE(sched.retry_ledger_ok());
  EXPECT_EQ(metric_count(cluster, "sched.requeues"), 1u);
}

TEST(FaultTolerance, UnsalvageableShrinkFailsDespiteRetryBudget) {
  // Three of four ranks die: fewer than two survive the shrink, so the
  // retry rung refuses regardless of the generous retry budget, and with
  // no requeues the job settles kFailed after its single failed attempt.
  coll::Cluster cluster =
      faulty_cluster({fabric::FaultEvent::node_crash(10 * kMicrosecond, 1),
                      fabric::FaultEvent::node_crash(10 * kMicrosecond, 2),
                      fabric::FaultEvent::node_crash(10 * kMicrosecond, 3)});
  ClusterScheduler sched(cluster);
  JobSpec s = make_job(1, {0, 1, 2, 3}, CollKind::kAllgather, 512 * KiB, 1);
  tune_for_crash(s);
  s.on_failure.max_retries = 3;
  const std::size_t id = sched.submit(std::move(s));
  sched.run();
  const JobRecord& rec = sched.job(id);
  EXPECT_EQ(rec.state, JobState::kFailed);
  EXPECT_EQ(rec.ops_failed, 1u);
  EXPECT_EQ(rec.retries_used, 0u);
  EXPECT_EQ(rec.shrunk_ranks, 0u);  // the shrink was refused, not taken
  EXPECT_TRUE(sched.conservation_ok());
  EXPECT_TRUE(sched.retry_ledger_ok());
}

TEST(FaultTolerance, AdmissionShrinksCrashedRanksBeforeLaunch) {
  // The host is already dead when the job arrives: crash-aware placement
  // drops it up front, so the job launches on three ranks and never sees
  // a failure at all.
  coll::Cluster cluster =
      faulty_cluster({fabric::FaultEvent::node_crash(5 * kMicrosecond, 3)});
  ClusterScheduler sched(cluster);
  JobSpec s = make_job(1, {0, 1, 2, 3}, CollKind::kAllgather, 64 * KiB, 1);
  s.arrival = 50 * kMicrosecond;
  const std::size_t id = sched.submit(std::move(s));
  sched.run();
  const JobRecord& rec = sched.job(id);
  EXPECT_EQ(rec.state, JobState::kCompleted);
  EXPECT_EQ(rec.ops_failed, 0u);
  EXPECT_EQ(rec.shrunk_ranks, 1u);
  ASSERT_TRUE(rec.comm != nullptr);
  EXPECT_EQ(rec.comm->size(), 3u);
  EXPECT_EQ(rec.launch_hosts, (std::vector<fabric::NodeId>{0, 1, 2}));
  EXPECT_TRUE(sched.conservation_ok());
  EXPECT_EQ(metric_count(cluster, "sched.shrunk_ranks"), 1u);
}

TEST(FaultTolerance, RecoveredHostReentersPlacement) {
  // Crash, then recover, then arrive: host_crashed() has flipped back by
  // arrival time, so the job launches at full width with no shrink.
  coll::Cluster cluster =
      faulty_cluster({fabric::FaultEvent::node_crash(5 * kMicrosecond, 3),
                      fabric::FaultEvent::node_recover(100 * kMicrosecond, 3)});
  ClusterScheduler sched(cluster);
  JobSpec s = make_job(1, {0, 1, 2, 3}, CollKind::kAllgather, 64 * KiB, 1);
  s.arrival = 200 * kMicrosecond;
  const std::size_t id = sched.submit(std::move(s));
  sched.run();
  const JobRecord& rec = sched.job(id);
  EXPECT_EQ(rec.state, JobState::kCompleted);
  EXPECT_EQ(rec.shrunk_ranks, 0u);
  ASSERT_TRUE(rec.comm != nullptr);
  EXPECT_EQ(rec.comm->size(), 4u);
  EXPECT_TRUE(sched.conservation_ok());
}

TEST(FaultTolerance, UnplaceableJobIsRejected) {
  // Fewer than two ranks survive the crash filter: the job cannot form a
  // communicator and is rejected at admission, never launched.
  coll::Cluster cluster =
      faulty_cluster({fabric::FaultEvent::node_crash(5 * kMicrosecond, 1),
                      fabric::FaultEvent::node_crash(5 * kMicrosecond, 2),
                      fabric::FaultEvent::node_crash(5 * kMicrosecond, 3)});
  ClusterScheduler sched(cluster);
  JobSpec s = make_job(1, {0, 1, 2, 3}, CollKind::kAllgather, 64 * KiB, 1);
  s.arrival = 50 * kMicrosecond;
  const std::size_t id = sched.submit(std::move(s));
  sched.run();
  const JobRecord& rec = sched.job(id);
  EXPECT_EQ(rec.state, JobState::kRejected);
  EXPECT_EQ(rec.ops_done, 0u);
  EXPECT_TRUE(rec.comm == nullptr);
  EXPECT_TRUE(sched.conservation_ok());
  EXPECT_EQ(metric_count(cluster, "sched.jobs_rejected"), 1u);
}

TEST(ClusterSched, OpWithoutTwoSurvivorsIsAFailedAttempt) {
  // Both hosts crash during the think time between the job's two ops. The
  // second op has no collective left to run: issuing it is a failed
  // attempt that climbs the (default, fail-fast) policy, so the job
  // settles kFailed with both ledgers balanced instead of aborting.
  coll::Cluster cluster =
      faulty_cluster({fabric::FaultEvent::node_crash(200 * kMicrosecond, 0),
                      fabric::FaultEvent::node_crash(200 * kMicrosecond, 1)});
  ClusterScheduler sched(cluster);
  JobSpec s = make_job(1, {0, 1}, CollKind::kAllgather, 64 * KiB, 2);
  s.gap = 1 * kMillisecond;
  const std::size_t id = sched.submit(std::move(s));
  sched.run();
  const JobRecord& rec = sched.job(id);
  EXPECT_EQ(rec.state, JobState::kFailed);
  EXPECT_EQ(rec.ops_done, 1u);
  EXPECT_EQ(rec.ops_failed, 1u);
  EXPECT_GE(rec.finish_time, 1 * kMillisecond);
  EXPECT_TRUE(sched.conservation_ok());
  EXPECT_TRUE(sched.retry_ledger_ok());
  EXPECT_EQ(metric_count(cluster, "sched.jobs_failed"), 1u);
}

TEST(Admission, PredictiveGateDefersOnAtRiskDirs) {
  AdmissionConfig cfg;
  cfg.max_at_risk_dirs = 0;
  AdmissionController ac(cfg);
  JobSpec job;
  job.qos_class = 0;  // like the reactive gate, it holds every class
  FabricView view;
  view.at_risk_dirs = 1;
  EXPECT_EQ(ac.decide(job, view), Verdict::kQueue);
  EXPECT_EQ(ac.predictive_deferrals(), 1u);
  view.at_risk_dirs = 0;
  EXPECT_EQ(ac.decide(job, view), Verdict::kAdmit);
}

TEST(Admission, PredictiveGateDisabledByDefault) {
  AdmissionController ac;
  JobSpec job;
  FabricView view;
  view.at_risk_dirs = 100;
  EXPECT_EQ(ac.decide(job, view), Verdict::kAdmit);
  EXPECT_EQ(ac.predictive_deferrals(), 0u);
}

TEST(ClusterSched, PredictiveGateHoldsJobsUntilRiskClears) {
  // A direction the cluster monitor's trend scorer flags at-risk defers
  // placement just like a deweighted one; the flag clearing (here at
  // 100us) reopens the door on the next queue tick. A 0.3/0.6/0.9
  // severity ramp marks the direction, one clean window clears it (the
  // Health.PredictiveTrend* tests walk the arithmetic).
  coll::ClusterConfig kcfg;
  kcfg.health.enabled = true;
  coll::Cluster cluster(fabric::make_fat_tree(1, 4, 1, 1, {}, {}), kcfg);
  coll::HealthMonitor* hm = cluster.health();
  ASSERT_NE(hm, nullptr);
  SchedulerConfig scfg;
  scfg.admission.max_at_risk_dirs = 0;
  scfg.requeue_tick = 10 * kMicrosecond;
  ClusterScheduler sched(cluster, scfg);
  for (const double severity : {0.3, 0.6, 0.9})
    hm->test_observe_link(0, severity);
  ASSERT_EQ(hm->at_risk_dirs(), 1u);
  cluster.engine().schedule_at(100 * kMicrosecond, [hm] {
    hm->test_observe_link(0, 0.0);
  });
  const std::size_t id =
      sched.submit(make_job(1, {0, 1}, CollKind::kAllgather, 64 * KiB, 1));
  sched.run();
  ASSERT_EQ(sched.job(id).state, JobState::kCompleted);
  EXPECT_GE(sched.job(id).admit_time, 100 * kMicrosecond);
  EXPECT_GT(sched.admission().predictive_deferrals(), 0u);
  EXPECT_EQ(metric_count(cluster, "sched.admission.predictive_deferrals"),
            sched.admission().predictive_deferrals());
}

TEST(Workload, StampsPerClassFailurePolicyAndDetector) {
  // The arrival generator hands each class its own failure policy and
  // failure-detector timing; a zero override keeps the base comm value.
  WorkloadConfig wl;
  wl.training_jobs = 1;
  wl.inference_jobs = 2;
  wl.high_priority_jobs = 1;
  wl.training_policy.accept_partial = true;
  wl.inference_policy.max_retries = 2;
  wl.high_priority_policy.max_retries = 5;
  wl.high_priority_policy.retry_budget = 500 * kMicrosecond;
  wl.training_heartbeat = 50 * kMicrosecond;
  wl.training_lease = 200 * kMicrosecond;
  wl.inference_heartbeat = 20 * kMicrosecond;  // lease left at 0 = default
  const std::vector<fabric::NodeId> hosts = {0, 1, 2, 3};
  const std::vector<JobSpec> jobs = make_mixed_workload(wl, hosts);
  ASSERT_EQ(jobs.size(), 3u);
  const JobSpec& train = jobs[0];
  EXPECT_TRUE(train.on_failure.accept_partial);
  EXPECT_EQ(train.comm.detector.heartbeat_interval, 50 * kMicrosecond);
  EXPECT_EQ(train.comm.detector.lease_timeout, 200 * kMicrosecond);
  const JobSpec& hp = jobs[1];  // the first inference job is the SLO class
  EXPECT_EQ(hp.qos_class, 0u);
  EXPECT_EQ(hp.on_failure.max_retries, 5u);
  EXPECT_EQ(hp.on_failure.retry_budget, 500 * kMicrosecond);
  EXPECT_EQ(hp.comm.detector.heartbeat_interval, 20 * kMicrosecond);
  EXPECT_EQ(hp.comm.detector.lease_timeout,
            coll::DetectorConfig{}.lease_timeout);
  const JobSpec& bulk = jobs[2];
  EXPECT_FALSE(bulk.on_failure.accept_partial);
  EXPECT_EQ(bulk.on_failure.max_retries, 2u);
}

// --- One settle path: scheduler ops settle like blocking ones ------------

TEST(ClusterSched, OnDoneSeesTheSettledResult) {
  coll::Cluster cluster = one_leaf_cluster();
  coll::Communicator comm(cluster, {0, 1, 2, 3});
  coll::OpBase& op =
      comm.start_allgather(64 * KiB, coll::AllgatherAlgo::kMcast);
  int calls = 0;
  coll::OpResult seen;
  op.set_on_done([&](coll::OpBase& o) {
    ++calls;
    seen = o.result();
  });
  const coll::OpResult res = comm.finish(op);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(seen.status, coll::OpStatus::kOk);
  EXPECT_TRUE(seen.data_verified);
  EXPECT_GT(seen.finish, seen.start);
  EXPECT_EQ(seen.start, res.start);
  EXPECT_EQ(seen.finish, res.finish);
  EXPECT_EQ(seen.rank_finish, res.rank_finish);
  EXPECT_EQ(seen.max_phases.total(), res.max_phases.total());
  EXPECT_EQ(seen.data_verified, res.data_verified);
}

TEST(ClusterSched, ScheduledOpsReachCollMetrics) {
  coll::Cluster cluster = one_leaf_cluster();
  ClusterScheduler sched(cluster);
  sched.submit(make_job(1, {0, 1}, CollKind::kAllgather, 64 * KiB, 3));
  sched.submit(make_job(2, {2, 3}, CollKind::kBroadcast, 64 * KiB, 2));
  sched.run();
  const telemetry::Snapshot snap = cluster.telemetry().metrics.snapshot();
  EXPECT_EQ(metric_count(cluster, "sched.ops_issued"), 5u);
  EXPECT_EQ(metric_count(cluster, "coll.ops{result=ok}"), 5u);
  EXPECT_EQ(telemetry::total_count(snap, "coll.ops"), 5u);
  EXPECT_EQ(telemetry::total_count(snap, "coll.op_duration_us"), 5u);
}

TEST(ClusterSched, LossyOpTightensCutoffForTheJobsNextOp) {
  // Drop the first multicast chunk of every op on its way to host 1: each
  // op recovers it over the slow path, so each settles lossy and halves
  // the communicator's cutoff slack before the job's next op starts.
  coll::Cluster cluster = one_leaf_cluster();
  ClusterScheduler sched(cluster);
  const std::size_t id =
      sched.submit(make_job(1, {0, 1, 2, 3}, CollKind::kAllgather, 64 * KiB,
                            2));
  std::vector<std::uint8_t> tags;
  std::vector<Time> alpha_at_drop;  // the cutoff slack each op runs with
  cluster.fabric().set_drop_filter(
      [&](fabric::NodeId, fabric::NodeId to, const fabric::Packet& p) {
        if (p.th.op != fabric::TransportOp::kUdSend || to != 1) return false;
        const std::uint8_t tag = coll::imm_op_tag(p.th.imm);
        if (std::find(tags.begin(), tags.end(), tag) != tags.end())
          return false;
        tags.push_back(tag);
        alpha_at_drop.push_back(
            sched.job(id).comm->effective_cutoff_alpha());
        return true;
      });
  sched.run();
  const JobRecord& rec = sched.job(id);
  ASSERT_EQ(rec.state, JobState::kCompleted);
  const Time alpha = rec.spec.comm.cutoff_alpha;
  EXPECT_EQ(alpha_at_drop, (std::vector<Time>{alpha, alpha / 2}));
  EXPECT_EQ(rec.comm->effective_cutoff_alpha(), alpha / 4);
  EXPECT_GE(metric_count(cluster, "coll.fetched_chunks"), 2u);
}

}  // namespace
}  // namespace mccl::sched
