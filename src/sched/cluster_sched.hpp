// ClusterScheduler: N tenants sharing one fat-tree.
//
// The scheduler is the event-driven driver that the blocking
// Communicator::allgather() loop never needed: jobs (job.hpp) arrive on
// the engine clock, pass admission control (admission.hpp) against live
// fabric signals, get a Communicator built with their tenant/QoS identity
// stamped onto every QP, and run their collectives back-to-back via
// OpBase::set_on_done — no outer run loop per op, one cluster-wide
// run_until_done for the whole workload. QoS enforcement itself lives in
// the datapath (strict priority bands at NIC injection, virtual lanes at
// switch egress, per-tenant packet sub-pools); the scheduler's job is to
// wire identities, meter admission, and account per-tenant SLOs.
//
// Everything is deterministic: arrivals are pre-seeded engine events,
// admission decisions are pure functions of sampled signals, and queued
// jobs are re-evaluated FIFO on every completion plus a fixed-period tick
// — so a given (topology, workload, policy) triple replays byte-identical
// under the dispatch-hash digest.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "src/coll/cluster.hpp"
#include "src/coll/communicator.hpp"
#include "src/common/units.hpp"
#include "src/sched/admission.hpp"
#include "src/sched/job.hpp"

namespace mccl::sched {

/// NIC injection arbitration: kFifo is plain round-robin across TX queues,
/// kStrict serves the lowest priority band first (Nic::set_strict_priority).
enum class QosPolicy : std::uint8_t { kFifo, kStrict };

struct SchedulerConfig {
  /// NIC injection arbitration policy, armed on every host's NIC at
  /// construction. kFifo leaves the NICs byte-identical to the
  /// pre-scheduler datapath.
  QosPolicy policy = QosPolicy::kFifo;
  /// Apply each job's qos_class to its QPs. When false every job runs
  /// class 0 — all data on one lane, no band skew — which is the FIFO
  /// baseline for A/B comparisons.
  bool apply_classes = true;
  AdmissionConfig admission;
  /// Per-tenant packet-pool soft quota, in packets, per unit of
  /// qos_weight (0 = no quotas). Set on the fabric pool at admission.
  std::uint64_t pool_quota_per_weight = 0;
  /// Queued-job re-evaluation period (also the queue_timeout clock). The
  /// tick keeps the engine alive while jobs wait on a gate that no
  /// completion event would reopen (e.g. the health gate).
  Time requeue_tick = 20 * kMicrosecond;
};

/// One submitted job's full lifecycle ledger.
struct JobRecord {
  JobSpec spec;
  JobState state = JobState::kPending;
  Time submit_time = 0;  // arrival event fired
  Time queue_time = 0;   // entered the wait queue (0 if never queued)
  Time admit_time = 0;   // latest admission (moves forward on requeue)
  Time finish_time = 0;  // settled: completed / degraded / rejected / failed
  std::size_t ops_done = 0;      // clean (kOk, verified) op completions
  std::size_t ops_degraded = 0;  // kPartial completions accepted by policy
  std::size_t ops_failed = 0;    // failed op attempts (each retried,
                                 // requeued, or terminal per the policy)
  std::vector<double> op_latency_us;  // per completed (ok/degraded) op
  std::uint64_t bytes_moved = 0;  // per-rank payload delivered
  // --- failure-policy ledger (audited by sched.retry_conservation) --------
  std::uint32_t retries_used = 0;   // in-place re-issues, all cycles
  std::uint32_t requeues_used = 0;  // trips back through admission
  std::uint32_t cycle_retries = 0;  // re-issues this admission cycle
  Time cycle_first_failure = 0;     // starts the retry_budget clock
  std::size_t shrunk_ranks = 0;     // ranks dropped across (re)launches
  /// Host set of the current communicator (spec.hosts minus ranks that
  /// were presumed dead at the latest launch/shrink).
  std::vector<fabric::NodeId> launch_hosts;
  /// spec.bcast_root remapped into launch_hosts (0 if the root died).
  std::size_t launch_root = 0;
  /// Built at admission; retained until scheduler destruction (mid-run
  /// Communicator teardown is not supported by the protocol layer). A
  /// shrink or requeue retires the old communicator into `retired_comms`
  /// rather than destroying it.
  std::unique_ptr<coll::Communicator> comm;
  std::vector<std::unique_ptr<coll::Communicator>> retired_comms;
};

class ClusterScheduler {
 public:
  ClusterScheduler(coll::Cluster& cluster, SchedulerConfig cfg = {});
  ~ClusterScheduler();

  ClusterScheduler(const ClusterScheduler&) = delete;
  ClusterScheduler& operator=(const ClusterScheduler&) = delete;

  /// Registers a job; its arrival event fires at spec.arrival. Must be
  /// called before run(). Returns the job id (index into job()).
  std::size_t submit(JobSpec spec);

  /// Schedules every arrival and runs the cluster until all submitted
  /// jobs settle (completed, degraded, rejected, or failed), then audits
  /// the tenant- and retry-conservation invariants.
  void run();

  std::size_t num_jobs() const { return jobs_.size(); }
  const JobRecord& job(std::size_t id) const { return jobs_[id]; }
  std::size_t running_jobs() const { return running_; }
  std::size_t peak_running() const { return peak_running_; }
  const AdmissionController& admission() const { return admission_; }
  const SchedulerConfig& config() const { return cfg_; }

  /// Aggregated per-tenant SLO accounting over all of the tenant's jobs.
  struct TenantStats {
    std::string name;
    std::size_t jobs = 0;
    std::size_t jobs_completed = 0;
    std::size_t jobs_degraded = 0;  // finished with accepted-partial ops
    std::size_t jobs_rejected = 0;
    std::size_t jobs_failed = 0;
    std::size_t ops = 0;           // clean op completions
    std::size_t ops_degraded = 0;  // accepted-partial op completions
    std::uint64_t retries = 0;
    std::uint64_t requeues = 0;
    std::size_t shrunk_ranks = 0;
    double p50_us = 0, p99_us = 0, max_us = 0;  // per-op latency
    double mean_queue_us = 0;  // admission wait (admitted jobs only)
    double goodput_gbps = 0;   // payload delivered / time running
    std::uint64_t bytes = 0;
  };
  TenantStats tenant_stats(TenantId tenant) const;
  /// Every tenant id seen across submitted jobs, ascending.
  std::vector<TenantId> tenants() const;

  /// The scheduler's books balance: every submitted job settled exactly
  /// once, nothing still runs or waits, and every issued op is accounted
  /// as done, degraded, or failed. run() asserts this through the
  /// `sched.tenant_conservation` validator.
  bool conservation_ok() const;
  /// The failure-policy books balance: every failed op attempt is matched
  /// by exactly one escalation — a retry, a requeue, or the job's terminal
  /// failure — and no job spent more retries or requeues than its policy
  /// granted. run() asserts this through `sched.retry_conservation`.
  bool retry_ledger_ok() const;
  /// Re-checks both ledgers and reports `sched.tenant_conservation` /
  /// `sched.retry_conservation` on mismatch (validate builds). run() calls
  /// this; tests call it again after a test_corrupt_* hook to prove the
  /// validators trip.
  void audit();
  /// Test hook: unbalances the issued-op ledger so audit() trips.
  void test_corrupt_ledger() { ++ops_issued_; }
  /// Test hook: books a retry that never happened on job `id`, so the
  /// retry-budget conservation audit trips.
  void test_corrupt_retry_ledger(std::size_t id) { ++jobs_[id].retries_used; }

 private:
  void on_arrival(std::size_t id);
  void enqueue(std::size_t id);
  void admit(std::size_t id);
  /// Builds (or rebuilds) the job's communicator over `hosts`.
  void build_comm(std::size_t id, std::vector<fabric::NodeId> hosts);
  /// spec.hosts minus ranks currently presumed dead (host crashed, or —
  /// given a prior communicator — confirmed by its failure detector).
  std::vector<fabric::NodeId> surviving_hosts(const JobRecord& rec) const;
  /// Starts the job's next op; with fewer than two ranks presumed alive
  /// the attempt fails on the spot instead (on_op_failure).
  void issue_next(std::size_t id);
  void on_op_done(std::size_t id, const coll::OpResult& res);
  /// Escalation ladder for a failed op attempt: accept-partial was already
  /// refused upstream, so shrink+retry, requeue, or settle kFailed.
  void on_op_failure(std::size_t id, const coll::OpResult& res);
  /// Shrinks the communicator off presumed-dead ranks ahead of a retry.
  /// Returns false when fewer than two ranks survive (job unsalvageable).
  bool shrink_for_retry(std::size_t id);
  void settle(std::size_t id, JobState final_state);
  /// FIFO re-evaluation: admit from the head until a job must keep
  /// waiting (no queue jumping; timeouts reject in order).
  void pump_queue();
  void arm_tick();
  FabricView view() const;
  void publish(telemetry::MetricsRegistry& reg);
  void record(const char* what, std::size_t id);

  coll::Cluster& cluster_;
  SchedulerConfig cfg_;
  AdmissionController admission_;
  std::deque<JobRecord> jobs_;  // deque: stable refs across submit()
  std::deque<std::size_t> queue_;
  std::size_t running_ = 0;
  std::size_t peak_running_ = 0;
  std::size_t settled_ = 0;
  std::uint64_t ops_issued_ = 0;
  bool tick_armed_ = false;
  bool ran_ = false;
  std::uint64_t publisher_id_ = 0;
};

}  // namespace mccl::sched
