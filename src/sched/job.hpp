// Job model for the multi-tenant cluster scheduler.
//
// A JobSpec is one tenant's collective workload: a communicator-shaped
// host set, a collective kind + algorithm, a per-op payload, how many ops
// to run back-to-back, and the tenant's QoS identity (class -> virtual
// lane + NIC priority band, tenant id -> packet-pool sub-pool, weight ->
// that sub-pool's quota). Specs are plain data so arrival generators (arrival.hpp) can
// build whole workloads up front and the scheduler can replay them
// deterministically from one seed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/coll/communicator.hpp"
#include "src/common/units.hpp"

namespace mccl::sched {

/// Tenant id charged for every packet the job's QPs acquire. 0 is
/// reserved for untenanted (pre-scheduler) traffic; jobs use 1+.
using TenantId = std::uint16_t;

enum class JobKind : std::uint8_t {
  kTraining,   // long-lived, bandwidth-bound, arrives early, many ops
  kInference,  // short, latency-bound, arrives in bursts
};

enum class CollKind : std::uint8_t { kAllgather, kBroadcast };

enum class JobState : std::uint8_t {
  kPending,    // submitted; arrival event not yet fired
  kQueued,     // arrived; admission deferred (capacity, health, or pool)
  kRunning,    // communicator built, ops in flight
  kCompleted,  // every op finished and verified
  kDegraded,   // finished, but >= 1 op settled kPartial under accept_partial
  kRejected,   // admission refused (queue overflow, timeout, unplaceable)
  kFailed,     // an op failed and the failure policy's budget ran out
};

/// Terminal (settled) states: the job will never run another op.
inline bool is_terminal(JobState s) {
  return s == JobState::kCompleted || s == JobState::kDegraded ||
         s == JobState::kRejected || s == JobState::kFailed;
}

inline const char* to_string(JobKind k) {
  switch (k) {
    case JobKind::kTraining:
      return "training";
    case JobKind::kInference:
      return "inference";
  }
  return "?";
}

inline const char* to_string(CollKind c) {
  switch (c) {
    case CollKind::kAllgather:
      return "allgather";
    case CollKind::kBroadcast:
      return "broadcast";
  }
  return "?";
}

inline const char* to_string(JobState s) {
  switch (s) {
    case JobState::kPending:
      return "pending";
    case JobState::kQueued:
      return "queued";
    case JobState::kRunning:
      return "running";
    case JobState::kCompleted:
      return "completed";
    case JobState::kDegraded:
      return "degraded";
    case JobState::kRejected:
      return "rejected";
    case JobState::kFailed:
      return "failed";
  }
  return "?";
}

/// Per-tenant policy for ops that settle kPartial / kFailed. The defaults
/// reproduce the pre-policy scheduler: any non-ok op fails the job on the
/// spot. The three escalation rungs are tried in order:
///
///   1. accept_partial — a verified kPartial op (survivors correct, some
///      blocks lost with their crashed root) counts as degraded progress;
///      the job keeps running and settles kDegraded instead of kCompleted.
///   2. retry — re-issue the op after an exponential backoff
///      (retry_backoff << attempt), up to max_retries per admission and
///      within retry_budget of the admission cycle's first failure. Before
///      each retry the scheduler shrinks the communicator off ranks now
///      presumed dead (elastic recovery).
///   3. requeue — tear the job back to the admission queue (fresh
///      communicator, fresh host filter, back of the FIFO), up to
///      max_requeues per job.
///
/// Only when every rung is exhausted does the job settle kFailed.
struct FailurePolicy {
  std::uint32_t max_retries = 0;  // in-place re-issues per admission cycle
  Time retry_backoff = 20 * kMicrosecond;  // doubles every consecutive retry
  /// Wall budget for retries, measured from the first failed attempt of
  /// the current admission cycle (0 = no deadline, count cap only).
  Time retry_budget = 0;
  bool accept_partial = false;  // kPartial with verified survivors is ok
  std::uint32_t max_requeues = 0;  // full re-admissions per job
};

struct JobSpec {
  TenantId tenant = 1;
  std::string name;  // tenant label on metrics ("train0", "hp1")
  JobKind kind = JobKind::kTraining;
  /// QoS class, 0 = highest priority. Selects the data virtual lane at
  /// switch egress and the NIC injection band (see CommConfig).
  std::uint8_t qos_class = 2;
  /// Multiplies SchedulerConfig::pool_quota_per_weight into the tenant's
  /// packet-pool quota.
  std::uint16_t qos_weight = 1;
  std::vector<fabric::NodeId> hosts;  // the job's ranks; >= 2
  Time arrival = 0;  // engine time the job shows up at the scheduler
  CollKind coll = CollKind::kAllgather;
  coll::AllgatherAlgo ag_algo = coll::AllgatherAlgo::kMcast;
  coll::BcastAlgo bc_algo = coll::BcastAlgo::kMcast;
  std::size_t bcast_root = 0;
  std::uint64_t bytes = 64 * KiB;  // per-rank block per op
  std::size_t num_ops = 1;  // sequential collectives; next starts on done
  Time gap = 0;  // think time between an op's completion and the next
  /// What to do when an op settles kPartial or kFailed (default: fail).
  FailurePolicy on_failure;
  /// Transport configuration for the job's communicator. The scheduler
  /// overwrites the tenant/qos_class fields from this spec at admission
  /// time (or zeroes the class in the FIFO baseline). The embedded
  /// detector config is per-job: arrival generators give bursty inference
  /// tenants tighter heartbeat/lease windows than bulk training tenants.
  coll::CommConfig comm;
};

}  // namespace mccl::sched
