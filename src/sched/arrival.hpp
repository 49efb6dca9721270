// Distribution-driven job arrival model for the cluster scheduler.
//
// Everything here is a pure function of one seed: ArrivalModel wraps the
// repo's xoshiro Rng with the arrival-process primitives (exponential
// inter-arrival gaps for Poisson bursts), and make_mixed_workload() turns
// a WorkloadConfig into a concrete JobSpec list — a few long
// bandwidth-bound training tenants arriving at t~0 over wide, overlapping
// host sets, plus a Poisson burst of short latency-bound inference
// tenants on narrow host windows. The same seed therefore produces the
// byte-identical workload across FIFO / QoS / solo runs, which is what
// makes the A/B SLO comparisons in example_cluster_storm meaningful.
#pragma once

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "src/common/check.hpp"
#include "src/common/rng.hpp"
#include "src/common/units.hpp"
#include "src/sched/job.hpp"

namespace mccl::sched {

/// Deterministic arrival-process primitives over the shared Rng.
class ArrivalModel {
 public:
  explicit ArrivalModel(std::uint64_t seed) : rng_(seed) {}

  /// Exponentially distributed gap with the given mean (the inter-arrival
  /// time of a Poisson process). Never returns 0 — two jobs at the exact
  /// same instant would make admission order depend on submission order
  /// alone, which is legal but pointlessly fragile.
  Time exp_gap(Time mean) {
    const double u = rng_.uniform();  // [0, 1)
    const double x = -std::log(1.0 - u);
    return std::max<Time>(1, static_cast<Time>(x * static_cast<double>(mean)));
  }

  Rng& rng() { return rng_; }

 private:
  Rng rng_;
};

struct WorkloadConfig {
  std::uint64_t seed = 1;

  // --- training tenants: the steady background load -----------------------
  std::size_t training_jobs = 3;
  std::size_t training_ranks = 8;  // wide, overlapping host sets
  std::size_t training_ops = 4;
  std::uint64_t training_bytes = 128 * KiB;  // per-rank allgather block

  // --- inference tenants: the bursty latency-bound load --------------------
  std::size_t inference_jobs = 6;
  std::size_t inference_ranks = 4;  // aligned host windows
  std::size_t inference_ops = 3;
  std::uint64_t inference_bytes = 16 * KiB;
  Time inference_mean_gap = 15 * kMicrosecond;  // Poisson inter-arrival

  /// The first `high_priority_jobs` inference tenants are the SLO class:
  /// class 0 (highest lane/band) with the largest packet-pool weight.
  std::size_t high_priority_jobs = 2;

  // --- per-class failure handling ------------------------------------------
  /// Failure policies stamped per class (JobSpec::on_failure). The
  /// defaults keep the pre-policy fail-fast scheduler: any non-ok op
  /// fails the job immediately.
  FailurePolicy training_policy;
  FailurePolicy inference_policy;
  FailurePolicy high_priority_policy;
  /// Per-class failure-detector overrides (0 = keep cfg.comm's value).
  /// Bursty inference tenants run ops shorter than the default lease, so
  /// they need tight heartbeat/lease windows to confirm a crashed peer
  /// within an op or two; bulk training tenants can afford the laxer
  /// default and save the heartbeat traffic.
  Time training_heartbeat = 0;
  Time training_lease = 0;
  Time inference_heartbeat = 0;
  Time inference_lease = 0;

  /// Base transport config stamped onto every job (tenant/qos fields are
  /// filled per job by the scheduler at admission).
  coll::CommConfig comm;
};

// Per-class QoS stamps of the mixed workload: tenant QoS class (0 = highest
// priority) and the weight that scales the tenant's packet-pool quota
// (SchedulerConfig::pool_quota_per_weight).
inline constexpr std::uint8_t kTrainingClass = 2;
inline constexpr std::uint16_t kTrainingWeight = 1;
inline constexpr std::uint8_t kInferenceClass = 1;
inline constexpr std::uint16_t kInferenceWeight = 2;
inline constexpr std::uint16_t kHighPriorityWeight = 8;
/// Gap between consecutive ops of one inference job.
inline constexpr Time kInferenceThink = 2 * kMicrosecond;

/// Expands `cfg` into the seeded mixed workload over `hosts`. Tenant ids
/// are assigned 1..N in generation order; training jobs come first.
inline std::vector<JobSpec> make_mixed_workload(
    const WorkloadConfig& cfg, const std::vector<fabric::NodeId>& hosts) {
  MCCL_CHECK_MSG(hosts.size() >= 2, "workload needs at least two hosts");
  ArrivalModel arrivals(cfg.seed);
  std::vector<JobSpec> jobs;
  TenantId next_tenant = 1;

  // Training: wide strided host sets, staggered starts near t=0. Job j
  // starts its rank set at a rotated offset so the sets overlap without
  // being identical — every host link carries more than one tenant.
  const std::size_t t_ranks =
      std::max<std::size_t>(2, std::min(cfg.training_ranks, hosts.size()));
  for (std::size_t j = 0; j < cfg.training_jobs; ++j) {
    JobSpec s;
    s.tenant = next_tenant++;
    s.name = "train" + std::to_string(j);
    s.kind = JobKind::kTraining;
    s.qos_class = kTrainingClass;
    s.qos_weight = kTrainingWeight;
    const std::size_t rot =
        cfg.training_jobs > 1 ? j * (hosts.size() / cfg.training_jobs) : 0;
    const std::size_t stride = std::max<std::size_t>(1, hosts.size() / t_ranks);
    for (std::size_t r = 0; r < t_ranks; ++r)
      s.hosts.push_back(hosts[(rot + r * stride) % hosts.size()]);
    s.arrival = static_cast<Time>(j) * 2 * kMicrosecond;
    s.coll = CollKind::kAllgather;
    s.bytes = cfg.training_bytes;
    s.num_ops = cfg.training_ops;
    s.on_failure = cfg.training_policy;
    s.comm = cfg.comm;
    if (cfg.training_heartbeat != 0)
      s.comm.detector.heartbeat_interval = cfg.training_heartbeat;
    if (cfg.training_lease != 0)
      s.comm.detector.lease_timeout = cfg.training_lease;
    jobs.push_back(std::move(s));
  }

  // Inference: Poisson arrivals onto aligned rank windows (window choice is
  // part of the seeded workload). Windows of `inference_ranks` consecutive
  // hosts keep each tenant compact; contention with training happens on the
  // shared host links and NICs.
  const std::size_t i_ranks =
      std::max<std::size_t>(2, std::min(cfg.inference_ranks, hosts.size()));
  const std::size_t windows = std::max<std::size_t>(1, hosts.size() / i_ranks);
  Time t = 5 * kMicrosecond;
  for (std::size_t j = 0; j < cfg.inference_jobs; ++j) {
    JobSpec s;
    s.tenant = next_tenant++;
    const bool hp = j < cfg.high_priority_jobs;
    s.name = (hp ? "hp" : "infer") + std::to_string(j);
    s.kind = JobKind::kInference;
    s.qos_class = hp ? std::uint8_t{0} : kInferenceClass;
    s.qos_weight = hp ? kHighPriorityWeight : kInferenceWeight;
    const std::size_t w = arrivals.rng().below(windows);
    for (std::size_t r = 0; r < i_ranks; ++r)
      s.hosts.push_back(hosts[(w * i_ranks + r) % hosts.size()]);
    t += arrivals.exp_gap(cfg.inference_mean_gap);
    s.arrival = t;
    s.coll = CollKind::kBroadcast;
    s.bcast_root = 0;
    s.bytes = cfg.inference_bytes;
    s.num_ops = cfg.inference_ops;
    s.gap = kInferenceThink;
    s.on_failure = hp ? cfg.high_priority_policy : cfg.inference_policy;
    s.comm = cfg.comm;
    if (cfg.inference_heartbeat != 0)
      s.comm.detector.heartbeat_interval = cfg.inference_heartbeat;
    if (cfg.inference_lease != 0)
      s.comm.detector.lease_timeout = cfg.inference_lease;
    jobs.push_back(std::move(s));
  }
  return jobs;
}

}  // namespace mccl::sched
