// Admission control for the multi-tenant cluster scheduler.
//
// The controller is a pure decision function: given one job and a
// FabricView (the live signals the scheduler samples at decision time —
// running/queued job counts, the health plane's deweighted-link count,
// and packet-pool quota pressure), it returns admit / queue / reject.
// Keeping it stateless apart from counters makes every policy branch unit
// testable without a cluster, and keeps the scheduler's behavior a pure
// function of the (seeded) signal sequence — determinism is inherited,
// not re-proven.
#pragma once

#include <cstddef>
#include <cstdint>

#include "src/common/units.hpp"
#include "src/sched/job.hpp"

namespace mccl::sched {

enum class Verdict : std::uint8_t { kAdmit, kQueue, kReject };

const char* to_string(Verdict v);

struct AdmissionConfig {
  /// Concurrency cap: at most this many jobs running at once (0 = no cap).
  std::size_t max_running_jobs = 8;
  /// A job arriving while this many are already queued is rejected
  /// outright — a bounded queue, not an unbounded backlog.
  std::size_t max_queued_jobs = 64;
  /// Health gate: while the fabric reports more than this many deweighted
  /// link directions (Fabric::deweighted_dirs(), written by the cluster's
  /// health monitor), new jobs queue instead of admitting — don't pile
  /// tenants onto a degraded fabric. ~0 disables the gate.
  std::size_t max_deweighted_dirs = ~std::size_t{0};
  /// Predictive gate: while the health plane's trend scorer flags more
  /// than this many directions *at risk* (HealthMonitor::at_risk_dirs() —
  /// projected to cross their unhealthy thresholds within the risk
  /// horizon, but not yet deweighted), defer new placements. This is the
  /// forward-looking sibling of the deweight gate: it holds tenants off a
  /// link about to go sick instead of admitting onto it and rescuing them
  /// a few windows later. ~0 disables the gate.
  std::size_t max_at_risk_dirs = ~std::size_t{0};
  /// A job queued longer than this is rejected (0 = wait forever; the
  /// scheduler's re-evaluation tick keeps the engine alive meanwhile).
  Time queue_timeout = 10 * kMillisecond;
};

/// Live signals sampled by the scheduler immediately before each decision.
struct FabricView {
  std::size_t running_jobs = 0;
  std::size_t queued_jobs = 0;  // excluding the job being decided
  std::size_t deweighted_dirs = 0;  // health plane: reweighted link dirs
  std::size_t at_risk_dirs = 0;  // predictive: trending toward unhealthy
  std::size_t tenants_over_quota = 0;  // sub-pools above their soft quota
};

class AdmissionController {
 public:
  explicit AdmissionController(AdmissionConfig cfg = {}) : cfg_(cfg) {}

  const AdmissionConfig& config() const { return cfg_; }

  /// One admission decision. Counters tally *decisions*, not jobs: a job
  /// re-evaluated from the queue counts a fresh verdict each time (so
  /// `queued()` across a run measures deferral pressure, and
  /// `health_deferrals()` counts exactly how often the health gate held
  /// the door).
  Verdict decide(const JobSpec& job, const FabricView& view);

  std::uint64_t admitted() const { return admitted_; }
  std::uint64_t queued() const { return queued_; }
  std::uint64_t rejected() const { return rejected_; }
  std::uint64_t health_deferrals() const { return health_deferrals_; }
  std::uint64_t predictive_deferrals() const { return predictive_deferrals_; }
  std::uint64_t pool_deferrals() const { return pool_deferrals_; }

 private:
  AdmissionConfig cfg_;
  std::uint64_t admitted_ = 0;
  std::uint64_t queued_ = 0;
  std::uint64_t rejected_ = 0;
  std::uint64_t health_deferrals_ = 0;
  std::uint64_t predictive_deferrals_ = 0;
  std::uint64_t pool_deferrals_ = 0;
};

}  // namespace mccl::sched
