#include "src/sched/admission.hpp"

namespace mccl::sched {

const char* to_string(Verdict v) {
  switch (v) {
    case Verdict::kAdmit:
      return "admit";
    case Verdict::kQueue:
      return "queue";
    case Verdict::kReject:
      return "reject";
  }
  return "?";
}

Verdict AdmissionController::decide(const JobSpec& job,
                                    const FabricView& view) {
  // Bounded queue first: a full waiting room rejects regardless of why the
  // head of the queue is stuck.
  if (view.queued_jobs >= cfg_.max_queued_jobs) {
    ++rejected_;
    return Verdict::kReject;
  }
  if (cfg_.max_running_jobs != 0 &&
      view.running_jobs >= cfg_.max_running_jobs) {
    ++queued_;
    return Verdict::kQueue;
  }
  if (view.deweighted_dirs > cfg_.max_deweighted_dirs) {
    ++queued_;
    ++health_deferrals_;
    return Verdict::kQueue;
  }
  if (view.at_risk_dirs > cfg_.max_at_risk_dirs) {
    ++queued_;
    ++predictive_deferrals_;
    return Verdict::kQueue;
  }
  // Pool gate: while any tenant sub-pool sits above its soft packet quota,
  // defer new admissions until the pressure clears. Class-0
  // (highest-priority) jobs bypass this gate — a latency tenant should not
  // wait out a bulk tenant's buffer debt.
  if (view.tenants_over_quota > 0 && job.qos_class != 0) {
    ++queued_;
    ++pool_deferrals_;
    return Verdict::kQueue;
  }
  ++admitted_;
  return Verdict::kAdmit;
}

}  // namespace mccl::sched
