#include "src/sched/cluster_sched.hpp"

#include <algorithm>
#include <utility>

#include "src/common/stats.hpp"
#include "src/debug/validate.hpp"

namespace mccl::sched {

ClusterScheduler::ClusterScheduler(coll::Cluster& cluster, SchedulerConfig cfg)
    : cluster_(cluster), cfg_(cfg), admission_(cfg.admission) {
  for (std::size_t h = 0; h < cluster_.num_hosts(); ++h)
    cluster_.nic(h).set_strict_priority(cfg_.policy == QosPolicy::kStrict);
  publisher_id_ = cluster_.telemetry().metrics.add_publisher(
      [this](telemetry::MetricsRegistry& reg) { publish(reg); });
}

ClusterScheduler::~ClusterScheduler() {
  cluster_.telemetry().metrics.remove_publisher(publisher_id_);
}

std::size_t ClusterScheduler::submit(JobSpec spec) {
  MCCL_CHECK_MSG(!ran_, "submit() after run() is not supported");
  MCCL_CHECK_MSG(spec.hosts.size() >= 2, "a job needs at least two ranks");
  MCCL_CHECK_MSG(spec.num_ops >= 1, "a job needs at least one op");
  MCCL_CHECK_MSG(spec.tenant != 0, "tenant 0 is reserved for untenanted");
  const std::size_t id = jobs_.size();
  JobRecord rec;
  rec.spec = std::move(spec);
  jobs_.push_back(std::move(rec));
  return id;
}

void ClusterScheduler::run() {
  MCCL_CHECK_MSG(!ran_, "run() may only be called once");
  ran_ = true;
  sim::Engine& engine = cluster_.engine();
  for (std::size_t id = 0; id < jobs_.size(); ++id) {
    const Time when = std::max(jobs_[id].spec.arrival, engine.now());
    engine.schedule_at(when, [this, id] { on_arrival(id); });
  }
  cluster_.run_until_done([this] { return settled_ == jobs_.size(); });
  audit();
}

void ClusterScheduler::on_arrival(std::size_t id) {
  JobRecord& rec = jobs_[id];
  rec.submit_time = cluster_.engine().now();
  record("job_arrive", id);
  // Arrivals join behind already-queued jobs: admission is FIFO-fair, a
  // late arrival never jumps a waiting tenant.
  if (!queue_.empty()) {
    enqueue(id);
    return;
  }
  switch (admission_.decide(rec.spec, view())) {
    case Verdict::kAdmit:
      admit(id);
      break;
    case Verdict::kQueue:
      enqueue(id);
      break;
    case Verdict::kReject:
      settle(id, JobState::kRejected);
      break;
  }
}

void ClusterScheduler::enqueue(std::size_t id) {
  JobRecord& rec = jobs_[id];
  rec.state = JobState::kQueued;
  rec.queue_time = cluster_.engine().now();
  queue_.push_back(id);
  record("job_queue", id);
  arm_tick();
}

std::vector<fabric::NodeId> ClusterScheduler::surviving_hosts(
    const JobRecord& rec) const {
  std::vector<fabric::NodeId> alive;
  alive.reserve(rec.spec.hosts.size());
  for (const fabric::NodeId h : rec.spec.hosts) {
    if (cluster_.host_crashed(static_cast<std::size_t>(h))) continue;
    // A prior launch's failure detector may have confirmed a rank dead
    // before (or without) the cluster marking the host crashed; honor it.
    bool dead = false;
    if (rec.comm)
      for (std::size_t r = 0; r < rec.launch_hosts.size(); ++r)
        if (rec.launch_hosts[r] == h && rec.comm->rank_presumed_dead(r)) {
          dead = true;
          break;
        }
    if (!dead) alive.push_back(h);
  }
  return alive;
}

void ClusterScheduler::build_comm(std::size_t id,
                                  std::vector<fabric::NodeId> hosts) {
  JobRecord& rec = jobs_[id];
  const std::size_t prev =
      rec.comm ? rec.launch_hosts.size() : rec.spec.hosts.size();
  if (hosts.size() < prev) {
    rec.shrunk_ranks += prev - hosts.size();
    record("job_shrink", id);
  }
  // Remap the broadcast root onto the surviving set; a dead root hands the
  // role to the first survivor.
  rec.launch_root = 0;
  if (rec.spec.coll == CollKind::kBroadcast &&
      rec.spec.bcast_root < rec.spec.hosts.size()) {
    const fabric::NodeId want = rec.spec.hosts[rec.spec.bcast_root];
    for (std::size_t r = 0; r < hosts.size(); ++r)
      if (hosts[r] == want) {
        rec.launch_root = r;
        break;
      }
  }
  // Kept alive until settle() so in-flight completion callbacks stay valid.
  // mccl: comm-retire superseded by the rebuilt communicator below
  if (rec.comm) rec.retired_comms.push_back(std::move(rec.comm));
  coll::CommConfig ccfg = rec.spec.comm;
  ccfg.tenant = rec.spec.tenant;
  ccfg.qos_class = cfg_.apply_classes ? rec.spec.qos_class : 0;
  // Decorrelate the detector heartbeat phases across tenants: N
  // communicators seeded alike would probe the fabric in lockstep.
  ccfg.detector.seed ^= 0x9e3779b97f4a7c15ull * rec.spec.tenant;
  rec.launch_hosts = std::move(hosts);
  rec.comm = std::make_unique<coll::Communicator>(cluster_, rec.launch_hosts,
                                                  ccfg);
}

void ClusterScheduler::admit(std::size_t id) {
  JobRecord& rec = jobs_[id];
  // Crash-aware placement: drop ranks that are already gone. A recovered
  // host re-enters here automatically (host_crashed() flips back on
  // node_recover, and a requeued job re-filters from the full spec set).
  std::vector<fabric::NodeId> alive = surviving_hosts(rec);
  if (alive.size() < 2) {
    record("job_unplaceable", id);
    settle(id, JobState::kRejected);
    return;
  }
  rec.state = JobState::kRunning;
  rec.admit_time = cluster_.engine().now();
  rec.cycle_retries = 0;
  rec.cycle_first_failure = 0;
  ++running_;
  peak_running_ = std::max(peak_running_, running_);
  const double wait_us = to_microseconds(rec.admit_time - rec.submit_time);
  cluster_.telemetry()
      .metrics.histogram("sched.queue_delay_us", {{"tenant", rec.spec.name}})
      .observe(wait_us);
  if (cfg_.pool_quota_per_weight != 0)
    cluster_.fabric().pool().set_tenant_quota(
        rec.spec.tenant,
        cfg_.pool_quota_per_weight * rec.spec.qos_weight);
  build_comm(id, std::move(alive));
  record("job_admit", id);
  issue_next(id);
}

void ClusterScheduler::issue_next(std::size_t id) {
  JobRecord& rec = jobs_[id];
  ++ops_issued_;
  // Ranks may die after the last survivor check (during a gap, or a retry
  // backoff): with fewer than two presumed alive there is no collective to
  // run, so the attempt fails and climbs the policy like any failed op.
  if (rec.comm->presumed_alive() < 2) {
    coll::OpResult res;
    res.status = coll::OpStatus::kFailed;
    on_op_failure(id, res);
    return;
  }
  coll::OpBase& op =
      rec.spec.coll == CollKind::kAllgather
          ? rec.comm->start_allgather(rec.spec.bytes, rec.spec.ag_algo)
          : rec.comm->start_broadcast(rec.launch_root, rec.spec.bytes,
                                      rec.spec.bc_algo);
  op.set_on_done(
      [this, id](coll::OpBase& o) { on_op_done(id, o.result()); });
}

void ClusterScheduler::on_op_done(std::size_t id, const coll::OpResult& res) {
  JobRecord& rec = jobs_[id];
  const bool clean = res.status == coll::OpStatus::kOk && res.data_verified;
  // kPartial with verified survivor data is acceptable progress for
  // tenants that opted in (bulk training prefers a lost block over a lost
  // job); everything else climbs the failure-policy ladder.
  const bool degraded = res.status == coll::OpStatus::kPartial &&
                        res.data_verified &&
                        rec.spec.on_failure.accept_partial;
  if (!clean && !degraded) {
    on_op_failure(id, res);
    return;
  }
  const double lat_us = to_microseconds(res.duration());
  if (clean) {
    ++rec.ops_done;
  } else {
    ++rec.ops_degraded;
    record("op_degraded", id);
  }
  rec.op_latency_us.push_back(lat_us);
  // Payload the tenant got out of the op, per rank: an allgather delivers
  // every surviving rank's block to every rank; a broadcast delivers the
  // root block (a partial broadcast lost exactly that, so it moves 0).
  if (rec.spec.coll == CollKind::kAllgather)
    rec.bytes_moved +=
        rec.spec.bytes * (rec.comm->size() - res.missing_blocks.size());
  else if (clean)
    rec.bytes_moved += rec.spec.bytes;
  cluster_.telemetry()
      .metrics.histogram("sched.op_latency_us", {{"tenant", rec.spec.name}})
      .observe(lat_us);
  if (rec.ops_done + rec.ops_degraded < rec.spec.num_ops) {
    if (rec.spec.gap == 0) {
      issue_next(id);
    } else {
      cluster_.engine().schedule(rec.spec.gap,
                                 [this, id] { issue_next(id); });
    }
    return;
  }
  settle(id, rec.ops_degraded != 0 ? JobState::kDegraded
                                   : JobState::kCompleted);
  pump_queue();
}

void ClusterScheduler::on_op_failure(std::size_t id,
                                     const coll::OpResult& res) {
  JobRecord& rec = jobs_[id];
  const FailurePolicy& pol = rec.spec.on_failure;
  const Time now = cluster_.engine().now();
  ++rec.ops_failed;
  if (rec.cycle_first_failure == 0) rec.cycle_first_failure = now;
  cluster_.telemetry().recorder.record(
      now, -1, telemetry::EventCat::kSched, "op_fail", id,
      static_cast<std::uint64_t>(res.status));
  // Rung 1: in-place retry with exponential backoff, bounded by both the
  // per-cycle count and the deadline budget from the cycle's first
  // failure. The communicator is shrunk off presumed-dead ranks first, so
  // a crash-induced failure retries over the survivor group instead of
  // stalling on the same dead rank again.
  const bool budget_ok = pol.retry_budget == 0 ||
                         now - rec.cycle_first_failure <= pol.retry_budget;
  if (rec.cycle_retries < pol.max_retries && budget_ok &&
      shrink_for_retry(id)) {
    ++rec.retries_used;
    ++rec.cycle_retries;
    record("op_retry", id);
    const std::uint32_t shift = std::min(rec.cycle_retries - 1, 16u);
    cluster_.engine().schedule(pol.retry_backoff << shift,
                               [this, id] { issue_next(id); });
    return;
  }
  // Rung 2: give the slot back and take the whole job through admission
  // again — fresh communicator, fresh crash filter, back of the FIFO.
  if (rec.requeues_used < pol.max_requeues) {
    ++rec.requeues_used;
    --running_;
    rec.cycle_retries = 0;
    rec.cycle_first_failure = 0;
    // mccl: comm-retire requeue rung; build_comm() mints a fresh one
    if (rec.comm) rec.retired_comms.push_back(std::move(rec.comm));
    record("job_requeue", id);
    enqueue(id);
    pump_queue();  // the freed slot may admit the FIFO head immediately
    return;
  }
  record("job_fail", id);
  settle(id, JobState::kFailed);
  pump_queue();
}

bool ClusterScheduler::shrink_for_retry(std::size_t id) {
  JobRecord& rec = jobs_[id];
  std::vector<fabric::NodeId> alive;
  alive.reserve(rec.launch_hosts.size());
  for (std::size_t r = 0; r < rec.launch_hosts.size(); ++r) {
    const fabric::NodeId h = rec.launch_hosts[r];
    if (cluster_.host_crashed(static_cast<std::size_t>(h))) continue;
    if (rec.comm->rank_presumed_dead(r)) continue;
    alive.push_back(h);
  }
  if (alive.size() < 2) return false;
  // Nothing died: keep the communicator (the failure was transient, e.g.
  // a corruption-window verify miss) and just re-issue.
  if (alive.size() != rec.launch_hosts.size())
    build_comm(id, std::move(alive));
  return true;
}

void ClusterScheduler::settle(std::size_t id, JobState final_state) {
  JobRecord& rec = jobs_[id];
  if (rec.state == JobState::kRunning) --running_;
  rec.state = final_state;
  rec.finish_time = cluster_.engine().now();
  ++settled_;
  record(final_state == JobState::kCompleted  ? "job_done"
         : final_state == JobState::kDegraded ? "job_degraded"
         : final_state == JobState::kRejected ? "job_reject"
                                              : "job_failed",
         id);
}

void ClusterScheduler::pump_queue() {
  const Time now = cluster_.engine().now();
  const Time timeout = cfg_.admission.queue_timeout;
  while (!queue_.empty()) {
    const std::size_t id = queue_.front();
    JobRecord& rec = jobs_[id];
    if (timeout != 0 && now - rec.queue_time >= timeout) {
      queue_.pop_front();
      settle(id, JobState::kRejected);
      continue;
    }
    switch (admission_.decide(rec.spec, view())) {
      case Verdict::kAdmit:
        queue_.pop_front();
        admit(id);
        continue;
      case Verdict::kReject:
        queue_.pop_front();
        settle(id, JobState::kRejected);
        continue;
      case Verdict::kQueue:
        break;  // the head must keep waiting; nobody jumps it
    }
    break;
  }
  if (!queue_.empty()) arm_tick();
}

void ClusterScheduler::arm_tick() {
  if (tick_armed_) return;
  tick_armed_ = true;
  cluster_.engine().schedule(cfg_.requeue_tick, [this] {
    tick_armed_ = false;
    pump_queue();
  });
}

FabricView ClusterScheduler::view() const {
  FabricView v;
  v.running_jobs = running_;
  v.queued_jobs = queue_.size();
  v.deweighted_dirs = cluster_.fabric().deweighted_dirs();
  const coll::HealthMonitor* hm = cluster_.health();
  v.at_risk_dirs = hm != nullptr ? hm->at_risk_dirs() : 0;
  const fabric::PacketPool& pool = cluster_.fabric().pool();
  for (std::uint16_t t = 1; t < pool.num_tenants(); ++t) {
    const std::uint64_t quota = pool.tenant_quota(t);
    if (quota != 0 && pool.tenant_outstanding(t) > quota)
      ++v.tenants_over_quota;
  }
  return v;
}

ClusterScheduler::TenantStats ClusterScheduler::tenant_stats(
    TenantId tenant) const {
  TenantStats s;
  std::vector<double> lat;
  double queue_us = 0;
  Time running_time = 0;
  std::size_t admitted = 0;
  for (const JobRecord& rec : jobs_) {
    if (rec.spec.tenant != tenant) continue;
    if (s.name.empty()) s.name = rec.spec.name;
    ++s.jobs;
    s.jobs_completed += rec.state == JobState::kCompleted;
    s.jobs_degraded += rec.state == JobState::kDegraded;
    s.jobs_rejected += rec.state == JobState::kRejected;
    s.jobs_failed += rec.state == JobState::kFailed;
    s.ops += rec.ops_done;
    s.ops_degraded += rec.ops_degraded;
    s.retries += rec.retries_used;
    s.requeues += rec.requeues_used;
    s.shrunk_ranks += rec.shrunk_ranks;
    s.bytes += rec.bytes_moved;
    lat.insert(lat.end(), rec.op_latency_us.begin(), rec.op_latency_us.end());
    if (rec.admit_time != 0 || rec.state == JobState::kCompleted ||
        rec.state == JobState::kRunning || rec.state == JobState::kFailed) {
      ++admitted;
      queue_us += to_microseconds(rec.admit_time - rec.submit_time);
      const Time end =
          rec.finish_time != 0 ? rec.finish_time : cluster_.engine().now();
      running_time += end - rec.admit_time;
    }
  }
  s.p50_us = percentile(lat, 0.50);
  s.p99_us = percentile(lat, 0.99);
  s.max_us = lat.empty() ? 0 : *std::max_element(lat.begin(), lat.end());
  s.mean_queue_us = admitted ? queue_us / static_cast<double>(admitted) : 0;
  // bytes/picosecond * 8 bits... Time is in engine units; to_microseconds
  // normalizes, so: bits / us = Mbit/s; /1000 = Gbit/s.
  const double us = to_microseconds(running_time);
  s.goodput_gbps =
      us > 0 ? static_cast<double>(s.bytes) * 8.0 / us / 1000.0 : 0;
  return s;
}

std::vector<TenantId> ClusterScheduler::tenants() const {
  std::vector<TenantId> out;
  for (const JobRecord& rec : jobs_) out.push_back(rec.spec.tenant);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

bool ClusterScheduler::conservation_ok() const {
  if (running_ != 0 || !queue_.empty()) return false;
  std::size_t settled = 0;
  std::uint64_t ops = 0;
  for (const JobRecord& rec : jobs_) {
    if (!is_terminal(rec.state)) return false;
    ++settled;
    ops += rec.ops_done + rec.ops_degraded + rec.ops_failed;
    // A job's op count never exceeds its spec; a short count means it
    // settled early (failure), never that ops leaked past completion. A
    // degraded settlement must show at least one accepted-partial op —
    // that is the only way to reach the state.
    if (rec.state == JobState::kCompleted && rec.ops_done != rec.spec.num_ops)
      return false;
    if (rec.state == JobState::kDegraded &&
        (rec.ops_degraded == 0 ||
         rec.ops_done + rec.ops_degraded != rec.spec.num_ops))
      return false;
  }
  return settled == settled_ && ops == ops_issued_;
}

bool ClusterScheduler::retry_ledger_ok() const {
  for (const JobRecord& rec : jobs_) {
    const FailurePolicy& pol = rec.spec.on_failure;
    // Every failed attempt escalated exactly once: an in-place retry, a
    // trip back through admission, or the job's terminal failure.
    const std::uint64_t escalations =
        static_cast<std::uint64_t>(rec.retries_used) + rec.requeues_used +
        (rec.state == JobState::kFailed ? 1 : 0);
    if (rec.ops_failed != escalations) return false;
    // And nobody spent more than the policy granted: requeues per job,
    // retries per admission cycle (a requeue opens a fresh cycle).
    if (rec.requeues_used > pol.max_requeues) return false;
    if (rec.retries_used >
        static_cast<std::uint64_t>(pol.max_retries) * (1 + rec.requeues_used))
      return false;
  }
  return true;
}

void ClusterScheduler::audit() {
  MCCL_VALIDATE_THAT(conservation_ok(), "sched.tenant_conservation",
                     "job/op ledger out of balance: settled=%zu/%zu "
                     "running=%zu queued=%zu ops_issued=%llu",
                     settled_, jobs_.size(), running_, queue_.size(),
                     static_cast<unsigned long long>(ops_issued_));
  MCCL_VALIDATE_THAT(retry_ledger_ok(), "sched.retry_conservation",
                     "retry/requeue ledger out of balance across %zu jobs "
                     "(every failed attempt must map to one retry, requeue, "
                     "or terminal failure, within policy budgets)",
                     jobs_.size());
}

void ClusterScheduler::publish(telemetry::MetricsRegistry& reg) {
  std::size_t completed = 0, degraded = 0, rejected = 0, failed = 0;
  std::uint64_t retries = 0, requeues = 0, shrunk = 0;
  for (const JobRecord& rec : jobs_) {
    completed += rec.state == JobState::kCompleted;
    degraded += rec.state == JobState::kDegraded;
    rejected += rec.state == JobState::kRejected;
    failed += rec.state == JobState::kFailed;
    retries += rec.retries_used;
    requeues += rec.requeues_used;
    shrunk += rec.shrunk_ranks;
  }
  reg.counter("sched.jobs_submitted").set(jobs_.size());
  reg.counter("sched.jobs_completed").set(completed);
  reg.counter("sched.jobs_degraded").set(degraded);
  reg.counter("sched.jobs_rejected").set(rejected);
  reg.counter("sched.jobs_failed").set(failed);
  reg.counter("sched.retries").set(retries);
  reg.counter("sched.requeues").set(requeues);
  reg.counter("sched.shrunk_ranks").set(shrunk);
  reg.counter("sched.ops_issued").set(ops_issued_);
  reg.gauge("sched.running").set(static_cast<double>(running_));
  reg.gauge("sched.queued").set(static_cast<double>(queue_.size()));
  reg.gauge("sched.peak_running").set(static_cast<double>(peak_running_));
  reg.counter("sched.admission.admitted").set(admission_.admitted());
  reg.counter("sched.admission.queued").set(admission_.queued());
  reg.counter("sched.admission.rejected").set(admission_.rejected());
  reg.counter("sched.admission.health_deferrals")
      .set(admission_.health_deferrals());
  reg.counter("sched.admission.predictive_deferrals")
      .set(admission_.predictive_deferrals());
  reg.counter("sched.admission.pool_deferrals")
      .set(admission_.pool_deferrals());
  for (const TenantId t : tenants()) {
    const TenantStats s = tenant_stats(t);
    const telemetry::Labels labels = {{"tenant", s.name}};
    reg.counter("sched.tenant.ops", labels).set(s.ops);
    reg.counter("sched.tenant.ops_degraded", labels).set(s.ops_degraded);
    reg.counter("sched.tenant.retries", labels).set(s.retries);
    reg.counter("sched.tenant.requeues", labels).set(s.requeues);
    reg.counter("sched.tenant.shrunk_ranks", labels).set(s.shrunk_ranks);
    reg.counter("sched.tenant.bytes", labels).set(s.bytes);
    reg.gauge("sched.tenant.p50_us", labels).set(s.p50_us);
    reg.gauge("sched.tenant.p99_us", labels).set(s.p99_us);
    reg.gauge("sched.tenant.queue_delay_us", labels).set(s.mean_queue_us);
    reg.gauge("sched.tenant.goodput_gbps", labels).set(s.goodput_gbps);
  }
}

void ClusterScheduler::record(const char* what, std::size_t id) {
  cluster_.telemetry().recorder.record(
      cluster_.engine().now(), -1, telemetry::EventCat::kSched, what, id,
      jobs_[id].spec.tenant);
}

}  // namespace mccl::sched
