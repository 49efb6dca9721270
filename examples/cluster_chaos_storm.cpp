// Cluster chaos storm: the fault plane meets the multi-tenant scheduler.
//
// cluster_storm proved N tenants share one tree under QoS; this storm
// breaks the tree underneath them and gates the job-level story. The same
// k=8 multi-rail fat tree (16 hosts) carries the seeded mixed workload —
// 11 tenants: three wide training allgathers, a Poisson burst of eight
// inference broadcasts, two of them the class-0 SLO tenants — while the
// PR-6 fault timeline replays: a rail-0 trunk degrades to 8% bandwidth,
// a host straggles 3x, and a host crashes mid-storm (recovering late).
// Per-tenant failure policies route around it: training accepts verified
// kPartial completions as degraded progress (and may requeue), inference
// retries with exponential backoff over a communicator shrunk off the
// confirmed-dead rank, and a late "elastic" job proves the recovered
// host re-enters the candidate set (it must launch unshrunk).
//
// The crash victim and the straggler are chosen deterministically from
// hosts *outside* the class-0 tenants' windows: the storm gates the SLO
// class's p99 against the fault-free baseline (crash recovery is paid by
// the tenants that opted into the lax policies, not the latency class).
//
// Gates, enforced per seed and pooled across seeds:
//   - zero hangs (run_until_done drains or aborts — reaching the end of a
//     run is itself the no-hang proof)
//   - every job terminal: completed or degraded; zero rejected, zero
//     failed (all policies have enough budget for this timeline)
//   - the elastic job launches full-width after node_recover
//   - the fault-free baseline is quiet (no retries/requeues/degrades)
//   - chaos actually exercised the plane (retries+requeues+degrades+
//     shrinks > 0)
//   - class-0 pooled p99 under chaos <= 2x the fault-free pooled p99
//   - conservation + retry-budget ledgers balance (validators armed in
//     MCCL_VALIDATE builds); registry and ledger tell one story
//   - in validate builds every (seed, mode) is run twice and the engine
//     dispatch hashes must match; CI re-diffs the printed lines across
//     two full process runs
//
// Usage: example_cluster_chaos_storm [--mccl_json=<path>]
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "src/common/stats.hpp"
#include "src/debug/validate.hpp"
#include "src/sched/arrival.hpp"
#include "src/sched/cluster_sched.hpp"

using namespace mccl;

namespace {

constexpr std::uint64_t kSeeds[] = {42, 1337, 2718};
constexpr std::size_t kNumSeeds = sizeof(kSeeds) / sizeof(kSeeds[0]);
constexpr double kMaxP99Inflation = 2.0;  // chaos p99 vs clean p99, pooled
constexpr std::size_t kMinTenants = 11;

// PR-6 timeline landmarks, scaled to the storm (hp bursts land 5-120us).
constexpr Time kDegradeAt = 30 * kMicrosecond;  // rail-0 trunk 16<->20
constexpr Time kStraggleAt = 50 * kMicrosecond;
constexpr Time kStraggleEnd = 300 * kMicrosecond;
constexpr Time kCrashAt = 60 * kMicrosecond;
constexpr Time kRecoverAt = 1500 * kMicrosecond;
constexpr Time kElasticArrival = 2000 * kMicrosecond;

struct RunOut {
  std::vector<double> hp_lat_us;  // class-0 per-op latencies, this run
  std::size_t jobs = 0;
  std::size_t completed = 0;
  std::size_t degraded = 0;
  std::uint64_t retries = 0;
  std::uint64_t requeues = 0;
  std::uint64_t shrunk_ranks = 0;
  std::uint64_t ops_degraded = 0;
  std::uint64_t hash = 0;
  std::uint64_t events = 0;
};

sched::WorkloadConfig make_workload_config(std::uint64_t seed) {
  sched::WorkloadConfig wl;
  wl.seed = seed;
  wl.training_jobs = 3;
  wl.training_ranks = 8;
  wl.training_ops = 4;
  wl.training_bytes = 256 * KiB;
  wl.inference_jobs = 8;
  wl.inference_ranks = 4;
  wl.inference_ops = 3;
  wl.inference_bytes = 32 * KiB;
  wl.inference_mean_gap = 10 * kMicrosecond;
  wl.high_priority_jobs = 2;
  wl.comm.cutoff_alpha = 100 * kMicrosecond;

  // Per-class failure policies: training would rather lose a crashed
  // rank's block than the job (plus one trip back through admission if an
  // op fails outright); inference retries in place over the shrunk
  // survivor group; the SLO class gets fast, budgeted retries.
  wl.training_policy.accept_partial = true;
  wl.training_policy.max_requeues = 1;
  wl.inference_policy.max_retries = 2;
  wl.inference_policy.retry_backoff = 15 * kMicrosecond;
  wl.inference_policy.retry_budget = 1 * kMillisecond;
  wl.inference_policy.max_requeues = 1;
  wl.high_priority_policy.max_retries = 2;
  wl.high_priority_policy.retry_backoff = 5 * kMicrosecond;
  wl.high_priority_policy.retry_budget = 500 * kMicrosecond;

  // Per-class detectors (JobSpec-plumbed): inference ops are far shorter
  // than the default 400us lease, so those tenants confirm a dead peer in
  // ~2 op-times; training keeps laxer timers and cheaper heartbeats.
  wl.inference_heartbeat = 20 * kMicrosecond;
  wl.inference_lease = 80 * kMicrosecond;
  wl.training_heartbeat = 50 * kMicrosecond;
  wl.training_lease = 200 * kMicrosecond;
  return wl;
}

// Victim/straggler: deterministic picks from hosts outside every class-0
// tenant's window (descending host id; victim first, then straggler).
void pick_victims(const std::vector<sched::JobSpec>& jobs,
                  std::size_t num_hosts, fabric::NodeId* victim,
                  fabric::NodeId* straggler) {
  std::vector<bool> hp_host(num_hosts, false);
  for (const sched::JobSpec& s : jobs)
    if (s.qos_class == 0)
      for (const fabric::NodeId h : s.hosts)
        hp_host[static_cast<std::size_t>(h)] = true;
  std::vector<fabric::NodeId> free;
  for (std::size_t h = num_hosts; h-- > 0;)
    if (!hp_host[h]) free.push_back(static_cast<fabric::NodeId>(h));
  MCCL_CHECK_MSG(free.size() >= 2,
                 "class-0 windows cover too many hosts to stage the chaos");
  *victim = free[0];
  *straggler = free[1];
}

bool run_case(std::uint64_t seed, bool chaos, RunOut* out) {
  const char* mode = chaos ? "chaos" : "clean";
  std::vector<fabric::NodeId> all_hosts;
  for (fabric::NodeId h = 0; h < 16; ++h) all_hosts.push_back(h);

  sched::WorkloadConfig wl = make_workload_config(seed);
  std::vector<sched::JobSpec> jobs = sched::make_mixed_workload(wl, all_hosts);
  fabric::NodeId victim = 0, straggler = 0;
  pick_victims(jobs, all_hosts.size(), &victim, &straggler);

  std::size_t probe_id = jobs.size();
  std::size_t elastic_id = jobs.size() + 1;
  if (chaos) {
    // The retry probe: a broadcast rooted on the soon-to-crash host,
    // arriving just before the crash. The root dies under it, the op
    // settles non-ok, and the inference policy must shrink the
    // communicator off the confirmed-dead root, remap the root, and
    // finish clean — the deterministic in-place-retry path.
    sched::JobSpec p;
    p.tenant = static_cast<sched::TenantId>(jobs.size() + 1);
    p.name = "probe";
    p.kind = sched::JobKind::kInference;
    p.qos_class = 1;
    for (std::size_t r = 0; r < 4; ++r)
      p.hosts.push_back(static_cast<fabric::NodeId>(
          (static_cast<std::size_t>(victim) + r) % all_hosts.size()));
    // Arrives before the degrade so admission sees a healthy fabric (a
    // deferred probe would be admitted post-crash already shrunk, dodging
    // the retry path); ops sized so the crash lands mid-broadcast — the
    // root must still be injecting when it dies, or the in-flight packets
    // would complete the op without it.
    p.arrival = kDegradeAt - 5 * kMicrosecond;
    p.coll = sched::CollKind::kBroadcast;
    p.bcast_root = 0;  // hosts[0] == victim
    p.bytes = 1 * MiB;
    p.num_ops = 2;
    p.on_failure = wl.inference_policy;
    p.comm = wl.comm;
    p.comm.detector.heartbeat_interval = wl.inference_heartbeat;
    p.comm.detector.lease_timeout = wl.inference_lease;
    jobs.push_back(std::move(p));

    // The elastic-recovery probe: arrives well after node_recover over a
    // window containing the crashed host. Admission must see the host
    // back in the candidate set and launch the full communicator.
    sched::JobSpec s;
    s.tenant = static_cast<sched::TenantId>(jobs.size() + 1);
    s.name = "elastic";
    s.kind = sched::JobKind::kTraining;
    s.qos_class = 2;
    for (std::size_t r = 0; r < 4; ++r)
      s.hosts.push_back(static_cast<fabric::NodeId>(
          (static_cast<std::size_t>(victim) + r) % all_hosts.size()));
    s.arrival = kElasticArrival;
    s.coll = sched::CollKind::kAllgather;
    s.bytes = 64 * KiB;
    s.num_ops = 1;
    s.on_failure = wl.training_policy;
    s.comm = wl.comm;
    jobs.push_back(std::move(s));
  }

  coll::ClusterConfig kcfg;
  if (chaos) {
    fabric::FaultConfig fc;
    // In make_multi_rail_fat_tree(2, 4, 4, 4, 1) hosts are 0-15 and rail 0
    // is leaves 16-19 + spines 20-23: degrading 16<->20 poisons one trunk
    // of the leaf that serves hosts 0-3 on the rail-0 plane.
    fc.events = {
        fabric::FaultEvent::degrade(kDegradeAt, 16, 20, 0.08,
                                    15 * kMicrosecond),
        fabric::FaultEvent::straggler_begin(kStraggleAt, straggler, 3.0),
        fabric::FaultEvent::straggler_end(kStraggleEnd, straggler),
        fabric::FaultEvent::node_crash(kCrashAt, victim),
        fabric::FaultEvent::node_recover(kRecoverAt, victim),
    };
    // Mild clumped loss on top (same regime as adapt_storm): stress the
    // reliability path without indicting healthy links.
    fc.burst.p_enter_bad = 0.0005;
    fc.burst.p_exit_bad = 0.25;
    fc.burst.drop_bad = 0.25;
    kcfg.fabric.faults = fc;
    kcfg.fabric.seed = seed ^ 0xc4a05ull;
  }
  kcfg.nic.rc_rto = 20 * kMicrosecond;  // retry, don't wait an era
  // The health plane runs live for every tenant: one cluster monitor's
  // reactive deweighting plus the predictive trend scorer feeding
  // admission's at-risk gate.
  kcfg.health.enabled = true;
  coll::Cluster cluster(
      fabric::make_multi_rail_fat_tree(2, 4, 4, 4, 1, {}, {}), kcfg);

  sched::SchedulerConfig scfg;
  scfg.policy = sched::QosPolicy::kStrict;  // protect the SLO class
  scfg.apply_classes = true;
  scfg.admission.max_running_jobs = 16;
  // Predictive gate armed but tolerant: a couple of trending dirs (the
  // degraded trunk's two directions) shouldn't freeze admission, a
  // fabric-wide ramp should.
  scfg.admission.max_at_risk_dirs = 4;
  scfg.pool_quota_per_weight = 1024;
  sched::ClusterScheduler sched(cluster, scfg);

  std::vector<std::size_t> ids;
  for (sched::JobSpec& s : jobs) ids.push_back(sched.submit(std::move(s)));
  sched.run();  // returning at all is the zero-hang proof

  out->jobs += ids.size();
  std::size_t run_completed = 0;
  for (const std::size_t id : ids) {
    const sched::JobRecord& rec = sched.job(id);
    const bool ok = rec.state == sched::JobState::kCompleted ||
                    rec.state == sched::JobState::kDegraded;
    const bool allowed = chaos ? ok : rec.state == sched::JobState::kCompleted;
    if (!allowed) {
      std::fprintf(stderr,
                   "FAIL: seed %llu %s job %zu (%s) ended %s after %zu ok + "
                   "%zu degraded of %zu ops (%u retries, %u requeues)\n",
                   static_cast<unsigned long long>(seed), mode, id,
                   rec.spec.name.c_str(), sched::to_string(rec.state),
                   rec.ops_done, rec.ops_degraded, rec.spec.num_ops,
                   rec.retries_used, rec.requeues_used);
      cluster.telemetry().recorder.dump(stderr);
      return false;
    }
    run_completed += rec.state == sched::JobState::kCompleted;
    out->completed += rec.state == sched::JobState::kCompleted;
    out->degraded += rec.state == sched::JobState::kDegraded;
    out->retries += rec.retries_used;
    out->requeues += rec.requeues_used;
    out->shrunk_ranks += rec.shrunk_ranks;
    out->ops_degraded += rec.ops_degraded;
    if (rec.spec.qos_class == 0)
      out->hp_lat_us.insert(out->hp_lat_us.end(), rec.op_latency_us.begin(),
                            rec.op_latency_us.end());
  }

  if (chaos) {
    const sched::JobRecord& pr = sched.job(probe_id);
    if (pr.state != sched::JobState::kCompleted ||
        pr.retries_used + pr.requeues_used == 0) {
      std::fprintf(stderr,
                   "FAIL: seed %llu retry probe ended %s with %u retries + "
                   "%u requeues — the crash under its root must force the "
                   "retry ladder and still complete\n",
                   static_cast<unsigned long long>(seed),
                   sched::to_string(pr.state), pr.retries_used,
                   pr.requeues_used);
      cluster.telemetry().recorder.dump(stderr);
      return false;
    }
    const sched::JobRecord& el = sched.job(elastic_id);
    if (el.shrunk_ranks != 0 || el.comm == nullptr ||
        el.comm->size() != el.spec.hosts.size()) {
      std::fprintf(stderr,
                   "FAIL: seed %llu elastic job launched shrunk (%zu ranks "
                   "dropped, comm size %zu/%zu) — recovered host %d did not "
                   "re-enter the candidate set\n",
                   static_cast<unsigned long long>(seed), el.shrunk_ranks,
                   el.comm ? el.comm->size() : 0, el.spec.hosts.size(),
                   static_cast<int>(victim));
      return false;
    }
  } else if (out->retries + out->requeues + out->shrunk_ranks +
                 out->ops_degraded !=
             0) {
    std::fprintf(stderr,
                 "FAIL: seed %llu clean run was not quiet (retries=%llu "
                 "requeues=%llu shrunk=%llu degraded_ops=%llu)\n",
                 static_cast<unsigned long long>(seed),
                 static_cast<unsigned long long>(out->retries),
                 static_cast<unsigned long long>(out->requeues),
                 static_cast<unsigned long long>(out->shrunk_ranks),
                 static_cast<unsigned long long>(out->ops_degraded));
    return false;
  }

  // The registry and the scheduler ledger must tell one story.
  const telemetry::Snapshot snap = cluster.telemetry().metrics.snapshot();
  const auto metric = [&snap](const std::string& key) -> std::uint64_t {
    const auto it = snap.find(key);
    return it == snap.end() ? 0 : it->second.count;
  };
  std::uint64_t led_retries = 0, led_requeues = 0, led_degraded = 0,
                led_shrunk = 0;
  for (const std::size_t id : ids) {
    led_retries += sched.job(id).retries_used;
    led_requeues += sched.job(id).requeues_used;
    led_degraded += sched.job(id).state == sched::JobState::kDegraded;
    led_shrunk += sched.job(id).shrunk_ranks;
  }
  // Every issued op, failed attempts included, settles through
  // OpBase::settle(), which publishes coll.* once per op.
  const std::uint64_t issued = metric("sched.ops_issued");
  const std::uint64_t coll_ops = telemetry::total_count(snap, "coll.ops");
  const std::uint64_t coll_durations =
      telemetry::total_count(snap, "coll.op_duration_us");
  if (metric("sched.retries") != led_retries ||
      metric("sched.requeues") != led_requeues ||
      metric("sched.jobs_degraded") != led_degraded || coll_ops != issued ||
      coll_durations != issued) {
    std::fprintf(stderr,
                 "FAIL: seed %llu %s registry disagrees with ledger "
                 "(retries %llu vs %llu, requeues %llu vs %llu, degraded "
                 "%llu vs %llu, coll.ops %llu and coll.op_duration_us "
                 "samples %llu vs %llu issued)\n",
                 static_cast<unsigned long long>(seed), mode,
                 static_cast<unsigned long long>(metric("sched.retries")),
                 static_cast<unsigned long long>(led_retries),
                 static_cast<unsigned long long>(metric("sched.requeues")),
                 static_cast<unsigned long long>(led_requeues),
                 static_cast<unsigned long long>(metric("sched.jobs_degraded")),
                 static_cast<unsigned long long>(led_degraded),
                 static_cast<unsigned long long>(coll_ops),
                 static_cast<unsigned long long>(coll_durations),
                 static_cast<unsigned long long>(issued));
    return false;
  }
  if (!sched.conservation_ok() || !sched.retry_ledger_ok()) {
    std::fprintf(stderr, "FAIL: seed %llu %s ledger audit (conservation=%d "
                 "retry=%d)\n",
                 static_cast<unsigned long long>(seed), mode,
                 sched.conservation_ok(), sched.retry_ledger_ok());
    cluster.telemetry().recorder.dump(stderr);
    return false;
  }

  std::printf(
      "  seed=%-6llu %-5s jobs=%zu done=%zu degraded=%llu retries=%llu "
      "requeues=%llu shrunk=%llu victim=%d straggler=%d peak=%zu\n",
      static_cast<unsigned long long>(seed), mode, ids.size(),
      run_completed, static_cast<unsigned long long>(led_degraded),
      static_cast<unsigned long long>(led_retries),
      static_cast<unsigned long long>(led_requeues),
      static_cast<unsigned long long>(led_shrunk),
      chaos ? static_cast<int>(victim) : -1,
      chaos ? static_cast<int>(straggler) : -1, sched.peak_running());
  out->hash = cluster.engine().stream_hash();
  out->events = cluster.engine().dispatched();
  return true;
}

// In validate builds each (seed, mode) runs twice and the engine dispatch
// hashes must match in-process; the printed line lets CI diff two whole
// process runs on top.
bool run_gated(std::uint64_t seed, bool chaos, RunOut* out) {
  if (!run_case(seed, chaos, out)) return false;
  if (debug::enabled()) {
    RunOut again;
    if (!run_case(seed, chaos, &again)) return false;
    if (again.hash != out->hash) {
      std::fprintf(stderr,
                   "FAIL: seed %llu %s double-run hash mismatch "
                   "(%016llx vs %016llx)\n",
                   static_cast<unsigned long long>(seed),
                   chaos ? "chaos" : "clean",
                   static_cast<unsigned long long>(out->hash),
                   static_cast<unsigned long long>(again.hash));
      return false;
    }
    std::printf("dispatch_hash: seed=%llu mode=%s %016llx (%llu events)\n",
                static_cast<unsigned long long>(seed),
                chaos ? "chaos" : "clean",
                static_cast<unsigned long long>(out->hash),
                static_cast<unsigned long long>(out->events));
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  for (int i = 1; i < argc; ++i)
    if (std::strncmp(argv[i], "--mccl_json=", 12) == 0)
      json_path = argv[i] + 12;

  RunOut clean, chaos;
  for (const std::uint64_t seed : kSeeds) {
    if (!run_gated(seed, /*chaos=*/false, &clean)) return 1;
    if (!run_gated(seed, /*chaos=*/true, &chaos)) return 1;
  }

  int rc = 0;
  if (chaos.jobs / kNumSeeds < kMinTenants + 1) {
    std::fprintf(stderr, "FAIL: only %zu tenants per chaos seed (< %zu)\n",
                 chaos.jobs / kNumSeeds, kMinTenants + 1);
    rc = 1;
  }
  // The storm must actually have exercised the failure plane — a chaos run
  // indistinguishable from the clean run gates nothing.
  if (chaos.retries + chaos.requeues + chaos.ops_degraded +
          chaos.shrunk_ranks ==
      0) {
    std::fprintf(stderr,
                 "FAIL: chaos runs saw no retries/requeues/degrades/shrinks\n");
    rc = 1;
  }

  MCCL_CHECK(!clean.hp_lat_us.empty() && !chaos.hp_lat_us.empty());
  const double clean_p99 = percentile(clean.hp_lat_us, 0.99);
  const double chaos_p99 = percentile(chaos.hp_lat_us, 0.99);
  const double inflation = clean_p99 > 0 ? chaos_p99 / clean_p99 : 0.0;
  std::printf(
      "class-0 p99: clean %.1f us, chaos %.1f us (%.2fx, gate <= %.1fx)\n"
      "chaos totals: %llu retries, %llu requeues, %llu degraded ops, %llu "
      "shrunk ranks over %zu jobs\n",
      clean_p99, chaos_p99, inflation, kMaxP99Inflation,
      static_cast<unsigned long long>(chaos.retries),
      static_cast<unsigned long long>(chaos.requeues),
      static_cast<unsigned long long>(chaos.ops_degraded),
      static_cast<unsigned long long>(chaos.shrunk_ranks), chaos.jobs);
  if (inflation > kMaxP99Inflation) {
    std::fprintf(stderr,
                 "FAIL: class-0 p99 inflated %.2fx under chaos (gate %.1fx)\n",
                 inflation, kMaxP99Inflation);
    rc = 1;
  }

  if (!json_path.empty()) {
    if (std::FILE* f = std::fopen(json_path.c_str(), "w")) {
      std::fprintf(
          f,
          "{\"hp_clean_p99_us\": %.3f, \"hp_chaos_p99_us\": %.3f, "
          "\"p99_inflation\": %.4f, \"jobs\": %zu, \"completed\": %zu, "
          "\"degraded\": %zu, \"retries\": %llu, \"requeues\": %llu, "
          "\"shrunk_ranks\": %llu}\n",
          clean_p99, chaos_p99, inflation, chaos.jobs, chaos.completed,
          chaos.degraded, static_cast<unsigned long long>(chaos.retries),
          static_cast<unsigned long long>(chaos.requeues),
          static_cast<unsigned long long>(chaos.shrunk_ranks));
      std::fclose(f);
    } else {
      std::fprintf(stderr, "FAIL: cannot write %s\n", json_path.c_str());
      rc = 1;
    }
  }
  return rc;
}
