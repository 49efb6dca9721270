// Cluster storm: multi-tenant scheduling + QoS A/B on one shared fat-tree.
//
// chaos_storm kills hosts, adapt_storm degrades links; this storm stresses
// the third production axis: *other tenants*. One k=8 multi-rail fat tree
// (16 hosts, radix-8 leaves) carries a seeded mixed workload — three
// bandwidth-bound training tenants allgathering over wide, overlapping
// host sets, plus a Poisson burst of short broadcast inference tenants,
// two of which are the high-priority latency class. Every tenant is a
// separate Communicator; the ClusterScheduler admits them against live
// fabric signals and runs their ops back-to-back via completion hooks.
//
// The experiment runs the identical seeded workload three ways:
//   fifo  — no QoS: one data lane, round-robin NIC injection (baseline)
//   qos   — class lanes + strict-priority NIC arbitration
//   solo  — the high-priority tenants alone (uncontended reference)
// and pools the high-priority tenants' per-op latencies across seeds. The
// PR's acceptance gates, enforced here and re-checked from the JSON by
// CI: with arbitration the high-priority p99 must improve >= 25% over
// FIFO, the storm must actually be a storm (>= 8 tenants running
// concurrently), and qos p99 must stay within 1.5x of solo p99 (checked
// in CI perf-smoke from the exported contention_ratio).
//
// Usage: example_cluster_storm [--mccl_json=<path>]
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

constexpr std::uint64_t kSeeds[] = {42, 1337};
constexpr double kRequiredImprovement = 0.25;
constexpr std::size_t kRequiredConcurrency = 8;

enum class Mode : std::uint8_t { kFifo, kQos, kSolo };

const char* to_string(Mode m) {
  switch (m) {
    case Mode::kFifo:
      return "fifo";
    case Mode::kQos:
      return "qos";
    case Mode::kSolo:
      return "solo";
  }
  return "?";
}

struct ModeOut {
  std::vector<double> hp_lat_us;  // per-op, pooled over hp tenants + seeds
  std::size_t peak_running = 0;
  std::uint64_t pool_acquired = 0;  // per-tenant sub-pool activity proof
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
  // Short ops on a contended tree: tighten the cutoff slack so the
  // fast-path timer matches the op scale (same tuning as adapt_storm).
  wl.comm.cutoff_alpha = 100 * kMicrosecond;
  return wl;
}

bool run_mode(std::uint64_t seed, Mode mode, ModeOut* out) {
  coll::ClusterConfig kcfg;
  // 2 rails x (4 leaves * 4 hosts + 4 spines): radix-8 leaves, the k=8
  // shared tree every tenant lives on.
  coll::Cluster cluster(fabric::make_multi_rail_fat_tree(2, 4, 4, 4, 1, {}, {}),
                        kcfg);
  std::vector<fabric::NodeId> hosts;
  for (std::size_t h = 0; h < cluster.num_hosts(); ++h)
    hosts.push_back(static_cast<fabric::NodeId>(h));

  std::vector<sched::JobSpec> jobs =
      sched::make_mixed_workload(make_workload_config(seed), hosts);
  if (mode == Mode::kSolo) {
    // The uncontended reference: the high-priority tenants' exact jobs
    // (same hosts, same arrival times, same op mix), everyone else gone.
    std::vector<sched::JobSpec> hp;
    for (sched::JobSpec& s : jobs)
      if (s.qos_class == 0) hp.push_back(std::move(s));
    jobs = std::move(hp);
  }

  sched::SchedulerConfig scfg;
  scfg.policy = mode == Mode::kQos ? sched::QosPolicy::kStrict
                                   : sched::QosPolicy::kFifo;
  scfg.apply_classes = mode == Mode::kQos;
  scfg.admission.max_running_jobs = 16;  // the storm must all fit in flight
  scfg.pool_quota_per_weight = 1024;     // soft sub-pool quotas (accounting)
  sched::ClusterScheduler sched(cluster, scfg);

  std::vector<std::size_t> ids;
  for (sched::JobSpec& s : jobs) ids.push_back(sched.submit(std::move(s)));
  sched.run();

  std::size_t completed = 0;
  for (const std::size_t id : ids) {
    const sched::JobRecord& rec = sched.job(id);
    if (rec.state != sched::JobState::kCompleted) {
      std::fprintf(stderr,
                   "FAIL: seed %llu %s job %zu (%s) ended %s after %zu/%zu "
                   "ops\n",
                   static_cast<unsigned long long>(seed), to_string(mode), id,
                   rec.spec.name.c_str(), sched::to_string(rec.state),
                   rec.ops_done, rec.spec.num_ops);
      cluster.telemetry().recorder.dump(stderr);
      return false;
    }
    ++completed;
    if (rec.spec.qos_class == 0)
      out->hp_lat_us.insert(out->hp_lat_us.end(), rec.op_latency_us.begin(),
                            rec.op_latency_us.end());
  }
  out->peak_running = std::max(out->peak_running, sched.peak_running());

  // The registry and the scheduler ledger must tell one story.
  const telemetry::Snapshot snap = cluster.telemetry().metrics.snapshot();
  const auto metric = [&snap](const std::string& key) -> std::uint64_t {
    const auto it = snap.find(key);
    return it == snap.end() ? 0 : it->second.count;
  };
  std::uint64_t ops_total = 0;
  for (const std::size_t id : ids) ops_total += sched.job(id).ops_done;
  // Every scheduler op settles through OpBase::settle(), which publishes
  // coll.* once per op.
  const std::uint64_t coll_ops = telemetry::total_count(snap, "coll.ops");
  const std::uint64_t coll_durations =
      telemetry::total_count(snap, "coll.op_duration_us");
  if (metric("sched.jobs_completed") != completed ||
      metric("sched.ops_issued") != ops_total || coll_ops != ops_total ||
      coll_durations != ops_total) {
    std::fprintf(stderr,
                 "FAIL: seed %llu %s registry disagrees with ledger (jobs "
                 "%llu vs %zu, ops %llu vs %llu, coll.ops %llu, "
                 "coll.op_duration_us samples %llu)\n",
                 static_cast<unsigned long long>(seed), to_string(mode),
                 static_cast<unsigned long long>(metric("sched.jobs_completed")),
                 completed,
                 static_cast<unsigned long long>(metric("sched.ops_issued")),
                 static_cast<unsigned long long>(ops_total),
                 static_cast<unsigned long long>(coll_ops),
                 static_cast<unsigned long long>(coll_durations));
    return false;
  }
  // Every admitted tenant must have charged its packets to its own
  // sub-pool — the per-tenant accounting the quota gauges hang off.
  for (const std::size_t id : ids) {
    const std::string key = telemetry::MetricsRegistry::key(
        "pool.tenant.acquired",
        {{"tenant", std::to_string(sched.job(id).spec.tenant)}});
    const std::uint64_t acquired = metric(key);
    if (acquired == 0) {
      std::fprintf(stderr,
                   "FAIL: seed %llu %s tenant %u moved no pool packets\n",
                   static_cast<unsigned long long>(seed), to_string(mode),
                   sched.job(id).spec.tenant);
      return false;
    }
    out->pool_acquired += acquired;
  }
  if (!sched.conservation_ok()) {
    std::fprintf(stderr, "FAIL: seed %llu %s conservation audit\n",
                 static_cast<unsigned long long>(seed), to_string(mode));
    return false;
  }

  if (mode != Mode::kSolo) {
    std::printf("  seed=%-6llu %-4s peak_tenants=%zu:",
                static_cast<unsigned long long>(seed), to_string(mode),
                sched.peak_running());
    for (const sched::TenantId t : sched.tenants()) {
      const auto s = sched.tenant_stats(t);
      std::printf(" %s=%.0fus", s.name.c_str(), s.p99_us);
    }
    std::printf("\n");
  }
  if (debug::enabled())
    std::printf("dispatch_hash: seed=%llu mode=%s %016llx (%llu events)\n",
                static_cast<unsigned long long>(seed), to_string(mode),
                static_cast<unsigned long long>(cluster.engine().stream_hash()),
                static_cast<unsigned long long>(cluster.engine().dispatched()));
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--mccl_json=", 12) == 0) json_path = arg + 12;
  }

  ModeOut outs[3];
  for (const std::uint64_t seed : kSeeds)
    for (const Mode mode : {Mode::kFifo, Mode::kQos, Mode::kSolo})
      if (!run_mode(seed, mode, &outs[static_cast<std::size_t>(mode)]))
        return 1;

  for (const ModeOut& out : outs) MCCL_CHECK(!out.hp_lat_us.empty());
  const double fifo_p99 = percentile(outs[0].hp_lat_us, 0.99);
  const double qos_p99 = percentile(outs[1].hp_lat_us, 0.99);
  const double solo_p99 = percentile(outs[2].hp_lat_us, 0.99);
  const double improvement = fifo_p99 > 0 ? 1.0 - qos_p99 / fifo_p99 : 0.0;
  const double contention_ratio = solo_p99 > 0 ? qos_p99 / solo_p99 : 0.0;

  std::printf("%-6s %12s %12s\n", "mode", "hp_p50_us", "hp_p99_us");
  for (int m = 0; m < 3; ++m)
    std::printf("%-6s %12.1f %12.1f\n", to_string(static_cast<Mode>(m)),
                percentile(outs[m].hp_lat_us, 0.50),
                percentile(outs[m].hp_lat_us, 0.99));
  std::printf(
      "hp p99 improvement: %.1f%% (gate: >= %.0f%%), contention ratio "
      "qos/solo: %.2fx\n",
      improvement * 100.0, kRequiredImprovement * 100.0, contention_ratio);

  int rc = 0;
  if (improvement < kRequiredImprovement) {
    std::fprintf(stderr,
                 "FAIL: qos hp p99 %.1f us vs fifo %.1f us — improvement "
                 "%.1f%% below the %.0f%% gate\n",
                 qos_p99, fifo_p99, improvement * 100.0,
                 kRequiredImprovement * 100.0);
    rc = 1;
  }
  // A storm with idle capacity is not a storm: the mixed workload must
  // actually have >= 8 tenants in flight at once in the contended modes.
  for (int m = 0; m < 2; ++m)
    if (outs[m].peak_running < kRequiredConcurrency) {
      std::fprintf(stderr, "FAIL: %s peaked at %zu concurrent tenants (< %zu)\n",
                   to_string(static_cast<Mode>(m)), outs[m].peak_running,
                   kRequiredConcurrency);
      rc = 1;
    }

  if (!json_path.empty()) {
    if (std::FILE* f = std::fopen(json_path.c_str(), "w")) {
      std::fprintf(f,
                   "{\"hp_fifo_p99_us\": %.3f, \"hp_qos_p99_us\": %.3f, "
                   "\"hp_solo_p99_us\": %.3f, \"improvement\": %.4f, "
                   "\"contention_ratio\": %.4f, \"peak_tenants\": %zu}\n",
                   fifo_p99, qos_p99, solo_p99, improvement, contention_ratio,
                   std::max(outs[0].peak_running, outs[1].peak_running));
      std::fclose(f);
    } else {
      std::fprintf(stderr, "FAIL: cannot write %s\n", json_path.c_str());
      rc = 1;
    }
  }
  return rc;
}
