#include "workloads.hpp"

#include <cmath>
#include <functional>
#include <memory>

#include "src/common/rng.hpp"
#include "src/sched/arrival.hpp"
#include "src/sched/cluster_sched.hpp"

namespace perfbench {

using namespace mccl;

namespace {

// ---------------------------------------------------------------------------
// Closed loop: one caller runs one blocking collective at a time.
// ---------------------------------------------------------------------------

enum class Kind : std::uint8_t { kBroadcast, kAllgather, kReduceScatter };

struct PlannedOp {
  std::size_t comm = 0;  // index into World::comms
  Kind kind = Kind::kBroadcast;
  coll::BcastAlgo bc = coll::BcastAlgo::kMcast;
  coll::AllgatherAlgo ag = coll::AllgatherAlgo::kMcast;
  coll::ReduceScatterAlgo rs = coll::ReduceScatterAlgo::kRing;
  std::size_t root = 0;
  std::uint64_t bytes = 0;  // broadcast message, or per-rank block
};

struct World {
  std::unique_ptr<coll::Cluster> cluster;
  std::vector<std::unique_ptr<coll::Communicator>> comms;

  std::vector<coll::Communicator*> comm_ptrs() const {
    std::vector<coll::Communicator*> v;
    for (const auto& c : comms) v.push_back(c.get());
    return v;
  }
};

struct WorldSpec {
  std::function<fabric::Topology()> topology;
  coll::ClusterConfig cluster;
  std::size_t ranks = 0;
  std::vector<coll::CommConfig> comms;  // one communicator each
};

World build_world(const WorldSpec& spec, Tracer* tr) {
  World w;
  {
    ScopedSpan span(tr, "coll.Cluster", 0, nullptr);
    w.cluster = std::make_unique<coll::Cluster>(spec.topology(), spec.cluster);
  }
  std::vector<fabric::NodeId> hosts;
  for (std::size_t h = 0; h < spec.ranks; ++h)
    hosts.push_back(static_cast<fabric::NodeId>(h));
  for (const coll::CommConfig& cfg : spec.comms) {
    ScopedSpan span(tr, "coll.Communicator", 0, w.cluster.get());
    w.comms.push_back(
        std::make_unique<coll::Communicator>(*w.cluster, hosts, cfg));
  }
  return w;
}

coll::OpBase& start_op(coll::Communicator& comm, const PlannedOp& p) {
  switch (p.kind) {
    case Kind::kBroadcast:
      return comm.start_broadcast(p.root, p.bytes, p.bc);
    case Kind::kAllgather:
      return comm.start_allgather(p.bytes, p.ag);
    case Kind::kReduceScatter:
      return comm.start_reduce_scatter(p.bytes, p.rs);
  }
  MCCL_CHECK_MSG(false, "unknown collective kind");
  __builtin_unreachable();
}

/// Per-rank payload an op delivers: a broadcast's message, or one block
/// from every rank for Allgather and Reduce-Scatter.
double payload_per_rank(const PlannedOp& p, std::size_t ranks) {
  return p.kind == Kind::kBroadcast
             ? static_cast<double>(p.bytes)
             : static_cast<double>(p.bytes) * static_cast<double>(ranks);
}

Iteration run_closed_loop(const WorldSpec& spec,
                          const std::vector<PlannedOp>& plan, Tracer* tr) {
  Iteration it;
  const Clock::time_point t_setup = Clock::now();
  World w = build_world(spec, tr);
  it.setup_s.push_back(seconds_since(t_setup));

  coll::Cluster& cl = *w.cluster;
  const std::vector<coll::Communicator*> comms = w.comm_ptrs();
  const Counters before = read_counters(cl, comms);
  Fingerprint fp;
  const Clock::time_point t_run = Clock::now();
  for (const PlannedOp& p : plan) {
    coll::Communicator& comm = *w.comms[p.comm];
    const std::uint64_t op_id = tr != nullptr ? tr->new_op() : 0;
    coll::OpResult res;
    {
      ScopedSpan whole(tr, "coll.op", op_id, &cl, comms);
      coll::OpBase* op = nullptr;
      {
        ScopedSpan span(tr, "coll.start", op_id, &cl, comms);
        op = &start_op(comm, p);
      }
      ScopedSpan span(tr, "coll.finish", op_id, &cl, comms);
      res = comm.finish(*op);
    }
    ++it.attempted;
    if (res.status != coll::OpStatus::kOk || !res.data_verified) ++it.failed;
    for (const Time f : res.rank_finish) {
      const double us = to_microseconds(f - res.start);
      it.lat_us.push_back(us);
      if (comm.config().qos_class == 0) it.hp_lat_us.push_back(us);
      fp.add(static_cast<std::uint64_t>(f - res.start));
    }
    fp.add(static_cast<std::uint64_t>(res.duration()));
    it.payload_bytes += payload_per_rank(p, comm.size());
    it.sim_op_us += to_microseconds(res.duration());
    it.phase_us[0].push_back(to_microseconds(res.max_phases.barrier));
    it.phase_us[1].push_back(to_microseconds(res.max_phases.transfer));
    it.phase_us[2].push_back(to_microseconds(res.max_phases.reliability));
    it.phase_us[3].push_back(to_microseconds(res.max_phases.handshake));
    it.fetched_chunks += res.fetched_chunks;
  }
  it.run_s = seconds_since(t_run);
  it.delta = read_counters(cl, comms) - before;
  fp.add(it.delta.events);
  fp.add(it.delta.packets);
  it.fingerprint = fp.value();
  return it;
}

// ---------------------------------------------------------------------------
// mcast_fig11_188 and p2p_baselines_64: the 188-host UCC testbed fat tree.
// ---------------------------------------------------------------------------

/// 12 leaves x 16 hosts, 6 spines, 3 trunks per leaf-spine pair at 56 Gb/s:
/// the 18-switch UCC testbed the paper's Figs 11 and 12 ran on.
fabric::Topology ucc_testbed() {
  const fabric::LinkParams link{56.0, 500 * kNanosecond};
  return fabric::make_fat_tree(12, 16, 6, 3, link, link);
}

/// Timing-only packets over an address-space-only arena, as the figure
/// benches run at this scale.
WorldSpec ucc_world(std::uint64_t seed, std::size_t ranks) {
  WorldSpec spec;
  spec.topology = ucc_testbed;
  spec.cluster.nic.carry_payload = false;
  spec.cluster.nic.memory_capacity = std::uint64_t{1} << 44;
  spec.cluster.fabric.switch_latency = 150 * kNanosecond;
  spec.cluster.fabric.seed = seed;
  spec.ranks = ranks;
  coll::CommConfig cfg;  // the defaults: detector on
  cfg.detector.seed = seed;
  spec.comms.push_back(cfg);
  return spec;
}

Iteration run_mcast_fig11(std::uint64_t seed, Tracer* tr) {
  constexpr std::size_t kRanks = 188;
  Rng rng(seed);
  std::vector<PlannedOp> plan;
  PlannedOp ag;
  ag.kind = Kind::kAllgather;
  ag.bytes = 16 * KiB;
  plan.push_back(ag);
  for (int i = 0; i < 2; ++i) {
    PlannedOp bc;
    bc.root = static_cast<std::size_t>(rng.below(kRanks));
    bc.bytes = 1 * MiB;
    plan.push_back(bc);
  }
  return run_closed_loop(ucc_world(seed, kRanks), plan, tr);
}

Iteration run_p2p_baselines(std::uint64_t seed, Tracer* tr) {
  constexpr std::size_t kRanks = 64;
  Rng rng(seed);
  std::vector<PlannedOp> plan;
  const auto bcast = [&](coll::BcastAlgo algo) {
    PlannedOp p;
    p.bc = algo;
    p.root = static_cast<std::size_t>(rng.below(kRanks));
    p.bytes = 256 * KiB;
    plan.push_back(p);
  };
  for (int i = 0; i < 2; ++i) {
    PlannedOp ag;
    ag.kind = Kind::kAllgather;
    ag.ag = coll::AllgatherAlgo::kRing;
    ag.bytes = 16 * KiB;
    plan.push_back(ag);
    bcast(coll::BcastAlgo::kScatterAllgather);
    bcast(coll::BcastAlgo::kBinomial);
    bcast(coll::BcastAlgo::kBinaryTree);
    for (const coll::ReduceScatterAlgo algo :
         {coll::ReduceScatterAlgo::kRing, coll::ReduceScatterAlgo::kInc}) {
      PlannedOp rs;
      rs.kind = Kind::kReduceScatter;
      rs.rs = algo;
      rs.bytes = 16 * KiB;
      plan.push_back(rs);
    }
  }
  return run_closed_loop(ucc_world(seed, kRanks), plan, tr);
}

// ---------------------------------------------------------------------------
// dpa_datapath_payload: two hosts back to back, DPA receive workers.
// ---------------------------------------------------------------------------

Iteration run_dpa_datapath(std::uint64_t seed, Tracer* tr) {
  constexpr std::size_t kThreads = 16;
  struct Variant {
    coll::Transport transport;
    std::uint32_t chunk;
    std::uint64_t bytes;
  };
  const Variant variants[] = {
      {coll::Transport::kUd, 4096, 2 * MiB},
      {coll::Transport::kUcMcast, 4096, 2 * MiB},
      {coll::Transport::kUd, 64, 512 * KiB},
      {coll::Transport::kUcMcast, 64, 512 * KiB},
  };
  WorldSpec spec;
  spec.topology = [] {
    return fabric::make_back_to_back({200.0, 500 * kNanosecond});
  };
  spec.cluster.fabric.seed = seed;
  // Whole-buffer receive queues: the DPA receiver is the bottleneck at 64 B
  // chunks, and the measured quantity is its sustained processing rate.
  spec.cluster.nic.max_recv_queue = 1u << 20;
  spec.ranks = 2;
  for (const Variant& v : variants) {
    coll::CommConfig cfg;
    cfg.transport = v.transport;
    cfg.progress_engine = coll::EngineKind::kDpa;
    cfg.send_engine = coll::EngineKind::kCpu;  // x86 client drives the root
    cfg.chunk_bytes = v.chunk;
    cfg.subgroups = kThreads;
    cfg.recv_workers = kThreads;
    cfg.send_workers = 4;
    cfg.send_batch = 64;
    cfg.staging_slots =
        static_cast<std::size_t>(v.bytes / v.chunk / kThreads + 64);
    cfg.cutoff_alpha = 1 * kSecond;
    cfg.detector.seed = seed;
    spec.comms.push_back(cfg);
  }
  Rng rng(seed);
  std::vector<PlannedOp> plan;
  for (std::size_t c = 0; c < std::size(variants); ++c) {
    PlannedOp p;
    p.comm = c;
    // Up to 1/64 more chunks than the base size, so seeds differ.
    const std::uint64_t chunks = variants[c].bytes / variants[c].chunk;
    p.bytes = (chunks + rng.below(chunks / 64)) * variants[c].chunk;
    plan.push_back(p);
  }
  return run_closed_loop(spec, plan, tr);
}

// ---------------------------------------------------------------------------
// tenant_qos_16: ClusterScheduler, strict QoS, Poisson arrivals.
// ---------------------------------------------------------------------------

sched::WorkloadConfig tenant_mix(std::uint64_t seed) {
  sched::WorkloadConfig wl;
  wl.seed = seed;
  // Three training jobs over 8 strided ranks put at most two communicators
  // on a host; six inference jobs add at most six more: eight in all. Each
  // communicator permanently takes three of a host's 24 CPU worker
  // threads, so a ninth one on a host would abort. The workload therefore
  // scales by cluster instances, not by jobs.
  wl.training_jobs = 3;
  wl.training_ranks = 8;
  wl.training_ops = 4;
  wl.training_bytes = 64 * KiB;
  wl.inference_jobs = 6;
  wl.inference_ranks = 4;
  wl.inference_ops = 6;
  wl.inference_bytes = 16 * KiB;
  wl.inference_mean_gap = 10 * kMicrosecond;
  wl.high_priority_jobs = 3;
  wl.comm.cutoff_alpha = 100 * kMicrosecond;
  wl.comm.staging_slots = 256;  // 1 MiB per rank and communicator
  wl.comm.detector.seed = seed;
  return wl;
}

Iteration run_tenant_qos(std::uint64_t seed, Tracer* tr) {
  Iteration it;
  const Clock::time_point t_setup = Clock::now();
  std::unique_ptr<coll::Cluster> cluster;
  {
    ScopedSpan span(tr, "coll.Cluster", 0, nullptr);
    coll::ClusterConfig kcfg;
    kcfg.fabric.seed = seed;
    // 2 rails x (4 leaves x 4 hosts + 4 spines): the k=8 shared tree.
    cluster = std::make_unique<coll::Cluster>(
        fabric::make_multi_rail_fat_tree(2, 4, 4, 4, 1, {}, {}), kcfg);
  }
  std::vector<fabric::NodeId> hosts;
  for (std::size_t h = 0; h < cluster->num_hosts(); ++h)
    hosts.push_back(static_cast<fabric::NodeId>(h));
  sched::SchedulerConfig scfg;
  scfg.policy = sched::QosPolicy::kStrict;
  scfg.apply_classes = true;
  scfg.pool_quota_per_weight = 1024;  // the admission defaults cap at 8 jobs
  std::unique_ptr<sched::ClusterScheduler> sch;
  {
    ScopedSpan span(tr, "sched.ClusterScheduler", 0, cluster.get());
    sch = std::make_unique<sched::ClusterScheduler>(*cluster, scfg);
    for (sched::JobSpec& j : sched::make_mixed_workload(tenant_mix(seed), hosts))
      sch->submit(std::move(j));
  }
  it.setup_s.push_back(seconds_since(t_setup));

  const Counters before = read_counters(*cluster, {});
  const Clock::time_point t_run = Clock::now();
  {
    ScopedSpan span(tr, "sched.run", tr != nullptr ? tr->new_op() : 0,
                    cluster.get());
    sch->run();
  }
  it.run_s = seconds_since(t_run);

  Fingerprint fp;
  std::vector<coll::Communicator*> comms;
  for (std::size_t id = 0; id < sch->num_jobs(); ++id) {
    const sched::JobRecord& rec = sch->job(id);
    if (rec.comm) comms.push_back(rec.comm.get());
    for (const auto& c : rec.retired_comms) comms.push_back(c.get());
    it.attempted += rec.spec.num_ops;
    it.failed += rec.spec.num_ops - rec.ops_done;
    if (rec.state != sched::JobState::kCompleted) it.checks_ok = false;
    for (const double us : rec.op_latency_us) {
      it.lat_us.push_back(us);
      if (rec.spec.qos_class == 0) it.hp_lat_us.push_back(us);
      it.sim_op_us += us;
      fp.add(static_cast<std::uint64_t>(std::llround(us * 1e6)));
    }
    it.payload_bytes += static_cast<double>(rec.bytes_moved);
    fp.add(static_cast<std::uint64_t>(rec.finish_time));
    if (rec.state != sched::JobState::kRejected)
      it.sched.queue_us.push_back(
          to_microseconds(rec.admit_time - rec.submit_time));
  }
  it.delta = read_counters(*cluster, comms) - before;
  fp.add(it.delta.events);
  fp.add(it.delta.packets);
  it.fingerprint = fp.value();

  const sched::AdmissionController& adm = sch->admission();
  it.sched.admitted = adm.admitted();
  it.sched.queued = adm.queued();
  it.sched.rejected = adm.rejected();
  it.sched.deferrals = adm.health_deferrals() + adm.predictive_deferrals() +
                       adm.pool_deferrals();
  it.sched.peak_running = sch->peak_running();
  if (!sch->conservation_ok() || !sch->retry_ledger_ok()) it.checks_ok = false;
  return it;
}

/// Folds one world's results into an iteration's.
void merge(Iteration& into, Iteration&& w) {
  into.setup_s.insert(into.setup_s.end(), w.setup_s.begin(), w.setup_s.end());
  into.run_s += w.run_s;
  into.ops_per_s.push_back(static_cast<double>(w.attempted) / w.run_s);
  into.attempted += w.attempted;
  into.failed += w.failed;
  into.checks_ok = into.checks_ok && w.checks_ok;
  into.lat_us.insert(into.lat_us.end(), w.lat_us.begin(), w.lat_us.end());
  into.hp_lat_us.insert(into.hp_lat_us.end(), w.hp_lat_us.begin(),
                        w.hp_lat_us.end());
  into.payload_bytes += w.payload_bytes;
  into.sim_op_us += w.sim_op_us;
  into.delta.add(w.delta);
  for (int i = 0; i < 4; ++i)
    into.phase_us[i].insert(into.phase_us[i].end(), w.phase_us[i].begin(),
                            w.phase_us[i].end());
  into.fetched_chunks += w.fetched_chunks;
  SchedCounters& s = into.sched;
  s.admitted += w.sched.admitted;
  s.queued += w.sched.queued;
  s.rejected += w.sched.rejected;
  s.deferrals += w.sched.deferrals;
  s.peak_running = std::max(s.peak_running, w.sched.peak_running);
  s.queue_us.insert(s.queue_us.end(), w.sched.queue_us.begin(),
                    w.sched.queue_us.end());
  Fingerprint fp;
  fp.add(into.fingerprint);
  fp.add(w.fingerprint);
  into.fingerprint = fp.value();
}

}  // namespace

Iteration run_iteration(const Workload& wl, std::uint64_t seed, Tracer* tr) {
  Iteration it;
  for (std::size_t k = 0; k < wl.worlds; ++k)
    merge(it, wl.run_world(Rng(seed ^ (0x9e3779b97f4a7c15ull * (k + 1))).next(),
                           tr));
  return it;
}

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"mcast_fig11_188", 3, run_mcast_fig11},
      {"p2p_baselines_64", 2, run_p2p_baselines},
      {"dpa_datapath_payload", 12, run_dpa_datapath},
      {"tenant_qos_16", 4, run_tenant_qos},
  };
  return all;
}

}  // namespace perfbench
