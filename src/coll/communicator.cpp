#include "src/coll/communicator.hpp"

#include <algorithm>
#include <array>
#include <utility>

#include "src/coll/mcast_coll.hpp"
#include "src/debug/validate.hpp"
#include "src/coll/pattern.hpp"
#include "src/coll/reduce_scatter.hpp"
#include "src/coll/schedule.hpp"

namespace mccl::coll {

// ---------------------------------------------------------------------------
// OpBase
// ---------------------------------------------------------------------------

OpBase::OpBase(Communicator& comm, std::string name)
    : comm_(comm),
      name_(std::move(name)),
      id_(comm.cluster().next_op_id()),
      phases_(comm.size()),
      crashed_(comm.size(), 0) {
  res_.rank_finish.assign(comm.size(), 0);
  if (id_ >= comm.op_by_id_.size()) comm.op_by_id_.resize(id_ + 1, nullptr);
  comm.op_by_id_[id_] = this;
}

OpBase::~OpBase() = default;

void OpBase::on_ctrl(std::size_t, const CtrlMsg&, std::size_t,
                     const rdma::Cqe&) {
  MCCL_CHECK_MSG(false, "control message for unknown collective");
}

bool OpBase::done() const { return completed_ == comm_.size(); }

void OpBase::mark_started() {
  res_.start = comm_.cluster().engine().now();
  rnr_base_ = comm_.rnr_drops();
  comm_.note_op_started();
  // Ranks that crashed before this op started never participate: settle
  // their completion accounting up front so survivors alone gate done().
  for (std::size_t r = 0; r < comm_.size(); ++r)
    if (comm_.rank_host_crashed(r)) note_rank_crashed(r);
}

telemetry::Telemetry& OpBase::telem() { return comm_.cluster().telemetry(); }

void OpBase::rank_done(std::size_t r) {
  MCCL_CHECK(res_.rank_finish[r] == 0);
  res_.rank_finish[r] = comm_.cluster().engine().now();
  ++completed_;
  settle();
}

void OpBase::note_rank_crashed(std::size_t r) {
  if (crashed_[r]) return;
  crashed_[r] = true;
  if (res_.failed || res_.rank_finish[r] != 0) return;  // already accounted
  // 0 is the "unfinished" sentinel; clamp a t=0 crash to 1ps.
  res_.rank_finish[r] = std::max<Time>(comm_.cluster().engine().now(), 1);
  ++completed_;
  settle();
}

void OpBase::fail_op(std::string error) {
  MCCL_CHECK(!res_.failed);
  res_.failed = true;
  res_.error = std::move(error);
  const Time now = comm_.cluster().engine().now();
  for (Time& f : res_.rank_finish) {
    if (f == 0) {
      f = now;
      ++completed_;
    }
  }
  settle();
}

bool OpBase::verify_reduce_scatter(
    const std::function<std::uint64_t(std::size_t)>& recvbuf,
    std::uint64_t block_bytes) const {
  if (!comm_.data_mode()) return true;
  const std::size_t P = comm_.size();
  const std::uint64_t n = block_bytes / sizeof(float);
  for (std::size_t r = 0; r < P; ++r) {
    if (rank_crashed(r)) continue;
    // For block r the sum depends only on elem % 32 (rs_value's period).
    std::array<float, 32> want{};
    for (std::uint64_t i = 0; i < want.size(); ++i)
      for (std::size_t o = 0; o < P; ++o) want[i] += rs_value(o, r, i);
    const float* got = reinterpret_cast<const float*>(
        std::as_const(comm_.ep(r).nic().memory())
            .span(recvbuf(r), block_bytes)
            .data());
    for (std::uint64_t i = 0; i < n; ++i)
      if (got[i] != want[i % want.size()]) return false;
  }
  return true;
}

void OpBase::settle() {
  if (settled_ || !done()) return;
  settled_ = true;
  OpResult& res = res_;
  res.finish =
      *std::max_element(res.rank_finish.begin(), res.rank_finish.end());
  Phases& m = res.max_phases;
  for (const Phases& p : phases_) {
    m.barrier = std::max(m.barrier, p.barrier);
    m.transfer = std::max(m.transfer, p.transfer);
    m.reliability = std::max(m.reliability, p.reliability);
    m.handshake = std::max(m.handshake, p.handshake);
  }
  res.status = res.failed                   ? OpStatus::kFailed
               : res.missing_blocks.empty() ? OpStatus::kOk
                                            : OpStatus::kPartial;
  std::sort(res.missing_blocks.begin(), res.missing_blocks.end());
  for (std::size_t r = 0; r < crashed_.size(); ++r)
    if (crashed_[r]) res.crashed_ranks.push_back(r);
  res.rnr_drops = comm_.rnr_drops() - rnr_base_;
  // A watchdog-terminated op has incomplete buffers by definition; don't
  // report synthetic-mode success for garbage. Partial completion verifies
  // what survivors do hold (crashed ranks and abandoned blocks exempt).
  res.data_verified = !res.failed && verify();
  comm_.note_op_loss(res.fetched_chunks > 0 || res.rnr_drops > 0 ||
                     res.failed);
  // Surface slow-path counters through the metrics registry (incremental:
  // op-scoped deltas accumulate communicator-wide, diffable via snapshots).
  telemetry::MetricsRegistry& reg = telem().metrics;
  reg.counter("coll.ops", {{"result", to_string(res.status)}}).add(1);
  reg.counter("coll.fetched_chunks").add(res.fetched_chunks);
  reg.counter("coll.fetch_retries").add(res.fetch_retries);
  reg.counter("coll.fetch_failovers").add(res.fetch_failovers);
  reg.counter("coll.rnr_drops").add(res.rnr_drops);
  if (res.watchdog_fired) reg.counter("coll.watchdog_fired").add(1);
  reg.counter("coll.reroots").add(res.reroots);
  reg.counter("coll.missing_blocks").add(res.missing_blocks.size());
  reg.histogram("coll.op_duration_us", {{"op", name_}})
      .observe(to_microseconds(res.duration()));
  comm_.note_op_finished();
  if (on_done_) on_done_(*this);
}

// ---------------------------------------------------------------------------
// Communicator
// ---------------------------------------------------------------------------

Communicator::Communicator(Cluster& cluster,
                           std::vector<fabric::NodeId> hosts,
                           CommConfig config)
    : cluster_(cluster), config_(config),
      adaptive_alpha_(config.cutoff_alpha) {
  MCCL_CHECK(hosts.size() >= 2);
  MCCL_CHECK(config_.subgroups >= 1 && config_.chains >= 1);
  MCCL_CHECK(config_.send_workers >= 1 && config_.recv_workers >= 1);
  for (std::size_t r = 0; r < hosts.size(); ++r) {
    rank_of_[hosts[r]] = r;
    eps_.push_back(std::make_unique<Endpoint>(*this, r, hosts[r]));
  }
  // Rail-aware chunk striping: on a multi-rail fabric, pin subgroup s to
  // rail s % rails so each rail carries an even share of the subgroups (and
  // a rail outage degrades only the subgroups striped onto it).
  const int rails = cluster_.fabric().topology().num_rails();
  for (std::size_t s = 0; s < config_.subgroups; ++s)
    groups_.push_back(cluster_.fabric().create_mcast_group(
        rails > 0 ? static_cast<int>(s) % rails : -1));
  for (auto& ep : eps_) {
    ep->setup_workers();
    ep->setup_subgroups();
  }
  crash_listener_id_ = cluster_.add_crash_listener(
      [this](fabric::NodeId host, bool crashed) {
        on_host_crash(host, crashed);
      });
  if (config_.adapt.enabled)
    health_ = std::make_unique<HealthMonitor>(*this, config_.adapt);
  if (config_.detector.enabled)
    detector_ = std::make_unique<FailureDetector>(*this, config_.detector);
}

Communicator::~Communicator() {
  cluster_.remove_crash_listener(crash_listener_id_);
}

void Communicator::on_detector_msg(std::size_t r, const CtrlMsg& msg,
                                   std::size_t src) {
  if (msg.type == CtrlType::kHeartbeat) {
    detector_->on_heartbeat(r, src);
  } else if (msg.type == CtrlType::kDead) {
    detector_->on_dead_notice(r, src, msg.arg);
  }
}

// The fan-outs below walk ops_ by index, up to the op count at entry: an op
// that settles inside the loop runs its on_done callback, which may start a
// new op and so grow (reallocate) ops_. Ops started inside the loop are not
// notified; they read the detector and crash state live.

void Communicator::notify_peer_dead(std::size_t observer, std::size_t peer) {
  for (std::size_t i = 0, n = ops_.size(); i < n; ++i)
    if (!ops_[i]->done()) ops_[i]->on_peer_confirmed_dead(observer, peer);
}

std::uint8_t Communicator::claim_mcast_tag(McastCollective* op) {
  if (next_tag_ == 0) ++next_tag_;
  const std::uint8_t tag = next_tag_++;
  const McastCollective* prev = op_by_tag_[tag];
  MCCL_VALIDATE_THAT(prev == nullptr || prev->done(), "coll.tag_alias",
                     "op %u claims fast-path tag %u while op %u still runs "
                     "on it",
                     static_cast<unsigned>(op->id()),
                     static_cast<unsigned>(tag),
                     static_cast<unsigned>(prev->id()));
  op_by_tag_[tag] = op;
  return tag;
}

void Communicator::on_host_crash(fabric::NodeId host, bool crashed) {
  auto it = rank_of_.find(host);
  if (it == rank_of_.end()) return;  // not one of ours
  if (!crashed) return;
  const std::size_t r = it->second;
  for (std::size_t i = 0, n = ops_.size(); i < n; ++i)
    if (!ops_[i]->done()) ops_[i]->note_rank_crashed(r);
}

std::size_t Communicator::presumed_alive() const {
  std::size_t n = 0;
  for (std::size_t r = 0; r < size(); ++r)
    if (!rank_presumed_dead(r)) ++n;
  return n;
}

std::uint64_t Communicator::rnr_drops() const {
  std::uint64_t total = 0;
  for (const auto& ep : eps_) total += ep->rnr_drops();
  return total;
}

void Communicator::note_op_started() {
  if (detector_) detector_->note_op_started();
  if (health_) health_->note_op_started();
}

void Communicator::note_op_finished() {
  if (detector_) detector_->note_op_finished();
  if (health_) health_->note_op_finished();
}

void Communicator::rebalance_subgroups() {
  if (!health_) return;
  const int rails = cluster_.fabric().topology().num_rails();
  if (rails <= 1) return;
  for (const auto& op : ops_)
    if (!op->done()) return;  // trees may carry in-flight multicast
  fabric::Fabric& fab = cluster_.fabric();
  for (std::size_t s = 0; s < groups_.size(); ++s) {
    const int cur = fab.mcast_group_rail(groups_[s]);
    if (cur < 0) continue;  // unpinned group: nothing to re-balance
    const std::size_t cur_bad = health_->unhealthy_dirs_on_rail(cur);
    if (cur_bad == 0) continue;
    // Healthiest rail, lowest id on ties; move only on a strict win so two
    // equally sick rails never trade subgroups back and forth.
    int best = cur;
    std::size_t best_bad = cur_bad;
    for (int rl = 0; rl < rails; ++rl)
      if (health_->unhealthy_dirs_on_rail(rl) < best_bad) {
        best = rl;
        best_bad = health_->unhealthy_dirs_on_rail(rl);
      }
    if (best == cur) continue;
    fab.set_mcast_group_rail(groups_[s], best);
    ++subgroup_repins_;
    MCCL_VALIDATE_THAT(
        subgroup_repins_ <=
            static_cast<std::uint64_t>(HealthMonitor::kMaxTransitions) *
                groups_.size(),
        "adapt.oscillation",
        "subgroup re-pins (%llu) exceed %u per subgroup — rail health is "
        "flapping through the re-balancer",
        static_cast<unsigned long long>(subgroup_repins_),
        HealthMonitor::kMaxTransitions);
    telemetry::Telemetry& te = cluster_.telemetry();
    te.metrics.counter("coll.adapt.subgroup_repins").add(1);
    te.recorder.record(cluster_.engine().now(), -1,
                       telemetry::EventCat::kAdapt, "subgroup_repin", s,
                       static_cast<std::uint64_t>(best));
  }
}

std::size_t Communicator::rank_of_host(fabric::NodeId host) const {
  auto it = rank_of_.find(host);
  MCCL_CHECK_MSG(it != rank_of_.end(), "host is not part of communicator");
  return it->second;
}

bool Communicator::data_mode() const {
  return cluster_.config().nic.carry_payload;
}

void Communicator::align_symmetric_heap() {
  std::uint64_t watermark = 0;
  for (auto& ep : eps_)
    watermark = std::max(watermark, ep->nic().memory().brk());
  for (auto& ep : eps_) ep->nic().memory().align_brk(watermark);
}

OpBase& Communicator::start_broadcast(std::size_t root, std::uint64_t bytes,
                                      BcastAlgo algo) {
  align_symmetric_heap();
  rebalance_subgroups();
  if (algo == BcastAlgo::kMcast) {
    McastCollective::Params p;
    p.roots = {root};
    p.block_bytes = bytes;
    ops_.push_back(std::make_unique<McastCollective>(*this, "mcast_broadcast",
                                                     std::move(p)));
  } else {
    ops_.push_back(std::make_unique<ScheduleOp>(
        *this, algo == BcastAlgo::kScatterAllgather
                   ? scatter_ring_broadcast(size(), root, bytes)
                   : tree_broadcast(size(), root, bytes, algo)));
  }
  ops_.back()->start();
  return *ops_.back();
}

OpBase& Communicator::start_allgather(std::uint64_t bytes,
                                      AllgatherAlgo algo) {
  align_symmetric_heap();
  rebalance_subgroups();
  switch (algo) {
    case AllgatherAlgo::kMcast: {
      McastCollective::Params p;
      // Shrunk membership: a rank presumed dead (host crashed, or confirmed
      // by any survivor's detector) no longer sources a block — subsequent
      // ops run clean over the survivors.
      for (std::size_t r = 0; r < size(); ++r)
        if (!rank_presumed_dead(r)) p.roots.push_back(r);
      MCCL_CHECK_MSG(p.roots.size() >= 1, "no surviving ranks to allgather");
      p.block_bytes = bytes;
      ops_.push_back(std::make_unique<McastCollective>(
          *this, "mcast_allgather", std::move(p)));
      break;
    }
    case AllgatherAlgo::kRing:
      ops_.push_back(
          std::make_unique<ScheduleOp>(*this, ring_allgather(size(), bytes)));
      break;
  }
  ops_.back()->start();
  return *ops_.back();
}

OpBase& Communicator::start_reduce_scatter(std::uint64_t block_bytes,
                                           ReduceScatterAlgo algo) {
  align_symmetric_heap();
  if (algo == ReduceScatterAlgo::kRing)
    ops_.push_back(std::make_unique<ScheduleOp>(
        *this, ring_reduce_scatter(size(), block_bytes)));
  else
    ops_.push_back(std::make_unique<IncReduceScatter>(*this, block_bytes));
  ops_.back()->start();
  return *ops_.back();
}

OpResult Communicator::finish(OpBase& op) {
  cluster_.run_until_done([&op] { return op.done(); });
  return op.result();
}

void Communicator::note_op_loss(bool lossy) {
  if (lossy) {
    adaptive_alpha_ = std::max(kCutoffAlphaMin, adaptive_alpha_ / 2);
  } else if (adaptive_alpha_ < config_.cutoff_alpha) {
    adaptive_alpha_ = std::min(config_.cutoff_alpha, adaptive_alpha_ * 2);
  }
}

OpResult Communicator::broadcast(std::size_t root, std::uint64_t bytes,
                                 BcastAlgo algo) {
  return finish(start_broadcast(root, bytes, algo));
}

OpResult Communicator::allgather(std::uint64_t bytes, AllgatherAlgo algo) {
  return finish(start_allgather(bytes, algo));
}

OpResult Communicator::reduce_scatter(std::uint64_t block_bytes,
                                      ReduceScatterAlgo algo) {
  return finish(start_reduce_scatter(block_bytes, algo));
}

}  // namespace mccl::coll
