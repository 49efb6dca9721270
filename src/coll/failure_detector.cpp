#include "src/coll/failure_detector.hpp"

#include <algorithm>

#include "src/coll/communicator.hpp"
#include "src/common/rng.hpp"
#include "src/debug/validate.hpp"

namespace mccl::coll {

namespace {
// Ring neighbours each rank heartbeats (to its right) and watches (to its
// left). With two watchers, a crash is still confirmed from a lease
// without waiting for the ring to move when one watcher dies with it.
constexpr std::size_t kRingNeighbours = 2;
}  // namespace

FailureDetector::FailureDetector(Communicator& comm, DetectorConfig cfg)
    : comm_(comm), cfg_(cfg) {
  const std::size_t P = comm_.size();
  views_.resize(P);
  for (View& v : views_) {
    v.lease.assign(P, 0);
    v.suspect.assign(P, 0);
    v.dead.assign(P, Latch::kAlive);
  }
  for (std::size_t r = 0; r < P; ++r) reshape_ring(r, 0);
  any_dead_.assign(P, 0);
  // Per-rank tick phase: decorrelates the sweep timers so P ranks do not
  // all fire on the same picosecond. Drawn once, from a seed independent
  // of the fabric's fault RNG.
  phase_.resize(P);
  for (std::size_t r = 0; r < P; ++r) {
    Rng rng(cfg_.seed ^ (0x5dee7ec7ull + r));
    phase_[r] = static_cast<Time>(
        rng.below(static_cast<std::uint64_t>(cfg_.heartbeat_interval)));
  }
  telemetry::MetricsRegistry& reg = comm_.cluster().telemetry().metrics;
  ctr_heartbeats_ = &reg.counter("detector.heartbeats_sent");
  ctr_suspicions_ = &reg.counter("detector.suspicions");
  ctr_confirmed_ = &reg.counter("detector.confirmed_dead");
  ctr_posthumous_ = &reg.counter("detector.posthumous_heartbeats");
}

void FailureDetector::note_op_started() {
  if (++active_ops_ == 1) activate();
}

void FailureDetector::note_op_finished() {
  MCCL_CHECK(active_ops_ > 0);
  if (--active_ops_ == 0) deactivate();
}

void FailureDetector::reshape_ring(std::size_t rank, Time now) {
  View& v = views_[rank];
  const std::size_t P = comm_.size();
  auto nearest_alive = [&](bool right, std::vector<std::size_t>& out) {
    out.clear();
    for (std::size_t step = 1; step < P && out.size() < kRingNeighbours;
         ++step) {
      const std::size_t p = right ? (rank + step) % P : (rank + P - step) % P;
      if (v.dead[p] == Latch::kAlive) out.push_back(p);
    }
  };
  const std::vector<std::size_t> was = v.watch;
  nearest_alive(false, v.watch);
  for (const std::size_t p : v.watch) {
    if (std::find(was.begin(), was.end(), p) != was.end()) continue;
    v.lease[p] = now + cfg_.lease_timeout;
    v.suspect[p] = 0;
  }
  nearest_alive(true, v.targets);
}

void FailureDetector::activate() {
  sim::Engine& eng = comm_.cluster().engine();
  activated_at_ = eng.now();
  ++generation_;
  const std::uint64_t gen = generation_;
  for (std::size_t r = 0; r < comm_.size(); ++r) {
    View& v = views_[r];
    // Fresh leases for the watch set; stale suspicion from a previous
    // activation window must not carry over.
    for (const std::size_t p : v.watch) {
      v.lease[p] = eng.now() + cfg_.lease_timeout;
      v.suspect[p] = 0;
    }
    eng.schedule(cfg_.heartbeat_interval + phase_[r],
                 [this, r, gen] { tick(r, gen); });
  }
}

void FailureDetector::deactivate() {
  // Pending ticks see a stale generation and fall through without
  // rescheduling, so the event queue drains between ops.
  ++generation_;
}

void FailureDetector::tick(std::size_t rank, std::uint64_t gen) {
  if (gen != generation_ || active_ops_ == 0) return;
  sim::Engine& eng = comm_.cluster().engine();
  const Time now = eng.now();
  if (now - activated_at_ > kMaxActive) return;  // wedged-run bound
  Endpoint& ep = comm_.ep(rank);
  // A crashed host's software is gone: it neither emits heartbeats nor
  // sweeps leases. (Its NIC would drop the sends anyway; stopping the tick
  // also stops the event churn.)
  if (ep.nic().crashed()) return;

  ++ticks_;
  View& v = views_[rank];
  for (const std::size_t p : v.targets) {
    ep.ctrl_send(p, {CtrlType::kHeartbeat, 0, 0});
    ++heartbeats_sent_;
    ctr_heartbeats_->add(1);
  }
  // A confirmation reshapes the watch set; sweep the set as it stood.
  std::size_t watched[kRingNeighbours] = {};
  const std::size_t n = v.watch.size();
  std::copy(v.watch.begin(), v.watch.end(), watched);
  telemetry::Telemetry& te = comm_.cluster().telemetry();
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t p = watched[i];
    if (v.dead[p] != Latch::kAlive || now < v.lease[p]) continue;
    // Lease expired with no heartbeat from p since the last sweep.
    ++v.suspect[p];
    ++suspicions_total_;
    ctr_suspicions_->add(1);
    v.lease[p] = now + cfg_.heartbeat_interval;  // re-check next sweep
    te.recorder.record(now, static_cast<std::int32_t>(ep.host()),
                       telemetry::EventCat::kDetector, "peer_suspected", p,
                       v.suspect[p]);
    if (v.suspect[p] >= kSuspectThreshold)
      confirm(rank, p, Latch::kSelf);
  }
  eng.schedule(cfg_.heartbeat_interval, [this, rank, gen] { tick(rank, gen); });
}

void FailureDetector::confirm(std::size_t observer, std::size_t peer,
                              Latch how) {
  View& v = views_[observer];
  if (v.dead[peer] != Latch::kAlive) return;
  // A confirmation of the observer's own is only legal after
  // `kSuspectThreshold` consecutive lease expiries — anything earlier is a
  // detector protocol bug.
  MCCL_VALIDATE_THAT(how != Latch::kSelf ||
                         v.suspect[peer] >= kSuspectThreshold,
                     "detector.premature_confirm",
                     "observer %zu confirmed peer %zu dead at suspicion "
                     "%u (threshold %u)",
                     observer, peer, v.suspect[peer], kSuspectThreshold);
  v.dead[peer] = how;
  any_dead_[peer] = 1;
  ++confirmed_total_;
  ctr_confirmed_->add(1);
  telemetry::Telemetry& te = comm_.cluster().telemetry();
  const Time now = comm_.cluster().engine().now();
  reshape_ring(observer, now);
  Endpoint& ep = comm_.ep(observer);
  te.recorder.record(now, static_cast<std::int32_t>(ep.host()),
                     telemetry::EventCat::kDetector, "peer_dead", peer,
                     how == Latch::kNotice ? 1 : 0);
  if (te.tracer.enabled())
    te.tracer.instant(ep.trace_track(), "peer_dead", now, "detector");
  // Spread a death this rank confirmed itself; notice-learned deaths are
  // not forwarded (the confirmer already told everyone it holds alive).
  if (how == Latch::kSelf) {
    for (std::size_t p = 0; p < comm_.size(); ++p)
      if (p != observer && v.dead[p] == Latch::kAlive)
        ep.ctrl_send(p, {CtrlType::kDead, 0,
                         static_cast<std::uint16_t>(peer)});
  }
  comm_.notify_peer_dead(observer, peer);
}

void FailureDetector::on_heartbeat(std::size_t observer, std::size_t src) {
  View& v = views_[observer];
  if (v.dead[src] != Latch::kAlive) {
    // Crash-stop: confirmations are final. A heartbeat that raced the
    // confirmation through the fabric is counted and dropped.
    ++posthumous_;
    ctr_posthumous_->add(1);
    return;
  }
  v.lease[src] = comm_.cluster().engine().now() + cfg_.lease_timeout;
  v.suspect[src] = 0;
}

void FailureDetector::on_dead_notice(std::size_t observer, std::size_t src,
                                     std::size_t peer) {
  // A notice is only legal from a rank that holds the peer dead itself.
  MCCL_VALIDATE_THAT(views_[src].dead[peer] != Latch::kAlive,
                     "detector.unbacked_notice",
                     "rank %zu told observer %zu that peer %zu is dead "
                     "without holding it dead",
                     src, observer, peer);
  // A rank that hears of its own death is alive by definition: the sender
  // suspected wrongly, and crash-stop has no way to take that back.
  if (peer == observer) return;
  // Crash-stop: a sender this observer holds dead is posthumous, like its
  // heartbeats. If it was wrongly confirmed it still lives, cut off from
  // heartbeats, and confirms its watch set one rank after another; taking
  // its word would spread that wrong view to every survivor.
  if (views_[observer].dead[src] != Latch::kAlive) {
    ++posthumous_;
    ctr_posthumous_->add(1);
    return;
  }
  confirm(observer, peer, Latch::kNotice);
}

bool FailureDetector::validate_view(std::size_t observer) const {
  if (!debug::kValidate) return true;
  const View& v = views_[observer];
  bool ok = true;
  for (std::size_t p = 0; p < comm_.size(); ++p) {
    if (v.dead[p] == Latch::kSelf && v.suspect[p] < kSuspectThreshold) {
      debug::report("detector.lease_state",
                    "observer %zu holds peer %zu dead with suspicion %u "
                    "below threshold %u",
                    observer, p, v.suspect[p], kSuspectThreshold);
      ok = false;
    }
  }
  return ok;
}

}  // namespace mccl::coll
