// Lease-based failure detection for crash-tolerant collectives.
//
// Liveness is tracked per observer rank over a ring, in the style of SWIM
// (Das et al., DSN 2002). Each rank heartbeats only its k=2 nearest
// right-alive ranks and holds leases only on its k=2 nearest left-alive
// ranks, both in its own view, so one tick is O(k) and the whole detector
// sends O(P) heartbeats per period instead of O(P^2). Heartbeats ride the
// RC control mesh (CtrlType::kHeartbeat on the reserved op id 0 — the same
// connections that carry barrier tokens and fetch coordination, so a
// heartbeat that gets through also proves the control plane usable). They
// are emitted only while at least one collective is in flight; an idle
// communicator schedules nothing and the event queue drains.
//
// An expired lease raises a suspicion; `kSuspectThreshold` consecutive
// expiries with no intervening heartbeat confirm the peer dead. The
// confirming rank then sends a CtrlType::kDead notice (arg = dead rank) to
// every rank it still considers alive; a receiver latches the death as
// notice-learned. Either way a latch moves the observer's ring: the next
// left-alive rank enters its watch set with a fresh lease and the next
// right-alive rank becomes a heartbeat target. So the victim's two watchers
// confirm it from their own leases and every other survivor learns it one
// control hop later, each exactly once. The model is crash-stop:
// confirmation latches permanently, and heartbeats and notices from a
// sender the observer holds dead are posthumous: counted but ignored. So a
// live rank that was wrongly confirmed dead, and then confirms its own
// watch set dead for want of heartbeats, cannot spread that view.
// Confirmed deaths go to Communicator::notify_peer_dead, which fans them
// out to in-flight ops; they repair their rings around the dead rank.
//
// Determinism: per-rank tick phases come from Rng(seed ^ rank) and all
// timers from the simulation clock, so identical seeds and fault timelines
// replay bit-identically.
#pragma once

#include <cstdint>
#include <vector>

#include "src/common/units.hpp"

namespace mccl::telemetry {
class Counter;
}  // namespace mccl::telemetry

namespace mccl::coll {

class Communicator;

struct DetectorConfig {
  bool enabled = true;
  /// Heartbeat emission and lease-sweep period per rank.
  Time heartbeat_interval = 100 * kMicrosecond;
  /// Lease granted on every received heartbeat, at activation, and when a
  /// peer enters the watch set.
  Time lease_timeout = 400 * kMicrosecond;
  /// Seeds the per-rank tick phase jitter (decorrelates rank timers).
  std::uint64_t seed = 1;
};

class FailureDetector {
 public:
  /// Each (observer, peer) confirmation reaches the communicator's ops
  /// through Communicator::notify_peer_dead, in confirmation order.
  FailureDetector(Communicator& comm, DetectorConfig cfg);

  /// Consecutive lease expiries before a peer is confirmed dead. With the
  /// default lease a silent peer is confirmed after ~lease_timeout plus
  /// (threshold - 1) sweep periods — well before the op watchdog.
  static constexpr std::uint32_t kSuspectThreshold = 3;
  /// Hard bound on one activation window: if an op keeps the detector
  /// alive longer than this, ticking stops so a wedged simulation drains
  /// (and trips the usual incomplete-run check) instead of spinning
  /// forever. The collective watchdog fires far earlier.
  static constexpr Time kMaxActive = 500000 * kMicrosecond;

  /// Op lifecycle: the detector ticks only while ops are in flight.
  void note_op_started();
  void note_op_finished();
  bool active() const { return active_ops_ > 0; }

  /// Heartbeat receipt at `observer` from `src` (the endpoint hands every
  /// op-id-0 message to Communicator::on_detector_msg).
  void on_heartbeat(std::size_t observer, std::size_t src);
  /// kDead notice at `observer` from `src` naming `peer` (same path).
  /// Dropped if it names `observer` or if `observer` holds `src` dead.
  void on_dead_notice(std::size_t observer, std::size_t src,
                      std::size_t peer);

  /// True once `observer` has confirmed `peer` dead (latched).
  bool dead(std::size_t observer, std::size_t peer) const {
    return views_[observer].dead[peer] != Latch::kAlive;
  }
  /// True once any observer has confirmed `peer` dead — the communicator's
  /// membership view for ops started later.
  bool confirmed_by_any(std::size_t peer) const {
    return any_dead_[peer] != 0;
  }
  /// `rank`'s current heartbeat targets (nearest right-alive ranks) and
  /// watch set (nearest left-alive ranks), nearest first.
  const std::vector<std::size_t>& targets(std::size_t rank) const {
    return views_[rank].targets;
  }
  const std::vector<std::size_t>& watched(std::size_t rank) const {
    return views_[rank].watch;
  }

  /// Consecutive lease expiries `observer` has counted against `peer`.
  std::uint32_t suspicion(std::size_t observer, std::size_t peer) const {
    return views_[observer].suspect[peer];
  }

  /// Sweeps run by live ranks (each sends one heartbeat per target).
  std::uint64_t ticks() const { return ticks_; }
  std::uint64_t heartbeats_sent() const { return heartbeats_sent_; }
  std::uint64_t suspicions() const { return suspicions_total_; }
  std::uint64_t confirmed_dead() const { return confirmed_total_; }
  /// Heartbeats and kDead notices dropped because their sender was
  /// already held dead by the receiver.
  std::uint64_t posthumous_heartbeats() const { return posthumous_; }

  /// Validate-build audit of one observer's lease state machine: every
  /// death the observer confirmed itself must be backed by a suspicion
  /// count at or above the threshold (suspicion is never reset by confirm,
  /// only by a heartbeat — which dead peers no longer get credited for).
  /// Notice-learned deaths carry no suspicion of their own and are exempt;
  /// their legality is checked on receipt ("detector.unbacked_notice").
  /// Reports "detector.lease_state"; returns false if anything was
  /// reported. Always true in regular builds.
  bool validate_view(std::size_t observer) const;

  /// Validate-build fault-injection hook: confirms a peer dead without the
  /// suspicion protocol, tripping "detector.premature_confirm" immediately
  /// and leaving state that validate_view flags as "detector.lease_state".
  void test_confirm(std::size_t observer, std::size_t peer) {
    confirm(observer, peer, Latch::kSelf);
  }

 private:
  /// How an observer came to hold a peer dead.
  enum class Latch : char { kAlive = 0, kSelf, kNotice };

  struct View {
    std::vector<Time> lease;              // per peer, absolute expiry
    std::vector<std::uint32_t> suspect;   // consecutive expiries
    std::vector<Latch> dead;              // latched confirmations
    std::vector<std::size_t> watch;       // nearest left-alive ranks
    std::vector<std::size_t> targets;     // nearest right-alive ranks
  };

  void activate();
  void deactivate();
  void tick(std::size_t rank, std::uint64_t gen);
  void confirm(std::size_t observer, std::size_t peer, Latch how);
  /// Recomputes `rank`'s watch set and heartbeat targets from its view;
  /// a rank that enters the watch set gets a fresh lease from `now`.
  void reshape_ring(std::size_t rank, Time now);

  Communicator& comm_;
  DetectorConfig cfg_;
  std::vector<View> views_;
  std::vector<Time> phase_;      // deterministic per-rank first-tick offset
  std::vector<char> any_dead_;
  std::size_t active_ops_ = 0;
  std::uint64_t generation_ = 0;  // invalidates ticks across idle windows
  Time activated_at_ = 0;

  std::uint64_t ticks_ = 0;
  std::uint64_t heartbeats_sent_ = 0;
  std::uint64_t suspicions_total_ = 0;
  std::uint64_t confirmed_total_ = 0;
  std::uint64_t posthumous_ = 0;
  // Registry references resolved once at wiring time (hot-path friendly).
  telemetry::Counter* ctr_heartbeats_ = nullptr;
  telemetry::Counter* ctr_suspicions_ = nullptr;
  telemetry::Counter* ctr_confirmed_ = nullptr;
  telemetry::Counter* ctr_posthumous_ = nullptr;
};

}  // namespace mccl::coll
