// Online health plane for performance-fault adaptation.
//
// Crash tolerance (failure_detector.hpp) handles the binary failure mode;
// this component handles the harder one from "Don't Let a Few Network
// Failures Slow the Entire AllReduce" (PAPERS.md): *silent degradation* —
// a lossy-but-alive link that throttles the whole bandwidth-optimal
// collective to the speed of its slowest path.
//
// The monitor belongs to the Cluster, which owns the fabric it watches: a
// cluster has at most one (ClusterConfig::health), and every communicator
// on it reports its op lifecycle to that one monitor. So the fabric has one
// sampler, one reader of its read-and-reset backlog register and one writer
// of its ECMP weights, and the sampler runs while any op on the cluster is
// in flight.
//
// The monitor scores link directions, not peers: a periodic (seeded-phase)
// sampler over the fabric's DirCounters and serializer backlogs. A
// direction whose windowed drop fraction or serializer backlog stays bad
// for `kLinkDwell` consecutive windows is deweighted in the fabric's ECMP
// tables (Fabric::set_dir_weight): its siblings at the same node get
// `kHealthyWeight`, the bad direction `kLossyWeight`, steering unicast
// flows (fetch reads, control) around lossy-but-alive paths the binary
// viability table would keep using. Restoration is symmetric and needs
// evidence (clean traffic actually crossing the link). Each communicator
// re-pins its multicast subgroups off a rail with unhealthy directions, and
// a predictive trend scorer flags directions about to go sick for the
// cluster scheduler's admission controller (at_risk_dirs()).
//
// Everything is driven by engine events at simulated times with
// deterministic inputs, so identical seeds replay bit-identically. The
// validator plane guards the policy: "adapt.oscillation" fires when one
// direction flips health more than `kMaxTransitions` times (hysteresis
// misconfigured or a feedback loop).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/common/units.hpp"
#include "src/telemetry/metrics.hpp"

namespace mccl::coll {

class Cluster;

struct HealthConfig {
  /// Master switch: when false the cluster builds no monitor and all
  /// adaptation policies are inert (the static baseline).
  bool enabled = false;
  /// Per-link sampling windows with fewer packets than this carry no drop
  /// signal and no restore evidence (see HealthMonitor::kDropEnter).
  std::uint64_t min_window_packets = 16;
  /// Seeds the link-sampler phase.
  std::uint64_t seed = 1;
};

class HealthMonitor {
 public:
  HealthMonitor(Cluster& cluster, HealthConfig cfg);

  // --- per-link-direction health -------------------------------------------
  /// Sampling period of the fabric sweep (runs only while ops are in
  /// flight, with a seeded phase so replays are bit-identical).
  static constexpr Time kSampleInterval = 25 * kMicrosecond;
  /// Windowed drop fraction to enter/exit the unhealthy state. Windows
  /// with fewer than HealthConfig::min_window_packets packets are ignored.
  static constexpr double kDropEnter = 0.08;
  static constexpr double kDropExit = 0.0;
  /// Peak serializer backlog within a sampling window (booked wire time
  /// beyond now, max-held by the fabric like a switch's max-queue-depth
  /// register) to enter/exit — the queue-depth/ECN analog that catches
  /// degraded links that slow down without dropping. The enter threshold
  /// must sit above the transient backlog a send-batch burst books on a
  /// healthy link (a few µs at line rate) but below what the same burst
  /// books once bandwidth degrades.
  static constexpr Time kBacklogEnter = 10 * kMicrosecond;
  static constexpr Time kBacklogExit = 2 * kMicrosecond;
  static constexpr std::uint32_t kLinkDwell = 2;
  /// ECMP weights applied around an unhealthy direction: the bad direction
  /// gets `kLossyWeight`, its same-origin siblings `kHealthyWeight` (all
  /// restored to the default 1 when the node has no unhealthy egress).
  static constexpr std::uint16_t kHealthyWeight = 15;
  static constexpr std::uint16_t kLossyWeight = 1;

  // --- predictive (trend) link scoring -------------------------------------
  /// The reactive plane above reacts *after* a direction has been bad for
  /// `kLinkDwell` windows. The predictive scorer runs on the same window
  /// samples but projects forward: each window's severity (how close the
  /// direction sits to its unhealthy thresholds, 1.0 = at threshold) feeds
  /// a level EWMA and a slope EWMA, and a direction whose projected
  /// severity `level + kRiskHorizon * slope` crosses `kRiskEnter` while
  /// still trending up is flagged *at risk* (dir_at_risk()). The flag is
  /// advisory: routing never changes, but the cluster scheduler's
  /// admission controller reads at_risk_dirs() and defers new placements
  /// while too many directions are about to go sick. Cleared
  /// when the projection falls back through `kRiskExit`, or the moment the
  /// reactive plane takes over (unhealthy implies deweighted, which
  /// admission already gates on).
  /// EWMA weight of a window's severity.
  static constexpr double kSeverityAlpha = 0.5;
  /// EWMA weight of the severity slope.
  static constexpr double kTrendAlpha = 0.5;
  /// Windows of lookahead in the projection.
  static constexpr double kRiskHorizon = 3.0;
  /// Projected severity to mark at-risk / to clear the mark.
  static constexpr double kRiskEnter = 1.0;
  static constexpr double kRiskExit = 0.5;

  /// Validator bound ("adapt.oscillation"): health flips (deweights and
  /// restores) per direction beyond this report a violation in
  /// MCCL_VALIDATE builds.
  static constexpr std::uint32_t kMaxTransitions = 8;

  /// Op lifecycle, reported by every communicator on the cluster: the link
  /// sampler runs only while some op is in flight.
  void note_op_started();
  void note_op_finished();
  bool active() const { return active_ops_ > 0; }

  // --- health queries ------------------------------------------------------
  bool dir_unhealthy(std::size_t dir) const { return links_[dir].unhealthy; }
  bool dir_at_risk(std::size_t dir) const { return links_[dir].at_risk; }
  /// Directions currently flagged at risk: the admission controller's
  /// predictive signal. Counted on demand (admission is a cold path).
  std::size_t at_risk_dirs() const;
  /// Unhealthy link directions on `rail`'s plane (host links count toward
  /// their switch endpoint's rail). Drives multicast subgroup re-balancing.
  std::size_t unhealthy_dirs_on_rail(int rail) const;

  // --- decision counters (the cluster's coll.adapt.* metrics) --------------
  std::uint64_t link_deweights() const { return ctr_link_deweights_->value(); }
  std::uint64_t link_restores() const { return ctr_link_restores_->value(); }
  std::uint64_t predict_marks() const { return ctr_predict_marks_->value(); }
  std::uint64_t predict_clears() const { return ctr_predict_clears_->value(); }

  /// Validate-build fault-injection hook: forces `n` health flips on
  /// direction `dir` (deweight, restore, ...), tripping "adapt.oscillation"
  /// once the bound is exceeded.
  void test_force_flips(std::size_t dir, std::uint32_t n);
  /// Test hook: feeds one synthetic severity window into the predictive
  /// trend scorer for `dir` (the same path sample_links() drives), so unit
  /// tests can replay an exact degradation ramp without shaping traffic.
  void test_observe_link(std::size_t dir, double severity) {
    score_trend(dir, severity);
  }

 private:
  struct LinkHealth {
    std::uint64_t last_packets = 0;
    std::uint64_t last_drops = 0;
    std::uint32_t bad_windows = 0;
    std::uint32_t good_windows = 0;
    bool unhealthy = false;
    std::uint32_t transitions = 0;
    // Predictive trend state (see the predictive constants above).
    double sev_ewma = 0.0;    // smoothed window severity
    double slope_ewma = 0.0;  // smoothed severity delta per window
    bool at_risk = false;
  };

  void sample_links();
  /// The one place a direction changes health: counts the flip against
  /// `kMaxTransitions`, publishes it (`backlog` is the window's peak, for
  /// the flight recorder) and re-weights ECMP around it.
  void set_unhealthy(std::size_t dir, bool unhealthy, Time backlog);
  /// One predictive-scorer step for `dir` on a fresh window severity.
  void score_trend(std::size_t dir, double severity);
  void schedule_sample(std::uint64_t gen);
  /// Applies ECMP weights for every egress direction of the node that owns
  /// `dir` (siblings included; see kHealthyWeight / kLossyWeight).
  void reweight_node_of(std::size_t dir);
  /// Re-weights every host's per-rail uplinks from rail health. On a
  /// multi-rail fabric the host's injection choice *is* the path choice — a
  /// 1-spine-per-rail plane has no lateral ECMP once inside — so a sick
  /// trunk deep in one plane is dodged by deweighting that whole rail at
  /// every host.
  void reweight_host_rails();

  Cluster& cluster_;
  HealthConfig cfg_;
  std::vector<LinkHealth> links_;  // per fabric link direction
  std::size_t active_ops_ = 0;
  std::uint64_t generation_ = 0;  // invalidates samplers across idle windows
  Time sample_phase_ = 0;         // deterministic first-sample offset

  // Registry references resolved once at wiring time; the registry is the
  // one ledger of the monitor's decisions.
  telemetry::Counter* ctr_link_deweights_ = nullptr;
  telemetry::Counter* ctr_link_restores_ = nullptr;
  telemetry::Counter* ctr_predict_marks_ = nullptr;
  telemetry::Counter* ctr_predict_clears_ = nullptr;
};

}  // namespace mccl::coll
