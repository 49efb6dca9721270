#include "src/coll/health_monitor.hpp"

#include <algorithm>

#include "src/coll/communicator.hpp"
#include "src/common/rng.hpp"
#include "src/debug/validate.hpp"

namespace mccl::coll {

// The hysteresis bands and EWMA weights are fixed; these are the relations
// the policies rely on.
static_assert(HealthMonitor::kDropEnter > HealthMonitor::kDropExit);
static_assert(HealthMonitor::kBacklogEnter > HealthMonitor::kBacklogExit);
static_assert(HealthMonitor::kLinkDwell >= 1);
static_assert(HealthMonitor::kSeverityAlpha > 0.0 &&
              HealthMonitor::kSeverityAlpha <= 1.0);
static_assert(HealthMonitor::kTrendAlpha > 0.0 &&
              HealthMonitor::kTrendAlpha <= 1.0);
static_assert(HealthMonitor::kRiskEnter > HealthMonitor::kRiskExit);

HealthMonitor::HealthMonitor(Communicator& comm, HealthConfig cfg)
    : comm_(comm), cfg_(cfg) {
  links_.assign(comm_.cluster().fabric().topology().num_dirs(), LinkHealth{});
  // Sampler phase: decorrelated from the detector ticks and the fabric's
  // fault RNG, drawn once for deterministic replay.
  Rng rng(cfg_.seed ^ 0x4ea17bffull);
  sample_phase_ = static_cast<Time>(
      rng.below(static_cast<std::uint64_t>(kSampleInterval)));
  telemetry::MetricsRegistry& reg = comm_.cluster().telemetry().metrics;
  ctr_link_deweights_ = &reg.counter("coll.adapt.link_deweights");
  ctr_link_restores_ = &reg.counter("coll.adapt.link_restores");
  ctr_predict_marks_ = &reg.counter("coll.adapt.predict_marks");
  ctr_predict_clears_ = &reg.counter("coll.adapt.predict_clears");
}

void HealthMonitor::note_op_started() {
  if (++active_ops_ > 1) return;
  ++generation_;
  schedule_sample(generation_);
}

void HealthMonitor::note_op_finished() {
  MCCL_CHECK(active_ops_ > 0);
  // Pending sample events see a stale generation and fall through, so the
  // event queue drains between ops.
  if (--active_ops_ == 0) ++generation_;
}

void HealthMonitor::schedule_sample(std::uint64_t gen) {
  sim::Engine& eng = comm_.cluster().engine();
  eng.schedule(kSampleInterval + sample_phase_, [this, gen] {
    if (gen != generation_ || active_ops_ == 0) return;
    sample_links();
    sample_phase_ = 0;  // phase applies to the first sample of a window only
    schedule_sample(gen);
  });
}

void HealthMonitor::sample_links() {
  fabric::Fabric& fab = comm_.cluster().fabric();
  for (std::size_t dir = 0; dir < links_.size(); ++dir) {
    LinkHealth& lh = links_[dir];
    const fabric::Fabric::DirCounters& c = fab.dir_counters(dir);
    const std::uint64_t pkt_delta = c.packets - lh.last_packets;
    const std::uint64_t drop_delta = c.drops - lh.last_drops;
    lh.last_packets = c.packets;
    lh.last_drops = c.drops;
    // Peak-hold, not a point sample: a degraded trunk books its backlog in
    // bursts that can drain entirely between two sampler ticks.
    const Time backlog = fab.take_peak_backlog(dir);

    // Window severity for the predictive scorer: distance to the reactive
    // thresholds, normalized so 1.0 means "this window alone would count as
    // bad". Thin windows contribute no drop signal (same min-packets guard
    // as the reactive path), but backlog is traffic-independent. Scored
    // after the reactive hysteresis below so a direction that crosses into
    // unhealthy drops its advisory at-risk flag in the same window.
    const double drop_frac =
        pkt_delta >= cfg_.min_window_packets
            ? static_cast<double>(drop_delta) /
                  static_cast<double>(pkt_delta) / kDropEnter
            : 0.0;
    const double severity =
        std::max(drop_frac, static_cast<double>(backlog) /
                                static_cast<double>(kBacklogEnter));

    const bool drops_bad =
        pkt_delta >= cfg_.min_window_packets &&
        static_cast<double>(drop_delta) >=
            kDropEnter * static_cast<double>(pkt_delta);
    const bool drops_good =
        drop_delta == 0 ||
        (pkt_delta > 0 && static_cast<double>(drop_delta) <=
                              kDropExit * static_cast<double>(pkt_delta));
    if (!lh.unhealthy) {
      if (drops_bad || backlog >= kBacklogEnter) {
        if (++lh.bad_windows >= kLinkDwell) set_unhealthy(dir, true, backlog);
      } else {
        lh.bad_windows = 0;
      }
    } else {
      // An idle window proves nothing: a direction the policies steered
      // around shows zero drops and zero backlog precisely *because* it is
      // unused. Restoration needs evidence — enough packets actually
      // crossing the link cleanly — or the subgroup re-balancer would move
      // traffic right back onto a still-degraded trunk.
      if (pkt_delta >= cfg_.min_window_packets && drops_good &&
          backlog <= kBacklogExit) {
        if (++lh.good_windows >= kLinkDwell)
          set_unhealthy(dir, false, backlog);
      } else {
        lh.good_windows = 0;
      }
    }
    score_trend(dir, severity);
  }
}

void HealthMonitor::set_unhealthy(std::size_t dir, bool unhealthy,
                                  Time backlog) {
  LinkHealth& lh = links_[dir];
  lh.unhealthy = unhealthy;
  lh.bad_windows = 0;
  lh.good_windows = 0;
  ++lh.transitions;
  // A direction flipping more often than the bound means the hysteresis
  // band is too narrow for the signal (or a policy feeds back into its own
  // input).
  MCCL_VALIDATE_THAT(lh.transitions <= kMaxTransitions, "adapt.oscillation",
                     "link dir %zu flipped health %u times (bound %u)", dir,
                     lh.transitions, kMaxTransitions);
  if (unhealthy) {
    ++link_deweights_;
    ctr_link_deweights_->add(1);
  } else {
    ++link_restores_;
    ctr_link_restores_->add(1);
  }
  comm_.cluster().telemetry().recorder.record(
      comm_.cluster().engine().now(), -1, telemetry::EventCat::kAdapt,
      unhealthy ? "link_deweight" : "link_restore", dir,
      static_cast<std::uint64_t>(backlog));
  reweight_node_of(dir);
  reweight_host_rails();
}

void HealthMonitor::score_trend(std::size_t dir, double severity) {
  LinkHealth& lh = links_[dir];
  const double prev = lh.sev_ewma;
  lh.sev_ewma = kSeverityAlpha * severity +
                (1.0 - kSeverityAlpha) * lh.sev_ewma;
  lh.slope_ewma = kTrendAlpha * (lh.sev_ewma - prev) +
                  (1.0 - kTrendAlpha) * lh.slope_ewma;
  const double projected = lh.sev_ewma + kRiskHorizon * lh.slope_ewma;
  bool want = lh.at_risk;
  if (lh.unhealthy) {
    // The reactive plane owns a deweighted direction: "about to go sick"
    // is moot once it is sick, and admission already gates on the
    // deweighted-dir count.
    want = false;
  } else if (!lh.at_risk) {
    // Mark only on a rising trend. A high-but-flat projection is a steady
    // state the reactive thresholds will judge on their own; the forecast
    // earns its keep strictly on the way up.
    want = projected >= kRiskEnter && lh.slope_ewma > 0.0;
  } else {
    want = projected > kRiskExit;
  }
  if (want == lh.at_risk) return;
  lh.at_risk = want;
  comm_.cluster().fabric().set_dir_at_risk(dir, want);
  if (want) {
    ++predict_marks_;
    ctr_predict_marks_->add(1);
  } else {
    ++predict_clears_;
    ctr_predict_clears_->add(1);
  }
  comm_.cluster().telemetry().recorder.record(
      comm_.cluster().engine().now(), -1, telemetry::EventCat::kAdapt,
      want ? "link_at_risk" : "link_risk_clear", dir,
      static_cast<std::uint64_t>(std::max(0.0, projected) * 100.0));
}

std::size_t HealthMonitor::unhealthy_dirs_on_rail(int rail) const {
  const fabric::Topology& topo = comm_.cluster().fabric().topology();
  std::size_t n = 0;
  for (std::size_t d = 0; d < links_.size(); ++d) {
    if (!links_[d].unhealthy) continue;
    const auto& ld = topo.dirs()[d];
    const fabric::NodeId sw = topo.is_host(ld.from) ? ld.to : ld.from;
    if (topo.is_host(sw) || topo.rail_of(sw) == rail) ++n;
  }
  return n;
}

void HealthMonitor::reweight_host_rails() {
  fabric::Fabric& fab = comm_.cluster().fabric();
  const fabric::Topology& topo = fab.topology();
  const int rails = topo.num_rails();
  if (rails <= 1) return;
  // Cold path (runs on link health transitions, sampling cadence at worst).
  std::vector<bool> rail_bad(static_cast<std::size_t>(rails), false);
  bool any_bad = false;
  for (int rl = 0; rl < rails; ++rl) {
    rail_bad[static_cast<std::size_t>(rl)] = unhealthy_dirs_on_rail(rl) > 0;
    any_bad |= rail_bad[static_cast<std::size_t>(rl)];
  }
  for (fabric::NodeId h = 0; h < topo.num_nodes(); ++h) {
    if (!topo.is_host(h)) continue;
    for (const fabric::Port& p : topo.ports(h)) {
      const int rl = topo.rail_of(p.peer);
      const bool bad = links_[p.dir_index].unhealthy ||
                       (rl >= 0 && rail_bad[static_cast<std::size_t>(rl)]);
      fab.set_dir_weight(p.dir_index,
                         !any_bad   ? 1
                         : bad      ? kLossyWeight
                                    : kHealthyWeight);
    }
  }
}

void HealthMonitor::reweight_node_of(std::size_t dir) {
  fabric::Fabric& fab = comm_.cluster().fabric();
  const fabric::Topology& topo = fab.topology();
  const fabric::NodeId from = topo.dirs()[dir].from;
  // Weighted ECMP splits flows among a node's candidate egresses in
  // proportion to their weights, so deweighting is relative: with any
  // unhealthy egress at this node, healthy siblings get kHealthyWeight and
  // unhealthy ones kLossyWeight; with none, everything returns to the
  // neutral default (keeping the fabric's unweighted fast path armed).
  bool any_unhealthy = false;
  for (const fabric::Port& p : topo.ports(from))
    if (links_[p.dir_index].unhealthy) any_unhealthy = true;
  for (const fabric::Port& p : topo.ports(from)) {
    const std::uint16_t w =
        !any_unhealthy ? 1
        : links_[p.dir_index].unhealthy ? kLossyWeight
                                        : kHealthyWeight;
    fab.set_dir_weight(p.dir_index, w);
  }
}

void HealthMonitor::test_force_flips(std::size_t dir, std::uint32_t n) {
  for (std::uint32_t i = 0; i < n; ++i)
    set_unhealthy(dir, !links_[dir].unhealthy, 0);
}

}  // namespace mccl::coll
