#include "src/fabric/faults.hpp"

#include "src/telemetry/telemetry.hpp"

namespace mccl::fabric {

namespace {

const char* kind_name(FaultEvent::Kind k) {
  switch (k) {
    case FaultEvent::Kind::kLinkDown:
      return "link_down";
    case FaultEvent::Kind::kLinkUp:
      return "link_up";
    case FaultEvent::Kind::kSwitchDown:
      return "switch_down";
    case FaultEvent::Kind::kSwitchUp:
      return "switch_up";
    case FaultEvent::Kind::kDegrade:
      return "degrade";
    case FaultEvent::Kind::kRestore:
      return "restore";
    case FaultEvent::Kind::kStragglerBegin:
      return "straggler_begin";
    case FaultEvent::Kind::kStragglerEnd:
      return "straggler_end";
    case FaultEvent::Kind::kNodeCrash:
      return "node_crash";
    case FaultEvent::Kind::kNodeRecover:
      return "node_recover";
    case FaultEvent::Kind::kCorruptBegin:
      return "corrupt_begin";
    case FaultEvent::Kind::kCorruptEnd:
      return "corrupt_end";
  }
  return "?";
}

}  // namespace

FaultPlane::FaultPlane(sim::Engine& engine, const Topology& topo,
                       FaultConfig config, std::uint64_t seed)
    : engine_(engine), config_(std::move(config)), rng_(seed) {
  state_.resize(topo.num_dirs());
  for (std::size_t i = 0; i < topo.num_dirs(); ++i) {
    state_[i].from = topo.dirs()[i].from;
    state_[i].to = topo.dirs()[i].to;
  }
  node_down_.assign(topo.num_nodes(), false);
  host_crashed_.assign(topo.num_nodes(), false);
  corruption_possible_ = config_.corruption_possible();
  passthrough_ = !config_.any();
}

void FaultPlane::arm() {
  if (armed_) return;
  armed_ = true;
  events_pending_ = config_.events.size();
  for (const FaultEvent& ev : config_.events) {
    MCCL_CHECK_MSG(ev.at >= engine_.now(), "fault event scheduled in the past");
    engine_.schedule_at(ev.at, [this, ev] { apply(ev); });
  }
}

void FaultPlane::set_telemetry(telemetry::Telemetry* telem) {
  telem_ = telem;
  if (telem_ != nullptr)
    trace_track_ =
        telem_->tracer.track(telemetry::kSimTracePid, "sim", 1, "faults");
}

void FaultPlane::note_transition(const FaultEvent& ev) {
  if (telem_ == nullptr) return;
  const char* name = kind_name(ev.kind);
  telem_->recorder.record(engine_.now(), static_cast<std::int32_t>(ev.a),
                          telemetry::EventCat::kFault, name,
                          static_cast<std::uint64_t>(ev.a),
                          ev.b == kInvalidNode
                              ? 0
                              : static_cast<std::uint64_t>(ev.b));
  if (telem_->tracer.enabled())
    telem_->tracer.instant(trace_track_, name, engine_.now(), "fault");
}

void FaultPlane::for_link_dirs(NodeId a, NodeId b,
                               const std::function<void(DirState&)>& fn) {
  bool found = false;
  for (DirState& d : state_) {
    if ((d.from == a && d.to == b) || (d.from == b && d.to == a)) {
      fn(d);
      found = true;
    }
  }
  MCCL_CHECK_MSG(found, "fault event names a non-existent link");
}

void FaultPlane::apply(const FaultEvent& ev) {
  note_transition(ev);
  switch (ev.kind) {
    case FaultEvent::Kind::kLinkDown:
      for_link_dirs(ev.a, ev.b, [](DirState& d) { d.down = true; });
      ++topo_version_;
      break;
    case FaultEvent::Kind::kLinkUp:
      for_link_dirs(ev.a, ev.b, [](DirState& d) { d.down = false; });
      ++topo_version_;
      break;
    case FaultEvent::Kind::kSwitchDown:
      node_down_[static_cast<std::size_t>(ev.a)] = true;
      ++topo_version_;
      break;
    case FaultEvent::Kind::kSwitchUp:
      node_down_[static_cast<std::size_t>(ev.a)] = false;
      ++topo_version_;
      break;
    case FaultEvent::Kind::kDegrade:
      MCCL_CHECK_MSG(ev.factor > 0.0 && ev.factor <= 1.0,
                     "degrade factor must be in (0, 1]");
      for_link_dirs(ev.a, ev.b, [&ev](DirState& d) {
        d.bw_factor = ev.factor;
        d.extra_latency = ev.extra_latency;
      });
      break;
    case FaultEvent::Kind::kRestore:
      for_link_dirs(ev.a, ev.b, [](DirState& d) {
        d.bw_factor = 1.0;
        d.extra_latency = 0;
      });
      break;
    case FaultEvent::Kind::kStragglerBegin:
      MCCL_CHECK_MSG(ev.factor >= 1.0, "straggler factor must be >= 1");
      if (straggler_) straggler_(ev.a, ev.factor);
      break;
    case FaultEvent::Kind::kStragglerEnd:
      if (straggler_) straggler_(ev.a, 1.0);
      break;
    case FaultEvent::Kind::kNodeCrash:
    case FaultEvent::Kind::kNodeRecover: {
      const bool crashed = ev.kind == FaultEvent::Kind::kNodeCrash;
      host_crashed_[static_cast<std::size_t>(ev.a)] = crashed;
      ++topo_version_;
      if (crash_) crash_(ev.a, crashed);
      break;
    }
    case FaultEvent::Kind::kCorruptBegin:
      MCCL_CHECK_MSG(ev.factor > 0.0 && ev.factor <= 1.0,
                     "corruption probability must be in (0, 1]");
      for_link_dirs(ev.a, ev.b,
                    [&ev](DirState& d) { d.corrupt_prob = ev.factor; });
      break;
    case FaultEvent::Kind::kCorruptEnd:
      for_link_dirs(ev.a, ev.b, [](DirState& d) { d.corrupt_prob = 0.0; });
      break;
  }
  MCCL_CHECK_MSG(events_pending_ > 0, "fault event fired but none pending");
  --events_pending_;
  maybe_requiesce();
}

void FaultPlane::maybe_requiesce() {
  if (passthrough_) return;
  if (events_pending_ != 0 || config_.burst.enabled()) return;
  for (const DirState& d : state_)
    if (d.down || d.bw_factor != 1.0 || d.extra_latency != 0 ||
        d.corrupt_prob != 0.0)
      return;
  for (std::size_t i = 0; i < node_down_.size(); ++i)
    if (node_down_[i] || host_crashed_[i]) return;
  // Straggler state lives in the compute complexes, not here; an unpaired
  // straggler_begin would leave events_pending_ == 0 with the host still
  // slow, but that perturbs workers, not the fabric — the per-packet fault
  // queries this flag gates are all neutral from now on.
  passthrough_ = true;
  if (telem_ != nullptr)
    telem_->recorder.record(engine_.now(), -1, telemetry::EventCat::kFault,
                            "fault_plane_quiesced");
  if (quiescence_) quiescence_();
}

bool FaultPlane::burst_drop(std::size_t dir) {
  const GilbertElliott& ge = config_.burst;
  if (!ge.enabled()) return false;
  DirState& d = state_[dir];
  // Advance the chain first, then sample loss in the resulting state: a
  // burst affects the packet that triggered it. Uniform loss (p_enter_bad
  // == 0) never leaves `good` and skips the transition draw, so it costs
  // one draw per packet.
  if (!d.bad) {
    if (ge.p_enter_bad > 0.0 && rng_.chance(ge.p_enter_bad)) {
      d.bad = true;
      ++bursts_entered_;
    }
  } else if (rng_.chance(ge.p_exit_bad)) {
    d.bad = false;
  }
  const double p = d.bad ? ge.drop_bad : ge.drop_good;
  if (p > 0.0 && rng_.chance(p)) {
    ++burst_drops_;
    return true;
  }
  return false;
}

bool FaultPlane::corrupt_hit(std::size_t dir) {
  const double p = state_[dir].corrupt_prob;
  if (p <= 0.0) return false;
  if (!rng_.chance(p)) return false;
  ++corrupted_;
  return true;
}

}  // namespace mccl::fabric
