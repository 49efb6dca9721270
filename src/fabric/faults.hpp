// Scheduled fault injection for the fabric.
//
// Real clusters do not fail with i.i.d. per-packet bit errors: the dominant
// fault classes are persistent link/switch outages, degraded links, and
// correlated burst loss under congestion (see PAPERS.md, "Don't Let a Few
// Network Failures Slow the Entire AllReduce"). The FaultPlane holds a
// deterministic, seeded timeline of such events and the per-link-direction
// fault state the Fabric consults on every packet:
//
//  - link_down / link_up:     persistent outage of both directions of a link;
//                             unicast routing re-routes around it where an
//                             equal-cost alternate exists, multicast-tree
//                             edges black-hole (a subnet manager would
//                             eventually rebuild the tree — the protocol's
//                             slow path must survive the interim).
//  - switch_down / switch_up: every direction touching the switch goes dark.
//  - degrade / restore:       a bandwidth factor and extra latency window on
//                             one link (flaky cable / congested port).
//  - Gilbert-Elliott loss:    per-direction two-state Markov chain
//                             (good/bad) advanced per packet. With
//                             p_enter_bad = 0 the chain never leaves `good`
//                             and drop_good is the paper's uniform i.i.d.
//                             per-packet, per-link loss.
//  - straggler_begin / _end:  a host whose progress-engine datapath costs are
//                             scaled xK for a window (paused / oversubscribed
//                             node). The fabric owns the timeline; the
//                             Cluster registers a handler that applies the
//                             scale to the host's compute complexes.
//  - node_crash / node_recover: a *host* dies outright. Unlike switch_down,
//                             this silences an endpoint: its NIC drops
//                             everything in both directions (no CQEs, no
//                             retransmissions, multicast sends cease) and
//                             in-flight packets addressed to it black-hole.
//                             The Cluster registers a crash handler that
//                             propagates the verdict to the host's NIC and
//                             compute complexes; collectives learn about it
//                             only through the failure detector.
//  - corrupt_begin / _end:    a per-direction payload bit-flip probability
//                             window (marginal cable / bad optics). Corrupted
//                             packets are delivered — detection is the
//                             receiver's job (CRC32C on the staging path).
//
// All state transitions are driven by engine events at fixed simulated times.
// The plane's RNG, seeded from Fabric::Config::seed, is the only random
// source on the wire, so identical configurations replay bit-identically
// (tests/test_determinism.cpp). Reordering is not a separate knob: a
// degrade window's extra latency that ends mid-transfer lets packets sent
// after the restore overtake packets still in flight.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "src/common/rng.hpp"
#include "src/common/units.hpp"
#include "src/fabric/packet.hpp"
#include "src/fabric/topology.hpp"
#include "src/sim/engine.hpp"

namespace mccl::telemetry {
class Telemetry;
}  // namespace mccl::telemetry

namespace mccl::fabric {

/// Two-state Markov loss model: a link is in the `good` state (loss
/// `drop_good`) until a per-packet coin flip moves it to `bad` (loss
/// `drop_bad`), where it stays for a geometrically distributed burst.
/// `p_enter_bad = 0` with `drop_good = p` is uniform loss at rate p (the
/// paper's loss model): the chain is never advanced, so each packet costs
/// exactly one draw.
struct GilbertElliott {
  double p_enter_bad = 0.0;  // per-packet good -> bad transition probability
  double p_exit_bad = 0.05;  // per-packet bad -> good transition probability
  double drop_good = 0.0;    // loss probability in the good state
  double drop_bad = 0.5;     // loss probability in the bad state
  bool enabled() const { return p_enter_bad > 0.0 || drop_good > 0.0; }
};

struct FaultEvent {
  enum class Kind : std::uint8_t {
    kLinkDown,
    kLinkUp,
    kSwitchDown,
    kSwitchUp,
    kDegrade,
    kRestore,
    kStragglerBegin,
    kStragglerEnd,
    kNodeCrash,
    kNodeRecover,
    kCorruptBegin,
    kCorruptEnd,
  };

  Kind kind = Kind::kLinkDown;
  Time at = 0;
  NodeId a = kInvalidNode;  // link endpoint, switch id, or straggler host
  NodeId b = kInvalidNode;  // link peer (link/degrade events only)
  double factor = 1.0;      // kDegrade: bandwidth multiplier (0 < f <= 1);
                            // kStragglerBegin: datapath cost multiplier
  Time extra_latency = 0;   // kDegrade: added per-packet latency

  static FaultEvent link_down(Time at, NodeId a, NodeId b) {
    return {Kind::kLinkDown, at, a, b, 1.0, 0};
  }
  static FaultEvent link_up(Time at, NodeId a, NodeId b) {
    return {Kind::kLinkUp, at, a, b, 1.0, 0};
  }
  static FaultEvent switch_down(Time at, NodeId sw) {
    return {Kind::kSwitchDown, at, sw, kInvalidNode, 1.0, 0};
  }
  static FaultEvent switch_up(Time at, NodeId sw) {
    return {Kind::kSwitchUp, at, sw, kInvalidNode, 1.0, 0};
  }
  static FaultEvent degrade(Time at, NodeId a, NodeId b, double bw_factor,
                            Time extra_latency) {
    return {Kind::kDegrade, at, a, b, bw_factor, extra_latency};
  }
  static FaultEvent restore(Time at, NodeId a, NodeId b) {
    return {Kind::kRestore, at, a, b, 1.0, 0};
  }
  static FaultEvent straggler_begin(Time at, NodeId host, double cost_factor) {
    return {Kind::kStragglerBegin, at, host, kInvalidNode, cost_factor, 0};
  }
  static FaultEvent straggler_end(Time at, NodeId host) {
    return {Kind::kStragglerEnd, at, host, kInvalidNode, 1.0, 0};
  }
  static FaultEvent node_crash(Time at, NodeId host) {
    return {Kind::kNodeCrash, at, host, kInvalidNode, 1.0, 0};
  }
  static FaultEvent node_recover(Time at, NodeId host) {
    return {Kind::kNodeRecover, at, host, kInvalidNode, 1.0, 0};
  }
  /// `prob` is the per-packet probability that a payload-carrying packet on
  /// the (a, b) link gets one bit flipped (stored in `factor`).
  static FaultEvent corrupt_begin(Time at, NodeId a, NodeId b, double prob) {
    return {Kind::kCorruptBegin, at, a, b, prob, 0};
  }
  static FaultEvent corrupt_end(Time at, NodeId a, NodeId b) {
    return {Kind::kCorruptEnd, at, a, b, 0.0, 0};
  }
};

struct FaultConfig {
  std::vector<FaultEvent> events;
  GilbertElliott burst;  // applied to every link direction independently
  bool any() const { return !events.empty() || burst.enabled(); }
  /// True if the timeline contains any corruption window. NICs consult this
  /// once to decide whether CRC32C stamping/verification is worth paying
  /// for (when no window exists, no packet can ever fail the check).
  bool corruption_possible() const {
    for (const FaultEvent& ev : events)
      if (ev.kind == FaultEvent::Kind::kCorruptBegin) return true;
    return false;
  }
};

class FaultPlane {
 public:
  /// The fault plane applies host-datapath slowdowns through this hook
  /// (registered by the Cluster, which owns the compute complexes).
  using StragglerHandler = std::function<void(NodeId host, double factor)>;
  /// Host crash/recover transitions are propagated through this hook
  /// (registered by the Cluster, which owns the NICs and complexes).
  using CrashHandler = std::function<void(NodeId host, bool crashed)>;
  /// Invoked once when the timeline quiesces: every scheduled event has
  /// fired and left no residual per-direction or per-node state, so the
  /// plane can never perturb traffic again. The Fabric re-arms its quiet
  /// fast path here.
  using QuiescenceHandler = std::function<void()>;

  /// `seed` seeds the plane's RNG (Fabric::Config::seed).
  FaultPlane(sim::Engine& engine, const Topology& topo, FaultConfig config,
             std::uint64_t seed);

  /// Schedules every configured event on the engine. Idempotent per event
  /// list; called once by the Fabric constructor.
  void arm();

  /// Without a handler, straggler and crash events change no host state
  /// (the Cluster registers both before the engine first runs).
  void set_straggler_handler(StragglerHandler fn) {
    straggler_ = std::move(fn);
  }
  void set_crash_handler(CrashHandler fn) { crash_ = std::move(fn); }
  void set_quiescence_handler(QuiescenceHandler fn) {
    quiescence_ = std::move(fn);
  }

  /// Fault-timeline transitions become trace instant events (on the sim
  /// "faults" row) and flight-recorder entries.
  void set_telemetry(telemetry::Telemetry* telem);

  // --- per-packet queries (Fabric hot path) --------------------------------
  /// True iff this plane can never perturb traffic again. Set at
  /// construction when there are no timeline events and no burst model, and
  /// *re-armed* mid-run once the last scheduled event has fired with no
  /// residual state (all directions back to neutral, no downed switches or
  /// crashed hosts, burst model off): every per-packet fault query would
  /// return its neutral value and draw no RNG from then on, so skipping
  /// them is bit-identical. Consumers that cache this (the Fabric's quiet_
  /// gate) register a quiescence handler to learn about the re-arm.
  bool passthrough() const { return passthrough_; }
  /// A direction is usable iff the link is up and neither endpoint is a
  /// downed switch or a crashed host.
  bool dir_usable(std::size_t dir) const {
    const DirState& d = state_[dir];
    return !d.down && !node_silent(d.to) && !node_silent(d.from);
  }
  bool host_crashed(NodeId n) const {
    return host_crashed_[static_cast<std::size_t>(n)];
  }
  /// True if the node generates/accepts no traffic: downed switch or
  /// crashed host.
  bool node_silent(NodeId n) const {
    const auto i = static_cast<std::size_t>(n);
    return node_down_[i] || host_crashed_[i];
  }
  /// Incremented on every link/switch up/down transition. Consumers caching
  /// reachability (the Fabric's ECMP viability table) recompute when this
  /// moves; 0 means the fault timeline has never touched connectivity.
  std::uint64_t topo_version() const { return topo_version_; }
  /// Advances the direction's Gilbert-Elliott chain by one packet and
  /// returns true if that packet is lost (uniform or burst loss).
  bool burst_drop(std::size_t dir);
  /// Samples the direction's corruption window: true if this packet gets a
  /// bit flipped. Draws from the fault-plane RNG only while a window is
  /// active, keeping seeded replays bit-identical.
  bool corrupt_hit(std::size_t dir);
  /// Uniform draw in [0, n) from the fault-plane RNG — used by the Fabric to
  /// pick which payload byte/bit a corruption hit flips.
  std::uint64_t corrupt_pick(std::uint64_t n) { return rng_.below(n); }
  double bw_factor(std::size_t dir) const { return state_[dir].bw_factor; }
  Time extra_latency(std::size_t dir) const {
    return state_[dir].extra_latency;
  }
  bool degraded(std::size_t dir) const {
    return state_[dir].bw_factor != 1.0 || state_[dir].extra_latency != 0;
  }

  // --- counters ------------------------------------------------------------
  /// Packets that had no usable path (dead egress and no ECMP alternate).
  std::uint64_t black_holed() const { return black_holed_; }
  void count_black_hole() { ++black_holed_; }
  /// Packets lost to the Gilbert-Elliott model, in either state (so
  /// uniform drop_good losses count here too).
  std::uint64_t burst_drops() const { return burst_drops_; }
  std::uint64_t bursts_entered() const { return bursts_entered_; }
  /// Packets whose payload was bit-flipped by a corruption window.
  std::uint64_t corrupted() const { return corrupted_; }
  /// Timeline-level query (precomputed): can any packet ever be corrupted?
  bool corruption_possible() const { return corruption_possible_; }

 private:
  struct DirState {
    NodeId from = kInvalidNode;
    NodeId to = kInvalidNode;
    bool down = false;
    bool bad = false;  // Gilbert-Elliott state
    double bw_factor = 1.0;
    Time extra_latency = 0;
    double corrupt_prob = 0.0;  // per-packet bit-flip probability
  };

  void apply(const FaultEvent& ev);
  /// Applies `fn` to both directions of every (a, b) link.
  void for_link_dirs(NodeId a, NodeId b,
                     const std::function<void(DirState&)>& fn);
  /// Called after each applied event: re-arms passthrough_ (and notifies
  /// the quiescence handler) once the timeline is exhausted and every
  /// direction / node is back to its neutral state.
  void maybe_requiesce();

  /// Records the applied transition (recorder + trace instant).
  void note_transition(const FaultEvent& ev);

  sim::Engine& engine_;
  FaultConfig config_;
  Rng rng_;
  telemetry::Telemetry* telem_ = nullptr;
  std::uint32_t trace_track_ = 0;
  std::vector<DirState> state_;     // per link direction
  std::vector<bool> node_down_;     // per node (downed switches)
  std::vector<bool> host_crashed_;  // per node (crashed hosts)
  StragglerHandler straggler_;
  CrashHandler crash_;
  QuiescenceHandler quiescence_;
  bool armed_ = false;
  bool corruption_possible_ = false;
  bool passthrough_ = false;
  std::size_t events_pending_ = 0;  // scheduled but not yet fired
  std::uint64_t topo_version_ = 0;
  std::uint64_t black_holed_ = 0;
  std::uint64_t burst_drops_ = 0;
  std::uint64_t bursts_entered_ = 0;
  std::uint64_t corrupted_ = 0;
};

}  // namespace mccl::fabric
