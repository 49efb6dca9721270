// Communicator: ranks, progress-engine workers, control plane, multicast
// subgroups — and the collective-operation API.
//
// One Communicator spans a set of hosts (one rank per host, as in the
// paper's 1-PPN evaluation). Construction wires, per rank:
//  - an application thread (host CPU worker) running the control plane:
//    RNR barrier, chain tokens, final handshake, fetch coordination;
//  - `send_workers` + `recv_workers` progress workers on the configured
//    engine (host CPU or DPA) — flow-direction parallelism;
//  - `subgroups` multicast groups, each with its own UD/UC QP, CQs and
//    staging ring — packet parallelism; subgroup CQs are distributed over
//    the receive workers;
//  - lazily, pairwise RC QPs for the control plane and for the data plane
//    of the P2P baselines and the reliability fetch layer.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/coll/cluster.hpp"
#include "src/coll/ctrl.hpp"
#include "src/coll/failure_detector.hpp"
#include "src/exec/cost_model.hpp"

namespace mccl::coll {

class Communicator;
class McastCollective;
class OpBase;

enum class Transport : std::uint8_t {
  kUd,       // UD multicast datagrams + receive-side staging (Section III)
  kUcMcast,  // proposed UC multicast RDMA Writes, no staging (Section V-B)
};

enum class EngineKind : std::uint8_t {
  kCpu,  // progress workers on host CPU cores
  kDpa,  // progress workers on DPA hardware threads (SmartNIC offload)
};

struct CommConfig {
  Transport transport = Transport::kUd;
  EngineKind progress_engine = EngineKind::kCpu;
  /// Where the *send* workers run; defaults to progress_engine. The paper's
  /// DPA experiments drive the receiver from an x86 client, i.e. send
  /// workers on the CPU while receive workers are offloaded.
  std::optional<EngineKind> send_engine;
  std::size_t subgroups = 1;      // multicast subgroups (packet parallelism)
  std::size_t chains = 1;         // broadcast chains (multicast parallelism)
  std::size_t send_workers = 1;   // flow-direction parallelism
  std::size_t recv_workers = 1;
  std::uint32_t chunk_bytes = 4096;  // fast-path fragmentation granularity
  std::size_t send_batch = 16;       // doorbell batching factor
  std::size_t staging_slots = 2048;  // staging ring slots per subgroup (UD)
  Time cutoff_alpha = 500 * kMicrosecond;  // cutoff-timer slack
  bool reliability = true;                 // enable the slow-path fetch ring

  // --- slow-path hardening (fault tolerance beyond the paper) --------------
  /// A fetch request that is not ACKed within this window is retried with
  /// exponential backoff (x2 per attempt).
  Time fetch_retry_timeout = 150 * kMicrosecond;

  // --- crash tolerance -------------------------------------------------------
  /// Lease-based failure detector (heartbeats on the RC control mesh while
  /// ops are in flight). Confirmed-dead peers are spliced out of the
  /// multicast collective's rings: barrier rounds are credited, fetch
  /// chains walk around them, the final handshake re-closes over survivors,
  /// and a dead block root is replaced by a surviving full holder or the
  /// block is abandoned (OpResult::kPartial). Disable to get the PR-1
  /// behavior: a crash mid-op ends in a watchdog failure.
  DetectorConfig detector;

  std::optional<exec::DatapathCosts> costs_override;  // else by engine kind

  // --- multi-tenant QoS (cluster scheduler plane) ----------------------------
  /// Tenant id every QP of this communicator charges its packets to (pool
  /// sub-pool accounting + per-tenant fabric metrics). 0 = untenanted.
  std::uint16_t tenant = 0;
  /// Tenant QoS class, 0 = highest priority: selects the data virtual lane
  /// at switch egress and the priority band at NIC injection. Only matters
  /// once NIC strict priority (Nic::set_strict_priority) and/or virtual
  /// lanes are active; with the defaults everything rides kBulkLane as
  /// before.
  std::uint8_t qos_class = 0;
};

/// Per-rank protocol phase timestamps (durations), the Fig 10 breakdown.
struct Phases {
  Time barrier = 0;      // RNR synchronization
  Time transfer = 0;     // multicast / data movement
  Time reliability = 0;  // slow-path recovery (0 if no drops)
  Time handshake = 0;    // final ring handshake
  Time total() const { return barrier + transfer + reliability + handshake; }
};

/// Completion verdict of a collective on a faulty cluster.
enum class OpStatus : std::uint8_t {
  kOk,       // every surviving rank holds every block
  kPartial,  // survivors completed, but some blocks are unrecoverable
             // (their root crashed before any survivor held them in full)
  kFailed,   // watchdog-terminated; buffers are garbage
};

inline const char* to_string(OpStatus s) {
  switch (s) {
    case OpStatus::kOk: return "ok";
    case OpStatus::kPartial: return "partial";
    case OpStatus::kFailed: return "failed";
  }
  return "?";
}

/// Result of a completed collective: OpBase::result(), settled once at the
/// done event for blocking and non-blocking drivers alike.
struct OpResult {
  Time start = 0;
  Time finish = 0;  // max completion over ranks
  Time duration() const { return finish - start; }
  std::vector<Time> rank_finish;
  Phases max_phases;  // per-phase max over ranks
  bool data_verified = false;
  std::uint64_t fetched_chunks = 0;  // chunks recovered via the slow path
  std::uint64_t rnr_drops = 0;
  // Slow-path hardening counters (all zero on a clean fast-path run).
  std::uint64_t fetch_retries = 0;    // re-sent fetch requests (same target)
  std::uint64_t fetch_failovers = 0;  // targets skipped as unresponsive
  bool watchdog_fired = false;
  /// Set when the op was terminated by the watchdog instead of completing;
  /// `error` carries the structured reason and `data_verified` is false.
  bool failed = false;
  std::string error;
  // --- crash tolerance -------------------------------------------------------
  OpStatus status = OpStatus::kOk;
  /// kPartial: exactly the blocks no survivor could recover (sorted).
  std::vector<std::size_t> missing_blocks;
  /// Ranks that physically crashed before or during the op (sorted). Their
  /// buffers are exempt from verification; survivors still complete.
  std::vector<std::size_t> crashed_ranks;
  /// Dead block roots successfully replaced by a surviving full holder.
  std::uint64_t reroots = 0;
};

// Benches name their result rows by these integer values, so they are
// written out: a removed algorithm leaves a gap, never a renumbering.
enum class BcastAlgo : std::uint8_t {
  kMcast = 0,       // the paper's multicast Broadcast
  kBinomial = 1,    // k-nomial tree (radix 2), whole-message forwarding
  kBinaryTree = 2,  // balanced binary tree
  kScatterAllgather = 4,  // van de Geijn: binomial scatter + ring allgather
                          // — the production large-message algorithm
};
enum class AllgatherAlgo : std::uint8_t {
  kMcast = 0,  // the paper's bandwidth-optimal composition of Broadcasts
  kRing = 1,   // NCCL-style ring
};
enum class ReduceScatterAlgo : std::uint8_t { kRing, kInc };

// ---------------------------------------------------------------------------
// Endpoint: per-rank resources
// ---------------------------------------------------------------------------

/// A rank's workers, CQs and QPs. Its CQE entry points find the owning op
/// through the communicator's op tables (control/data messages and send
/// completions by op id, fast-path chunks by the 8-bit tag) and call the
/// op's hooks directly.
class Endpoint {
 public:
  Endpoint(Communicator& comm, std::size_t rank, fabric::NodeId host);

  std::size_t rank() const { return rank_; }
  fabric::NodeId host() const { return host_; }
  rdma::Nic& nic() { return nic_; }
  Communicator& comm() { return comm_; }
  const exec::DatapathCosts& costs() const { return costs_; }

  exec::Worker& app_worker() { return *app_worker_; }
  exec::Worker& send_worker(std::size_t i) {
    return *send_workers_[i % send_workers_.size()];
  }
  /// Costs for the send datapath (may run on a different engine).
  const exec::DatapathCosts& send_costs() const { return send_costs_; }
  exec::Worker& recv_worker(std::size_t i) {
    return *recv_workers_[i % recv_workers_.size()];
  }
  std::size_t num_send_workers() const { return send_workers_.size(); }
  std::size_t num_recv_workers() const { return recv_workers_.size(); }

  /// Link speed of this host's injection port (cutoff-timer input).
  double link_gbps() const;

  // --- control plane -------------------------------------------------------
  /// Posts a control message to `peer` (charged on the app worker).
  void ctrl_send(std::size_t peer, const CtrlMsg& msg);

  // --- P2P data plane (baselines + fetch layer) -----------------------------
  /// Completions of data-plane messages are dispatched like control
  /// messages: the immediate encodes a CtrlMsg naming the op. Send and RDMA
  /// Read completions name the op in the high half of their wr_id.
  rdma::RcQp& data_qp(std::size_t peer);

  // --- multicast fast path ---------------------------------------------------
  struct Subgroup {
    rdma::UdQp* ud = nullptr;
    rdma::UcQp* uc = nullptr;
    rdma::Cq* rcq = nullptr;
    rdma::Cq* scq = nullptr;
    std::uint64_t staging_base = 0;  // UD staging ring
    std::size_t posted = 0;          // receive WRs currently in the RQ
  };
  Subgroup& subgroup(std::size_t s) { return subgroups_[s]; }
  std::size_t num_subgroups() const { return subgroups_.size(); }
  /// Reposts a UD staging slot after its copy drained (UD datapath step 4).
  void repost_staging(std::size_t subgroup, std::uint64_t slot_addr);
  /// Tops up the zero-length receive WRs consumed by UC write-with-imm.
  void top_up_uc_recvs(std::size_t subgroup);

  /// RNR drops on this endpoint's own subgroup QPs (UD or UC): not the
  /// NIC-wide count, which other communicators on the host share.
  std::uint64_t rnr_drops() const;

  /// Tracer row for this rank's protocol-phase spans (pid = rank, tid 0).
  telemetry::TrackId trace_track() const { return trace_track_; }

 private:
  friend class Communicator;
  void setup_workers();
  void setup_subgroups();
  /// Control-QP (`ctrl` true: recycles the receive credit) and data-QP
  /// receive completions: op id 0 feeds the detector, any other id goes to
  /// its op's on_ctrl.
  void on_msg_cqe(const rdma::Cqe& cqe, bool ctrl);
  void on_data_send_cqe(const rdma::Cqe& cqe);
  void on_chunk_cqe(std::size_t subgroup, const rdma::Cqe& cqe);

  Communicator& comm_;
  std::size_t rank_;
  fabric::NodeId host_;
  rdma::Nic& nic_;
  exec::DatapathCosts costs_;
  exec::DatapathCosts send_costs_;
  exec::DatapathCosts cpu_costs_;  // app worker always runs on the host CPU

  exec::Worker* app_worker_ = nullptr;
  std::vector<exec::Worker*> send_workers_;
  std::vector<exec::Worker*> recv_workers_;
  telemetry::TrackId trace_track_ = 0;

  rdma::Cq* ctrl_rcq_ = nullptr;
  rdma::Cq* data_rcq_ = nullptr;
  rdma::Cq* data_scq_ = nullptr;
  // Indexed by peer rank (sized lazily to the communicator); ctrl_qp() runs
  // once per control message, so the lookup is a plain vector load.
  std::vector<rdma::RcQp*> ctrl_qps_;
  std::vector<rdma::RcQp*> data_qps_;
  std::vector<Subgroup> subgroups_;
};

// ---------------------------------------------------------------------------
// OpBase: a collective instance spanning all ranks
// ---------------------------------------------------------------------------

class OpBase {
 public:
  OpBase(Communicator& comm, std::string name);
  OpBase(const OpBase&) = delete;  // protocol callbacks hold `this`
  OpBase& operator=(const OpBase&) = delete;
  virtual ~OpBase();

  std::uint16_t id() const { return id_; }
  const std::string& name() const { return name_; }
  bool done() const;
  /// The settled verdict; only valid once done().
  const OpResult& result() const {
    MCCL_CHECK(done());
    return res_;
  }
  const Phases& rank_phases(std::size_t r) const { return phases_[r]; }
  bool rank_crashed(std::size_t r) const { return crashed_[r] != 0; }

  /// Launches the op (records the start time, posts initial tasks).
  virtual void start() = 0;
  /// Byte-for-byte output validation (true in synthetic mode). settle()
  /// runs it once into result().data_verified; public as the reference
  /// check.
  virtual bool verify() const = 0;

  /// Completion hook for non-blocking drivers (the cluster scheduler): runs
  /// exactly once, from inside the engine, as the last step of settle(), so
  /// result() is final — whether the op completed, failed, or was settled
  /// by crashes. Set before or right after start(); the callback may start
  /// new ops but must not destroy this one.
  void set_on_done(std::function<void(OpBase&)> fn) { on_done_ = std::move(fn); }

  /// Physical-crash channel (from the cluster's fault plane): settle the
  /// dead rank's completion accounting so survivors alone gate done().
  /// Protocol repair is NOT triggered here — survivors act only on what
  /// their failure detector confirms (on_peer_confirmed_dead).
  void note_rank_crashed(std::size_t r);
  /// Detector channel: `observer` has confirmed `peer` dead. Crash-tolerant
  /// ops override this to repair their rings; the P2P baselines fail once a
  /// survivor is left waiting on the dead peer. The default ignores it.
  virtual void on_peer_confirmed_dead(std::size_t observer,
                                      std::size_t peer) {
    (void)observer;
    (void)peer;
  }
  /// Control-QP or data-QP message `msg` from `src` arrived at rank `r`
  /// (Endpoint dispatch by op id). The default fails: an op that sends no
  /// control messages must never receive one.
  virtual void on_ctrl(std::size_t r, const CtrlMsg& msg, std::size_t src,
                       const rdma::Cqe& cqe);
  /// Data-send CQ completion (signaled send or RDMA Read) at rank `r` whose
  /// wr_id names this op. The default ignores it: not every op tracks them.
  virtual void on_send_done(std::size_t r, const rdma::Cqe& cqe) {
    (void)r;
    (void)cqe;
  }

 protected:
  void mark_started();
  void rank_done(std::size_t r);
  /// The cluster's telemetry bundle (metrics / tracer / flight recorder).
  telemetry::Telemetry& telem();
  /// Watchdog path: records the error, marks every unfinished rank complete
  /// at the current time so done() holds, and freezes further protocol
  /// callbacks behind res_.failed.
  void fail_op(std::string error);

  /// Reduce-Scatter check for verify(): every surviving rank r's buffer
  /// `recvbuf(r)` holds the sum of all ranks' block r (true when timing-only).
  bool verify_reduce_scatter(
      const std::function<std::uint64_t(std::size_t)>& recvbuf,
      std::uint64_t block_bytes) const;

  Communicator& comm_;
  std::string name_;
  std::uint16_t id_;
  /// The op's one result record. Protocol code writes its counters, start,
  /// rank_finish (0 = unfinished), failed/error and missing_blocks here;
  /// settle() derives the rest once done() holds.
  OpResult res_;
  std::vector<Phases> phases_;
  std::size_t completed_ = 0;
  std::vector<char> crashed_;  // physically crashed ranks

 private:
  /// Runs exactly once, inside the engine, at the event that makes done()
  /// true: finalizes res_, verifies, adapts the cutoff, publishes coll.*,
  /// releases the detector and fires on_done.
  void settle();
  bool settled_ = false;
  std::uint64_t rnr_base_ = 0;  // communicator RNR drops at mark_started()
  std::function<void(OpBase&)> on_done_;
};

// ---------------------------------------------------------------------------
// Communicator
// ---------------------------------------------------------------------------

class Communicator {
 public:
  Communicator(Cluster& cluster, std::vector<fabric::NodeId> hosts,
               CommConfig config = {});
  ~Communicator();

  Cluster& cluster() { return cluster_; }
  const CommConfig& config() const { return config_; }
  std::size_t size() const { return eps_.size(); }
  Endpoint& ep(std::size_t rank) { return *eps_[rank]; }
  std::size_t rank_of_host(fabric::NodeId host) const;
  fabric::McastGroupId subgroup_group(std::size_t s) const {
    return groups_[s];
  }
  bool data_mode() const;  // false when the cluster runs payload-free

  /// Floor of the effective cutoff alpha. After an op that observed loss
  /// the alpha halves, down to this floor; after a clean op it doubles,
  /// back up to `config().cutoff_alpha` (note_op_loss). Recovery starts
  /// sooner on a fabric known to be misbehaving.
  static constexpr Time kCutoffAlphaMin = 25 * kMicrosecond;
  /// Cutoff slack currently in effect: equal to `config().cutoff_alpha`
  /// until an op observes loss, then adaptively tightened.
  Time effective_cutoff_alpha() const { return adaptive_alpha_; }

  // --- crash tolerance -------------------------------------------------------
  /// The lease-based failure detector; null when disabled in the config.
  FailureDetector* detector() { return detector_.get(); }
  /// Multicast subgroup re-balancing: between ops, re-pins every rail-pinned
  /// subgroup whose rail plane has unhealthy links onto the healthiest rail
  /// (strictly fewer unhealthy dirs). No-op while any of this
  /// communicator's ops is in flight, on single-rail fabrics, or without
  /// the cluster's health monitor (Cluster::health()). Called on every
  /// collective start; public so chaos drivers can force a decision point.
  void rebalance_subgroups();
  std::uint64_t subgroup_repins() const { return subgroup_repins_; }
  /// Aligns every member rank's host-memory bump pointer to the team-wide
  /// max before an op's symmetric buffer allocations. A single-tenant
  /// cluster is a no-op (all cursors already equal); with N communicators
  /// on overlapping host sets it restores the identical-offset invariant
  /// the mcast fetch layer and UC multicast writes rely on. Called on
  /// every collective start.
  void align_symmetric_heap();
  /// Physical truth from the fault plane: has this rank's host crashed?
  /// Used for op accounting and result reporting only — the protocol's own
  /// membership decisions go through the detector.
  bool rank_host_crashed(std::size_t rank) const {
    return cluster_.host_crashed(static_cast<std::size_t>(eps_[rank]->host()));
  }
  /// Membership view for new ops: a rank is presumed dead once its host
  /// crashed or any survivor's detector confirmed it. start_allgather on a
  /// shrunk communicator sources blocks from the presumed-alive ranks only.
  bool rank_presumed_dead(std::size_t rank) const {
    return rank_host_crashed(rank) ||
           (detector_ && detector_->confirmed_by_any(rank));
  }
  std::size_t presumed_alive() const;
  /// Op-lifecycle hooks (detector and cluster health-monitor activation
  /// refcounts).
  void note_op_started();
  void note_op_finished();
  /// Detector notice: `observer` confirmed `peer` dead. Forwards to every
  /// op in flight when the notice arrives (OpBase::on_peer_confirmed_dead);
  /// an op that an on_done callback starts during the fan-out is skipped.
  void notify_peer_dead(std::size_t observer, std::size_t peer);
  /// Takes the next fast-path op tag (8 bits, 1..255, recycled) for `op`,
  /// which owns it until a later op claims it again. Validate builds report
  /// "coll.tag_alias" when the previous owner is still running.
  std::uint8_t claim_mcast_tag(McastCollective* op);

  // --- non-blocking API ------------------------------------------------------
  OpBase& start_broadcast(std::size_t root, std::uint64_t bytes,
                          BcastAlgo algo);
  OpBase& start_allgather(std::uint64_t bytes, AllgatherAlgo algo);
  OpBase& start_reduce_scatter(std::uint64_t block_bytes,
                               ReduceScatterAlgo algo);

  // --- blocking API ----------------------------------------------------------
  OpResult broadcast(std::size_t root, std::uint64_t bytes, BcastAlgo algo);
  OpResult allgather(std::uint64_t bytes, AllgatherAlgo algo);
  OpResult reduce_scatter(std::uint64_t block_bytes, ReduceScatterAlgo algo);

  /// Runs the simulation until `op` completes and returns its result.
  OpResult finish(OpBase& op);

  /// Pairwise RC QP management (both directions created and connected).
  /// ctrl_qp/data_qp are cached communicator-wide meshes: the control plane
  /// multiplexes ops by immediate, and the fetch layer issues only RDMA
  /// Reads (no receive-WR consumption), so sharing is safe.
  rdma::RcQp& ctrl_qp(std::size_t from, std::size_t to);
  rdma::RcQp& data_qp(std::size_t from, std::size_t to);
  /// Dedicated (uncached) QP pair for one op's two-sided data stream —
  /// concurrent baselines must not interleave WR consumption on a shared
  /// receive queue. Returns (a-side, b-side).
  std::pair<rdma::RcQp*, rdma::RcQp*> create_qp_pair(std::size_t a,
                                                     std::size_t b);

  /// Stamps a QP with this communicator's tenant/QoS attributes (every QP
  /// creation site in the communicator goes through here). Control QPs
  /// arbitrate at band 0 regardless of tenant class — any tenant's tokens
  /// beat any tenant's bulk, mirroring the fabric's strict control lane.
  void tag_qp(rdma::Qp& qp, bool ctrl) const {
    qp.set_qos(config_.tenant, config_.qos_class, ctrl);
  }

 private:
  friend class Endpoint;
  friend class OpBase;
  /// The op with this id, or null (id 0, or an op of another communicator).
  OpBase* find_op(std::uint16_t id) const {
    return id < op_by_id_.size() ? op_by_id_[id] : nullptr;
  }
  /// Op-id-0 control message at rank `r`: heartbeats and kDead notices
  /// feed the detector. Requires the detector.
  void on_detector_msg(std::size_t r, const CtrlMsg& msg, std::size_t src);
  void note_op_loss(bool lossy);
  /// RNR drops on every rank's multicast subgroup QPs.
  std::uint64_t rnr_drops() const;
  void on_host_crash(fabric::NodeId host, bool crashed);

  Cluster& cluster_;
  CommConfig config_;
  Time adaptive_alpha_ = 0;  // set from config in the constructor
  std::vector<std::unique_ptr<Endpoint>> eps_;
  std::unordered_map<fabric::NodeId, std::size_t> rank_of_;
  std::vector<fabric::McastGroupId> groups_;  // one per subgroup
  std::vector<std::unique_ptr<OpBase>> ops_;
  // Op tables, one entry per op (not per rank). Every op lives in ops_
  // until the communicator dies, so an entry never dangles. Indexed by op
  // id (below 4096, grown on demand; 0 stays null) ...
  std::vector<OpBase*> op_by_id_;
  // ... and by the 8-bit fast-path tag (0 never claimed).
  std::array<McastCollective*, 256> op_by_tag_{};
  std::unique_ptr<FailureDetector> detector_;
  std::uint64_t subgroup_repins_ = 0;
  std::uint64_t crash_listener_id_ = 0;
  std::uint8_t next_tag_ = 1;
};

}  // namespace mccl::coll
