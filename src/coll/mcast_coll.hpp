// The paper's contribution: constant-time reliable Broadcast over unreliable
// hardware multicast (Section III) and the bandwidth-optimal Allgather built
// as a composition of such Broadcasts (Section IV).
//
// One class implements both: a Broadcast is the single-root special case.
// Each rank's receive side is in one phase at a time (Phase); Fig 10's
// breakdown is cut at the phase boundaries:
//
//   kBarrier -> kFastPath --------------> kHandshake -> kDone
//                   `--> kRecovery -------^
//
//   kBarrier    RNR barrier (dissemination over the RC control plane).
//   kFastPath   receive workers poll subgroup CQs: PSN from the CQE
//               immediate -> bitmap; UD chunks are DMA-copied from the
//               staging ring, UC(-multicast) chunks land directly. The
//               cutoff timer (N/B_link + alpha) runs.
//   kRecovery   the cutoff fired with chunks missing, or a crash re-root:
//               fetch-ring recovery — ask the left neighbor, await its ACK
//               (deferred until *it* holds the block: recursion toward the
//               root), then selectively RDMA-Read the missing chunks.
//   kHandshake  data complete: Final sent left, awaiting the right
//               neighbor's Final (it may still fetch from us until then).
//   kDone       buffer released; rank done.
//
// enter() makes every phase change and checks it against this table
// ("coll.phase_order"). Beside the phases run a root's send half (once
// chain-activated, send workers post its multicast sends in doorbell
// batches; the last completion forwards the chain token; kDone waits for
// it) and crash repair, which may start in any phase.
//
// Hardening beyond the paper (fault injection, see fabric/faults.hpp): a
// fetch request that is not ACKed is retried with exponential backoff; after
// `kFetchRetryCap` attempts the rank fails over to the target's own left
// neighbor (skipping the unresponsive rank — the chain still terminates at
// the block root, which owns its block). Every choice of fetch target, the
// first one at cutoff, failover and crash repair, is one leftward walk
// (fetch_target_of). An op-level watchdog (a multiple of
// the cutoff deadline) dumps protocol state and fails the op with a
// structured OpResult error when no recovery path exists (e.g. a partitioned
// fabric), instead of hanging the simulation.
//
// Crash tolerance (this layer's second hardening pass): a rank's membership
// view is its failure-detector view (FailureDetector::dead, read live; no
// detector means nobody dies). Confirmations reach a running op through
// on_peer_confirmed_dead. On confirming a peer dead, a rank
//  - credits the barrier rounds whose token sender died,
//  - self-activates its multicast if the chain predecessor died (and chain
//    tokens route around dead successors),
//  - fails its fetches over past the dead target, discounting RDMA Reads
//    that can no longer complete,
//  - re-closes the final-handshake ring over survivors (resending its Final
//    when its left-alive neighbor changes),
//  - and, when a *block root* died, runs the root-repair protocol: every
//    survivor reports to the block's coordinator (first alive rank right of
//    the dead root) whether it holds the block in full; the coordinator
//    re-roots fetches at the lowest-rank surviving full holder, or declares
//    the block dead — survivors then complete degraded (OpResult::kPartial
//    with the exact missing-block set) instead of hanging or failing whole.
// Ranks that physically crashed are settled by OpBase::note_rank_crashed;
// the watchdog remains the backstop for the undetectable cases.
#pragma once

#include <array>
#include <vector>

#include "src/coll/chunk_map.hpp"
#include "src/coll/communicator.hpp"
#include "src/coll/sequencer.hpp"
#include "src/common/bitmap.hpp"

namespace mccl::coll {

class McastCollective : public OpBase {
 public:
  struct Params {
    std::vector<std::size_t> roots;  // block owners; block i = roots[i]
    std::uint64_t block_bytes = 0;
  };

  McastCollective(Communicator& comm, std::string name, Params params);

  /// A rank's receive-side phase, in protocol order (see the file comment
  /// for the legal transitions).
  enum class Phase : std::uint8_t { kBarrier, kFastPath, kRecovery,
                                    kHandshake, kDone };
  static constexpr std::size_t kPhases = 5;

  /// Fetch requests sent to one target before failing over to its left
  /// neighbor (skipping the unresponsive rank; the chain still ends at the
  /// block root, which always holds its own block).
  static constexpr std::size_t kFetchRetryCap = 3;
  /// Hard per-op deadline: this many times the worst rank's cutoff
  /// deadline. On expiry the op dumps the flight recorder and fails with
  /// a structured error instead of hanging the simulation (e.g. a
  /// partitioned fabric with no surviving path).
  static constexpr double kWatchdogMultiplier = 50.0;

  void start() override;
  bool verify() const override;
  void on_peer_confirmed_dead(std::size_t observer,
                              std::size_t peer) override;

  std::uint64_t recvbuf_addr(std::size_t rank) const {
    return st_[rank].recvbuf;
  }

  /// Validate-build audit of one rank's bookkeeping: chunk conservation
  /// (bitmap popcounts == received counter, per-block counts within bounds,
  /// received <= expected), the satisfied-block count (== a recount of full
  /// or abandoned foreign blocks) and barrier-credit balance (at most one
  /// real token plus one death credit outstanding per round). Reports
  /// "coll.chunk_conservation" / "coll.blocks_satisfied" /
  /// "coll.barrier_credit_balance"; returns false if anything was reported.
  /// Always true in regular builds.
  bool validate_rank(std::size_t r) const;

  // --- validate-build fault-injection hooks (tests/test_validate.cpp) -----
  /// Skews the received-chunk counter away from the bitmaps so
  /// validate_rank trips "coll.chunk_conservation".
  void test_skew_received(std::size_t r, std::size_t delta) {
    st_[r].received += delta;
  }
  /// Skews the satisfied-block count away from the per-block state so the
  /// next completion check trips "coll.blocks_satisfied".
  void test_skew_blocks_satisfied(std::size_t r, std::size_t delta) {
    st_[r].blocks_satisfied += delta;
  }
  /// Over-credits a barrier round past the legal 2-token ceiling so
  /// validate_rank trips "coll.barrier_credit_balance".
  void test_overcredit_barrier(std::size_t r, std::size_t round) {
    st_[r].barrier_seen[round] += 3;
  }
  /// Feeds a census report straight into the coordinator state machine —
  /// a full -> not-full replay trips "coll.census_regression".
  void test_inject_block_report(std::size_t r, std::size_t block,
                                std::size_t src, bool holds_full) {
    on_block_report(r, block, src, holds_full);
  }
  /// Moves rank `r` straight to phase `to` — an edge the table lacks trips
  /// "coll.phase_order".
  void test_enter(std::size_t r, Phase to) { enter(r, to); }

 private:
  friend class Endpoint;  // fast-path chunk CQEs call on_chunk directly

  /// One rank's fetch of one block through the hardened slow path.
  struct BlockFetch {
    bool active = false;
    bool acked = false;
    std::size_t target = 0;    // rank currently being asked
    std::size_t attempts = 0;  // requests sent to the current target
    std::uint64_t gen = 0;     // invalidates in-flight retry timers
    // RDMA Reads posted to the ACKing target and not yet completed. If the
    // target crashes, these never complete; the repair path discounts them
    // from pending_fetches and restarts the walk.
    std::size_t reads_outstanding = 0;
  };

  /// An entry time of a phase the rank has not entered.
  static constexpr Time kNever = -1;

  struct RankState {
    std::uint64_t sendbuf = 0;
    std::uint64_t recvbuf = 0;
    int root_index = -1;  // block owned by this rank, -1 if leaf only

    // Receive-side phase and the time the rank entered each phase (kNever
    // if it has not). Only enter() writes them. A rank that leaves
    // kRecovery keeps its entry time: the recovery span is cut from it.
    Phase phase = Phase::kBarrier;
    std::array<Time, kPhases> entered;

    // Barrier.
    std::size_t barrier_round = 0;
    std::vector<std::size_t> barrier_seen;

    // Receive.
    std::vector<Bitmap> bitmaps;  // per subgroup, indexed by global chunk id
    std::size_t received = 0;
    std::size_t expected = 0;
    // Foreign blocks (all but the one this rank roots) and how many of
    // them are full or abandoned; data is complete when the two meet.
    std::size_t foreign_blocks = 0;
    std::size_t blocks_satisfied = 0;
    // DMA copies still draining: a root's local copy of its own block,
    // then one per UD chunk in the staging ring.
    std::size_t pending_copies = 0;

    // Send (roots only). Done when every subgroup's last send completed;
    // it may finish after the rank's data is complete.
    bool send_active = false;
    std::size_t subgroups_done = 0;
    Time send_done_at = 0;

    // Reliability. Fetch coordination is *per block*: the fetch target
    // acks a block once it holds all of that block's chunks, so every
    // request chain terminates at the block's root — deadlock-free even
    // when every rank lost chunks (the worst case degenerates to a ring
    // Allgather, as the paper notes). The target starts as the left
    // neighbor and walks further left on failover.
    std::uint64_t timer_gen = 0;
    std::size_t pending_fetches = 0;
    std::vector<std::size_t> block_received;  // chunks held per block
    // Ranks whose fetch request for a block is deferred until we hold it.
    std::vector<std::vector<std::size_t>> fetch_waiters;
    std::vector<BlockFetch> fetch;  // our own per-block fetch progress

    // Handshake. Finals are latched per source: after ring repair the
    // final may arrive from any survivor, not just the static right
    // neighbor, and completion waits on the *right-alive* neighbor. The
    // Final goes out when the rank enters kHandshake.
    std::vector<char> finals_from;
    std::size_t final_sent_to = static_cast<std::size_t>(-1);

    // Crash repair (deaths come from peer_dead(), never physical truth).
    // It overlaps the phases; repair_begin is kNever until it starts.
    Time repair_begin = kNever;
    std::vector<char> barrier_credited;  // per round: dead-sender credit
    std::vector<std::size_t> block_root;  // current root per block (re-root)
    std::vector<char> block_abandoned;    // kBlockDead received
    // Coordinator state (this rank may be a block's coordinator): flat
    // roots x P matrix, entry [block * P + rank]: 0 = no report,
    // 1 = reported not-full, 2 = full. Flat (one allocation, linear scans)
    // rather than a vector-of-vectors.
    std::vector<std::uint8_t> block_reports;
    std::vector<std::uint8_t> block_decision;  // 0 pending, 1 reroot, 2 dead
    std::vector<std::size_t> block_new_root;
  };

  bool is_root(std::size_t r) const { return st_[r].root_index >= 0; }
  /// Whether `r` holds every chunk of `block`.
  bool holds_block(std::size_t r, std::size_t block) const {
    return st_[r].block_received[block] == map_.chunks_per_block();
  }
  Time now() { return comm_.cluster().engine().now(); }
  /// Records `event` for rank `r` in the flight recorder and, if `instant`
  /// names one, marks it on the rank's trace row as well.
  void note(std::size_t r, telemetry::EventCat cat, const char* event,
            std::uint64_t a, std::uint64_t b, const char* instant = nullptr);
  /// An instant named `name` on rank `r`'s trace row (tracing on only).
  void trace_instant(std::size_t r, const char* name);
  /// The one place a rank changes phase: checks the edge against the table
  /// ("coll.phase_order"), stamps the entry time and, on kDone, fills the
  /// rank's Fig 10 phases and trace spans.
  void enter(std::size_t r, Phase to);
  /// Whether `r`'s failure detector has confirmed `p` dead (crash-stop:
  /// final once true). False without a detector.
  bool peer_dead(std::size_t r, std::size_t p) const;
  std::size_t left_of(std::size_t r) const {
    return (r + comm_.size() - 1) % comm_.size();
  }
  std::size_t right_of(std::size_t r) const {
    return (r + 1) % comm_.size();
  }
  /// First rank left of `r` that `r` considers alive; `r` if sole survivor.
  std::size_t left_alive_of(std::size_t r) const;
  /// First rank right of `r` that `r` considers alive; `r` if sole survivor.
  std::size_t right_alive_of(std::size_t r) const;

  // Barrier.
  void barrier_kick(std::size_t r);
  void barrier_send_round(std::size_t r);
  void barrier_advance(std::size_t r);
  void on_barrier_done(std::size_t r);
  /// Credits barrier rounds whose token sender this rank considers dead.
  void credit_barrier(std::size_t r);

  // Send path.
  void activate_send(std::size_t r);
  void send_batch(std::size_t r, std::size_t sg, std::size_t pos);
  void on_subgroup_sent(std::size_t r, std::size_t sg);

  // Receive path.
  /// A fast-path CQE of this op. Returns true iff a staging copy now holds
  /// the CQE's UD staging slot; the copy's completion reposts it.
  bool on_chunk(std::size_t r, std::uint32_t chunk, std::size_t sg,
                const rdma::Cqe& cqe);
  bool set_chunk(std::size_t r, std::uint32_t id);
  void check_data_complete(std::size_t r);
  /// Every foreign block either fully received or abandoned. O(1): reads
  /// the blocks_satisfied count (checked against a full scan in validate
  /// builds, "coll.blocks_satisfied").
  bool all_blocks_satisfied(std::size_t r) const;
  /// Counts `block` into blocks_satisfied if it is foreign to `r`.
  void satisfy_block(std::size_t r, std::size_t block);
  /// The O(blocks) recount that blocks_satisfied replaces (validators).
  std::size_t scan_blocks_satisfied(std::size_t r) const;
  /// Sends this rank's Final to its current left-alive neighbor unless it
  /// already went there; after ring repair that re-sends it. Returns true
  /// iff a Final went out.
  bool send_final(std::size_t r);

  // Reliability.
  void arm_cutoff(std::size_t r);
  void on_cutoff(std::size_t r, std::uint64_t gen);
  void on_block_complete(std::size_t r, std::size_t block);
  /// Aims `r`'s fetch of `block` at `target` and sends the first request;
  /// `event` names the flight-recorder entry.
  void start_fetch(std::size_t r, std::size_t block, std::size_t target,
                   const char* event = "fetch_start");
  /// Ends `r`'s fetch of `block`: cancels its retry timer and discounts
  /// the RDMA Reads still posted to its target, which can no longer
  /// complete.
  void stop_fetch(std::size_t r, std::size_t block);
  void arm_fetch_retry(std::size_t r, std::size_t block);
  void on_fetch_retry(std::size_t r, std::size_t block, std::uint64_t gen);
  void on_fetch_ack(std::size_t r, std::size_t block, std::size_t src);
  /// Fetch-layer RDMA Read completion (wr_id: | op id:32 | chunk:32 |).
  void on_send_done(std::size_t r, const rdma::Cqe& cqe) override;

  // Crash repair.
  void note_repair(std::size_t r);
  void repair_fetches(std::size_t r, std::size_t dead);
  std::size_t coordinator_of(std::size_t r, std::size_t block) const;
  void send_block_report(std::size_t r, std::size_t block);
  void on_block_report(std::size_t r, std::size_t block, std::size_t src,
                       bool holds_full);
  void maybe_decide_block(std::size_t r, std::size_t block);
  void send_decision_to(std::size_t r, std::size_t block, std::size_t peer);
  /// The dead root's block now lives at `new_root`: an incomplete rank
  /// enters recovery and fetches it from there (the multicast will never
  /// deliver it).
  void apply_reroot(std::size_t r, std::size_t block, std::size_t new_root);
  void apply_block_dead(std::size_t r, std::size_t block);
  /// The fetch walk: the first survivor left of `from` (never `r` itself),
  /// walking until `stop` — `r` for a first target or a crash repair, the
  /// current target for a failover. Returns `r` when the walk finds nobody.
  std::size_t fetch_target_of(std::size_t r, std::size_t from,
                              std::size_t stop) const;

  // Watchdog (op-level hard deadline).
  Time cutoff_deadline(std::size_t r) const;
  void arm_watchdog();
  void on_watchdog();

  // Handshake / completion.
  void on_ctrl(std::size_t r, const CtrlMsg& msg, std::size_t src,
               const rdma::Cqe& cqe) override;
  void check_op_done(std::size_t r);

  /// Non-owning view of one subgroup's block-local chunk indices (CSR row).
  struct IdxSpan {
    const std::uint32_t* ptr;
    std::size_t count;
    std::size_t size() const { return count; }
    bool empty() const { return count == 0; }
    std::uint32_t operator[](std::size_t i) const { return ptr[i]; }
  };
  IdxSpan sg_indices(std::size_t sg) const {
    return IdxSpan{sg_indices_flat_.data() + sg_off_[sg],
                   sg_off_[sg + 1] - sg_off_[sg]};
  }

  Params p_;
  ChunkMap map_;
  ChainSchedule schedule_;
  std::uint8_t tag_;
  std::uint32_t rkey_;
  std::size_t barrier_rounds_;
  std::vector<RankState> st_;
  // Block-local chunk indices per subgroup (shared by all blocks), CSR:
  // subgroup sg spans sg_indices_flat_[sg_off_[sg] .. sg_off_[sg + 1]).
  // The send path walks one row per batch — contiguous, no outer vector.
  std::vector<std::uint32_t> sg_indices_flat_;
  std::vector<std::uint32_t> sg_off_;
};

}  // namespace mccl::coll
