#include "src/coll/mcast_coll.hpp"

#include <algorithm>
#include <bit>

#include "src/debug/validate.hpp"
#include "src/sim/callback.hpp"

#include "src/coll/pattern.hpp"

namespace mccl::coll {

namespace {
using EventCat = telemetry::EventCat;
using Phase = McastCollective::Phase;

constexpr std::size_t idx(Phase p) { return static_cast<std::size_t>(p); }
constexpr unsigned bit(Phase p) { return 1u << idx(p); }

// The phase table: bit t of kPhaseEdges[f] is set iff a rank may move from
// phase f to phase t. Every rank enters kBarrier once, at the op start.
constexpr unsigned kPhaseEdges[McastCollective::kPhases] = {
    bit(Phase::kFastPath),                           // kBarrier
    bit(Phase::kRecovery) | bit(Phase::kHandshake),  // kFastPath
    bit(Phase::kHandshake),                          // kRecovery
    bit(Phase::kDone),                               // kHandshake
    0,                                               // kDone
};
constexpr const char* kPhaseNames[McastCollective::kPhases] = {
    "barrier", "fast_path", "recovery", "handshake", "done"};
}  // namespace

McastCollective::McastCollective(Communicator& comm, std::string name,
                                 Params params)
    : OpBase(comm, std::move(name)),
      p_(std::move(params)),
      map_(p_.block_bytes, comm.config().chunk_bytes,
           comm.config().subgroups, p_.roots.size()),
      schedule_(p_.roots.size(), std::min(comm.config().chains,
                                          p_.roots.size())),
      tag_(comm.claim_mcast_tag(this)),
      rkey_(comm.cluster().next_shared_rkey()),
      barrier_rounds_(std::bit_width(comm.size() - 1)) {  // ceil(log2 P)
  const std::size_t P = comm_.size();
  MCCL_CHECK(P >= 2);
  MCCL_CHECK(!p_.roots.empty());
  if (comm_.config().transport == Transport::kUd) {
    MCCL_CHECK_MSG(comm_.config().chunk_bytes <= rdma::Nic::kMtu,
                   "UD chunks must fit in the MTU");
  }
  MCCL_CHECK_MSG(map_.total_chunks() < (1u << kChunkBits),
                 "send buffer too large for the PSN immediate bits");

  // Block-local chunk index -> subgroup partition (identical for every
  // block; precomputed once). Counting sort into CSR: ascending i within
  // each subgroup, exactly the order the old per-subgroup push_backs gave.
  sg_off_.assign(map_.subgroups + 1, 0);
  for (std::size_t i = 0; i < map_.chunks_per_block(); ++i)
    ++sg_off_[map_.subgroup_of(map_.id_of(0, i)) + 1];
  for (std::size_t sg = 0; sg < map_.subgroups; ++sg)
    sg_off_[sg + 1] += sg_off_[sg];
  sg_indices_flat_.resize(map_.chunks_per_block());
  std::vector<std::uint32_t> cursor(sg_off_.begin(), sg_off_.end() - 1);
  for (std::size_t i = 0; i < map_.chunks_per_block(); ++i)
    sg_indices_flat_[cursor[map_.subgroup_of(map_.id_of(0, i))]++] =
        static_cast<std::uint32_t>(i);

  st_.resize(P);
  const bool fill = comm_.data_mode();
  for (std::size_t r = 0; r < P; ++r) {
    RankState& s = st_[r];
    Endpoint& ep = comm_.ep(r);
    auto& mem = ep.nic().memory();
    // Symmetric allocation: identical offsets on every rank let the fetch
    // layer and UC multicast writes target one agreed remote address.
    s.sendbuf = mem.alloc(p_.block_bytes);
    s.recvbuf = mem.alloc(p_.block_bytes * map_.blocks);
    MCCL_CHECK_MSG(s.recvbuf == st_[0].recvbuf,
                   "asymmetric receive buffer allocation");
    ep.nic().mrs().register_with_rkey(s.recvbuf,
                                      p_.block_bytes * map_.blocks, rkey_);
    for (std::size_t b = 0; b < p_.roots.size(); ++b)
      if (p_.roots[b] == r) s.root_index = static_cast<int>(b);
    // Only roots read their send buffer (local copy and multicast sends); a
    // reroot fetches the block from the new root's receive buffer.
    if (fill && s.root_index >= 0)
      fill_pattern(mem, s.sendbuf, p_.block_bytes, id(), r);

    s.barrier_seen.assign(barrier_rounds_, 0);
    s.barrier_credited.assign(barrier_rounds_, 0);
    s.block_received.assign(p_.roots.size(), 0);
    s.fetch_waiters.assign(p_.roots.size(), {});
    s.fetch.assign(p_.roots.size(), BlockFetch{});
    s.finals_from.assign(P, 0);
    s.block_root = p_.roots;
    s.block_abandoned.assign(p_.roots.size(), 0);
    s.block_reports.assign(p_.roots.size() * P, 0);
    s.block_decision.assign(p_.roots.size(), 0);
    s.block_new_root.assign(p_.roots.size(), 0);
    s.slow_reported.assign(p_.roots.size(), 0);
    s.slow_decision.assign(p_.roots.size(), 0);
    s.bitmaps.reserve(map_.subgroups);
    for (std::size_t sg = 0; sg < map_.subgroups; ++sg)
      s.bitmaps.emplace_back(map_.total_chunks());
    s.foreign_blocks = p_.roots.size() - (s.root_index >= 0 ? 1 : 0);
    s.expected = s.foreign_blocks * map_.chunks_per_block();
    s.pending_copies = s.root_index >= 0 ? 1 : 0;  // the root's own block
    s.entered.fill(kNever);
  }
}

void McastCollective::start() {
  mark_started();
  if (done()) return;  // every rank was already crashed
  arm_watchdog();
  for (std::size_t r = 0; r < comm_.size(); ++r) {
    if (rank_crashed(r)) continue;  // dead hosts run nothing
    enter(r, Phase::kBarrier);
    barrier_kick(r);
    if (is_root(r)) {
      // Roots place their own block into the receive region through the
      // local DMA engine (also the fetch-layer source of last resort).
      RankState& s = st_[r];
      Endpoint& ep = comm_.ep(r);
      const std::uint64_t dst =
          s.recvbuf + static_cast<std::size_t>(s.root_index) * p_.block_bytes;
      ep.nic().post_local_copy(s.sendbuf, dst, p_.block_bytes, [this, r] {
        if (res_.failed || rank_crashed(r)) return;
        RankState& s2 = st_[r];
        --s2.pending_copies;
        const auto own = static_cast<std::size_t>(s2.root_index);
        s2.block_received[own] = map_.chunks_per_block();
        on_block_complete(r, own);
        check_data_complete(r);
      });
    }
  }
}

bool McastCollective::peer_dead(std::size_t r, std::size_t p) const {
  const FailureDetector* det = comm_.detector();
  return det != nullptr && det->dead(r, p);
}

bool McastCollective::peer_lagging(std::size_t r, std::size_t p) const {
  const HealthMonitor* hm = comm_.health();
  return hm != nullptr && hm->slow(r, p);
}

void McastCollective::note(std::size_t r, EventCat cat, const char* event,
                           std::uint64_t a, std::uint64_t b,
                           const char* instant) {
  telem().recorder.record(now(), static_cast<std::int32_t>(r), cat, event, a,
                          b);
  if (instant != nullptr) trace_instant(r, instant);
}

void McastCollective::trace_instant(std::size_t r, const char* name) {
  telemetry::Tracer& tracer = telem().tracer;
  if (tracer.enabled())
    tracer.instant(comm_.ep(r).trace_track(), name, now(), "coll");
}

std::size_t McastCollective::left_alive_of(std::size_t r) const {
  std::size_t x = left_of(r);
  while (x != r && peer_dead(r, x)) x = left_of(x);
  return x;
}

std::size_t McastCollective::right_alive_of(std::size_t r) const {
  std::size_t x = right_of(r);
  while (x != r && peer_dead(r, x)) x = right_of(x);
  return x;
}

// --------------------------------------------------------------------------
// Barrier (dissemination): round k sends to (r + 2^k) mod P and waits for a
// token from (r - 2^k) mod P. Completes in ceil(log2 P) rounds for any P.
// --------------------------------------------------------------------------

void McastCollective::barrier_kick(std::size_t r) {
  // P >= 2, so there is at least one round.
  credit_barrier(r);  // peers already dead at op start never send tokens
  barrier_send_round(r);
}

void McastCollective::barrier_send_round(std::size_t r) {
  RankState& s = st_[r];
  const std::size_t P = comm_.size();
  const std::size_t dist = std::size_t{1} << s.barrier_round;
  const std::size_t dst = (r + dist) % P;
  if (!peer_dead(r, dst))
    comm_.ep(r).ctrl_send(dst, {CtrlType::kBarrier, id(),
                                static_cast<std::uint16_t>(s.barrier_round)});
  barrier_advance(r);
}

void McastCollective::credit_barrier(std::size_t r) {
  RankState& s = st_[r];
  const std::size_t P = comm_.size();
  for (std::size_t k = 0; k < barrier_rounds_; ++k) {
    if (s.barrier_credited[k]) continue;
    const std::size_t dist = std::size_t{1} << k;
    const std::size_t sender = (r + P - dist) % P;
    if (!peer_dead(r, sender)) continue;
    // The round-k token sender is dead: grant the token it can no longer
    // send. Credited at most once per round; a token that did get out
    // before the crash leaves a harmless surplus in barrier_seen.
    s.barrier_credited[k] = 1;
    ++s.barrier_seen[k];
    MCCL_VALIDATE_THAT(s.barrier_seen[k] <= 2, "coll.barrier_credit_balance",
                       "rank %zu: round %zu has %zu outstanding tokens "
                       "(max 2: one real + one death credit)",
                       r, k, s.barrier_seen[k]);
  }
}

void McastCollective::barrier_advance(std::size_t r) {
  RankState& s = st_[r];
  while (s.barrier_round < barrier_rounds_ &&
         s.barrier_seen[s.barrier_round] > 0) {
    --s.barrier_seen[s.barrier_round];
    ++s.barrier_round;
    if (s.barrier_round < barrier_rounds_) {
      barrier_send_round(r);
      return;  // continuation driven by the next token
    }
  }
  if (s.barrier_round >= barrier_rounds_ && s.phase == Phase::kBarrier)
    on_barrier_done(r);
}

void McastCollective::on_barrier_done(std::size_t r) {
  RankState& s = st_[r];
  enter(r, Phase::kFastPath);
  arm_cutoff(r);
  if (is_root(r)) {
    const auto my = static_cast<std::size_t>(s.root_index);
    // Chain heads start immediately; a root whose chain predecessor died
    // will never see its activation token and self-activates.
    if (schedule_.is_chain_head(my) || peer_dead(r, p_.roots[my - 1]))
      activate_send(r);
  }
  // Degenerate case: nothing to receive (single-root broadcast at the root).
  check_data_complete(r);
}

// --------------------------------------------------------------------------
// Send path
// --------------------------------------------------------------------------

void McastCollective::activate_send(std::size_t r) {
  RankState& s = st_[r];
  MCCL_CHECK(is_root(r));
  // Idempotent: after ring repair a root can be activated both by a late
  // chain token and by its predecessor's death confirmation.
  if (s.send_active) return;
  s.send_active = true;
  for (std::size_t sg = 0; sg < map_.subgroups; ++sg) send_batch(r, sg, 0);
}

void McastCollective::send_batch(std::size_t r, std::size_t sg,
                                 std::size_t pos) {
  Endpoint& ep = comm_.ep(r);
  const IdxSpan indices = sg_indices(sg);
  if (indices.empty()) {
    on_subgroup_sent(r, sg);
    return;
  }
  const std::size_t batch =
      std::min(comm_.config().send_batch, indices.size() - pos);
  const exec::Cost cost =
      exec::Cost{ep.send_costs().send_post.instr * batch,
                 ep.send_costs().send_post.stall * batch} +
      ep.send_costs().doorbell;
  auto task = [this, r, sg, pos, batch] {
    if (res_.failed || rank_crashed(r)) return;
    Endpoint& ep = comm_.ep(r);
    RankState& s = st_[r];
    const IdxSpan indices = sg_indices(sg);
    Endpoint::Subgroup& g = ep.subgroup(sg);
    const std::size_t block = static_cast<std::size_t>(s.root_index);
    for (std::size_t k = 0; k < batch; ++k) {
      const std::size_t idx = indices[pos + k];
      const std::uint32_t id32 = map_.id_of(block, idx);
      const bool last = pos + k + 1 == indices.size();
      rdma::SendFlags flags;
      flags.imm = encode_chunk_imm(tag_, id32);
      flags.has_imm = true;
      flags.signaled = last;  // doorbell batching: only the tail reports
      flags.wr_id = flags.imm;
      const std::uint64_t laddr = s.sendbuf + map_.send_offset_of(id32);
      const std::uint32_t len = map_.len_of(id32);
      if (comm_.config().transport == Transport::kUd) {
        g.ud->post_send(rdma::UdDest::multicast(comm_.subgroup_group(sg)),
                        laddr, len, flags);
      } else {
        const std::uint64_t raddr = s.recvbuf + map_.offset_of(id32);
        g.uc->post_write(laddr, len, raddr, rkey_, flags);
      }
    }
    if (pos + batch < indices.size()) send_batch(r, sg, pos + batch);
  };
  // Runs once per chunk batch: the capture must stay within the worker
  // queue's inline budget or every batch pays an allocation.
  static_assert(sizeof(task) <= sim::InlineCallback::kInlineBytes);
  ep.send_worker(sg).post(cost, std::move(task));
}

void McastCollective::on_subgroup_sent(std::size_t r, std::size_t sg) {
  (void)sg;
  RankState& s = st_[r];
  if (++s.subgroups_done < map_.subgroups) return;
  s.send_done_at = now();
  // Pass the activation token to the next root in the chain that is still
  // alive. The root after a skipped (dead) one may also self-activate once
  // it confirms the death itself — token and repair are deliberately
  // redundant, and activation is idempotent. A *lagging* successor still
  // gets its token (it must send eventually) but no longer gates the
  // healthy tail: the walk continues to the first non-lagging survivor,
  // which is activated concurrently (chain demotion — the laggard's
  // multicast window overlaps the healthy chain instead of serializing it).
  int next = schedule_.successor(static_cast<std::size_t>(s.root_index));
  while (next >= 0) {
    const std::size_t root = p_.roots[static_cast<std::size_t>(next)];
    if (peer_dead(r, root)) {
      next = schedule_.successor(static_cast<std::size_t>(next));
      continue;
    }
    comm_.ep(r).ctrl_send(root, {CtrlType::kChainToken, id(), 0});
    if (!peer_lagging(r, root)) break;
    ++res_.chain_demotions;
    note(r, EventCat::kAdapt, "chain_demote", root,
         static_cast<std::uint64_t>(next));
    next = schedule_.successor(static_cast<std::size_t>(next));
  }
  check_op_done(r);
}

// --------------------------------------------------------------------------
// Receive path
// --------------------------------------------------------------------------

bool McastCollective::on_chunk(std::size_t r, std::uint32_t chunk,
                               std::size_t sg, const rdma::Cqe& cqe) {
  if (res_.failed || rank_crashed(r)) return false;
  if (cqe.opcode == rdma::CqeOpcode::kSend) {
    on_subgroup_sent(r, sg);
    return false;
  }
  RankState& s = st_[r];
  MCCL_CHECK_MSG(static_cast<int>(map_.block_of(chunk)) != s.root_index,
                 "received a chunk of our own block");
  if (!set_chunk(r, chunk)) return false;  // duplicate (fetch/late race)

  const bool ud = comm_.config().transport == Transport::kUd;
  if (ud) {
    // Staging -> user buffer copy through the NIC DMA engine; the staging
    // slot is reposted only once its bytes have drained. Capture audit:
    // 32 bytes here, the whole of Nic::kCopyDoneBytes — the NIC's own 32
    // bytes (this + src/dst/len) fill the rest of the engine's 64-byte
    // inline cell. post_local_copy rejects a larger capture at compile
    // time.
    Endpoint& ep = comm_.ep(r);
    const std::uint64_t slot = cqe.wr_id;
    const std::uint64_t dst = s.recvbuf + map_.offset_of(chunk);
    ++s.pending_copies;
    ep.nic().post_local_copy(slot, dst, map_.len_of(chunk),
                             [this, r, sg, slot] {
                               RankState& s2 = st_[r];
                               --s2.pending_copies;
                               comm_.ep(r).repost_staging(sg, slot);
                               check_data_complete(r);
                             });
  }
  check_data_complete(r);
  return ud;
}

bool McastCollective::set_chunk(std::size_t r, std::uint32_t id) {
  RankState& s = st_[r];
  Bitmap& bm = s.bitmaps[map_.subgroup_of(id)];
  if (!bm.set(id)) return false;
  ++s.received;
  const std::size_t block = map_.block_of(id);
  ++s.block_received[block];
  // Conservation: the bitmap dedup above is the only admission gate, so a
  // per-block count past the block size (or more chunks than the op
  // expects) means two accounting paths double-counted one chunk.
  MCCL_VALIDATE_THAT(s.block_received[block] <= map_.chunks_per_block(),
                     "coll.chunk_conservation",
                     "rank %zu: block %zu holds %zu chunks but blocks have "
                     "only %zu",
                     r, block, s.block_received[block],
                     map_.chunks_per_block());
  MCCL_VALIDATE_THAT(s.received <= s.expected, "coll.chunk_conservation",
                     "rank %zu: received %zu chunks, expected at most %zu",
                     r, s.received, s.expected);
  if (holds_block(r, block)) {
    if (!s.block_abandoned[block]) satisfy_block(r, block);
    on_block_complete(r, block);
  }
  return true;
}

void McastCollective::satisfy_block(std::size_t r, std::size_t block) {
  RankState& s = st_[r];
  if (static_cast<int>(block) != s.root_index) ++s.blocks_satisfied;
}

void McastCollective::check_data_complete(std::size_t r) {
  RankState& s = st_[r];
  if (res_.failed || rank_crashed(r)) return;
  if (s.phase != Phase::kFastPath && s.phase != Phase::kRecovery) return;
  if (s.pending_copies > 0 || !all_blocks_satisfied(r)) return;
  enter(r, Phase::kHandshake);
  ++s.timer_gen;  // cancel the cutoff timer
  send_final(r);
  check_op_done(r);
}

bool McastCollective::all_blocks_satisfied(std::size_t r) const {
  const RankState& s = st_[r];
  // The scan only runs in validate builds (MCCL_VALIDATE_THAT folds away).
  MCCL_VALIDATE_THAT(scan_blocks_satisfied(r) == s.blocks_satisfied,
                     "coll.blocks_satisfied",
                     "rank %zu: %zu foreign blocks full or abandoned but "
                     "the count says %zu",
                     r, scan_blocks_satisfied(r), s.blocks_satisfied);
  return s.blocks_satisfied == s.foreign_blocks;
}

std::size_t McastCollective::scan_blocks_satisfied(std::size_t r) const {
  const RankState& s = st_[r];
  std::size_t n = 0;
  for (std::size_t b = 0; b < p_.roots.size(); ++b) {
    if (static_cast<int>(b) == s.root_index) continue;
    if (holds_block(r, b) || s.block_abandoned[b]) ++n;
  }
  return n;
}

bool McastCollective::send_final(std::size_t r) {
  // Final handshake: tell the left-alive neighbor we are complete (the
  // static left neighbor pre-repair). A sole survivor has nobody to tell.
  RankState& s = st_[r];
  const std::size_t dst = left_alive_of(r);
  if (dst == r || dst == s.final_sent_to) return false;
  s.final_sent_to = dst;
  comm_.ep(r).ctrl_send(dst, {CtrlType::kFinal, id(), 0});
  return true;
}

// --------------------------------------------------------------------------
// Reliability slow path
// --------------------------------------------------------------------------

Time McastCollective::cutoff_deadline(std::size_t r) const {
  const std::uint64_t expected_bytes =
      static_cast<std::uint64_t>(st_[r].expected) * map_.chunk_bytes;
  // N/B_link plus per-schedule-step slack (chain tokens serialize the
  // roots) plus the (adaptively tightened) alpha for synchronization noise.
  return serialization_time(expected_bytes, comm_.ep(r).link_gbps()) +
         static_cast<Time>(schedule_.chain_len) * 10 * kMicrosecond +
         comm_.effective_cutoff_alpha();
}

void McastCollective::arm_cutoff(std::size_t r) {
  RankState& s = st_[r];
  const std::uint64_t gen = s.timer_gen;
  comm_.cluster().engine().schedule(cutoff_deadline(r),
                                    [this, r, gen] { on_cutoff(r, gen); });
}

void McastCollective::on_cutoff(std::size_t r, std::uint64_t gen) {
  RankState& s = st_[r];
  if (res_.failed || rank_crashed(r) || gen != s.timer_gen ||
      s.phase >= Phase::kHandshake)
    return;
  // Without the reliability layer there is no slow path; the watchdog is
  // the only thing standing between a lossy fabric and a hang.
  if (!comm_.config().reliability) return;
  // An eager crash re-root may have put the rank in recovery already, with
  // a fetch for the re-rooted block only: the cutoff still fetches the
  // rest.
  if (s.phase != Phase::kRecovery) {
    enter(r, Phase::kRecovery);
    note(r, EventCat::kColl, "cutoff_recovery", id(),
         s.expected - s.received, "cutoff");
  }
  // Health plane: *differential* lateness only. In a uniformly lossy world
  // every block is a little short at cutoff — that indicts the fabric, not
  // any root. A slow root shows as one block far behind (< half the chunks
  // of the best-progressed peer block); only those roots are sampled. Fed
  // first — a resulting slow mark re-enters this op through on_peer_slow,
  // so the target pick below sees the freshest lagging view.
  if (HealthMonitor* hm = comm_.health()) {
    std::size_t best = 0;
    for (std::size_t b = 0; b < p_.roots.size(); ++b)
      if (static_cast<int>(b) != s.root_index &&
          s.block_received[b] > best)
        best = s.block_received[b];
    for (std::size_t b = 0; b < p_.roots.size(); ++b) {
      if (static_cast<int>(b) == s.root_index) continue;
      if (s.block_received[b] * 2 < best && !s.block_abandoned[b] &&
          !peer_dead(r, s.block_root[b]) && s.block_root[b] != r)
        hm->note_block_late(r, s.block_root[b]);
    }
  }
  // One fetch request per incomplete block: the target acks each block as
  // soon as it holds it in full. The first target is the left-alive
  // neighbor (the static left neighbor unless it already died), detoured
  // past lagging survivors when the health plane marked any.
  bool detoured = false;
  const std::size_t tgt = fetch_target_of(r, r, r, &detoured);
  if (tgt == r) return;  // sole survivor: nothing to fetch from
  if (detoured)
    note(r, EventCat::kAdapt, "fetch_detour",
         static_cast<std::uint64_t>(-1), tgt);
  for (std::size_t b = 0; b < p_.roots.size(); ++b) {
    if (static_cast<int>(b) == s.root_index) continue;
    if (!holds_block(r, b) && !s.block_abandoned[b] && !s.fetch[b].active) {
      if (detoured) ++res_.fetch_detours;
      start_fetch(r, b, tgt);
    }
  }
}

void McastCollective::on_block_complete(std::size_t r, std::size_t block) {
  RankState& s = st_[r];
  // Deferred slow-root report: the first ranks to assemble a lagging
  // root's block in full are exactly the ownership candidates — report as
  // soon as we qualify (the on_peer_slow sweep only catches blocks already
  // held full at mark time).
  if (comm_.health() != nullptr && static_cast<int>(block) != s.root_index &&
      !s.slow_reported[block] && !s.block_abandoned[block] &&
      s.block_root[block] != r && peer_lagging(r, s.block_root[block]) &&
      !peer_dead(r, s.block_root[block]))
    report_slow_root(r, block);
  // Serve every rank whose fetch request was deferred until we held the
  // block (pre-hardening this could only be the right neighbor).
  for (const std::size_t waiter : s.fetch_waiters[block])
    comm_.ep(r).ctrl_send(waiter, {CtrlType::kFetchAck, id(),
                                   static_cast<std::uint16_t>(block)});
  s.fetch_waiters[block].clear();
  // Cancel our own outstanding fetch of this block (multicast raced the
  // slow path); a late ACK is ignored via the `acked` latch.
  const BlockFetch& f = s.fetch[block];
  if (f.active && !f.acked) stop_fetch(r, block);
}

void McastCollective::start_fetch(std::size_t r, std::size_t block,
                                  std::size_t target, const char* event) {
  RankState& s = st_[r];
  MCCL_CHECK(target != r);
  BlockFetch& f = s.fetch[block];
  f.active = true;
  f.acked = false;
  f.target = target;
  f.attempts = 1;
  f.reads_outstanding = 0;
  f.sent_at = now();
  ++f.gen;
  note(r, EventCat::kColl, event, block, target);
  comm_.ep(r).ctrl_send(target, {CtrlType::kFetchReq, id(),
                                 static_cast<std::uint16_t>(block)});
  arm_fetch_retry(r, block);
}

void McastCollective::arm_fetch_retry(std::size_t r, std::size_t block) {
  const BlockFetch& f = st_[r].fetch[block];
  if (comm_.config().fetch_retry_timeout == 0) return;  // retries disabled
  // Exponential backoff per attempt against the current target.
  const Time delay = comm_.config().fetch_retry_timeout
                     << (f.attempts > 0 ? f.attempts - 1 : 0);
  const std::uint64_t gen = f.gen;
  comm_.cluster().engine().schedule(
      delay, [this, r, block, gen] { on_fetch_retry(r, block, gen); });
}

void McastCollective::on_fetch_retry(std::size_t r, std::size_t block,
                                     std::uint64_t gen) {
  RankState& s = st_[r];
  BlockFetch& f = s.fetch[block];
  if (res_.failed || rank_crashed(r) || !f.active || f.acked || gen != f.gen)
    return;
  if (holds_block(r, block) || s.block_abandoned[block]) return;
  // Health plane: an unanswered fetch request is the strongest slow signal.
  // Fed before acting — the resulting slow mark may detour this very fetch
  // (through on_peer_slow), which bumps f.gen; bail out if it did.
  if (HealthMonitor* hm = comm_.health()) {
    hm->note_fetch_timeout(r, f.target);
    if (!f.active || f.acked || gen != f.gen) return;
    if (holds_block(r, block) || s.block_abandoned[block]) return;
  }
  if (f.attempts < kFetchRetryCap) {
    // Same target, another request: the original (or its ACK) may have
    // been lost on a degraded link.
    ++f.attempts;
    ++res_.fetch_retries;
    f.sent_at = now();
    note(r, EventCat::kColl, "fetch_retry", block, f.target, "fetch_retry");
    comm_.ep(r).ctrl_send(f.target, {CtrlType::kFetchReq, id(),
                                     static_cast<std::uint16_t>(block)});
    arm_fetch_retry(r, block);
    return;
  }
  // Retries exhausted: the target is unreachable or stuck. Fail over one
  // step further left, skipping ranks this rank knows are dead and
  // detouring past lagging ones. The chain still terminates at the block
  // root (which completes its block through the local copy); if even the
  // root is unreachable the watchdog ends the op.
  bool detoured = false;
  const std::size_t next = fetch_target_of(r, f.target, f.target, &detoured);
  if (next == r) return;  // nowhere else to go
  if (detoured) note_detour(r, block, next);
  ++res_.fetch_failovers;
  trace_instant(r, "fetch_failover");
  start_fetch(r, block, next, "fetch_failover");
}

void McastCollective::on_fetch_ack(std::size_t r, std::size_t block,
                                   std::size_t src) {
  RankState& s = st_[r];
  if (res_.failed || rank_crashed(r) || s.phase >= Phase::kHandshake) return;
  if (s.block_abandoned[block]) return;  // decided dead while the ACK flew
  BlockFetch& f = s.fetch[block];
  if (f.acked) return;  // duplicate ACK (retry raced the original)
  f.acked = true;
  ++f.gen;  // cancel pending retry timers
  // Health plane: request->ACK latency of the serving target (measured
  // from the latest request — retries reset the clock).
  HealthMonitor* hm = comm_.health();
  if (hm != nullptr && f.active && src == f.target)
    hm->note_fetch_ack(r, src, now() - f.sent_at);
  note(r, EventCat::kColl, "fetch_ack", block, src);
  // Collect this block's chunks still missing at ACK time (some may have
  // raced in through the multicast path).
  std::vector<std::uint32_t> missing;
  missing.reserve(map_.chunks_per_block());
  const std::uint32_t begin = map_.id_of(block, 0);
  const std::uint32_t end =
      begin + static_cast<std::uint32_t>(map_.chunks_per_block());
  for (std::uint32_t id32 = begin; id32 < end; ++id32) {
    if (!s.bitmaps[map_.subgroup_of(id32)].test(id32))
      missing.push_back(id32);
  }
  if (missing.empty()) {
    if (s.pending_fetches == 0) check_data_complete(r);
    return;
  }
  res_.fetched_chunks += missing.size();
  Endpoint& ep = comm_.ep(r);
  s.pending_fetches += missing.size();
  f.reads_outstanding = missing.size();
  for (const std::uint32_t id32 : missing) {
    auto task = [this, r, src, id32] {
      if (res_.failed || rank_crashed(r)) return;
      RankState& s2 = st_[r];
      Endpoint& ep2 = comm_.ep(r);
      rdma::SendFlags flags;
      flags.signaled = true;
      flags.wr_id = (static_cast<std::uint64_t>(id()) << 32) | id32;
      // Symmetric layout: the chunk lives at the same offset in the
      // ACKing rank's receive buffer (the left neighbor normally, a
      // further-left rank after failover).
      ep2.data_qp(src).post_read(s2.recvbuf + map_.offset_of(id32),
                                 map_.len_of(id32),
                                 s2.recvbuf + map_.offset_of(id32), rkey_,
                                 flags);
    };
    // Per missing chunk: must stay inline in the worker queue.
    static_assert(sizeof(task) <= sim::InlineCallback::kInlineBytes);
    ep.recv_worker(0).post(ep.costs().fetch_post, std::move(task));
  }
}

void McastCollective::on_send_done(std::size_t r, const rdma::Cqe& cqe) {
  RankState& s = st_[r];
  if (res_.failed || rank_crashed(r)) return;
  MCCL_CHECK(cqe.opcode == rdma::CqeOpcode::kRead);
  const std::uint32_t id32 = static_cast<std::uint32_t>(cqe.wr_id);
  set_chunk(r, id32);  // may be a duplicate if multicast raced the fetch
  BlockFetch& f = s.fetch[map_.block_of(id32)];
  if (f.reads_outstanding > 0) --f.reads_outstanding;
  MCCL_CHECK(s.pending_fetches > 0);
  if (--s.pending_fetches == 0) check_data_complete(r);
}

// --------------------------------------------------------------------------
// Crash repair. Driven purely by the failure detector's *confirmations*
// (the survivors' protocol view) — never by physical crash truth, which
// only the op-accounting layer (note_rank_crashed) may consult.
// --------------------------------------------------------------------------

void McastCollective::on_peer_confirmed_dead(std::size_t observer,
                                             std::size_t peer) {
  const std::size_t r = observer;
  RankState& s = st_[r];
  if (res_.failed || rank_crashed(r)) return;
  note_repair(r);
  // (1) Barrier: credit rounds whose token sender just died.
  if (s.phase == Phase::kBarrier) {
    credit_barrier(r);
    barrier_advance(r);
  }
  // (2) Chain: self-activate if the chain predecessor died before passing
  // the token (the predecessor's predecessor also routes around, so this
  // is redundant — and activate_send is idempotent).
  if (is_root(r) && !s.send_active && s.phase > Phase::kBarrier) {
    const auto my = static_cast<std::size_t>(s.root_index);
    if (!schedule_.is_chain_head(my) && peer_dead(r, p_.roots[my - 1]))
      activate_send(r);
  }
  // (3) Fetches aimed at the dead rank fail over immediately.
  repair_fetches(r, peer);
  // (4) Root repair: a block whose current root is now dead needs a
  // survivor census. Re-report also when the previous *coordinator* died
  // (coordinator_of shifts right, and the new coordinator needs our
  // report).
  for (std::size_t b = 0; b < p_.roots.size(); ++b) {
    if (peer_dead(r, s.block_root[b]) && !s.block_abandoned[b] &&
        s.block_decision[b] == 0)
      send_block_report(r, b);
  }
  // (5) Handshake ring re-closure: if our Final went to a rank that died,
  // resend it to the new left-alive neighbor.
  if (s.phase >= Phase::kHandshake && send_final(r))
    note(r, EventCat::kColl, "final_resend", s.final_sent_to, peer);
  // (6) A dead rank no longer owes the coordinator a report: decisions
  // that were waiting on it can now fall.
  for (std::size_t b = 0; b < p_.roots.size(); ++b) maybe_decide_block(r, b);
  // (7) Completion re-check: the dead rank may have been the only thing
  // this rank was waiting on (its Final, or its block now abandoned).
  check_data_complete(r);
  check_op_done(r);
}

void McastCollective::note_repair(std::size_t r) {
  RankState& s = st_[r];
  if (s.repair_begin != kNever) return;
  s.repair_begin = now();
  note(r, EventCat::kColl, "repair_begin", id(), 0);
}

void McastCollective::repair_fetches(std::size_t r, std::size_t dead) {
  RankState& s = st_[r];
  for (std::size_t b = 0; b < p_.roots.size(); ++b) {
    const BlockFetch& f = s.fetch[b];
    if (!f.active || f.target != dead) continue;
    stop_fetch(r, b);
    if (holds_block(r, b) || s.block_abandoned[b]) continue;
    ++res_.fetch_failovers;
    note(r, EventCat::kColl, "fetch_dead_target", b, dead);
    bool det = false;
    const std::size_t next = fetch_target_of(r, dead, r, &det);
    // No surviving target: root repair decides the block.
    if (next == r) continue;
    if (det) note_detour(r, b, next);
    start_fetch(r, b, next);
  }
}

void McastCollective::stop_fetch(std::size_t r, std::size_t block) {
  RankState& s = st_[r];
  BlockFetch& f = s.fetch[block];
  // RDMA Reads posted to a dead target, or for a block declared dead, never
  // complete; discount them so pending_fetches can reach zero again.
  if (f.acked && f.reads_outstanding > 0) {
    MCCL_CHECK(s.pending_fetches >= f.reads_outstanding);
    s.pending_fetches -= f.reads_outstanding;
    f.reads_outstanding = 0;
  }
  f.active = false;
  ++f.gen;  // cancels pending retry timers
}

std::size_t McastCollective::coordinator_of(std::size_t r,
                                            std::size_t block) const {
  // First rank right of the dead root that this rank considers alive; may
  // be r itself. Views can transiently disagree across ranks — the
  // re-report rule in on_peer_confirmed_dead reconciles them.
  const RankState& s = st_[r];
  const std::size_t d = s.block_root[block];
  std::size_t x = right_of(d);
  while (x != d && peer_dead(r, x)) x = right_of(x);
  return x;
}

void McastCollective::send_block_report(std::size_t r, std::size_t block) {
  const std::size_t c = coordinator_of(r, block);
  const bool full = holds_block(r, block);
  note(r, EventCat::kColl, "block_report", block, c);
  if (c == r) {
    on_block_report(r, block, r, full);
    return;
  }
  MCCL_CHECK(block < (std::size_t{1} << 15));
  comm_.ep(r).ctrl_send(
      c, {CtrlType::kBlockReport, id(),
          static_cast<std::uint16_t>((block << 1) | (full ? 1u : 0u))});
}

void McastCollective::on_block_report(std::size_t r, std::size_t block,
                                      std::size_t src, bool holds_full) {
  RankState& s = st_[r];
  if (s.block_decision[block] != 0) {
    // Decision already made; a late reporter (its own confirmation lagged)
    // just gets the verdict replayed.
    if (src != r) send_decision_to(r, block, src);
    return;
  }
  std::uint8_t& cell = s.block_reports[block * comm_.size() + src];
  // Census monotonicity: holding a full block is stable (chunks are never
  // un-received), so a reporter may upgrade not-full -> full but a
  // full -> not-full replay means the census is lying to the coordinator.
  MCCL_VALIDATE_THAT(!(cell == 2 && !holds_full), "coll.census_regression",
                     "rank %zu: block %zu reporter %zu regressed "
                     "full -> not-full",
                     r, block, src);
  cell = holds_full ? 2 : 1;
  maybe_decide_block(r, block);
}

void McastCollective::maybe_decide_block(std::size_t r, std::size_t block) {
  RankState& s = st_[r];
  if (s.block_decision[block] != 0) return;
  if (!peer_dead(r, s.block_root[block])) return;  // root (still) alive
  if (coordinator_of(r, block) != r) return;      // not our call
  const std::size_t P = comm_.size();
  const std::uint8_t* reports = &s.block_reports[block * P];
  for (std::size_t x = 0; x < P; ++x) {
    if (peer_dead(r, x) || x == r) continue;
    if (reports[x] == 0) return;  // census incomplete
  }
  // Our own report may arrive via send_block_report(c == r) or not at all
  // (we confirmed the root dead only after becoming coordinator); count
  // ourselves directly.
  s.block_reports[block * P + r] = holds_block(r, block) ? 2 : 1;
  std::size_t holder = P;
  for (std::size_t x = 0; x < P; ++x) {
    if (peer_dead(r, x)) continue;
    if (reports[x] == 2) {
      holder = x;
      break;  // lowest-rank surviving full holder
    }
  }
  if (holder < P) {
    s.block_decision[block] = 1;
    s.block_new_root[block] = holder;
    ++res_.reroots;
    note(r, EventCat::kColl, "block_reroot", block, holder, "block_reroot");
  } else {
    s.block_decision[block] = 2;
    // Degraded completion: record the block as unrecoverable at op level
    // (once — several coordinators can reach the same verdict for
    // different blocks, not the same one, but be safe).
    std::vector<std::size_t>& missing = res_.missing_blocks;
    if (std::find(missing.begin(), missing.end(), block) == missing.end())
      missing.push_back(block);
    note(r, EventCat::kColl, "block_dead", block, s.block_root[block],
         "block_dead");
  }
  for (std::size_t x = 0; x < P; ++x) {
    if (x == r || peer_dead(r, x)) continue;
    send_decision_to(r, block, x);
  }
  if (s.block_decision[block] == 1)
    apply_reroot(r, block, s.block_new_root[block]);
  else
    apply_block_dead(r, block);
}

void McastCollective::send_decision_to(std::size_t r, std::size_t block,
                                       std::size_t peer) {
  const RankState& s = st_[r];
  if (s.block_decision[block] == 1) {
    const std::size_t h = s.block_new_root[block];
    MCCL_CHECK(block < 256 && h < 256);
    comm_.ep(r).ctrl_send(
        peer, {CtrlType::kReRoot, id(),
               static_cast<std::uint16_t>((block << 8) | h)});
  } else {
    comm_.ep(r).ctrl_send(peer, {CtrlType::kBlockDead, id(),
                                 static_cast<std::uint16_t>(block)});
  }
}

void McastCollective::apply_reroot(std::size_t r, std::size_t block,
                                   std::size_t new_root, bool eager) {
  RankState& s = st_[r];
  const std::size_t old_root = s.block_root[block];
  s.block_root[block] = new_root;  // future root-deaths census against this
  // One *slow* re-root per block per op, cluster-wide: re-rooting moves the
  // coordinator (right of the new root), whose slow_decision latch would
  // otherwise be fresh — lagging marks on the new root would cascade the
  // ownership around the ring.
  if (!eager) s.slow_decision[block] = 1;
  // A *slow* re-root reaches the displaced root alive: it owns the block's
  // data by construction and must never fetch it.
  if (static_cast<int>(block) == s.root_index) return;
  if (s.block_abandoned[block] || rank_crashed(r) ||
      s.phase >= Phase::kHandshake)
    return;
  if (holds_block(r, block)) return;
  BlockFetch& f = s.fetch[block];
  // Reads already in flight from a live holder will complete; leave them.
  if (f.active && f.acked) return;
  if (!eager) {
    // Lazy re-root: the multicast is still delivering, so nobody rushes to
    // the slow path (an eager fan-in of every incomplete rank on the one
    // full holder costs more than the laggard does). Only a fetch already
    // pointed at the displaced root is re-aimed at the new terminus.
    if (f.active && f.target == old_root && new_root != r)
      start_fetch(r, block, new_root);
    return;
  }
  if (s.phase != Phase::kRecovery) enter(r, Phase::kRecovery);
  if (new_root != r) start_fetch(r, block, new_root);
}

void McastCollective::apply_block_dead(std::size_t r, std::size_t block) {
  RankState& s = st_[r];
  if (s.block_abandoned[block]) return;
  if (holds_block(r, block)) return;  // we hold it
  s.block_abandoned[block] = 1;
  satisfy_block(r, block);
  stop_fetch(r, block);
  s.fetch_waiters[block].clear();  // nobody can be served a dead block
  note(r, EventCat::kColl, "block_abandoned", block, 0);
  check_data_complete(r);
}

// --------------------------------------------------------------------------
// Performance-fault adaptation. Driven by the communicator's health monitor
// (slow marks fan out through on_peer_slow exactly like death confirmations
// through on_peer_confirmed_dead); everything here is per-observer view,
// deterministic, and inert when adaptation is disabled.
// --------------------------------------------------------------------------

std::size_t McastCollective::fetch_target_of(std::size_t r, std::size_t from,
                                             std::size_t stop,
                                             bool* detoured) const {
  const fabric::Topology& topo = comm_.cluster().fabric().topology();
  const fabric::NodeId here = comm_.ep(r).host();
  std::size_t first_alive = r;
  int base_dist = 0;
  for (std::size_t x = left_of(from); x != stop; x = left_of(x)) {
    if (x == r || peer_dead(r, x)) continue;
    if (first_alive == r) {
      first_alive = x;
      base_dist = topo.distance(here, comm_.ep(x).host());
    }
    // A detour must never trade a slow peer for a longer path: a
    // cross-leaf hop rides trunks the health plane may not have scored
    // yet, and a degraded trunk costs far more than any laggard.
    if (!peer_lagging(r, x) &&
        topo.distance(here, comm_.ep(x).host()) <= base_dist) {
      *detoured = x != first_alive;
      return x;
    }
  }
  *detoured = false;
  return first_alive;  // r itself when no other survivor exists
}

void McastCollective::note_detour(std::size_t r, std::size_t block,
                                  std::size_t target) {
  ++res_.fetch_detours;
  note(r, EventCat::kAdapt, "fetch_detour", block, target);
}

void McastCollective::on_peer_slow(std::size_t observer, std::size_t peer,
                                   bool slow) {
  const std::size_t r = observer;
  RankState& s = st_[r];
  if (res_.failed || rank_crashed(r) || s.phase == Phase::kDone) return;
  // A clear only stops future avoidance: detours and re-roots already made
  // stay (they are correct either way, and undoing them would oscillate).
  if (!slow) return;
  if (peer_dead(r, peer)) return;  // crash repair owns dead peers
  // (1) Slow-root re-ownership: for each block the lagging peer currently
  // roots, report to the block's coordinator if we already hold it in full
  // (ranks completing later report from on_block_complete).
  for (std::size_t b = 0; b < p_.roots.size(); ++b) {
    if (s.block_root[b] != peer) continue;
    if (s.block_abandoned[b] || s.slow_reported[b]) continue;
    if (holds_block(r, b)) report_slow_root(r, b);
  }
  // (2) Fetch detour: re-aim active un-ACKed fetches at the lagging peer
  // toward a non-lagging survivor (ACKed fetches finish where they are —
  // the RDMA Reads are already in flight).
  for (std::size_t b = 0; b < p_.roots.size(); ++b) {
    BlockFetch& f = s.fetch[b];
    if (!f.active || f.acked || f.target != peer) continue;
    if (holds_block(r, b) || s.block_abandoned[b]) continue;
    bool det = false;
    const std::size_t next = fetch_target_of(r, r, r, &det);
    if (next == r || next == peer || peer_lagging(r, next)) continue;
    note_detour(r, b, next);
    start_fetch(r, b, next);
  }
}

void McastCollective::report_slow_root(std::size_t r, std::size_t block) {
  RankState& s = st_[r];
  if (!holds_block(r, block)) return;
  s.slow_reported[block] = 1;
  const std::size_t c = coordinator_of(r, block);
  note(r, EventCat::kAdapt, "slow_root_report", block, c);
  if (c == r) {
    on_slow_root_report(r, block, r, true);
    return;
  }
  MCCL_CHECK(block < (std::size_t{1} << 15));
  comm_.ep(r).ctrl_send(c, {CtrlType::kSlowRoot, id(),
                            static_cast<std::uint16_t>((block << 1) | 1u)});
}

void McastCollective::on_slow_root_report(std::size_t r, std::size_t block,
                                          std::size_t src, bool holds_full) {
  RankState& s = st_[r];
  if (res_.failed || rank_crashed(r)) return;
  if (!holds_full) return;  // only a full holder can take ownership
  if (s.slow_decision[block] != 0 || s.block_decision[block] != 0 ||
      s.block_abandoned[block])
    return;  // already decided (or the dead census owns this block)
  if (peer_dead(r, s.block_root[block]) || peer_dead(r, src)) return;
  if (src == s.block_root[block]) return;
  // Ownership conservation: a slow re-root hands the block's slow-path
  // responsibility to a rank that really holds all of it. Remote claims are
  // taken on faith (the reporter checked its own bitmaps before sending);
  // a self-delivered claim is checked against this rank's bookkeeping.
  MCCL_VALIDATE_THAT(
      src != r || holds_block(r, block), "adapt.ownership_conservation",
      "rank %zu: slow re-root of block %zu to itself while holding only "
      "%zu/%zu chunks",
      r, block, s.block_received[block], map_.chunks_per_block());
  s.slow_decision[block] = 1;
  ++res_.adapt_reroots;
  note(r, EventCat::kAdapt, "slow_reroot", block, src, "slow_reroot");
  // The ordinary kReRoot broadcast moves the fetch-chain terminus; the slow
  // root stays alive and keeps multicasting (only slow-path ownership
  // moves). The displaced root gets the message too, so every future death
  // census agrees on who owns the block.
  MCCL_CHECK(block < 256 && src < 256);
  for (std::size_t x = 0; x < comm_.size(); ++x) {
    if (x == r || peer_dead(r, x)) continue;
    comm_.ep(r).ctrl_send(
        x, {CtrlType::kReRoot, id(),
            static_cast<std::uint16_t>((block << 8) | src)});
  }
  apply_reroot(r, block, src, /*eager=*/false);
}

// --------------------------------------------------------------------------
// Watchdog: the op-level hard deadline. The slow path retries forever at
// the transport level (RC go-back-N), so a partitioned fabric would spin
// the simulator indefinitely; the watchdog converts that into a structured
// failure.
// --------------------------------------------------------------------------

void McastCollective::arm_watchdog() {
  Time worst = 0;
  for (std::size_t r = 0; r < comm_.size(); ++r)
    worst = std::max(worst, cutoff_deadline(r));
  const Time deadline =
      static_cast<Time>(static_cast<double>(worst) * kWatchdogMultiplier);
  comm_.cluster().engine().schedule(deadline, [this] { on_watchdog(); });
}

void McastCollective::on_watchdog() {
  if (done() || res_.failed) return;
  res_.watchdog_fired = true;
  // Record the verdict per stuck rank, then dump the flight recorder: the
  // merged tail of recent packet/QP/collective/fault events around each
  // ring is the post-mortem evidence, replacing the old raw-state print.
  // Crashed ranks are not waited on; only survivors count.
  std::size_t incomplete = 0;
  std::size_t survivors = 0;
  for (std::size_t r = 0; r < comm_.size(); ++r) {
    const RankState& s = st_[r];
    if (rank_crashed(r)) continue;
    ++survivors;
    if (s.phase == Phase::kDone) continue;
    ++incomplete;
    note(r, EventCat::kWatchdog, "rank_incomplete", s.received, s.expected,
         "watchdog");
  }
  std::fprintf(stderr, "[%s #%u] watchdog fired at t=%.3fus, %zu/%zu "
               "surviving ranks incomplete:\n", name_.c_str(),
               static_cast<unsigned>(id()), static_cast<double>(now()) / 1e6,
               incomplete, survivors);
  telem().recorder.dump(stderr);
  fail_op("watchdog: " + std::to_string(incomplete) + "/" +
          std::to_string(survivors) +
          " surviving ranks incomplete past the op deadline (fabric "
          "partitioned or recovery disabled)");
}

// --------------------------------------------------------------------------
// Control plane and completion
// --------------------------------------------------------------------------

void McastCollective::on_ctrl(std::size_t r, const CtrlMsg& msg,
                              std::size_t src, const rdma::Cqe& cqe) {
  (void)cqe;
  if (res_.failed || rank_crashed(r)) return;
  RankState& s = st_[r];
  switch (msg.type) {
    case CtrlType::kBarrier: {
      MCCL_CHECK(msg.arg < s.barrier_seen.size());
      ++s.barrier_seen[msg.arg];
      MCCL_VALIDATE_THAT(s.barrier_seen[msg.arg] <= 2,
                         "coll.barrier_credit_balance",
                         "rank %zu: round %u has %zu outstanding tokens "
                         "(max 2: one real + one death credit)",
                         r, static_cast<unsigned>(msg.arg),
                         s.barrier_seen[msg.arg]);
      barrier_advance(r);
      break;
    }
    case CtrlType::kChainToken:
      activate_send(r);
      break;
    case CtrlType::kFinal:
      // After ring repair the Final may come from any survivor whose
      // left-alive neighbor we are, not just the static right neighbor.
      s.finals_from[src] = 1;
      check_op_done(r);
      break;
    case CtrlType::kFetchReq: {
      // Any rank may ask (failover walks past the immediate neighbor);
      // retries make duplicates normal. A request from a rank we have
      // confirmed dead is a posthumous straggler — ignore it.
      if (peer_dead(r, src)) break;
      const std::size_t block = msg.arg;
      if (holds_block(r, block)) {
        comm_.ep(r).ctrl_send(src, {CtrlType::kFetchAck, id(), msg.arg});
      } else {
        auto& waiters = s.fetch_waiters[block];
        if (std::find(waiters.begin(), waiters.end(), src) == waiters.end())
          waiters.push_back(src);
      }
      break;
    }
    case CtrlType::kFetchAck:
      on_fetch_ack(r, msg.arg, src);
      break;
    case CtrlType::kBlockReport:
      on_block_report(r, msg.arg >> 1, src, (msg.arg & 1u) != 0);
      break;
    case CtrlType::kSlowRoot:
      on_slow_root_report(r, msg.arg >> 1, src, (msg.arg & 1u) != 0);
      break;
    case CtrlType::kReRoot:
      // Eager only when the displaced root is dead from this rank's view
      // (crash census); a slow re-root's old root is alive and keeps
      // multicasting, so the receiver stays lazy.
      apply_reroot(r, msg.arg >> 8, msg.arg & 0xffu,
                   peer_dead(r, s.block_root[msg.arg >> 8]));
      break;
    case CtrlType::kBlockDead:
      apply_block_dead(r, msg.arg);
      break;
    default:
      MCCL_CHECK_MSG(false, "unexpected control message");
  }
}

void McastCollective::check_op_done(std::size_t r) {
  RankState& s = st_[r];
  if (res_.failed || rank_crashed(r) || s.phase != Phase::kHandshake) return;
  // Wait for the Final of whoever currently counts us as *their* left-alive
  // neighbor: our right-alive neighbor. A sole survivor waits on nobody.
  const std::size_t ra = right_alive_of(r);
  if (ra != r && !s.finals_from[ra]) return;
  if (is_root(r) && s.subgroups_done < map_.subgroups) return;
  enter(r, Phase::kDone);
  rank_done(r);
}

void McastCollective::enter(std::size_t r, Phase to) {
  RankState& s = st_[r];
  // Before the op starts the only legal move is into kBarrier.
  const bool started = s.entered[idx(Phase::kBarrier)] != kNever;
  MCCL_VALIDATE_THAT(started ? (kPhaseEdges[idx(s.phase)] & bit(to)) != 0
                             : to == Phase::kBarrier,
                     "coll.phase_order",
                     "rank %zu: illegal phase transition %s -> %s", r,
                     started ? kPhaseNames[idx(s.phase)] : "(not started)",
                     kPhaseNames[idx(to)]);
  const Time t = now();
  s.phase = to;
  s.entered[idx(to)] = t;
  if (to != Phase::kDone) return;
  const Time start = s.entered[idx(Phase::kBarrier)];
  const Time barrier_end = s.entered[idx(Phase::kFastPath)];
  const Time data = s.entered[idx(Phase::kHandshake)];
  const Time recovery_begin = s.entered[idx(Phase::kRecovery)];
  const Time recovery = recovery_begin == kNever ? 0 : data - recovery_begin;
  // A root's handshake starts once its own send has finished as well.
  const Time data_ready = std::max(data, s.send_done_at);
  Phases& ph = phases_[r];
  ph.barrier = barrier_end - start;
  ph.reliability = recovery;
  ph.transfer = (data_ready - barrier_end) - recovery;
  ph.handshake = t - data_ready;
  // Phase spans on the rank's protocol row, cut from the same timestamps as
  // the Fig 10 phase timers: "multicast" covers transfer + reliability with
  // the recovery window nested inside it, so span sums reproduce the timer
  // totals exactly (tests/test_telemetry.cpp asserts equality).
  telemetry::Tracer& tracer = telem().tracer;
  if (tracer.enabled()) {
    const telemetry::TrackId track = comm_.ep(r).trace_track();
    tracer.complete(track, "barrier", start, barrier_end, "coll");
    tracer.complete(track, "multicast", barrier_end, data_ready, "coll");
    if (recovery_begin != kNever)
      tracer.complete(track, "recovery", recovery_begin, data, "coll");
    if (s.repair_begin != kNever)
      tracer.complete(track, "repair", s.repair_begin, t, "coll");
    tracer.complete(track, "handshake", data_ready, t, "coll");
  }
}

bool McastCollective::validate_rank(std::size_t r) const {
  if (!debug::kValidate) return true;
  const RankState& s = st_[r];
  bool ok = true;
  std::size_t marked = 0;
  for (const Bitmap& bm : s.bitmaps) marked += bm.popcount();
  if (marked != s.received) {
    debug::report("coll.chunk_conservation",
                  "rank %zu: bitmaps mark %zu chunks but received counter "
                  "is %zu",
                  r, marked, s.received);
    ok = false;
  }
  if (s.received > s.expected) {
    debug::report("coll.chunk_conservation",
                  "rank %zu: received %zu chunks, expected at most %zu", r,
                  s.received, s.expected);
    ok = false;
  }
  if (scan_blocks_satisfied(r) != s.blocks_satisfied) {
    debug::report("coll.blocks_satisfied",
                  "rank %zu: %zu foreign blocks full or abandoned but the "
                  "count says %zu",
                  r, scan_blocks_satisfied(r), s.blocks_satisfied);
    ok = false;
  }
  for (std::size_t b = 0; b < s.block_received.size(); ++b) {
    if (s.block_received[b] > map_.chunks_per_block()) {
      debug::report("coll.chunk_conservation",
                    "rank %zu: block %zu holds %zu chunks but blocks have "
                    "only %zu",
                    r, b, s.block_received[b], map_.chunks_per_block());
      ok = false;
    }
  }
  for (std::size_t k = 0; k < s.barrier_seen.size(); ++k) {
    if (s.barrier_seen[k] > 2) {
      debug::report("coll.barrier_credit_balance",
                    "rank %zu: round %zu has %zu outstanding tokens "
                    "(max 2: one real + one death credit)",
                    r, k, s.barrier_seen[k]);
      ok = false;
    }
  }
  return ok;
}

bool McastCollective::verify() const {
  if (!comm_.data_mode()) return true;
  for (std::size_t r = 0; r < comm_.size(); ++r) {
    if (rank_crashed(r)) continue;  // dead ranks owe nothing
    const RankState& s = st_[r];
    const auto& mem = comm_.ep(r).nic().memory();
    for (std::size_t b = 0; b < p_.roots.size(); ++b) {
      if (s.block_abandoned[b]) continue;  // degraded completion: kPartial
      if (!check_pattern(mem, s.recvbuf + b * p_.block_bytes, p_.block_bytes,
                         id(), p_.roots[b]))
        return false;
    }
  }
  return true;
}

}  // namespace mccl::coll
