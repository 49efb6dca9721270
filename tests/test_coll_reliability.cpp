// Reliability slow-path tests: fabric drops, RNR behaviour, out-of-order
// delivery, recursive fetch chains — the protocol must deliver correct
// bytes in all of them (Section III-C).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "tests/coll_test_util.hpp"

namespace mccl::coll {
namespace {

using testing::World;

CommConfig quick_recovery() {
  CommConfig cfg;
  cfg.cutoff_alpha = 50 * kMicrosecond;
  return cfg;
}

TEST(Reliability, BroadcastRecoversFromSingleDrop) {
  World w(4, quick_recovery());
  int mcast_pkts = 0;
  w.cluster->fabric().set_drop_filter(
      [&](fabric::NodeId, fabric::NodeId to, const fabric::Packet& p) {
        // Drop the 5th multicast datagram on its way to host 2.
        return p.th.op == fabric::TransportOp::kUdSend && to == 2 &&
               ++mcast_pkts == 5;
      });
  const OpResult res = w.comm->broadcast(0, 64 * 1024, BcastAlgo::kMcast);
  EXPECT_TRUE(res.data_verified);
  EXPECT_GE(res.fetched_chunks, 1u);
  EXPECT_GT(res.max_phases.reliability, 0);
}

TEST(Reliability, BroadcastRecoversFromBurstLoss) {
  World w(4, quick_recovery());
  int count = 0;
  w.cluster->fabric().set_drop_filter(
      [&](fabric::NodeId, fabric::NodeId to, const fabric::Packet& p) {
        if (p.th.op != fabric::TransportOp::kUdSend || to != 1) return false;
        ++count;
        return count >= 3 && count < 10;
      });
  const OpResult res = w.comm->broadcast(0, 128 * 1024, BcastAlgo::kMcast);
  EXPECT_TRUE(res.data_verified);
  EXPECT_GE(res.fetched_chunks, 7u);
}

TEST(Reliability, AllgatherRecoversFromRandomLoss) {
  CommConfig cfg = quick_recovery();
  ClusterConfig kcfg;
  kcfg.fabric.faults.burst.drop_good = 0.01;
  kcfg.fabric.seed = 77;
  World w(4, cfg, kcfg);
  const OpResult res = w.comm->allgather(64 * 1024, AllgatherAlgo::kMcast);
  EXPECT_TRUE(res.data_verified);
}

TEST(Reliability, HeavyLossStillCorrect) {
  CommConfig cfg = quick_recovery();
  ClusterConfig kcfg;
  // 5% loss: far beyond lossless assumptions
  kcfg.fabric.faults.burst.drop_good = 0.05;
  kcfg.fabric.seed = 13;
  World w(4, cfg, kcfg);
  const OpResult res = w.comm->allgather(32 * 1024, AllgatherAlgo::kMcast);
  EXPECT_TRUE(res.data_verified);
  EXPECT_GT(res.fetched_chunks, 0u);
}

TEST(Reliability, RecursiveFetchWhenLeftNeighborAlsoDropped) {
  // Drop the same chunk toward hosts 1 AND 2: host 2 fetches from host 1,
  // which must defer its ACK until it recovered (from host 0, the root).
  World w(4, quick_recovery());
  w.cluster->fabric().set_drop_filter(
      [&](fabric::NodeId, fabric::NodeId to, const fabric::Packet& p) {
        return p.th.op == fabric::TransportOp::kUdSend &&
               (to == 1 || to == 2) && p.th.has_imm &&
               imm_chunk(p.th.imm) == 3;
      });
  const OpResult res = w.comm->broadcast(0, 64 * 1024, BcastAlgo::kMcast);
  EXPECT_TRUE(res.data_verified);
  EXPECT_GE(res.fetched_chunks, 2u);
}

TEST(Reliability, AllMulticastLostFallsBackToRing) {
  // Worst case: multicast is completely dead; the fetch ring degenerates to
  // a neighbor-to-neighbor (ring) transfer and must still complete.
  World w(3, quick_recovery());
  w.cluster->fabric().set_drop_filter(
      [](fabric::NodeId, fabric::NodeId, const fabric::Packet& p) {
        return p.th.op == fabric::TransportOp::kUdSend && p.is_mcast();
      });
  const OpResult res = w.comm->broadcast(0, 32 * 1024, BcastAlgo::kMcast);
  EXPECT_TRUE(res.data_verified);
  EXPECT_EQ(res.fetched_chunks, 16u);  // 8 chunks x 2 leaves
}

TEST(Reliability, UcBrokenMessageRecovered) {
  // UC mode: losing one segment kills the whole chunk message; the fetch
  // layer must restore it.
  CommConfig cfg = quick_recovery();
  cfg.transport = Transport::kUcMcast;
  cfg.chunk_bytes = 16 * 1024;  // multi-MTU chunks
  World w(3, cfg);
  int segs = 0;
  w.cluster->fabric().set_drop_filter(
      [&](fabric::NodeId, fabric::NodeId to, const fabric::Packet& p) {
        return p.th.op == fabric::TransportOp::kUcWriteSeg && to == 1 &&
               ++segs == 6;
      });
  const OpResult res = w.comm->broadcast(0, 128 * 1024, BcastAlgo::kMcast);
  EXPECT_TRUE(res.data_verified);
  EXPECT_GE(res.fetched_chunks, 1u);
}

TEST(Reliability, OutOfOrderDeliveryHandledByStaging) {
  // The root's access link carries 4 us of extra latency until mid-transfer;
  // datagrams sent after the restore overtake those still in flight. The
  // PSN in the immediate places every chunk correctly (Section III-B); a UC
  // message with a reordered segment is dropped and fetched.
  constexpr Time kRestore = 14 * kMicrosecond;
  constexpr Time kExtra = 4 * kMicrosecond;
  for (const Transport transport : {Transport::kUd, Transport::kUcMcast}) {
    CommConfig cfg;
    cfg.transport = transport;
    ClusterConfig kcfg;
    kcfg.fabric.faults.events = {
        fabric::FaultEvent::degrade(0, 0, 8, 1.0, kExtra),
        fabric::FaultEvent::restore(kRestore, 0, 8)};
    World w(8, cfg, kcfg, /*fat_tree=*/true);  // hosts 0-7 on leaf 8
    // Multicast sends from the root just before and just after the restore
    // (both within half the extra latency) guarantee an overtake.
    bool before = false, after = false;
    sim::Engine& engine = w.cluster->engine();
    w.cluster->fabric().set_drop_filter(
        [&](fabric::NodeId from, fabric::NodeId, const fabric::Packet& p) {
          const Time now = engine.now();
          if (from == 0 && p.is_mcast()) {
            before |= now < kRestore && now >= kRestore - kExtra / 2;
            after |= now > kRestore && now < kRestore + kExtra / 2;
          }
          return false;
        });
    const OpResult res = w.comm->broadcast(0, 256 * 1024, BcastAlgo::kMcast);
    EXPECT_TRUE(res.data_verified) << static_cast<int>(transport);
    EXPECT_TRUE(before && after) << static_cast<int>(transport);
  }
}

TEST(Reliability, RnrDropsRecovered) {
  // A tiny staging ring forces receiver-not-ready drops under a burst; the
  // slow path must fill the holes.
  CommConfig cfg = quick_recovery();
  cfg.staging_slots = 4;
  World w(3, cfg);
  const OpResult res = w.comm->broadcast(0, 512 * 1024, BcastAlgo::kMcast);
  EXPECT_TRUE(res.data_verified);
  // With only 4 slots and a 128-chunk buffer, drops are essentially
  // guaranteed at full line rate.
  EXPECT_GT(res.rnr_drops + res.fetched_chunks, 0u);
}

TEST(Reliability, UcRnrDropsAreReported) {
  // UC write-with-immediate consumes a blank receive per chunk; a tiny
  // credit pool on a slowed receiver runs dry under a burst and the NIC
  // drops completions. The op's result must count them (they are on the UC
  // subgroup QPs).
  CommConfig cfg = quick_recovery();
  cfg.transport = Transport::kUcMcast;
  cfg.staging_slots = 2;
  ClusterConfig kcfg;
  kcfg.fabric.faults.events = {
      fabric::FaultEvent::straggler_begin(0, 1, 20.0)};
  World w(3, cfg, kcfg);
  const OpResult res = w.comm->broadcast(0, 512 * 1024, BcastAlgo::kMcast);
  EXPECT_TRUE(res.data_verified);
  EXPECT_GT(res.rnr_drops, 0u);
  EXPECT_GT(res.fetched_chunks, 0u);
}

TEST(Reliability, RnrDropsStayWithTheirCommunicator) {
  // Two communicators on the same hosts run at once. Only the one with a
  // starved staging ring drops; the other's result must not inherit those
  // drops through the shared NICs.
  Cluster cluster(fabric::make_star(3, {}), {});
  CommConfig starved = quick_recovery();
  starved.staging_slots = 4;
  Communicator lossy(cluster, {0, 1, 2}, starved);
  Communicator clean(cluster, {0, 1, 2}, quick_recovery());
  OpBase& a = lossy.start_broadcast(0, 512 * 1024, BcastAlgo::kMcast);
  OpBase& b = clean.start_broadcast(1, 1024 * 1024, BcastAlgo::kMcast);
  const OpResult rb = clean.finish(b);
  const OpResult ra = lossy.finish(a);
  EXPECT_TRUE(ra.data_verified);
  EXPECT_TRUE(rb.data_verified);
  EXPECT_GT(ra.rnr_drops, 0u);
  EXPECT_EQ(rb.rnr_drops, 0u);
  EXPECT_EQ(ra.rnr_drops + rb.rnr_drops,
            cluster.nic(0).ud_rnr_drops() + cluster.nic(1).ud_rnr_drops() +
                cluster.nic(2).ud_rnr_drops());
}

TEST(Reliability, UdStagingSlotsReturnAfterLossyOps) {
  // Every UD receive CQE gives its staging slot back exactly once: through
  // the staging copy when the chunk is new, at once when it is a duplicate
  // (multicast raced a fetch), late, or for a failed op. A slot kept by any
  // of those drains the staging rings over a long lossy run, until every
  // chunk RNR-drops into the slow path.
  constexpr std::size_t kRanks = 8;
  CommConfig cfg = quick_recovery();
  cfg.staging_slots = 256;
  ClusterConfig kcfg;
  kcfg.fabric.faults.burst.drop_good = 0.03;
  World w(kRanks, cfg, kcfg);
  auto posted = [&w] {
    std::size_t total = 0;
    for (std::size_t r = 0; r < kRanks; ++r) {
      Endpoint& ep = w.comm->ep(r);
      for (std::size_t s = 0; s < ep.num_subgroups(); ++s)
        total += ep.subgroup(s).ud->recv_queue_depth();
    }
    return total;
  };
  const std::size_t full =
      kRanks * w.comm->ep(0).num_subgroups() * cfg.staging_slots;
  ASSERT_EQ(posted(), full);
  for (int i = 0; i < 40; ++i) {
    const OpResult res = w.comm->allgather(64 * 1024, AllgatherAlgo::kMcast);
    ASSERT_TRUE(res.data_verified) << "op " << i;
    w.cluster->engine().run();  // late multicast copies still in flight
    ASSERT_EQ(posted(), full) << "op " << i;
  }
}

TEST(Reliability, FaultFreeStagingRingsStayOneRun) {
  // Fault-free, every staging slot is reposted in the order it was
  // consumed (the DMA engine drains in FIFO order), so each UD receive
  // queue stays one counted run and never stores a WR. Three ops wrap
  // each 256-slot ring more than twice.
  constexpr std::size_t kRanks = 8;
  CommConfig cfg;
  cfg.subgroups = 2;
  cfg.staging_slots = 256;
  World w(kRanks, cfg);
  for (int i = 0; i < 3; ++i) {
    const OpResult res = w.comm->allgather(256 * 1024, AllgatherAlgo::kMcast);
    ASSERT_TRUE(res.data_verified) << "op " << i;
    ASSERT_EQ(res.rnr_drops, 0u) << "op " << i;
    ASSERT_EQ(res.fetched_chunks, 0u) << "op " << i;
    w.cluster->engine().run();
    for (std::size_t r = 0; r < kRanks; ++r) {
      Endpoint& ep = w.comm->ep(r);
      std::size_t depth = 0;
      for (std::size_t s = 0; s < ep.num_subgroups(); ++s) {
        const rdma::UdQp& qp = *ep.subgroup(s).ud;
        EXPECT_EQ(qp.stored_recv_capacity(), 0u) << "rank " << r;
        depth += qp.recv_queue_depth();
      }
      EXPECT_EQ(depth, cfg.subgroups * cfg.staging_slots) << "rank " << r;
    }
  }
}

TEST(Reliability, DropsOnControlPlaneAreAbsorbedByRc) {
  // Control packets (barrier, final) ride RC: random loss there must only
  // delay, never corrupt.
  ClusterConfig kcfg;
  kcfg.fabric.faults.burst.drop_good = 0.02;
  kcfg.fabric.seed = 5;
  CommConfig cfg = quick_recovery();
  World w(4, cfg, kcfg);
  const OpResult res = w.comm->allgather(16 * 1024, AllgatherAlgo::kMcast);
  EXPECT_TRUE(res.data_verified);
}

TEST(Reliability, FetchedBytesAreCorrectNotJustPresent) {
  // Drop a specific chunk everywhere and verify its exact bytes after
  // recovery (guards against fetching from the wrong offset).
  World w(3, quick_recovery());
  w.cluster->fabric().set_drop_filter(
      [](fabric::NodeId, fabric::NodeId, const fabric::Packet& p) {
        return p.th.op == fabric::TransportOp::kUdSend && p.th.has_imm &&
               imm_chunk(p.th.imm) == 7;
      });
  const OpResult res = w.comm->broadcast(0, 64 * 1024, BcastAlgo::kMcast);
  EXPECT_TRUE(res.data_verified);
  EXPECT_EQ(res.fetched_chunks, 2u);
}

TEST(Reliability, DeadLeftNeighborFailsOverToNextRank) {
  // Host 2 loses a multicast chunk AND its left neighbor (host 1) is
  // unreachable from it for the first 400us — every 2->1 packet black-holes,
  // so the fetch request is never answered. Retries back off, exhaust the
  // cap, and rank 2 fails over to rank 1's own left neighbor (rank 0, the
  // root), which acks immediately; the op completes verified.
  CommConfig cfg = quick_recovery();
  cfg.fetch_retry_timeout = 30 * kMicrosecond;
  World w(4, cfg);
  auto& engine = w.cluster->engine();
  int mcast_pkts = 0;
  w.cluster->fabric().set_drop_filter(
      [&](fabric::NodeId, fabric::NodeId to, const fabric::Packet& p) {
        if (p.th.op == fabric::TransportOp::kUdSend && to == 2 &&
            ++mcast_pkts == 5)
          return true;  // the chunk host 2 will have to fetch
        // The "dead" left neighbor: RC retransmits into the void until the
        // window closes (after which the blocked kFetchReq/kFinal drain).
        return p.src_host == 2 && p.dst_host == 1 &&
               engine.now() < 400 * kMicrosecond;
      });
  const OpResult res = w.comm->broadcast(0, 64 * 1024, BcastAlgo::kMcast);
  EXPECT_TRUE(res.data_verified);
  EXPECT_FALSE(res.watchdog_fired);
  EXPECT_GE(res.fetch_retries, 2u);    // backoff against the dead target
  EXPECT_GE(res.fetch_failovers, 1u);  // then walk left past it
  EXPECT_GE(res.fetched_chunks, 1u);
}

TEST(Reliability, FailoverDetoursPastALaggingCandidate) {
  // As above, but one rank further right: host 3 loses a multicast chunk
  // and every 3->2 packet black-holes for the first 400us, so the fetch
  // from rank 2 exhausts its retries and fails over. The failover's next
  // candidate, rank 1, is marked slow in rank 3's health view, so the walk
  // detours to the first non-lagging survivor no farther away: rank 0, the
  // root (on a star every rank is equally far).
  CommConfig cfg = quick_recovery();
  cfg.fetch_retry_timeout = 30 * kMicrosecond;
  cfg.adapt.enabled = true;
  cfg.detector.enabled = false;  // no heartbeat samples move the scores
  World w(4, cfg);
  HealthMonitor* hm = w.comm->health();
  ASSERT_NE(hm, nullptr);
  hm->test_force_flap(3, 1, 1);  // one mark, no clear
  // Three instant ACKs lower rank 2's score far enough that its three
  // fetch timeouts do not mark it slow: the fetch must leave rank 2 by
  // failover, not by a slow-peer detour.
  for (int i = 0; i < 3; ++i) hm->note_fetch_ack(3, 2, 0);
  auto& engine = w.cluster->engine();
  int mcast_pkts = 0;
  w.cluster->fabric().set_drop_filter(
      [&](fabric::NodeId, fabric::NodeId to, const fabric::Packet& p) {
        if (p.th.op == fabric::TransportOp::kUdSend && to == 3 &&
            ++mcast_pkts == 5)
          return true;
        return p.src_host == 3 && p.dst_host == 2 &&
               engine.now() < 400 * kMicrosecond;
      });
  const OpResult res = w.comm->broadcast(0, 64 * 1024, BcastAlgo::kMcast);
  EXPECT_TRUE(res.data_verified);
  EXPECT_FALSE(res.watchdog_fired);
  EXPECT_FALSE(hm->slow(3, 2));
  EXPECT_EQ(res.fetch_failovers, 1u);
  EXPECT_EQ(res.fetch_detours, 1u);
  EXPECT_GE(res.fetched_chunks, 1u);
  std::vector<std::uint64_t> failover_targets;
  for (const auto& e : w.cluster->telemetry().recorder.merged())
    if (e.node == 3 && std::string(e.what) == "fetch_failover")
      failover_targets.push_back(e.b);
  EXPECT_EQ(failover_targets, (std::vector<std::uint64_t>{0}));
}

TEST(Reliability, LostFetchRequestIsRetriedWithoutFailover) {
  // Transient control-plane outage: the first fetch request (and the RC
  // retransmits inside the window) vanish, but the target itself is fine.
  // A retry after the window must succeed against the SAME target.
  CommConfig cfg = quick_recovery();
  cfg.fetch_retry_timeout = 150 * kMicrosecond;  // first retry at ~210us
  World w(4, cfg);
  auto& engine = w.cluster->engine();
  int mcast_pkts = 0;
  w.cluster->fabric().set_drop_filter(
      [&](fabric::NodeId, fabric::NodeId to, const fabric::Packet& p) {
        if (p.th.op == fabric::TransportOp::kUdSend && to == 2 &&
            ++mcast_pkts == 5)
          return true;
        return p.src_host == 2 && p.dst_host == 1 &&
               engine.now() < 180 * kMicrosecond;
      });
  const OpResult res = w.comm->broadcast(0, 64 * 1024, BcastAlgo::kMcast);
  EXPECT_TRUE(res.data_verified);
  EXPECT_EQ(res.fetch_failovers, 0u);
  EXPECT_GE(res.fetched_chunks, 1u);
}

TEST(Reliability, AdaptiveCutoffTightensAfterLossyOps) {
  // Back-to-back lossy ops halve the effective alpha (floored); a clean op
  // relaxes it back toward the configured value.
  CommConfig cfg = quick_recovery();  // alpha = 50us
  cfg.cutoff_alpha_min = 10 * kMicrosecond;
  ClusterConfig kcfg;
  kcfg.fabric.faults.burst.drop_good = 0.02;
  kcfg.fabric.seed = 7;
  World w(4, cfg, kcfg);
  EXPECT_EQ(w.comm->effective_cutoff_alpha(), 50 * kMicrosecond);
  for (int i = 0; i < 4; ++i)
    EXPECT_TRUE(
        w.comm->allgather(64 * 1024, AllgatherAlgo::kMcast).data_verified);
  EXPECT_LT(w.comm->effective_cutoff_alpha(), 50 * kMicrosecond);
  EXPECT_GE(w.comm->effective_cutoff_alpha(), 10 * kMicrosecond);
}

TEST(Reliability, BaselinesSurviveLossViaRc) {
  ClusterConfig kcfg;
  kcfg.fabric.faults.burst.drop_good = 0.01;
  kcfg.fabric.seed = 21;
  World w(4, {}, kcfg);
  EXPECT_TRUE(
      w.comm->allgather(32 * 1024, AllgatherAlgo::kRing).data_verified);
  EXPECT_TRUE(
      w.comm->broadcast(0, 32 * 1024, BcastAlgo::kBinomial).data_verified);
}

TEST(Reliability, FetchTargetCrashWhileAwaitingAckFailsOver) {
  // Engineered worst case for the repair path: all multicast to ranks 1 and
  // 2 is dropped, so at cutoff rank 2 fetches from rank 1 — whose ACK is
  // deferred (it lacks the data too) while it recursively fetches from the
  // root. Rank 1 then crashes mid-chain: whatever state rank 2's fetch was
  // in (awaiting the ACK, or with RDMA Reads already in flight toward the
  // dead NIC), it must discount and fail over to the root directly.
  ClusterConfig kcfg;
  kcfg.fabric.faults.events = {
      fabric::FaultEvent::node_crash(180 * kMicrosecond, 1)};
  World w(4, quick_recovery(), kcfg);
  w.cluster->fabric().set_drop_filter(
      [](fabric::NodeId, fabric::NodeId to, const fabric::Packet& p) {
        return p.th.op == fabric::TransportOp::kUdSend &&
               (to == 1 || to == 2);
      });
  const OpResult res =
      w.comm->broadcast(0, 1024 * 1024, BcastAlgo::kMcast);
  EXPECT_FALSE(res.failed);
  EXPECT_FALSE(res.watchdog_fired);
  EXPECT_EQ(res.status, OpStatus::kOk);
  EXPECT_TRUE(res.data_verified);
  EXPECT_EQ(res.crashed_ranks, (std::vector<std::size_t>{1}));
  EXPECT_GE(res.fetched_chunks, 1u);
}

TEST(Reliability, MassCrashLeavesSoleSurvivorDegradedButDone) {
  // Three of four ranks die mid-allgather. The survivor's census (against
  // itself) re-roots blocks it already holds in full and abandons the rest:
  // the op ends structurally — kOk or kPartial naming a subset of the dead
  // roots' blocks — with the survivor's buffers verified, and the verdict
  // cross-checked against the metrics registry.
  ClusterConfig kcfg;
  kcfg.fabric.faults.events = {
      fabric::FaultEvent::node_crash(20 * kMicrosecond, 0),
      fabric::FaultEvent::node_crash(22 * kMicrosecond, 1),
      fabric::FaultEvent::node_crash(24 * kMicrosecond, 2)};
  World w(4, quick_recovery(), kcfg);
  const OpResult res = w.comm->allgather(512 * 1024, AllgatherAlgo::kMcast);
  EXPECT_FALSE(res.failed);
  EXPECT_FALSE(res.watchdog_fired);
  EXPECT_TRUE(res.data_verified);
  EXPECT_EQ(res.crashed_ranks, (std::vector<std::size_t>{0, 1, 2}));
  for (const std::size_t b : res.missing_blocks) EXPECT_LT(b, 3u);
  auto& metrics = w.cluster->telemetry().metrics;
  EXPECT_EQ(metrics.counter("coll.missing_blocks").value(),
            res.missing_blocks.size());
  EXPECT_EQ(metrics.counter("coll.reroots").value(), res.reroots);
  EXPECT_EQ(metrics
                .counter("coll.ops",
                         {{"result", to_string(res.status)}})
                .value(),
            1u);
}

/// A 64 KiB multicast Allgather on 8 ranks over two leaves of four hosts
/// under two spines, with 2% uniform loss and rank 0 crashing at 30 us.
OpResult crash_under_loss(bool reliability,
                          std::vector<std::int32_t>* incomplete) {
  CommConfig cfg = quick_recovery();
  cfg.reliability = reliability;
  ClusterConfig kcfg;
  kcfg.fabric.faults.burst.drop_good = 0.02;
  kcfg.fabric.seed = 77;
  kcfg.fabric.faults.events = {
      fabric::FaultEvent::node_crash(30 * kMicrosecond, 0)};
  Cluster cluster(fabric::make_fat_tree(2, 4, 2, 1, {}, {}), kcfg);
  std::vector<fabric::NodeId> ids;
  for (std::size_t h = 0; h < 8; ++h)
    ids.push_back(static_cast<fabric::NodeId>(h));
  Communicator comm(cluster, ids, cfg);
  const OpResult res = comm.allgather(64 * 1024, AllgatherAlgo::kMcast);
  if (incomplete != nullptr)
    for (const auto& e : cluster.telemetry().recorder.merged())
      if (std::string(e.what) == "rank_incomplete")
        incomplete->push_back(e.node);
  return res;
}

TEST(Reliability, EagerReRootBeforeCutoffStillFetchesEveryBlock) {
  // Rank 6's barrier waits on the dead rank 0 (through rank 2), so the
  // eager block-0 re-root reaches it in the fast path: it enters recovery
  // fetching block 0 only. Its cutoff must still fetch the other blocks
  // it lacks, or it never completes and the watchdog fails the op.
  const OpResult res = crash_under_loss(true, nullptr);
  EXPECT_FALSE(res.failed) << res.error;
  EXPECT_FALSE(res.watchdog_fired);
  EXPECT_TRUE(res.data_verified);
  EXPECT_EQ(res.crashed_ranks, (std::vector<std::size_t>{0}));
  EXPECT_GE(res.reroots, 1u);
  EXPECT_GE(res.fetched_chunks, 1u);
}

TEST(Reliability, WatchdogCountsSurvivorsOnly) {
  // Without the slow path the lossy op dies by watchdog. The dead rank is
  // not waited on: the verdict and the flight-recorder records name
  // surviving ranks only.
  std::vector<std::int32_t> incomplete;
  const OpResult res = crash_under_loss(false, &incomplete);
  ASSERT_TRUE(res.failed);
  ASSERT_TRUE(res.watchdog_fired);
  EXPECT_FALSE(incomplete.empty());
  for (const std::int32_t rank : incomplete) EXPECT_NE(rank, 0);
  const std::string expect = "watchdog: " +
                             std::to_string(incomplete.size()) +
                             "/7 surviving ranks incomplete";
  EXPECT_EQ(res.error.rfind(expect, 0), 0u) << res.error;
}

TEST(Reliability, DetectorConfirmationsAreExactAndPosthumousIgnored) {
  // Every survivor must confirm exactly the crashed peers — no false
  // positives on live-but-busy ranks — and heartbeats already on the wire
  // at crash time (or confirmed-late stragglers) count as posthumous.
  ClusterConfig kcfg;
  kcfg.fabric.faults.events = {
      fabric::FaultEvent::node_crash(30 * kMicrosecond, 2)};
  World w(4, quick_recovery(), kcfg);
  const OpResult res = w.comm->broadcast(0, 512 * 1024, BcastAlgo::kMcast);
  EXPECT_FALSE(res.failed);
  EXPECT_TRUE(res.data_verified);
  const FailureDetector* det = w.comm->detector();
  ASSERT_NE(det, nullptr);
  for (std::size_t obs = 0; obs < 4; ++obs) {
    if (obs == 2) continue;
    for (std::size_t peer = 0; peer < 4; ++peer) {
      if (peer == obs) continue;
      EXPECT_EQ(det->dead(obs, peer), peer == 2)
          << "observer " << obs << " peer " << peer;
    }
  }
  // 3 survivors x 1 dead peer.
  EXPECT_EQ(det->confirmed_dead(), 3u);
}

// --- ring-lease detector ---------------------------------------------------
// Rank r heartbeats its two nearest right-alive ranks and watches its two
// nearest left-alive ranks, so a victim v is watched by v+1 and v+2 and every
// other survivor learns of its death from a kDead notice.

TEST(Reliability, RingDetectorSingleCrashOnlyWatchersSuspect) {
  ClusterConfig kcfg;
  kcfg.fabric.faults.events = {
      fabric::FaultEvent::node_crash(30 * kMicrosecond, 5)};
  World w(16, quick_recovery(), kcfg);
  const OpResult res = w.comm->allgather(256 * 1024, AllgatherAlgo::kMcast);
  EXPECT_FALSE(res.failed);
  EXPECT_TRUE(res.data_verified);
  const FailureDetector* det = w.comm->detector();
  ASSERT_NE(det, nullptr);
  for (std::size_t obs = 0; obs < 16; ++obs) {
    if (obs == 5) continue;
    for (std::size_t peer = 0; peer < 16; ++peer) {
      if (peer == obs) continue;
      EXPECT_EQ(det->dead(obs, peer), peer == 5)
          << "observer " << obs << " peer " << peer;
      const bool watcher = peer == 5 && (obs == 6 || obs == 7);
      EXPECT_EQ(det->suspicion(obs, peer) > 0, watcher)
          << "observer " << obs << " peer " << peer;
    }
  }
  EXPECT_EQ(det->confirmed_dead(), 15u);
  // The first watcher to reach the threshold confirms from its own leases;
  // the other may learn from its notice first.
  EXPECT_EQ(std::max(det->suspicion(6, 5), det->suspicion(7, 5)),
            coll::FailureDetector::kSuspectThreshold);
  EXPECT_EQ(det->suspicions(), det->suspicion(6, 5) + det->suspicion(7, 5));
  // The watchers' rings closed over the gap.
  EXPECT_EQ(det->watched(6), (std::vector<std::size_t>{4, 3}));
  EXPECT_EQ(det->targets(4), (std::vector<std::size_t>{6, 7}));
}

TEST(Reliability, RingDetectorAdjacentCrashesAreBothConfirmed) {
  // Ranks 5 and 6 die together, so 6 can never report 5. Rank 7 watches
  // both; rank 8 watches 6 and then 5, which enters its set with a fresh
  // lease. Every survivor confirms both, and nobody else.
  ClusterConfig kcfg;
  kcfg.fabric.faults.events = {
      fabric::FaultEvent::node_crash(30 * kMicrosecond, 5),
      fabric::FaultEvent::node_crash(30 * kMicrosecond, 6)};
  World w(16, quick_recovery(), kcfg);
  const OpResult res = w.comm->allgather(256 * 1024, AllgatherAlgo::kMcast);
  EXPECT_FALSE(res.failed);
  EXPECT_TRUE(res.data_verified);
  EXPECT_EQ(res.crashed_ranks, (std::vector<std::size_t>{5, 6}));
  const FailureDetector* det = w.comm->detector();
  ASSERT_NE(det, nullptr);
  for (std::size_t obs = 0; obs < 16; ++obs) {
    if (obs == 5 || obs == 6) continue;
    for (std::size_t peer = 0; peer < 16; ++peer) {
      if (peer == obs) continue;
      EXPECT_EQ(det->dead(obs, peer), peer == 5 || peer == 6)
          << "observer " << obs << " peer " << peer;
    }
  }
  EXPECT_EQ(det->confirmed_dead(), 14u * 2u);
}

TEST(Reliability, RingDetectorFalseSuspicionStaysWithTheVictim) {
  // Rank 5's access link goes down for 1.5 ms, long enough for its
  // watchers to confirm it dead although it never crashed. Cut off from
  // heartbeats, rank 5 then confirms its own watch set dead one rank after
  // another and sends kDead notices once the link is back. Every other
  // survivor already holds 5 dead and must drop them, as it drops 5's
  // posthumous heartbeats, or one wrong suspicion spreads to every view.
  constexpr std::size_t kRanks = 16;
  constexpr std::size_t kVictim = 5;
  const auto sw = static_cast<fabric::NodeId>(kRanks);  // star switch
  ClusterConfig kcfg;
  kcfg.fabric.faults.events = {
      fabric::FaultEvent::link_down(30 * kMicrosecond, kVictim, sw),
      fabric::FaultEvent::link_up(1530 * kMicrosecond, kVictim, sw)};
  World w(kRanks, quick_recovery(), kcfg);
  // Back-to-back ops keep the detector ticking across the outage and well
  // past it, so notices delayed by the outage land.
  while (w.cluster->engine().now() < 3000 * kMicrosecond)
    w.comm->allgather(256 * 1024, AllgatherAlgo::kMcast);
  const FailureDetector* det = w.comm->detector();
  ASSERT_NE(det, nullptr);
  // The victim's view did go wrong: it lost every heartbeat for 1.5 ms.
  EXPECT_TRUE(det->dead(kVictim, kVictim - 1));
  EXPECT_GT(det->posthumous_heartbeats(), 0u);
  for (std::size_t obs = 0; obs < kRanks; ++obs) {
    if (obs == kVictim) continue;
    for (std::size_t peer = 0; peer < kRanks; ++peer) {
      if (peer == obs) continue;
      EXPECT_EQ(det->dead(obs, peer), peer == kVictim)
          << "observer " << obs << " peer " << peer;
    }
  }
}

TEST(Reliability, RingDetectorSendsTwoHeartbeatsPerTick) {
  // Fault-free 64 ranks: every sweep sends exactly one heartbeat to each of
  // its two ring targets — O(P) per period, not O(P^2) — and no lease
  // ever expires.
  World w(64);
  const OpResult res = w.comm->allgather(64 * 1024, AllgatherAlgo::kMcast);
  EXPECT_TRUE(res.data_verified);
  const FailureDetector* det = w.comm->detector();
  ASSERT_NE(det, nullptr);
  EXPECT_GT(det->ticks(), 64u);
  EXPECT_EQ(det->heartbeats_sent(), 2 * det->ticks());
  EXPECT_EQ(det->suspicions(), 0u);
  EXPECT_EQ(det->confirmed_dead(), 0u);
  for (std::size_t r = 0; r < 64; ++r) {
    EXPECT_EQ(det->targets(r),
              (std::vector<std::size_t>{(r + 1) % 64, (r + 2) % 64}));
    EXPECT_EQ(det->watched(r),
              (std::vector<std::size_t>{(r + 63) % 64, (r + 62) % 64}));
  }
}

TEST(Reliability, RingDetectorSmallWorldsWatchEveryPeer) {
  // With two or three ranks the ring neighbourhood is every peer, so each
  // sweep heartbeats all P-1 of them. The counts are those an all-pairs
  // heartbeat mesh sends for the same ops.
  const struct {
    std::size_t ranks;
    std::uint64_t heartbeats;
  } cases[] = {{2, 15}, {3, 58}};
  for (const auto& c : cases) {
    World w(c.ranks);
    EXPECT_TRUE(w.comm->allgather(4 * 1024 * 1024, AllgatherAlgo::kMcast)
                    .data_verified);
    EXPECT_TRUE(w.comm->broadcast(0, 8 * 1024 * 1024, BcastAlgo::kMcast)
                    .data_verified);
    const FailureDetector* det = w.comm->detector();
    ASSERT_NE(det, nullptr);
    EXPECT_EQ(det->heartbeats_sent(), c.heartbeats) << c.ranks << " ranks";
    EXPECT_EQ(det->heartbeats_sent(), (c.ranks - 1) * det->ticks());
    for (std::size_t r = 0; r < c.ranks; ++r) {
      EXPECT_EQ(det->targets(r).size(), c.ranks - 1);
      EXPECT_EQ(det->watched(r).size(), c.ranks - 1);
    }
  }
}

}  // namespace
}  // namespace mccl::coll
