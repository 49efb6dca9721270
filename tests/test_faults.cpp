// Fault-injection tests: scheduled link/switch outages, Gilbert-Elliott
// burst loss, degradation windows and stragglers (fabric/faults.hpp), and
// the hardened slow path that must survive them — fetch retry/failover and
// the op watchdog (coll/mcast_coll.cpp).
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "src/debug/validate.hpp"
#include "tests/coll_test_util.hpp"

namespace mccl::coll {
namespace {

using testing::World;

// Two-leaf, two-spine fat tree: hosts 0-3 on leaf 8, hosts 4-7 on leaf 9,
// spines 10-11. Cutting leaf8<->spine10 leaves an equal-cost alternate
// (via spine 11) for every unicast flow.
constexpr std::size_t kFtRanks = 8;

struct FtWorld {
  std::unique_ptr<Cluster> cluster;
  std::unique_ptr<Communicator> comm;

  explicit FtWorld(CommConfig ccfg = {}, ClusterConfig kcfg = {}) {
    cluster = std::make_unique<Cluster>(
        fabric::make_fat_tree(2, 4, 2, 1, {}, {}), kcfg);
    std::vector<fabric::NodeId> ids;
    for (std::size_t h = 0; h < kFtRanks; ++h)
      ids.push_back(static_cast<fabric::NodeId>(h));
    comm = std::make_unique<Communicator>(*cluster, ids, ccfg);
  }
};

CommConfig quick_recovery() {
  CommConfig cfg;
  cfg.cutoff_alpha = 50 * kMicrosecond;
  return cfg;
}

TEST(Faults, LinkDownMidBroadcastRecoversViaFetch) {
  // A trunk dies while multicast data is on the wire. The mcast tree is not
  // rebuilt — every chunk crossing the dead edge black-holes — but unicast
  // (control + fetch reads) re-routes over the surviving spine, so the
  // slow path reconstructs the missing data.
  ClusterConfig kcfg;
  kcfg.fabric.faults.events = {
      fabric::FaultEvent::link_down(15 * kMicrosecond, 8, 10)};
  FtWorld w(quick_recovery(), kcfg);
  const OpResult res = w.comm->broadcast(0, 512 * 1024, BcastAlgo::kMcast);
  EXPECT_TRUE(res.data_verified);
  EXPECT_FALSE(res.failed);
  EXPECT_FALSE(res.watchdog_fired);
  EXPECT_GE(res.fetched_chunks, 1u);
  EXPECT_GT(w.cluster->fabric().traffic().black_holed, 0u);
}

TEST(Faults, LinkUpRestoresTheFastPath) {
  // After the outage window closes, a second broadcast must run clean.
  ClusterConfig kcfg;
  // The outage window [15us, 100us] covers the first broadcast's transfer
  // phase but closes before the second broadcast starts.
  kcfg.fabric.faults.events = {
      fabric::FaultEvent::link_down(15 * kMicrosecond, 8, 10),
      fabric::FaultEvent::link_up(100 * kMicrosecond, 8, 10)};
  FtWorld w(quick_recovery(), kcfg);
  const OpResult first = w.comm->broadcast(0, 512 * 1024, BcastAlgo::kMcast);
  EXPECT_TRUE(first.data_verified);
  const OpResult second = w.comm->broadcast(0, 512 * 1024, BcastAlgo::kMcast);
  EXPECT_TRUE(second.data_verified);
  EXPECT_EQ(second.fetched_chunks, 0u);
}

TEST(Faults, SwitchDownWithNoAlternateCompletesDegradedViaDetector) {
  // A star's single switch dies mid-broadcast: a full partition. Every
  // rank's failure detector confirms every peer dead, each partition-of-one
  // runs the root-repair census against itself, and the leaves that never
  // received block 0 declare it unrecoverable: degraded completion
  // (kPartial naming exactly that block), never a watchdog abort or hang.
  CommConfig cfg = quick_recovery();
  ClusterConfig kcfg;
  // Star topology: hosts 0-3, switch 4.
  kcfg.fabric.faults.events = {
      fabric::FaultEvent::switch_down(15 * kMicrosecond, 4)};
  World w(4, cfg, kcfg);
  const OpResult res = w.comm->broadcast(0, 512 * 1024, BcastAlgo::kMcast);
  EXPECT_FALSE(res.failed);
  EXPECT_FALSE(res.watchdog_fired);
  EXPECT_EQ(res.status, OpStatus::kPartial);
  EXPECT_EQ(res.missing_blocks, (std::vector<std::size_t>{0}));
  EXPECT_TRUE(res.data_verified);  // non-abandoned blocks only
  EXPECT_GT(w.cluster->fabric().traffic().black_holed, 0u);
  EXPECT_GT(w.cluster->telemetry()
                .metrics.counter("detector.confirmed_dead")
                .value(),
            0u);
}

TEST(Faults, SwitchDownWithDetectorDisabledFailsViaWatchdog) {
  // Same partition with the failure detector off: the pre-crash-tolerance
  // contract — a structured watchdog failure, not a hang — is preserved.
  CommConfig cfg = quick_recovery();
  cfg.detector.enabled = false;
  ClusterConfig kcfg;
  kcfg.fabric.faults.events = {
      fabric::FaultEvent::switch_down(15 * kMicrosecond, 4)};
  World w(4, cfg, kcfg);
  const OpResult res = w.comm->broadcast(0, 512 * 1024, BcastAlgo::kMcast);
  EXPECT_TRUE(res.failed);
  EXPECT_TRUE(res.watchdog_fired);
  EXPECT_FALSE(res.data_verified);
  EXPECT_EQ(res.status, OpStatus::kFailed);
  EXPECT_NE(res.error.find("watchdog"), std::string::npos);
}

TEST(Faults, RecoveryDisabledLinkCutDiesByWatchdogNotHang) {
  // reliability=false: the cutoff never arms a fetch, so lost multicast
  // data is unrecoverable. Pre-hardening this CHECK-aborted; now it must
  // produce a structured failure.
  CommConfig cfg = quick_recovery();
  cfg.reliability = false;
  ClusterConfig kcfg;
  kcfg.fabric.faults.events = {
      fabric::FaultEvent::link_down(15 * kMicrosecond, 8, 10)};
  FtWorld w(cfg, kcfg);
  const OpResult res = w.comm->broadcast(0, 512 * 1024, BcastAlgo::kMcast);
  EXPECT_TRUE(res.failed);
  EXPECT_TRUE(res.watchdog_fired);
  EXPECT_FALSE(res.data_verified);
}

TEST(Faults, GilbertElliottBurstLossRecoversVerified) {
  CommConfig cfg = quick_recovery();
  ClusterConfig kcfg;
  kcfg.fabric.faults.burst.p_enter_bad = 0.002;
  kcfg.fabric.faults.burst.p_exit_bad = 0.05;
  kcfg.fabric.faults.burst.drop_bad = 0.5;
  kcfg.fabric.seed = 11;
  World w(4, cfg, kcfg);
  const OpResult res = w.comm->allgather(128 * 1024, AllgatherAlgo::kMcast);
  EXPECT_TRUE(res.data_verified);
  EXPECT_GT(w.cluster->fabric().faults().burst_drops(), 0u);
  EXPECT_GT(w.cluster->fabric().faults().bursts_entered(), 0u);
}

TEST(Faults, GilbertElliottIsDeterministicAcrossIdenticalSeeds) {
  auto run = [](std::uint64_t seed) {
    CommConfig cfg;
    cfg.cutoff_alpha = 50 * kMicrosecond;
    ClusterConfig kcfg;
    kcfg.fabric.faults.burst.p_enter_bad = 0.002;
    kcfg.fabric.faults.burst.p_exit_bad = 0.05;
    kcfg.fabric.faults.burst.drop_bad = 0.5;
    kcfg.fabric.seed = seed;
    World w(4, cfg, kcfg);
    const OpResult res = w.comm->allgather(128 * 1024, AllgatherAlgo::kMcast);
    EXPECT_TRUE(res.data_verified);
    return std::tuple{res.finish, res.rank_finish, res.fetched_chunks,
                      res.fetch_retries, res.fetch_failovers,
                      w.cluster->fabric().faults().burst_drops(),
                      w.cluster->fabric().faults().bursts_entered(),
                      w.cluster->fabric().traffic().total_bytes};
  };
  EXPECT_EQ(run(21), run(21));  // bit-identical counters and timings
  // And a different seed produces a different burst pattern.
  const auto a = run(21), b = run(22);
  EXPECT_NE(std::get<5>(a), std::get<5>(b));
}

TEST(Faults, FaultTimelineIsDeterministic) {
  // Identical scheduled outages => bit-identical results, including the
  // recovery counters and black-hole count (acceptance criterion).
  auto run = [] {
    ClusterConfig kcfg;
    kcfg.fabric.faults.events = {
        fabric::FaultEvent::link_down(15 * kMicrosecond, 8, 10),
        fabric::FaultEvent::link_up(300 * kMicrosecond, 8, 10)};
    CommConfig cfg;
    cfg.cutoff_alpha = 50 * kMicrosecond;
    FtWorld w(cfg, kcfg);
    const OpResult res = w.comm->broadcast(0, 512 * 1024, BcastAlgo::kMcast);
    EXPECT_TRUE(res.data_verified);
    return std::tuple{res.finish, res.rank_finish, res.fetched_chunks,
                      res.fetch_retries, res.fetch_failovers,
                      w.cluster->fabric().faults().black_holed(),
                      w.cluster->fabric().traffic().total_bytes};
  };
  EXPECT_EQ(run(), run());
}

TEST(Faults, StragglerRankCompletesVerified) {
  // One host's progress-engine datapath runs 20x slower for a window; the
  // collective stretches but completes correct, with no watchdog.
  ClusterConfig kcfg;
  kcfg.fabric.faults.events = {
      fabric::FaultEvent::straggler_begin(0, 2, 20.0),
      fabric::FaultEvent::straggler_end(500 * kMicrosecond, 2)};
  World straggling(4, quick_recovery(), kcfg);
  const OpResult slow =
      straggling.comm->broadcast(0, 256 * 1024, BcastAlgo::kMcast);
  EXPECT_TRUE(slow.data_verified);
  EXPECT_FALSE(slow.watchdog_fired);

  World clean(4, quick_recovery());
  const OpResult fast = clean.comm->broadcast(0, 256 * 1024, BcastAlgo::kMcast);
  EXPECT_TRUE(fast.data_verified);
  EXPECT_GT(slow.duration(), fast.duration());
}

TEST(Faults, DegradedLinkSlowsButDeliversEverything) {
  // 10% bandwidth + 20us extra latency on one host link: no loss, just a
  // longer tail — nothing to fetch, nothing black-holed.
  ClusterConfig kcfg;
  kcfg.fabric.faults.events = {
      fabric::FaultEvent::degrade(0, 2, 4, 0.1, 20 * kMicrosecond)};
  World w(4, quick_recovery(), kcfg);  // star: host 2 <-> switch 4
  const OpResult res = w.comm->broadcast(0, 128 * 1024, BcastAlgo::kMcast);
  EXPECT_TRUE(res.data_verified);
  EXPECT_EQ(w.cluster->fabric().traffic().black_holed, 0u);

  World clean(4, quick_recovery());
  const OpResult fast = clean.comm->broadcast(0, 128 * 1024, BcastAlgo::kMcast);
  ASSERT_TRUE(fast.data_verified);
  EXPECT_GT(res.duration(), fast.duration());
}

TEST(Faults, PerLaneDropCountersSplitControlFromBulk) {
  // Uniform loss hits both lanes; the per-lane counters must partition the
  // total drop count.
  ClusterConfig kcfg;
  kcfg.fabric.faults.burst.drop_good = 0.02;
  kcfg.fabric.seed = 5;
  World w(4, quick_recovery(), kcfg);
  const OpResult res = w.comm->allgather(128 * 1024, AllgatherAlgo::kMcast);
  EXPECT_TRUE(res.data_verified);
  const auto t = w.cluster->fabric().traffic();
  EXPECT_GT(t.drops, 0u);
  EXPECT_EQ(t.drops, t.ctrl_drops + t.bulk_drops);
  EXPECT_GT(t.bulk_drops, 0u);  // data dominates the packet mix
}

// --------------------------------------------------------------------------
// Node-crash matrix: a host dies outright mid-op (NIC silenced, nothing
// transmitted or delivered ever again). Survivors must detect, repair the
// rings, and finish — clean when the data is recoverable, degraded when it
// is not, never a watchdog abort or a hang.
// --------------------------------------------------------------------------

TEST(Faults, LeafCrashMidBroadcastSurvivorsCompleteClean) {
  // A non-root leaf crashes while the broadcast is in flight. The root (and
  // its block) survive, so every survivor must end kOk with verified
  // buffers; the dead rank is reported, exempt from verification, and the
  // fetch/handshake rings are re-closed around it.
  ClusterConfig kcfg;
  kcfg.fabric.faults.events = {
      fabric::FaultEvent::node_crash(15 * kMicrosecond, 5)};
  FtWorld w(quick_recovery(), kcfg);
  const OpResult res = w.comm->broadcast(0, 512 * 1024, BcastAlgo::kMcast);
  EXPECT_FALSE(res.failed);
  EXPECT_FALSE(res.watchdog_fired);
  EXPECT_EQ(res.status, OpStatus::kOk);
  EXPECT_TRUE(res.data_verified);
  EXPECT_TRUE(res.missing_blocks.empty());
  EXPECT_EQ(res.crashed_ranks, (std::vector<std::size_t>{5}));
}

TEST(Faults, RootCrashMidBroadcastReRootsOrCompletesDegraded) {
  // The (only) block root crashes mid-op. If any survivor already holds the
  // block in full, the repair census re-roots the fetch chain there and
  // everyone finishes clean; if the crash came too early for that, the
  // coordinator declares the block dead and survivors complete degraded.
  // Either way: no watchdog, no hang, and the verdict names the situation.
  ClusterConfig kcfg;
  kcfg.fabric.faults.events = {
      fabric::FaultEvent::node_crash(40 * kMicrosecond, 0)};
  FtWorld w(quick_recovery(), kcfg);
  const OpResult res = w.comm->broadcast(0, 512 * 1024, BcastAlgo::kMcast);
  EXPECT_FALSE(res.failed);
  EXPECT_FALSE(res.watchdog_fired);
  EXPECT_TRUE(res.data_verified);
  EXPECT_EQ(res.crashed_ranks, (std::vector<std::size_t>{0}));
  if (res.status == OpStatus::kOk) {
    // Data outran the crash (or a holder was re-rooted): nothing missing.
    // The handshake ring still had to re-close around the dead root.
    EXPECT_TRUE(res.missing_blocks.empty());
  } else {
    EXPECT_EQ(res.status, OpStatus::kPartial);
    EXPECT_EQ(res.missing_blocks, (std::vector<std::size_t>{0}));
  }
}

TEST(Faults, DeadRootCensusReRootsAtSurvivingHolder) {
  // Force the re-root path to be decisive: the cutoff fetch is disabled, so
  // a rank that lost its multicast data has exactly one way to the block —
  // the census re-rooting it at a surviving full holder. Star of 4: all
  // multicast to rank 1 is dropped, then the root crashes.
  CommConfig cfg = quick_recovery();
  cfg.reliability = false;
  ClusterConfig kcfg;
  kcfg.fabric.faults.events = {
      fabric::FaultEvent::node_crash(60 * kMicrosecond, 0)};
  World w(4, cfg, kcfg);
  w.cluster->fabric().set_drop_filter(
      [](fabric::NodeId, fabric::NodeId to, const fabric::Packet& p) {
        return p.th.op == fabric::TransportOp::kUdSend && to == 1;
      });
  const OpResult res = w.comm->broadcast(0, 128 * 1024, BcastAlgo::kMcast);
  EXPECT_FALSE(res.failed);
  EXPECT_FALSE(res.watchdog_fired);
  EXPECT_EQ(res.status, OpStatus::kOk);
  EXPECT_TRUE(res.data_verified);
  EXPECT_EQ(res.crashed_ranks, (std::vector<std::size_t>{0}));
  EXPECT_GE(res.reroots, 1u);
  EXPECT_GE(res.fetched_chunks, 1u);
}

TEST(Faults, EarlyRootCrashIsDegradedNotHung) {
  // Crash the root before its multicast can deliver a full block anywhere:
  // the census finds no surviving full holder and the block is declared
  // dead. Survivors still complete (degraded), promptly and structurally.
  // Completion waits on the count of full-or-abandoned blocks, so this
  // also covers the abandon path of that count; in validate builds every
  // completion check recounts it ("coll.blocks_satisfied").
  ClusterConfig kcfg;
  kcfg.fabric.faults.events = {
      fabric::FaultEvent::node_crash(2 * kMicrosecond, 0)};
  FtWorld w(quick_recovery(), kcfg);
  debug::ViolationTrap trap;
  const OpResult res = w.comm->broadcast(0, 4 * 1024 * 1024, BcastAlgo::kMcast);
  EXPECT_FALSE(res.failed);
  EXPECT_FALSE(res.watchdog_fired);
  EXPECT_EQ(res.status, OpStatus::kPartial);
  EXPECT_EQ(res.missing_blocks, (std::vector<std::size_t>{0}));
  EXPECT_TRUE(res.data_verified);
  EXPECT_TRUE(trap.empty());  // coll.blocks_satisfied among them
}

// The point-to-point baselines are not crash-tolerant, but a crash must
// still end them with a verdict. Rank 5 dies before its ring neighbour
// receives anything from it; once the detector confirms the death, the op
// fails with a structured error instead of draining the simulation.
TEST(Faults, RingAllgatherFailsWhenMemberCrashes) {
  ClusterConfig kcfg;
  kcfg.fabric.faults.events = {
      fabric::FaultEvent::node_crash(15 * kMicrosecond, 5)};
  FtWorld w({}, kcfg);
  const OpResult res = w.comm->allgather(256 * 1024, AllgatherAlgo::kRing);
  EXPECT_TRUE(res.failed);
  EXPECT_EQ(res.status, OpStatus::kFailed);
  EXPECT_FALSE(res.data_verified);
  EXPECT_NE(res.error.find("rank 5"), std::string::npos) << res.error;
  EXPECT_EQ(res.crashed_ranks, (std::vector<std::size_t>{5}));
}

TEST(Faults, ScatterAllgatherBroadcastFailsWhenMemberCrashes) {
  ClusterConfig kcfg;
  kcfg.fabric.faults.events = {
      fabric::FaultEvent::node_crash(15 * kMicrosecond, 5)};
  FtWorld w({}, kcfg);
  const OpResult res =
      w.comm->broadcast(0, 1024 * 1024, BcastAlgo::kScatterAllgather);
  EXPECT_TRUE(res.failed);
  EXPECT_EQ(res.status, OpStatus::kFailed);
  EXPECT_FALSE(res.data_verified);
  EXPECT_EQ(res.crashed_ranks, (std::vector<std::size_t>{5}));
}

TEST(Faults, OpStartedInsideCrashFanOutLeavesTheLoopSound) {
  // Rank 5's death confirmation fans out to both running ring Allgathers.
  // A fails inside that fan-out, and its on_done starts a multicast
  // Broadcast, which grows (reallocates) the communicator's op list under
  // the loop: a loop holding an iterator into the list then reads freed
  // memory (ASan: heap-use-after-free). B must still hear of the death, and
  // the Broadcast runs on the survivors.
  ClusterConfig kcfg;
  kcfg.fabric.faults.events = {
      fabric::FaultEvent::node_crash(15 * kMicrosecond, 5)};
  FtWorld w({}, kcfg);
  OpBase* bcast = nullptr;
  OpBase& a = w.comm->start_allgather(256 * 1024, AllgatherAlgo::kRing);
  a.set_on_done([&](OpBase&) {
    bcast = &w.comm->start_broadcast(0, 64 * 1024, BcastAlgo::kMcast);
  });
  OpBase& b = w.comm->start_allgather(256 * 1024, AllgatherAlgo::kRing);
  EXPECT_TRUE(w.comm->finish(a).failed);
  EXPECT_TRUE(w.comm->finish(b).failed);
  ASSERT_NE(bcast, nullptr);
  const OpResult res = w.comm->finish(*bcast);
  EXPECT_FALSE(res.failed);
  EXPECT_TRUE(res.data_verified);
  EXPECT_EQ(res.crashed_ranks, (std::vector<std::size_t>{5}));
}

TEST(Faults, TreeBroadcastExemptsCrashedLeafFromVerification) {
  // Rank 5 is a leaf of the binomial tree rooted at 0: nobody waits on it,
  // so the survivors finish clean and the dead rank's buffer is exempt
  // from verification, as OpResult::crashed_ranks documents.
  ClusterConfig kcfg;
  kcfg.fabric.faults.events = {
      fabric::FaultEvent::node_crash(15 * kMicrosecond, 5)};
  FtWorld w({}, kcfg);
  const OpResult res =
      w.comm->broadcast(0, 1024 * 1024, BcastAlgo::kBinomial);
  EXPECT_FALSE(res.failed);
  EXPECT_EQ(res.status, OpStatus::kOk);
  EXPECT_TRUE(res.data_verified);
  EXPECT_EQ(res.crashed_ranks, (std::vector<std::size_t>{5}));
}

TEST(Faults, CrashDuringRecoveryFailsFetchesOver) {
  // A trunk outage forces the slow path; then a rank inside the lossy half
  // crashes while fetch traffic is in flight (including mid-ACK-wait: any
  // RDMA Reads posted toward it can never complete). Fetchers must discount
  // the dead target and fail over to the next survivor.
  ClusterConfig kcfg;
  kcfg.fabric.faults.events = {
      fabric::FaultEvent::link_down(15 * kMicrosecond, 8, 10),
      fabric::FaultEvent::node_crash(80 * kMicrosecond, 1)};
  FtWorld w(quick_recovery(), kcfg);
  const OpResult res = w.comm->broadcast(0, 512 * 1024, BcastAlgo::kMcast);
  EXPECT_FALSE(res.failed);
  EXPECT_FALSE(res.watchdog_fired);
  EXPECT_EQ(res.status, OpStatus::kOk);
  EXPECT_TRUE(res.data_verified);
  EXPECT_EQ(res.crashed_ranks, (std::vector<std::size_t>{1}));
  EXPECT_GE(res.fetched_chunks, 1u);
}

TEST(Faults, BlockRootCrashDuringAllgatherReRootsOrDegrades) {
  // Allgather: every rank roots a block. Killing one root mid-op exercises
  // chain-token routing around the dead root plus the per-block census.
  ClusterConfig kcfg;
  kcfg.fabric.faults.events = {
      fabric::FaultEvent::node_crash(30 * kMicrosecond, 3)};
  FtWorld w(quick_recovery(), kcfg);
  const OpResult res = w.comm->allgather(256 * 1024, AllgatherAlgo::kMcast);
  EXPECT_FALSE(res.failed);
  EXPECT_FALSE(res.watchdog_fired);
  EXPECT_TRUE(res.data_verified);
  EXPECT_EQ(res.crashed_ranks, (std::vector<std::size_t>{3}));
  // Only the dead rank's block can be at risk.
  if (!res.missing_blocks.empty())
    EXPECT_EQ(res.missing_blocks, (std::vector<std::size_t>{3}));
  else
    EXPECT_GE(res.reroots, 1u);
}

TEST(Faults, NextOpAfterCrashRunsOnSurvivors) {
  // Crash-stop: once confirmed dead, a rank stays dead. The next allgather
  // must enroll only survivors as roots and run clean (kOk, no repair).
  ClusterConfig kcfg;
  kcfg.fabric.faults.events = {
      fabric::FaultEvent::node_crash(15 * kMicrosecond, 5)};
  FtWorld w(quick_recovery(), kcfg);
  const OpResult first = w.comm->broadcast(0, 512 * 1024, BcastAlgo::kMcast);
  EXPECT_FALSE(first.failed);
  const OpResult second =
      w.comm->allgather(128 * 1024, AllgatherAlgo::kMcast);
  EXPECT_FALSE(second.failed);
  EXPECT_FALSE(second.watchdog_fired);
  EXPECT_EQ(second.status, OpStatus::kOk);
  EXPECT_TRUE(second.data_verified);
  EXPECT_TRUE(second.missing_blocks.empty());
}

TEST(Faults, CrashAtTimeZeroReachesNicAndCommunicator) {
  // A crash scheduled at t=0 fires on the engine's first run, after the
  // Cluster registered its crash handler: the NIC goes silent and the
  // op settles with the dead rank reported.
  constexpr fabric::NodeId kVictim = 5;
  ClusterConfig kcfg;
  kcfg.fabric.faults.events = {fabric::FaultEvent::node_crash(0, kVictim)};
  FtWorld w(quick_recovery(), kcfg);
  const OpResult res = w.comm->broadcast(0, 128 * 1024, BcastAlgo::kMcast);
  EXPECT_FALSE(res.failed);
  EXPECT_FALSE(res.watchdog_fired);
  EXPECT_EQ(res.crashed_ranks, (std::vector<std::size_t>{kVictim}));
  EXPECT_TRUE(w.cluster->nic(kVictim).crashed());
}

TEST(Faults, CrashTimelineIsDeterministicAcrossReplays) {
  // Identical seeds + identical crash timelines must replay bit-identically:
  // same finish times, same verdicts, same repair counters. Checked across
  // several detector seeds.
  for (const std::uint64_t seed : {1ull, 7ull, 23ull}) {
    auto run = [seed] {
      CommConfig cfg = quick_recovery();
      cfg.detector.seed = seed;
      ClusterConfig kcfg;
      kcfg.fabric.faults.events = {
          fabric::FaultEvent::link_down(15 * kMicrosecond, 8, 10),
          fabric::FaultEvent::node_crash(60 * kMicrosecond, 2)};
      FtWorld w(cfg, kcfg);
      return w.comm->broadcast(0, 512 * 1024, BcastAlgo::kMcast);
    };
    const OpResult a = run();
    const OpResult b = run();
    EXPECT_EQ(a.finish, b.finish) << "seed " << seed;
    EXPECT_EQ(a.rank_finish, b.rank_finish) << "seed " << seed;
    EXPECT_EQ(a.fetched_chunks, b.fetched_chunks) << "seed " << seed;
    EXPECT_EQ(a.fetch_failovers, b.fetch_failovers) << "seed " << seed;
    EXPECT_EQ(a.reroots, b.reroots) << "seed " << seed;
    EXPECT_EQ(static_cast<int>(a.status), static_cast<int>(b.status))
        << "seed " << seed;
    EXPECT_EQ(a.missing_blocks, b.missing_blocks) << "seed " << seed;
    EXPECT_EQ(a.crashed_ranks, b.crashed_ranks) << "seed " << seed;
  }
}

// --------------------------------------------------------------------------
// Payload corruption: a link flips bits; the simulated ICRC catches them at
// the receiving NIC, the chunk is dropped (never bitmap-set), and the slow
// path re-fetches it. Verified bytes, accounted drops.
// --------------------------------------------------------------------------

TEST(Faults, CorruptedChunksAreDroppedAndRefetched) {
  ClusterConfig kcfg;
  kcfg.fabric.seed = 3;
  // Corrupt the root's uplink hard during the transfer window.
  kcfg.fabric.faults.events = {
      fabric::FaultEvent::corrupt_begin(10 * kMicrosecond, 0, 8, 0.2),
      fabric::FaultEvent::corrupt_end(300 * kMicrosecond, 0, 8)};
  FtWorld w(quick_recovery(), kcfg);
  const OpResult res = w.comm->broadcast(0, 512 * 1024, BcastAlgo::kMcast);
  EXPECT_FALSE(res.failed);
  EXPECT_EQ(res.status, OpStatus::kOk);
  EXPECT_TRUE(res.data_verified);
  EXPECT_GE(res.fetched_chunks, 1u);
  EXPECT_GT(w.cluster->fabric().faults().corrupted(), 0u);
  auto& metrics = w.cluster->telemetry().metrics;
  metrics.snapshot();
  EXPECT_GT(metrics.counter("integrity.crc_drops").value(), 0u);
  EXPECT_GT(metrics.counter("integrity.corrupt_packets").value(), 0u);
}

TEST(Faults, CorruptionWindowCloseRestoresCleanRuns) {
  ClusterConfig kcfg;
  kcfg.fabric.seed = 3;
  kcfg.fabric.faults.events = {
      fabric::FaultEvent::corrupt_begin(10 * kMicrosecond, 0, 8, 0.2),
      fabric::FaultEvent::corrupt_end(200 * kMicrosecond, 0, 8)};
  FtWorld w(quick_recovery(), kcfg);
  const OpResult dirty = w.comm->broadcast(0, 256 * 1024, BcastAlgo::kMcast);
  EXPECT_TRUE(dirty.data_verified);
  const OpResult clean = w.comm->broadcast(0, 256 * 1024, BcastAlgo::kMcast);
  EXPECT_TRUE(clean.data_verified);
  EXPECT_EQ(clean.fetched_chunks, 0u);
}

TEST(Faults, PassthroughReArmsAfterTimelineQuiesces) {
  // Regression: the quiet_ fast-path gate used to be evaluated only at
  // construction, so a plane whose timeline ends with every direction and
  // node back at neutral kept paying per-packet fault queries forever.
  // After the last restore/straggler_end fires, the plane must flip back
  // to passthrough and notify the fabric's quiescence handler.
  ClusterConfig kcfg;
  kcfg.fabric.faults.events = {
      fabric::FaultEvent::degrade(0, 2, 4, 0.1, 20 * kMicrosecond),
      fabric::FaultEvent::straggler_begin(0, 1, 4.0),
      fabric::FaultEvent::restore(150 * kMicrosecond, 2, 4),
      fabric::FaultEvent::straggler_end(200 * kMicrosecond, 1),
  };
  World w(4, quick_recovery(), kcfg);  // star: host 2 <-> switch 4
  EXPECT_FALSE(w.cluster->fabric().faults().passthrough());
  const OpResult degraded =
      w.comm->broadcast(0, 128 * 1024, BcastAlgo::kMcast);
  EXPECT_TRUE(degraded.data_verified);
  // Drain past the last event: every direction is neutral again, no burst
  // model, no downed nodes -> the plane can never perturb traffic again.
  w.cluster->engine().run_until(300 * kMicrosecond);
  EXPECT_TRUE(w.cluster->fabric().faults().passthrough());
  bool quiesced_event = false;
  for (const auto& e : w.cluster->telemetry().recorder.merged())
    if (std::strcmp(e.what, "fault_plane_quiesced") == 0)
      quiesced_event = true;
  EXPECT_TRUE(quiesced_event);
  const OpResult clean = w.comm->broadcast(0, 128 * 1024, BcastAlgo::kMcast);
  EXPECT_TRUE(clean.data_verified);
  EXPECT_LT(clean.duration(), degraded.duration());
}

TEST(Faults, PassthroughStaysOffWhileResidualStateOrBurstRemains) {
  // An exhausted timeline does NOT re-arm the gate when it leaves residual
  // state behind (unrestored degrade), nor when a burst-loss model can
  // still fire — both keep the per-packet queries live.
  ClusterConfig residual;
  residual.fabric.faults.events = {
      fabric::FaultEvent::degrade(0, 2, 4, 0.5, 0)};
  World wr(4, quick_recovery(), residual);
  wr.cluster->engine().run_until(100 * kMicrosecond);
  EXPECT_FALSE(wr.cluster->fabric().faults().passthrough());

  ClusterConfig bursty;
  bursty.fabric.faults.events = {
      fabric::FaultEvent::degrade(0, 2, 4, 0.5, 0),
      fabric::FaultEvent::restore(50 * kMicrosecond, 2, 4)};
  bursty.fabric.faults.burst.p_enter_bad = 0.001;
  World wb(4, quick_recovery(), bursty);
  wb.cluster->engine().run_until(100 * kMicrosecond);
  EXPECT_FALSE(wb.cluster->fabric().faults().passthrough());
}

TEST(Faults, StragglerWindowIsObservableInTelemetry) {
  // exec/worker applies cost_scale_ to task timing; the window itself must
  // be visible — a worker.straggler_active gauge per (host, engine) and
  // begin/end flight-recorder events — so detectors and tests can see the
  // injected fault instead of inferring it from slowed completions.
  ClusterConfig kcfg;
  kcfg.fabric.faults.events = {
      fabric::FaultEvent::straggler_begin(0, 2, 20.0),
      fabric::FaultEvent::straggler_end(500 * kMicrosecond, 2)};
  World w(4, quick_recovery(), kcfg);
  auto& gauge = w.cluster->telemetry().metrics.gauge(
      "worker.straggler_active", {{"host", "2"}, {"engine", "cpu"}});
  const OpResult res = w.comm->broadcast(0, 256 * 1024, BcastAlgo::kMcast);
  EXPECT_TRUE(res.data_verified);
  EXPECT_DOUBLE_EQ(gauge.value(), 20.0);  // window still open
  w.cluster->engine().run_until(600 * kMicrosecond);
  EXPECT_DOUBLE_EQ(gauge.value(), 0.0);  // cleared by straggler_end
  int begins = 0, ends = 0;
  for (const auto& e : w.cluster->telemetry().recorder.merged()) {
    if (std::strcmp(e.what, "straggler_exec_begin") == 0) ++begins;
    if (std::strcmp(e.what, "straggler_exec_end") == 0) ++ends;
  }
  // Both of the host's complexes (cpu + dpa) record their transitions.
  EXPECT_EQ(begins, 2);
  EXPECT_EQ(ends, 2);
}

}  // namespace
}  // namespace mccl::coll
