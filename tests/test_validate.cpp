// Validator-plane tests (MCCL_VALIDATE builds): every compiled-in invariant
// checker must (a) stay silent across healthy runs — the rest of the suite
// covers that by running under the validate build — and (b) produce its
// structured diagnostic when the matching invariant is broken on purpose via
// the test_* injection hooks. In regular builds everything here skips: the
// checkers are constant-folded away and the hooks mutate state no validator
// observes.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "src/coll/mcast_coll.hpp"
#include "src/debug/validate.hpp"
#include "src/rdma/nic.hpp"
#include "src/sched/cluster_sched.hpp"
#include "tests/coll_test_util.hpp"

namespace mccl {
namespace {

using coll::testing::World;

#define SKIP_UNLESS_VALIDATE()                                       \
  do {                                                               \
    if (!debug::enabled())                                           \
      GTEST_SKIP() << "checkers compiled out (MCCL_VALIDATE off)";   \
  } while (0)

// Two-host RC transport world, mirroring the test_rdma_rc harness.
struct RcWorld {
  sim::Engine engine;
  std::unique_ptr<fabric::Fabric> fab;
  std::vector<std::unique_ptr<rdma::Nic>> nics;
  std::vector<rdma::RcQp*> qps;
  std::vector<rdma::Cq*> send_cqs;
  std::vector<rdma::Cq*> recv_cqs;

  explicit RcWorld(rdma::NicConfig ncfg = {}) {
    fab = std::make_unique<fabric::Fabric>(engine,
                                           fabric::make_back_to_back({}),
                                           fabric::Fabric::Config{});
    for (std::size_t h = 0; h < 2; ++h) {
      nics.push_back(std::make_unique<rdma::Nic>(
          engine, *fab, static_cast<fabric::NodeId>(h), ncfg));
      rdma::Cq& scq = nics[h]->create_cq();
      rdma::Cq& rcq = nics[h]->create_cq();
      send_cqs.push_back(&scq);
      recv_cqs.push_back(&rcq);
      qps.push_back(&nics[h]->create_rc_qp(&scq, &rcq));
    }
    qps[0]->connect(1, qps[1]->qpn());
    qps[1]->connect(0, qps[0]->qpn());
  }
};

TEST(Validate, TrapCollectsStructuredViolations) {
  SKIP_UNLESS_VALIDATE();
  const std::uint64_t before = debug::violation_count();
  debug::ViolationTrap trap;
  debug::report("test.checker", "value %d out of range", 42);
  ASSERT_EQ(trap.size(), 1u);
  EXPECT_EQ(trap.violations()[0].checker, "test.checker");
  EXPECT_EQ(trap.violations()[0].detail, "value 42 out of range");
  EXPECT_TRUE(trap.tripped("test.checker"));
  EXPECT_TRUE(trap.tripped("test"));  // dotted-prefix match
  EXPECT_FALSE(trap.tripped("test.other"));
  EXPECT_EQ(debug::violation_count(), before + 1);
}

TEST(Validate, UntrappedViolationAborts) {
  SKIP_UNLESS_VALIDATE();
  EXPECT_DEATH(debug::report("test.abort", "boom"),
               "mccl validate violation");
}

TEST(Validate, EngineSlotLeakDetected) {
  SKIP_UNLESS_VALIDATE();
  debug::ViolationTrap trap;  // must outlive the engine
  {
    sim::Engine engine;
    int fired = 0;
    engine.schedule(10, [&fired] { ++fired; });
    engine.run();
    ASSERT_EQ(fired, 1);
    EXPECT_TRUE(engine.validate_quiescent("mid-test"));
    engine.test_leak_slot();
  }  // ~Engine audits the slot pool
  EXPECT_TRUE(trap.tripped("engine.slot_leak"));
}

TEST(Validate, PacketRefcountUnderflowDetected) {
  SKIP_UNLESS_VALIDATE();
  debug::ViolationTrap trap;
  {
    sim::Engine engine;
    fabric::Fabric fab(engine, fabric::make_back_to_back({}), {});
    {
      fabric::PacketRef ref = fab.pool().acquire();
      ref.test_extra_release();  // recycles the cell under the live handle
    }  // ~PacketRef releases again: refcount already zero
    EXPECT_TRUE(trap.tripped("packet.refcount_underflow"));
    EXPECT_EQ(fab.pool().outstanding(), 0u);
  }
}

TEST(Validate, PacketPoolLeakAuditDetectsHeldPacket) {
  SKIP_UNLESS_VALIDATE();
  debug::ViolationTrap trap;
  sim::Engine engine;
  fabric::Fabric fab(engine, fabric::make_back_to_back({}), {});
  fabric::PacketRef held = fab.pool().acquire();
  EXPECT_FALSE(fab.pool().leak_audit("mid-test"));
  EXPECT_TRUE(trap.tripped("packet.pool_leak"));
  held.reset();
  EXPECT_TRUE(fab.pool().leak_audit("after release"));
  EXPECT_EQ(trap.size(), 1u);
}

TEST(Validate, FabricTeardownAuditCleanAfterTraffic) {
  SKIP_UNLESS_VALIDATE();
  debug::ViolationTrap trap;
  {
    RcWorld w;
    const std::size_t len = 3 * 4096;
    const auto src = w.nics[0]->memory().alloc(len);
    const auto dst = w.nics[1]->memory().alloc(len);
    w.qps[1]->post_recv({.wr_id = 1, .laddr = dst, .len = len});
    w.qps[0]->post_send(src, len, {.wr_id = 2});
    w.engine.run();
    ASSERT_EQ(w.recv_cqs[1]->depth(), 1u);
  }  // ~Fabric audits the pool with the engine drained
  EXPECT_TRUE(trap.empty()) << trap.violations()[0].checker << ": "
                            << trap.violations()[0].detail;
}

TEST(Validate, CqeAfterCrashGateDetected) {
  SKIP_UNLESS_VALIDATE();
  debug::ViolationTrap trap;
  RcWorld w;
  w.nics[1]->set_crashed(true);
  rdma::Cqe cqe;
  cqe.qpn = w.qps[1]->qpn();
  w.recv_cqs[1]->push(cqe);  // bypasses the Qp-level crash checks
  EXPECT_TRUE(trap.tripped("cq.cqe_after_crash"));
  EXPECT_EQ(w.recv_cqs[1]->depth(), 0u);  // gated CQE is dropped
  w.nics[1]->set_crashed(false);
  w.recv_cqs[1]->push(cqe);  // gate reopens with the NIC
  EXPECT_EQ(w.recv_cqs[1]->depth(), 1u);
  EXPECT_EQ(trap.size(), 1u);
}

TEST(Validate, RcAckBeyondWindowDetected) {
  SKIP_UNLESS_VALIDATE();
  debug::ViolationTrap trap;
  RcWorld w;
  w.qps[0]->test_inject_ack(/*cum_psn=*/100, /*nak=*/false);
  EXPECT_TRUE(trap.tripped("rc.ack_beyond_window"));
  // Containment: the bogus ACK is dropped, the QP still works.
  const std::size_t len = 4096;
  const auto src = w.nics[0]->memory().alloc(len);
  const auto dst = w.nics[1]->memory().alloc(len);
  w.qps[1]->post_recv({.wr_id = 1, .laddr = dst, .len = len});
  w.qps[0]->post_send(src, len, {.wr_id = 2});
  w.engine.run();
  EXPECT_EQ(w.recv_cqs[1]->depth(), 1u);
  EXPECT_EQ(trap.size(), 1u);
}

TEST(Validate, RcPsnRegressionDetected) {
  SKIP_UNLESS_VALIDATE();
  debug::ViolationTrap trap;
  RcWorld w;
  const std::size_t len = 4096;
  const auto src = w.nics[0]->memory().alloc(len);
  const auto dst = w.nics[1]->memory().alloc(len);
  w.qps[1]->post_recv({.wr_id = 1, .laddr = dst, .len = len});
  w.qps[0]->post_send(src, len, {.wr_id = 2});
  w.engine.run();
  ASSERT_TRUE(trap.empty());
  w.qps[1]->test_desync_rx_psn(0);  // shadow stream rewound
  w.qps[1]->post_recv({.wr_id = 3, .laddr = dst, .len = len});
  w.qps[0]->post_send(src, len, {.wr_id = 4});
  w.engine.run();
  EXPECT_TRUE(trap.tripped("rc.psn_regression"));
}

TEST(Validate, RcWindowOverflowDetected) {
  SKIP_UNLESS_VALIDATE();
  debug::ViolationTrap trap;
  rdma::NicConfig ncfg;
  ncfg.rc_window = 4;
  RcWorld w(ncfg);
  for (int i = 0; i < 5; ++i) w.qps[0]->test_stuff_inflight();
  const auto src = w.nics[0]->memory().alloc(64);
  w.qps[0]->post_send(src, 64, {.wr_id = 1});  // pump audits the window
  EXPECT_TRUE(trap.tripped("rc.window_overflow"));
  w.engine.run();
}

TEST(Validate, CollChunkConservationDetected) {
  SKIP_UNLESS_VALIDATE();
  World w(5);
  coll::OpBase& op =
      w.comm->start_allgather(16 * 1024, coll::AllgatherAlgo::kMcast);
  auto& mc = static_cast<coll::McastCollective&>(op);
  const coll::OpResult res = w.comm->finish(op);
  ASSERT_TRUE(res.data_verified);
  debug::ViolationTrap trap;
  EXPECT_TRUE(mc.validate_rank(0));  // healthy run is conserved
  ASSERT_TRUE(trap.empty());
  mc.test_skew_received(0, 5);
  EXPECT_FALSE(mc.validate_rank(0));
  EXPECT_TRUE(trap.tripped("coll.chunk_conservation"));
}

TEST(Validate, CollBlocksSatisfiedDetected) {
  SKIP_UNLESS_VALIDATE();
  World w(5);
  coll::OpBase& op =
      w.comm->start_allgather(16 * 1024, coll::AllgatherAlgo::kMcast);
  auto& mc = static_cast<coll::McastCollective&>(op);
  const coll::OpResult res = w.comm->finish(op);
  ASSERT_TRUE(res.data_verified);
  debug::ViolationTrap trap;
  EXPECT_TRUE(mc.validate_rank(2));
  ASSERT_TRUE(trap.empty());
  mc.test_skew_blocks_satisfied(2, 1);
  EXPECT_FALSE(mc.validate_rank(2));
  EXPECT_TRUE(trap.tripped("coll.blocks_satisfied"));
}

TEST(Validate, ShortOverwriteReadsPoisonAndFailsVerify) {
  SKIP_UNLESS_VALIDATE();
  World w(3);
  constexpr std::uint64_t kBytes = 16 * 1024;
  coll::OpBase& op =
      w.comm->start_broadcast(0, kBytes, coll::BcastAlgo::kMcast);
  auto& mc = static_cast<coll::McastCollective&>(op);
  ASSERT_TRUE(w.comm->finish(op).data_verified);
  // Rank 1 refills its received block through overwrite() but stops at half.
  rdma::HostMemory& mem = w.comm->ep(1).nic().memory();
  const std::uint64_t addr = mc.recvbuf_addr(1);
  std::vector<std::uint8_t> good(kBytes);
  mem.read(addr, good.data(), kBytes);
  std::span<std::uint8_t> out = mem.overwrite(addr, kBytes);
  std::copy(good.begin(), good.begin() + kBytes / 2, out.begin());
  EXPECT_EQ(std::as_const(mem).span(addr + kBytes / 2, 1)[0],
            rdma::HostMemory::kPoison);
  EXPECT_EQ(std::as_const(mem).span(addr + kBytes - 1, 1)[0],
            rdma::HostMemory::kPoison);
  EXPECT_FALSE(op.verify());
  out = mem.overwrite(addr, kBytes);  // a complete fill passes again
  std::copy(good.begin(), good.end(), out.begin());
  EXPECT_TRUE(op.verify());
}

TEST(Validate, CollTagAliasDetected) {
  SKIP_UNLESS_VALIDATE();
  // Fast-path tags are 8 bits (1..255): with 255 broadcasts still in
  // flight, the next one can only take a tag a running op holds.
  World w(2);
  debug::ViolationTrap trap;
  std::vector<coll::OpBase*> ops;
  for (int i = 0; i < 256; ++i) {
    ASSERT_TRUE(trap.empty()) << "claim " << i;
    ops.push_back(&w.comm->start_broadcast(0, 64, coll::BcastAlgo::kMcast));
  }
  EXPECT_TRUE(trap.tripped("coll.tag_alias"));
  EXPECT_EQ(trap.size(), 1u);
  EXPECT_FALSE(ops.front()->done());  // tag 1's first owner still runs
}

TEST(Validate, CollBarrierCreditBalanceDetected) {
  SKIP_UNLESS_VALIDATE();
  World w(5);
  coll::OpBase& op =
      w.comm->start_allgather(16 * 1024, coll::AllgatherAlgo::kMcast);
  auto& mc = static_cast<coll::McastCollective&>(op);
  w.comm->finish(op);
  debug::ViolationTrap trap;
  mc.test_overcredit_barrier(1, 0);
  EXPECT_FALSE(mc.validate_rank(1));
  EXPECT_TRUE(trap.tripped("coll.barrier_credit_balance"));
}

TEST(Validate, CollCensusRegressionDetected) {
  SKIP_UNLESS_VALIDATE();
  World w(5);
  coll::OpBase& op =
      w.comm->start_allgather(16 * 1024, coll::AllgatherAlgo::kMcast);
  auto& mc = static_cast<coll::McastCollective&>(op);
  w.comm->finish(op);
  debug::ViolationTrap trap;
  mc.test_inject_block_report(0, /*block=*/1, /*src=*/2, /*full=*/true);
  ASSERT_TRUE(trap.empty());  // upgrade path is legal
  mc.test_inject_block_report(0, /*block=*/1, /*src=*/2, /*full=*/false);
  EXPECT_TRUE(trap.tripped("coll.census_regression"));
}

TEST(Validate, CollPhaseOrderDetected) {
  SKIP_UNLESS_VALIDATE();
  World w(5);
  debug::ViolationTrap trap;
  coll::OpBase& op =
      w.comm->start_allgather(16 * 1024, coll::AllgatherAlgo::kMcast);
  auto& mc = static_cast<coll::McastCollective&>(op);
  ASSERT_TRUE(w.comm->finish(op).data_verified);
  ASSERT_TRUE(trap.empty());  // every rank took only legal edges
  // Rank 0 is done: a second handshake has no edge in the phase table.
  mc.test_enter(0, coll::McastCollective::Phase::kHandshake);
  EXPECT_TRUE(trap.tripped("coll.phase_order"));
  EXPECT_EQ(trap.size(), 1u);
}

TEST(Validate, DetectorPrematureConfirmDetected) {
  SKIP_UNLESS_VALIDATE();
  World w(5);
  coll::FailureDetector* det = w.comm->detector();
  ASSERT_NE(det, nullptr);
  debug::ViolationTrap trap;
  EXPECT_TRUE(det->validate_view(0));
  det->test_confirm(/*observer=*/0, /*peer=*/1);  // no suspicion raised
  EXPECT_TRUE(trap.tripped("detector.premature_confirm"));
  // The illegal latch also fails the lease state-machine audit.
  EXPECT_FALSE(det->validate_view(0));
  EXPECT_TRUE(trap.tripped("detector.lease_state"));
}

TEST(Validate, DetectorUnbackedNoticeDetected) {
  SKIP_UNLESS_VALIDATE();
  World w(5);
  coll::FailureDetector* det = w.comm->detector();
  ASSERT_NE(det, nullptr);
  debug::ViolationTrap trap;
  // Rank 2 never confirmed rank 1 dead, so its notice is forged.
  det->on_dead_notice(/*observer=*/0, /*src=*/2, /*peer=*/1);
  EXPECT_TRUE(trap.tripped("detector.unbacked_notice"));
  EXPECT_TRUE(det->dead(0, 1));
  // A notice-learned death carries no suspicion of its own and is not a
  // lease-state violation.
  EXPECT_TRUE(det->validate_view(0));
  EXPECT_FALSE(trap.tripped("detector.lease_state"));
}

TEST(Validate, AdaptOscillationDetected) {
  SKIP_UNLESS_VALIDATE();
  // The health monitor's dwell hysteresis is supposed to make link-health
  // flapping impossible; the adapt.oscillation validator catches the case
  // where it is misconfigured (or a policy feeds back into its own input).
  // Deweights and restores both count.
  coll::CommConfig cfg;
  cfg.adapt.enabled = true;
  World w(4, cfg);
  coll::HealthMonitor* hm = w.comm->health();
  ASSERT_NE(hm, nullptr);
  debug::ViolationTrap trap;
  // Exactly at the bound (ending on a restore): silent.
  hm->test_force_flips(/*dir=*/0, coll::HealthMonitor::kMaxTransitions);
  EXPECT_FALSE(trap.tripped("adapt.oscillation"));
  // One past the bound: structured violation.
  hm->test_force_flips(/*dir=*/0, 1);
  EXPECT_TRUE(trap.tripped("adapt.oscillation"));
}

TEST(Validate, SchedConservationDetected) {
  SKIP_UNLESS_VALIDATE();
  // The scheduler's end-of-run audit balances the job/op ledger (every
  // submitted job settled once, every issued op accounted). A clean run
  // stays silent; an unbalanced ledger is a structured violation.
  coll::Cluster cluster(fabric::make_fat_tree(1, 2, 1, 1, {}, {}), {});
  sched::ClusterScheduler scheduler(cluster);
  sched::JobSpec job;
  job.tenant = 1;
  job.name = "t1";
  job.hosts = {0, 1};
  job.bytes = 16 * KiB;
  scheduler.submit(std::move(job));
  scheduler.run();  // run()'s own audit must not trip on a healthy ledger
  scheduler.test_corrupt_ledger();
  debug::ViolationTrap trap;
  scheduler.audit();
  EXPECT_TRUE(trap.tripped("sched.tenant_conservation"));
}

TEST(Validate, RetryConservationDetected) {
  SKIP_UNLESS_VALIDATE();
  // The failure-policy ledger demands every failed op attempt map to
  // exactly one escalation (retry, requeue, or terminal failure). A
  // booked retry with no matching failed attempt is a structured
  // violation — the same audit that stays silent on the clean run.
  coll::Cluster cluster(fabric::make_fat_tree(1, 2, 1, 1, {}, {}), {});
  sched::ClusterScheduler scheduler(cluster);
  sched::JobSpec job;
  job.tenant = 1;
  job.name = "t1";
  job.hosts = {0, 1};
  job.bytes = 16 * KiB;
  const std::size_t id = scheduler.submit(std::move(job));
  scheduler.run();
  EXPECT_TRUE(scheduler.retry_ledger_ok());
  scheduler.test_corrupt_retry_ledger(id);
  debug::ViolationTrap trap;
  scheduler.audit();
  EXPECT_TRUE(trap.tripped("sched.retry_conservation"));
}

// --- determinism auditor ----------------------------------------------------

std::uint64_t run_hash(std::uint64_t seed, double drop) {
  coll::CommConfig cfg;
  cfg.subgroups = 2;
  coll::ClusterConfig kcfg;
  kcfg.fabric.seed = seed;
  kcfg.fabric.faults.burst.drop_good = drop;
  World w(5, cfg, kcfg);
  const coll::OpResult res =
      w.comm->allgather(32 * 1024, coll::AllgatherAlgo::kMcast);
  EXPECT_TRUE(res.data_verified);
  return w.cluster->engine().stream_hash();
}

TEST(Validate, DoubleRunStreamHashMatches) {
  SKIP_UNLESS_VALIDATE();
  const std::uint64_t a = run_hash(7, 0.01);
  const std::uint64_t b = run_hash(7, 0.01);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, debug::kHashSeed);  // events actually dispatched
}

TEST(Validate, StreamHashDivergesAcrossSeeds) {
  SKIP_UNLESS_VALIDATE();
  // Different drop patterns dispatch different event streams; the digest
  // pins the exact sequence, so collisions are (2^-64-scale) negligible.
  EXPECT_NE(run_hash(7, 0.01), run_hash(8, 0.01));
}

}  // namespace
}  // namespace mccl
