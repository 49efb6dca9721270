// Execution-model tests: single-thread rates, hardware-multithreading
// latency hiding (the Fig 13/14/16 mechanism), compact placement, stats.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "src/debug/validate.hpp"
#include "src/exec/cost_model.hpp"
#include "src/exec/worker.hpp"
#include "src/fabric/topology.hpp"
#include "src/rdma/nic.hpp"

namespace mccl::exec {
namespace {

TEST(Complex, CompactPlacementFillsCoreFirst) {
  sim::Engine e;
  Complex c(e, {.cores = 2, .threads_per_core = 3, .ghz = 1.0});
  for (int i = 0; i < 3; ++i)
    EXPECT_EQ(c.create_worker().core_index(), 0u);
  for (int i = 0; i < 3; ++i)
    EXPECT_EQ(c.create_worker().core_index(), 1u);
  EXPECT_DEATH(c.create_worker(), "out of hardware threads");
}

TEST(Complex, ExplicitPlacementEnforcesLimit) {
  sim::Engine e;
  Complex c(e, {.cores = 2, .threads_per_core = 1, .ghz = 1.0});
  c.create_worker_on(1);
  EXPECT_DEATH(c.create_worker_on(1), "out of hardware threads");
}

TEST(Worker, SingleTaskCostsInstrPlusStall) {
  sim::Engine e;
  Complex c(e, {.cores = 1, .threads_per_core = 1, .ghz = 1.0});
  Worker& w = c.create_worker();
  Time done = -1;
  w.post({100, 400}, [&] { done = e.now(); });
  e.run();
  // 500 cycles @ 1 GHz = 500 ns.
  EXPECT_EQ(done, 500 * kNanosecond);
  EXPECT_EQ(w.tasks_done(), 1u);
}

TEST(Worker, TasksOnOneWorkerSerialize) {
  sim::Engine e;
  Complex c(e, {.cores = 1, .threads_per_core = 1, .ghz = 1.0});
  Worker& w = c.create_worker();
  std::vector<Time> ends;
  for (int i = 0; i < 3; ++i)
    w.post({50, 50}, [&] { ends.push_back(e.now()); });
  e.run();
  ASSERT_EQ(ends.size(), 3u);
  EXPECT_EQ(ends[0], 100 * kNanosecond);
  EXPECT_EQ(ends[1], 200 * kNanosecond);
  EXPECT_EQ(ends[2], 300 * kNanosecond);
}

TEST(Worker, CoWorkersHideStalls) {
  // Two workers on one core, tasks of 10 instr + 90 stall cycles: stalls
  // overlap, so 2 tasks finish in ~110 cycles instead of 200.
  sim::Engine e;
  Complex c(e, {.cores = 1, .threads_per_core = 2, .ghz = 1.0});
  Worker& w0 = c.create_worker();
  Worker& w1 = c.create_worker();
  Time t0 = -1, t1 = -1;
  w0.post({10, 90}, [&] { t0 = e.now(); });
  w1.post({10, 90}, [&] { t1 = e.now(); });
  e.run();
  EXPECT_EQ(t0, 100 * kNanosecond);
  EXPECT_EQ(t1, 110 * kNanosecond);  // issue serialized, stall overlapped
}

TEST(Worker, SeparateCoresDoNotContend) {
  sim::Engine e;
  Complex c(e, {.cores = 2, .threads_per_core = 1, .ghz = 1.0});
  Worker& w0 = c.create_worker();
  Worker& w1 = c.create_worker();
  Time t0 = -1, t1 = -1;
  w0.post({10, 90}, [&] { t0 = e.now(); });
  w1.post({10, 90}, [&] { t1 = e.now(); });
  e.run();
  EXPECT_EQ(t0, 100 * kNanosecond);
  EXPECT_EQ(t1, 100 * kNanosecond);
}

TEST(Worker, ThroughputSaturatesAtIssueBound) {
  // One core @ 1 GHz, tasks of 10 instr + 90 stall. With T workers,
  // steady-state throughput = min(T / 100, 1 / 10) tasks/cycle.
  for (const std::size_t T : {1u, 2u, 5u, 10u, 16u}) {
    sim::Engine e;
    Complex c(e, {.cores = 1, .threads_per_core = 16, .ghz = 1.0});
    std::vector<Worker*> ws;
    for (std::size_t i = 0; i < T; ++i) ws.push_back(&c.create_worker());
    const int per_worker = 200;
    int done = 0;
    for (std::size_t i = 0; i < T; ++i)
      for (int k = 0; k < per_worker; ++k)
        ws[i]->post({10, 90}, [&] { ++done; });
    e.run();
    EXPECT_EQ(done, static_cast<int>(T) * per_worker);
    const double cycles = static_cast<double>(e.now()) / 1000.0;  // @1GHz
    const double rate = done / cycles;
    const double expect = std::min(static_cast<double>(T) / 100.0, 0.1);
    EXPECT_NEAR(rate, expect, expect * 0.1) << "T=" << T;
  }
}

TEST(Worker, CqeSubscriptionChargesCost) {
  sim::Engine e;
  Complex c(e, {.cores = 1, .threads_per_core = 1, .ghz = 1.0});
  Worker& w = c.create_worker();
  rdma::Cq cq;
  int handled = 0;
  w.subscribe(cq, [&](const rdma::Cqe&) { ++handled; }, Cost{100, 100});
  cq.push({});
  cq.push({});
  e.run();
  EXPECT_EQ(handled, 2);
  EXPECT_EQ(w.cqes_seen(), 2u);
  EXPECT_EQ(e.now(), 400 * kNanosecond);
}

TEST(Worker, MultiCqSubscriptionDispatchesPerCq) {
  sim::Engine e;
  Complex c(e, {.cores = 1, .threads_per_core = 1, .ghz = 1.0});
  Worker& w = c.create_worker();
  rdma::Cq a, b;
  int from_a = 0, from_b = 0;
  w.subscribe(a, [&](const rdma::Cqe&) { ++from_a; }, Cost{1, 0});
  w.subscribe(b, [&](const rdma::Cqe&) { ++from_b; }, Cost{1, 0});
  a.push({});
  b.push({});
  b.push({});
  e.run();
  EXPECT_EQ(from_a, 1);
  EXPECT_EQ(from_b, 2);
}

rdma::Cqe cqe_with_id(std::uint64_t id) {
  rdma::Cqe cqe;
  cqe.wr_id = id;
  return cqe;
}

TEST(Worker, CqesAndTasksRunInArrivalOrder) {
  // One FIFO over posted tasks and the CQEs of every subscribed CQ, each
  // item charged its own cost: a task its Cost, a CQE its CQ's per-CQE
  // cost. @1 GHz one cycle is one nanosecond.
  sim::Engine e;
  Complex c(e, {.cores = 1, .threads_per_core = 1, .ghz = 1.0});
  Worker& w = c.create_worker();
  rdma::Cq a, b;
  std::vector<std::pair<std::uint64_t, Time>> trace;
  auto task = [&](std::uint64_t id) {
    w.post(Cost{1, 1}, [&trace, &e, id] { trace.emplace_back(id, e.now()); });
  };
  w.subscribe(a,
              [&](const rdma::Cqe& cqe) {
                trace.emplace_back(cqe.wr_id, e.now());
                if (cqe.wr_id == 1) {  // queued behind everything below
                  task(7);
                  b.push(cqe_with_id(8));
                }
              },
              Cost{10, 0});
  w.subscribe(b,
              [&](const rdma::Cqe& cqe) {
                trace.emplace_back(cqe.wr_id, e.now());
              },
              Cost{20, 5});
  a.push(cqe_with_id(1));
  task(2);
  b.push(cqe_with_id(3));
  a.push(cqe_with_id(4));
  task(5);
  b.push(cqe_with_id(6));
  EXPECT_EQ(w.cqes_seen(), 4u);
  // A CQE waits in its CQ until the worker runs it.
  EXPECT_EQ(a.depth(), 2u);
  EXPECT_EQ(b.depth(), 2u);
  e.run_until(10 * kNanosecond);
  EXPECT_EQ(a.depth(), 1u);
  EXPECT_EQ(b.depth(), 3u);
  e.run();
  const std::vector<std::pair<std::uint64_t, Time>> expect = {
      {1, 10 * kNanosecond}, {2, 12 * kNanosecond}, {3, 37 * kNanosecond},
      {4, 47 * kNanosecond}, {5, 49 * kNanosecond}, {6, 74 * kNanosecond},
      {7, 76 * kNanosecond}, {8, 101 * kNanosecond}};
  EXPECT_EQ(trace, expect);
  EXPECT_EQ(a.depth(), 0u);
  EXPECT_EQ(b.depth(), 0u);
  EXPECT_EQ(w.cqes_seen(), 5u);
  EXPECT_EQ(w.tasks_done(), 8u);
}

TEST(Worker, SubscribeRunsCqesAlreadyWaiting) {
  sim::Engine e;
  Complex c(e, {.cores = 1, .threads_per_core = 1, .ghz = 1.0});
  Worker& w = c.create_worker();
  rdma::Cq cq;
  std::vector<std::pair<std::uint64_t, Time>> trace;
  w.post(Cost{3, 0}, [&] { trace.emplace_back(0, e.now()); });
  for (std::uint64_t id = 1; id <= 3; ++id) cq.push(cqe_with_id(id));
  w.subscribe(cq,
              [&](const rdma::Cqe& cqe) {
                trace.emplace_back(cqe.wr_id, e.now());
              },
              Cost{2, 0});
  EXPECT_EQ(w.cqes_seen(), 3u);
  EXPECT_EQ(cq.depth(), 3u);
  cq.push(cqe_with_id(4));
  e.run();
  const std::vector<std::pair<std::uint64_t, Time>> expect = {
      {0, 3 * kNanosecond}, {1, 5 * kNanosecond}, {2, 7 * kNanosecond},
      {3, 9 * kNanosecond}, {4, 11 * kNanosecond}};
  EXPECT_EQ(trace, expect);
}

TEST(Worker, CqesQueuedBeforeACrashStillRun) {
  // A CQE the NIC pushed before it crashed is the worker's to run; the
  // crash gate keeps any later one out of the CQ.
  sim::Engine e;
  fabric::Fabric fab(e, fabric::make_back_to_back({}), fabric::Fabric::Config{});
  rdma::Nic nic(e, fab, 0);
  rdma::Cq& cq = nic.create_cq();
  Complex c(e, {.cores = 1, .threads_per_core = 1, .ghz = 1.0});
  Worker& w = c.create_worker();
  std::vector<std::uint64_t> handled;
  w.subscribe(cq, [&](const rdma::Cqe& cqe) { handled.push_back(cqe.wr_id); },
              Cost{10, 0});
  cq.push(cqe_with_id(1));
  cq.push(cqe_with_id(2));
  nic.set_crashed(true);
  EXPECT_EQ(cq.depth(), 2u);
  {
    debug::ViolationTrap trap;  // validate builds flag the gated push
    cq.push(cqe_with_id(3));
  }
  EXPECT_EQ(cq.depth(), 2u);
  e.run();
  EXPECT_EQ(handled, (std::vector<std::uint64_t>{1, 2}));
  EXPECT_EQ(w.cqes_seen(), 2u);
}

TEST(Worker, IpcMatchesCostSplit) {
  sim::Engine e;
  Complex c(e, Complex::dpa_config());
  Worker& w = c.create_worker();
  const DatapathCosts costs = dpa_costs();
  for (int i = 0; i < 100; ++i) w.post(costs.recv_chunk_ud, [] {});
  e.run();
  // Table I: UD datapath IPC ~ 0.1.
  EXPECT_NEAR(w.ipc(), 113.0 / 1084.0, 0.01);
}

TEST(Worker, StatsResetClears) {
  sim::Engine e;
  Complex c(e, {.cores = 1, .threads_per_core = 1, .ghz = 1.0});
  Worker& w = c.create_worker();
  w.post({10, 10}, [] {});
  e.run();
  EXPECT_GT(w.busy_time(), 0);
  w.reset_stats();
  EXPECT_EQ(w.busy_time(), 0);
  EXPECT_EQ(w.tasks_done(), 0u);
}

TEST(CostModel, TableOneCalibration) {
  const DatapathCosts dpa = dpa_costs();
  EXPECT_NEAR(dpa.recv_chunk_ud.cycles(), 1084, 1);
  EXPECT_NEAR(dpa.recv_chunk_uc.cycles(), 598, 1);
  // UD/UC single-thread throughput ratio ~2x (Table I: 5.2 vs 11.9 GiB/s).
  EXPECT_NEAR(dpa.recv_chunk_ud.cycles() / dpa.recv_chunk_uc.cycles(), 1.81,
              0.1);
}

TEST(CostModel, CpuFasterPerThreadThanDpa) {
  // An energy-efficient DPA thread is slower than a server core; the win
  // comes from multithreading (paper Section VI-C).
  const double dpa_ns = dpa_costs().recv_chunk_ud.cycles() / 1.8;
  const double cpu_ns = cpu_costs().recv_chunk_ud.cycles() / 2.6;
  EXPECT_GT(dpa_ns, cpu_ns);
}

}  // namespace
}  // namespace mccl::exec
