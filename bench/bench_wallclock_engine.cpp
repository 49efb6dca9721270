// Wall-clock throughput of the simulator itself (not of the modeled
// hardware): how many discrete events and packets the engine pushes through
// per host second. This is the harness behind the ROADMAP north-star "as
// fast as the hardware allows" — the Fig 11/14 sweeps (188 nodes, M x
// subgroup parallelism) are wall-clock-bound on exactly these two paths.
//
//   EngineStorm          pure event-engine churn: thousands of concurrent
//                        self-rescheduling timers, no fabric. Isolates the
//                        schedule/dispatch cost (callback storage + heap).
//   EngineStormFat       same, with captures near the inline-callback
//                        budget (56 bytes), the size a typical datapath
//                        completion lambda carries.
//   AllgatherStorm       a Fig-11-shaped packet storm: 188-rank multicast
//                        Allgather on the UCC fat tree, synthetic payload.
//                        Exercises the full packet datapath (QP segmenting,
//                        switch replication, lane arbitration, CQs).
//   BcastPayloadStorm    32-rank multicast Broadcast with payload bytes
//                        carried end-to-end: registered-memory snapshots,
//                        CRC policy, DMA copies.
//
// Unlike every other bench binary these run in *real-time* mode: the Time
// column is host wall clock. Counters report events/sec and packets/sec;
// --mccl_json rows carry wall_ms / events_per_sec for trend tracking (see
// BENCH_wallclock.json at the repo root for the recorded trajectory).
#include <cstdint>
#include <thread>

#include "bench/bench_common.hpp"
#include "src/sim/engine.hpp"

namespace {
using namespace mccl;

constexpr std::uint64_t kLcgMul = 6364136223846793005ull;
constexpr std::uint64_t kLcgAdd = 1442695040888963407ull;

/// One self-rescheduling timer. The capture (engine + shared budget + RNG
/// state) is 24 bytes — comfortably inside the inline-callback budget, like
/// most real datapath callbacks.
struct Timer {
  sim::Engine* eng;
  std::uint64_t* budget;
  std::uint64_t rng;

  void operator()() {
    if (*budget == 0) return;
    --*budget;
    rng = rng * kLcgMul + kLcgAdd;
    eng->schedule(static_cast<Time>(rng >> 54), Timer{eng, budget, rng});
  }
};

/// Same storm with a 56-byte capture, near the 64-byte inline budget that
/// the fattest datapath lambda (a NIC local-copy completion carrying its
/// caller's completion inline) fills: it still has to avoid the heap.
struct FatTimer {
  sim::Engine* eng;
  std::uint64_t* budget;
  std::uint64_t rng;
  std::uint64_t pad[4] = {1, 2, 3, 4};

  void operator()() {
    if (*budget == 0) return;
    --*budget;
    rng = rng * kLcgMul + kLcgAdd;
    pad[0] ^= rng;  // keep the capture load-bearing
    eng->schedule(static_cast<Time>(rng >> 54), FatTimer{eng, budget, rng});
  }
};

template <typename T>
void engine_storm(benchmark::State& state) {
  constexpr std::size_t kTimers = 4096;
  constexpr std::uint64_t kEventsPerIter = 2'000'000;
  std::uint64_t total_events = 0;
  for (auto _ : state) {
    sim::Engine eng;
    // Budget counts *reschedules*; the tail adds one final no-op dispatch
    // per live timer, which eng.dispatched() includes.
    std::uint64_t budget = kEventsPerIter;
    std::uint64_t rng = 0x9e3779b97f4a7c15ull;
    for (std::size_t t = 0; t < kTimers; ++t) {
      rng = rng * kLcgMul + kLcgAdd;
      eng.schedule(static_cast<Time>(rng >> 54), T{&eng, &budget, rng});
    }
    eng.run();
    total_events += eng.dispatched();
  }
  state.counters["events_per_sec"] =
      benchmark::Counter(static_cast<double>(total_events),
                         benchmark::Counter::kIsRate);
  bench::set_sim_events(state, total_events);
}

void BM_EngineStorm(benchmark::State& state) { engine_storm<Timer>(state); }
void BM_EngineStormFat(benchmark::State& state) {
  engine_storm<FatTimer>(state);
}

/// Fig-11-shaped storm: one 188-rank multicast Allgather per iteration on
/// the UCC testbed fat tree (synthetic payload). events/packets per second
/// are measured over the whole run, construction excluded.
void BM_AllgatherStorm(benchmark::State& state) {
  constexpr std::size_t kRanks = 188;
  const std::uint64_t bytes = static_cast<std::uint64_t>(state.range(0));
  coll::CommConfig cfg;
  cfg.cutoff_alpha = 50 * kMillisecond;
  bench::World w(bench::ucc_testbed_topology(), bench::ucc_testbed_cluster(),
                 cfg, kRanks);
  const std::uint64_t ev0 = w.cluster->engine().dispatched();
  const std::uint64_t pk0 = w.cluster->fabric().traffic().packets;
  for (auto _ : state) {
    const coll::OpResult res =
        w.comm->allgather(bytes, coll::AllgatherAlgo::kMcast);
    MCCL_CHECK(!res.failed);
  }
  const std::uint64_t events = w.cluster->engine().dispatched() - ev0;
  const std::uint64_t packets = w.cluster->fabric().traffic().packets - pk0;
  state.counters["events_per_sec"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
  state.counters["packets_per_sec"] = benchmark::Counter(
      static_cast<double>(packets), benchmark::Counter::kIsRate);
  bench::set_sim_events(state, events);
}

/// Payload-carrying storm: multicast Broadcast with real bytes end to end
/// (sender memory snapshots, receiver DMA copies, integrity policy).
void BM_BcastPayloadStorm(benchmark::State& state) {
  constexpr std::size_t kRanks = 32;
  const std::uint64_t bytes = static_cast<std::uint64_t>(state.range(0));
  coll::ClusterConfig kcfg = bench::ucc_testbed_cluster();
  kcfg.nic.carry_payload = true;
  kcfg.nic.memory_capacity = 256 * MiB;
  coll::CommConfig cfg;
  cfg.cutoff_alpha = 20 * kMillisecond;
  bench::World w(bench::ucc_testbed_topology(), kcfg, cfg, kRanks);
  const std::uint64_t ev0 = w.cluster->engine().dispatched();
  const std::uint64_t pk0 = w.cluster->fabric().traffic().packets;
  for (auto _ : state) {
    const coll::OpResult res =
        w.comm->broadcast(0, bytes, coll::BcastAlgo::kMcast);
    MCCL_CHECK(!res.failed);
  }
  const std::uint64_t events = w.cluster->engine().dispatched() - ev0;
  const std::uint64_t packets = w.cluster->fabric().traffic().packets - pk0;
  state.counters["events_per_sec"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
  state.counters["packets_per_sec"] = benchmark::Counter(
      static_cast<double>(packets), benchmark::Counter::kIsRate);
  bench::set_sim_events(state, events);
}

void register_all() {
  benchmark::RegisterBenchmark("WallClock/engine_storm", BM_EngineStorm)
      ->Iterations(3);
  benchmark::RegisterBenchmark("WallClock/engine_storm_fat",
                               BM_EngineStormFat)
      ->Iterations(3);
  benchmark::RegisterBenchmark("WallClock/allgather_storm",
                               BM_AllgatherStorm)
      ->Arg(static_cast<long>(256 * mccl::KiB))
      ->Iterations(2);
  benchmark::RegisterBenchmark("WallClock/bcast_payload_storm",
                               BM_BcastPayloadStorm)
      ->Arg(static_cast<long>(4 * mccl::MiB))
      ->Iterations(2);
}

}  // namespace

int main(int argc, char** argv) {
  bench::banner(
      "Wall-clock simulator throughput (host time, not simulated time)",
      "Tracks dispatched events/sec and packets/sec; compare against "
      "BENCH_wallclock.json to catch hot-path regressions.");
  register_all();
  std::printf("host_cpus: %u\n", std::thread::hardware_concurrency());
  return bench::run_main(argc, argv);
}
