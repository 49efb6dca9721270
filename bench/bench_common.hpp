// Shared infrastructure for the paper-reproduction benchmark harness.
//
// Every bench binary regenerates one table or figure. Benchmarks run the
// packet-level simulator and report *simulated* time through google
// benchmark's manual-time mode, so the numbers printed in the `Time` column
// are collective latencies on the modeled hardware, not host runtimes.
// Custom counters carry the figure's units (Gbit/s, GiB/s, chunk rates,
// traffic bytes, savings factors).
#pragma once

#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "src/coll/communicator.hpp"
#include "src/coll/mcast_coll.hpp"
#include "src/model/models.hpp"

namespace mccl::bench {

// --- Testbed definitions ----------------------------------------------------

/// Timing-only cluster config: packets carry no payload bytes, memory is an
/// unbacked address space, so 188-rank sweeps stay cheap.
coll::ClusterConfig synthetic_cluster();

/// The paper's UCC testbed: 188 nodes, two-level fat tree of SX6036-class
/// switches, 56 Gbit/s ConnectX-3 links.
fabric::Topology ucc_testbed_topology(std::size_t hosts = 188);
coll::ClusterConfig ucc_testbed_cluster();

/// The paper's DPA testbed: two hosts back-to-back at 200 Gbit/s
/// (BlueField-3, one port).
fabric::Topology dpa_testbed_topology();
coll::ClusterConfig dpa_testbed_cluster();

// --- Worlds ------------------------------------------------------------------

struct World {
  std::unique_ptr<coll::Cluster> cluster;
  std::unique_ptr<coll::Communicator> comm;

  /// When run_main() saw --mccl_trace=<path>, the cluster is built with
  /// sim-time tracing enabled and the trace is written at destruction (the
  /// file ends up holding the last-destroyed World's trace).
  World(fabric::Topology topo, coll::ClusterConfig kcfg,
        coll::CommConfig ccfg, std::size_t ranks);
  ~World();
};

// --- Reporting ---------------------------------------------------------------

/// Records simulated duration as the iteration time (manual-time mode).
void record_sim_time(benchmark::State& state, Time duration);

/// Per-rank receive throughput counter in Gbit/s, the Fig 11 metric.
void set_gbps(benchmark::State& state, const char* name,
              std::uint64_t bytes, Time duration);
void set_gibps(benchmark::State& state, const char* name,
               std::uint64_t bytes, Time duration);

/// Reports the total engine events dispatched across this run's iterations.
/// The --mccl_json report derives a wall-clock `events_per_sec` for the row
/// from it (manual-time benches cannot use kIsRate counters for wall rates:
/// rate counters there divide by *simulated* time).
void set_sim_events(benchmark::State& state, std::uint64_t events);

/// Prints a figure banner: what the paper shows, what to look for here.
void banner(const char* figure, const char* expectation);

// --- Shared main -------------------------------------------------------------

/// Path given via --mccl_trace=<path>; empty if unset.
const std::string& trace_path();
/// Path given via --mccl_json=<path>; empty if unset.
const std::string& json_path();

/// Shared bench main. Strips the harness's own flags before handing argv to
/// google benchmark, then runs the registered benchmarks with the usual
/// console output:
///   --mccl_json=<path>   write every reported run (name, simulated
///                        real_time_us, counters) plus per-family aggregate
///                        series (count/min/median/p99/mean over the
///                        family's data points) as JSON.
///   --mccl_trace=<path>  enable sim-time tracing on Worlds constructed
///                        during the run; Chrome trace-event JSON for
///                        Perfetto is written as Worlds are destroyed.
int run_main(int argc, char** argv);

// --- DPA-testbed datapath runs ------------------------------------------------

/// One broadcast from rank 0 to rank 1 on the current world; returns the
/// receive-datapath metrics at the leaf (the Table I / Figs 5, 13-16
/// methodology: a saturated receiver, per-worker counters).
struct DatapathResult {
  Time transfer = 0;            // leaf receive-phase duration
  double gibps = 0;             // achieved receive throughput
  double gbps = 0;
  std::uint64_t cqes = 0;       // chunk completions processed
  double cycles_per_cqe = 0;    // measured on the leaf's receive workers
  double instr_per_cqe = 0;
  double ipc = 0;
  double chunk_rate_mps = 0;    // chunks per second (millions)
};

DatapathResult run_datapath(World& w, std::uint64_t bytes);

}  // namespace mccl::bench
