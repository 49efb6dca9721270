// The benchmark's four workloads. Each builds its own simulated world from a
// seed, runs a fixed list of collectives through the public API, checks
// every result, and reports what it measured.
//
// An iteration runs a fixed number of independent worlds, each seeded from
// the workload seed, and is a pure function of that seed: every iteration
// of a run repeats the same simulations, so simulated metrics never depend
// on how many iterations the host managed to fit into the measured time.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "probe.hpp"

namespace perfbench {

/// Scheduler ledger of the multi-tenant workload (zero elsewhere).
struct SchedCounters {
  std::uint64_t admitted = 0;
  std::uint64_t queued = 0;
  std::uint64_t rejected = 0;
  std::uint64_t deferrals = 0;  // health + predictive + pool
  std::uint64_t peak_running = 0;
  std::vector<double> queue_us;  // admission wait per admitted job
};

/// What one iteration of a workload produced.
struct Iteration {
  std::vector<double> setup_s;    // host seconds per world built
  double run_s = 0;               // host seconds in the timed phase
  std::vector<double> ops_per_s;  // per world, over its timed phase
  std::uint64_t attempted = 0;  // collectives started
  std::uint64_t failed = 0;     // not kOk, or not verified
  bool checks_ok = true;        // workload-level ledgers balanced
  std::vector<double> lat_us;     // simulated latency samples
  std::vector<double> hp_lat_us;  // the class-0 subset of lat_us
  double payload_bytes = 0;       // per-rank payload delivered, summed
  double sim_op_us = 0;           // simulated op durations, summed
  Counters delta;                 // timed-phase counter differences
  std::vector<double> phase_us[4];  // per op: barrier, transfer,
                                    // reliability, handshake (max over ranks)
  std::uint64_t fetched_chunks = 0;
  SchedCounters sched;
  std::uint64_t fingerprint = 0;
};

struct Workload {
  const char* name;
  std::size_t worlds;  // independent worlds per iteration
  /// Builds one world from `seed` and runs its collectives. With a tracer,
  /// spans are recorded around every call into the simulator's public
  /// entry points.
  Iteration (*run_world)(std::uint64_t seed, Tracer* tracer);
};

const std::vector<Workload>& workloads();

/// Runs every world of one iteration of `wl` and merges their results.
Iteration run_iteration(const Workload& wl, std::uint64_t seed,
                        Tracer* tracer);

}  // namespace perfbench
