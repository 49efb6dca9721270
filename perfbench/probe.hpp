// Measurement helpers of the repo benchmark: per-layer counter snapshots read
// from the simulator's public accessors, host-time spans recorded around the
// calls the benchmark makes into each layer, and small statistics helpers.
//
// Nothing here reaches inside the simulator. A snapshot sums public counters
// of the cluster (engine, fabric, NICs, in-network compute) and of the
// communicators passed in (workers, failure detector); a span times one call
// from the benchmark's side of the boundary.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "src/coll/communicator.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Public counters of every layer at one instant. Differences of two
/// snapshots give the work a call or a phase did.
struct Counters {
  // sim
  std::uint64_t events = 0;       // Engine::dispatched
  std::uint64_t event_slots = 0;  // Engine::event_pool_capacity (grows only)
  // fabric
  std::uint64_t packets = 0;  // link-direction packet counts, all links
  std::uint64_t drops = 0;
  std::uint64_t wire_bytes = 0;         // bytes over every link direction
  std::uint64_t switch_port_bytes = 0;  // TX+RX at switch ports (Fig 12)
  std::uint64_t pool_packets = 0;       // PacketPool::capacity (grows only)
  // rdma
  std::uint64_t rc_retransmissions = 0;
  std::uint64_t rnr_drops = 0;  // UD + UC
  std::uint64_t dma_bytes = 0;
  std::uint64_t heap_bytes = 0;  // sum of HostMemory::brk
  // exec, over every worker of the communicators read
  std::uint64_t cqes = 0;
  std::uint64_t tasks = 0;
  mccl::Time busy = 0;
  // exec, receive workers only (the Table I view)
  std::uint64_t recv_cqes = 0;
  double recv_cycles = 0;  // busy time in cycles of the worker's clock
  double recv_instr = 0;
  // coll
  std::uint64_t heartbeats = 0;
  std::uint64_t suspicions = 0;
  // inc
  std::uint64_t merged_packets = 0;

  /// Per-field difference, for the counters that accumulate.
  Counters operator-(const Counters& o) const;
  /// Adds the totals of `d` and keeps the larger of each level.
  void add(const Counters& d);
};

Counters read_counters(mccl::coll::Cluster& cluster,
                       const std::vector<mccl::coll::Communicator*>& comms);

/// Spans of the benchmark's own calls into the simulator. Spans are kept in
/// memory and written out once, after the measurement ends.
class Tracer {
 public:
  struct Span {
    std::string name;        // layer.call, e.g. "coll.finish"
    std::uint64_t op = 0;    // shared by every span of one collective
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  // 0 = top level
    double start_us = 0;       // host time since the tracer was created
    double end_us = 0;
    Counters delta;  // counter differences across the span
  };

  Tracer() : t0_(Clock::now()) {}

  /// A fresh id for the spans of one collective.
  std::uint64_t new_op() { return ++last_op_; }

  /// Opens a span; close it with end(). Returns its id. With a cluster,
  /// the counters of the cluster and of `comms` are snapshotted at both
  /// boundaries.
  std::uint64_t begin(const char* name, std::uint64_t op,
                      mccl::coll::Cluster* cluster,
                      const std::vector<mccl::coll::Communicator*>& comms);
  void end(std::uint64_t id);

  /// Totals over the closed spans called `name`: host seconds, number of
  /// spans, and the engine events and fabric packets inside them.
  double seconds(const std::string& name) const;
  std::size_t count(const std::string& name) const;
  std::uint64_t events(const std::string& name) const;
  std::uint64_t packets(const std::string& name) const;

  /// Writes every span as Chrome trace-event JSON. Returns false on I/O
  /// failure.
  bool write(const std::string& path) const;

 private:
  struct Open {
    std::size_t index;
    mccl::coll::Cluster* cluster;
    std::vector<mccl::coll::Communicator*> comms;
    Counters at_begin;
  };

  Clock::time_point t0_;
  std::uint64_t last_op_ = 0;
  std::vector<Span> spans_;
  std::vector<Open> open_;  // stack of open spans
};

/// Opens a span for the lifetime of a scope when a tracer is present.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, std::uint64_t op,
             mccl::coll::Cluster* cluster,
             const std::vector<mccl::coll::Communicator*>& comms = {})
      : tracer_(tracer),
        id_(tracer != nullptr ? tracer->begin(name, op, cluster, comms) : 0) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  std::uint64_t id_;
};

/// Nearest-rank percentile (p in [0, 1]); 0 for an empty sample.
double percentile(std::vector<double> v, double p);
double median(std::vector<double> v);

/// High-water mark of this process's resident set, in MiB.
double peak_rss_mib();

/// FNV-1a accumulator for the fingerprint of simulated outputs.
class Fingerprint {
 public:
  void add(std::uint64_t v);
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

}  // namespace perfbench
