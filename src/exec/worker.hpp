// Execution model for protocol progress engines.
//
// A Complex is a clocked multi-core compute substrate: the DPA (16 RISC-V
// cores x 16 hardware threads @ 1.8 GHz) or a host CPU (N cores x 1 thread
// @ 2.6 GHz). Each core owns an instruction-issue pipeline (a FIFO
// resource); a Worker is one hardware thread bound to a core.
//
// Task execution charges two cost components, matching the paper's analysis
// that the datapath is dominated by low-IPC data movement (Table I):
//  - `instr` cycles occupy the core's shared issue pipeline,
//  - `stall` cycles (memory/PCIe latency) occupy only the worker itself.
// Hence a single worker processes one CQE per (instr + stall) cycles, while
// co-resident workers overlap their stalls and a full core saturates at one
// CQE per `instr` cycles — the hardware-multithreading latency hiding the
// DPA is built for (Figs 13, 14, 16 emerge from exactly this mechanism).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/common/check.hpp"
#include "src/common/ring.hpp"
#include "src/common/units.hpp"
#include "src/rdma/cq.hpp"
#include "src/sim/engine.hpp"
#include "src/sim/resource.hpp"
#include "src/telemetry/trace.hpp"

namespace mccl::telemetry {
class Telemetry;
}  // namespace mccl::telemetry

namespace mccl::exec {

/// Cycle cost of one task on a worker.
struct Cost {
  double instr = 0;  // issue-pipeline cycles (shared per core)
  double stall = 0;  // latency cycles hidden by multithreading
  double cycles() const { return instr + stall; }

  Cost operator+(const Cost& o) const {
    return {instr + o.instr, stall + o.stall};
  }
};

struct Core {
  sim::Resource issue;
  std::size_t workers = 0;
};

class Worker;

class Complex {
 public:
  struct Config {
    std::size_t cores = 16;
    std::size_t threads_per_core = 16;
    double ghz = 1.8;
  };

  /// NVIDIA DPA as integrated in BlueField-3 / ConnectX-7.
  static Config dpa_config() { return {16, 16, 1.8}; }
  /// Server-grade host CPU (per-core workers, no HW multithreading model).
  static Config cpu_config(std::size_t cores = 24) { return {cores, 1, 2.6}; }

  Complex(sim::Engine& engine, Config config);

  sim::Engine& engine() { return engine_; }
  double ghz() const { return config_.ghz; }

  /// Straggler injection (fault plane): every task executed while the scale
  /// is s takes s times as long (instruction and stall components alike),
  /// modeling a paused or oversubscribed node. 1.0 = nominal. Transitions
  /// are mirrored into telemetry (worker.straggler_active gauge + flight
  /// recorder) when a hook is attached, so detectors and tests can observe
  /// the window instead of inferring it from slowed completions.
  void set_cost_scale(double scale);
  /// Attaches the telemetry hook for cost-scale transitions. `node` is the
  /// owning host id (gauge label / recorder ring); `engine_name` must point
  /// at static storage (e.g. "cpu", "dpa").
  void set_telemetry(telemetry::Telemetry* telem, std::int32_t node,
                     const char* engine_name);
  std::size_t capacity() const {
    return config_.cores * config_.threads_per_core;
  }

  /// Creates a worker with compact placement: fills all hardware threads of
  /// core 0, then core 1, ... (the paper's co-location policy, Section
  /// VI-C: it exercises worker contention on shared core resources).
  Worker& create_worker();
  /// Creates a worker pinned to a specific core.
  Worker& create_worker_on(std::size_t core);

  std::size_t num_workers() const { return workers_.size(); }
  Worker& worker(std::size_t i) { return *workers_[i]; }

  /// Flushes every worker's open occupancy span (before writing a trace).
  void flush_trace();

 private:
  friend class Worker;
  sim::Engine& engine_;
  Config config_;
  double cost_scale_ = 1.0;
  telemetry::Telemetry* telem_ = nullptr;
  std::int32_t telem_node_ = -1;
  const char* telem_engine_ = "";
  std::vector<Core> cores_;
  std::vector<std::unique_ptr<Worker>> workers_;
};

class Worker {
 public:
  using CqeHandler = std::function<void(const rdma::Cqe&)>;

  Worker(Complex& complex, std::size_t core_index);
  ~Worker();  // flushes any open trace span

  Complex& complex() { return complex_; }
  std::size_t core_index() const { return core_; }

  /// Binds this worker to a tracer row. Busy intervals are emitted as
  /// *coalesced* occupancy spans: back-to-back tasks merge into one span,
  /// and a span closes when a gap appears (or at flush). Coalescing keeps
  /// trace volume proportional to idle/busy transitions instead of CQE
  /// count — per-CQE spans would be millions of slivers on large runs.
  void set_trace(telemetry::Tracer* tracer, telemetry::TrackId track);
  /// Emits the open occupancy span, if any (teardown / trace write).
  void flush_trace();

  /// Enqueues a task: `fn` runs after the cost has been charged (FIFO per
  /// worker). Zero-cost tasks are allowed (control decisions). Tasks are
  /// stored as InlineCallback cells — captures up to the inline budget never
  /// touch the allocator (the send path posts one per chunk batch).
  template <typename F>
  void post(Cost cost, F&& fn) {
    tasks_.push(Task{cost, sim::InlineCallback(std::forward<F>(fn))});
    order_.push(nullptr);
    pump();
  }

  /// Subscribes to a CQ: each CQE pushed to it takes its turn in this
  /// worker's FIFO alongside posted tasks, with `per_cqe` charged before
  /// `handler(cqe)` runs. The CQE itself waits in the CQ until its turn; the
  /// worker pops it just before calling the handler. CQEs the CQ already
  /// holds are queued at once, in order. A worker may poll several CQs (the
  /// paper maps one worker to one or more multicast subgroups); each CQ has
  /// exactly one consumer, and only that consumer pops it.
  void subscribe(rdma::Cq& cq, CqeHandler handler, Cost per_cqe);

  // --- statistics -----------------------------------------------------------
  std::uint64_t tasks_done() const { return tasks_done_; }
  std::uint64_t cqes_seen() const { return cqes_seen_; }
  double total_instr() const { return total_instr_; }
  double total_stall() const { return total_stall_; }
  Time busy_time() const { return busy_time_; }
  /// Achieved instructions per cycle over this worker's busy time.
  double ipc() const;
  void reset_stats();

 private:
  struct Task {
    Cost cost;
    sim::InlineCallback fn;
  };

  /// One subscribed CQ. It is the CQ's consumer itself: a pushed CQE
  /// queues the subscription's address as its order entry, and its turn
  /// finds the CQ, handler and cost without a lookup.
  struct Subscription final : rdma::Cq::Consumer {
    Subscription(Worker& w, rdma::Cq& q, CqeHandler h, Cost c)
        : worker(w), cq(q), handler(std::move(h)), cost(c) {}
    void on_cqe(rdma::Cq& cq) override;

    Worker& worker;
    rdma::Cq& cq;
    CqeHandler handler;
    Cost cost;
  };

  void pump();
  void run_front();

  Complex& complex_;
  std::size_t core_;
  // Run order over every pending item: a subscription runs the front CQE
  // of its CQ, nullptr runs the front of tasks_. The front entry is the
  // item being charged or run.
  Ring<Subscription*> order_;
  Ring<Task> tasks_;  // posted tasks, in post order
  bool running_ = false;
  Time thread_free_ = 0;
  telemetry::Tracer* tracer_ = nullptr;
  telemetry::TrackId trace_track_ = 0;
  bool span_open_ = false;
  Time span_start_ = 0;
  Time span_end_ = 0;
  std::vector<std::unique_ptr<Subscription>> subs_;  // stable addresses

  std::uint64_t tasks_done_ = 0;
  std::uint64_t cqes_seen_ = 0;
  double total_instr_ = 0;
  double total_stall_ = 0;
  Time busy_time_ = 0;
};

}  // namespace mccl::exec
