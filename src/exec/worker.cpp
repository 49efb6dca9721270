#include "src/exec/worker.hpp"

#include <algorithm>

#include "src/telemetry/telemetry.hpp"

namespace mccl::exec {

Complex::Complex(sim::Engine& engine, Config config)
    : engine_(engine), config_(config) {
  MCCL_CHECK(config.cores >= 1 && config.threads_per_core >= 1);
  MCCL_CHECK(config.ghz > 0);
  cores_.resize(config.cores);
}

void Complex::set_telemetry(telemetry::Telemetry* telem, std::int32_t node,
                            const char* engine_name) {
  telem_ = telem;
  telem_node_ = node;
  telem_engine_ = engine_name;
}

void Complex::set_cost_scale(double scale) {
  MCCL_CHECK(scale >= 1.0);
  if (scale == cost_scale_) return;
  const bool was_straggling = cost_scale_ > 1.0;
  cost_scale_ = scale;
  if (telem_ == nullptr) return;
  // Cold path: scale transitions come from the fault timeline, never from
  // per-CQE processing, so the registry lookup per transition is fine.
  telem_->metrics
      .gauge("worker.straggler_active",
             {{"host", std::to_string(telem_node_)},
              {"engine", telem_engine_}})
      .set(scale > 1.0 ? scale : 0.0);
  const bool straggling = scale > 1.0;
  if (straggling != was_straggling)
    telem_->recorder.record(
        engine_.now(), telem_node_, telemetry::EventCat::kFault,
        straggling ? "straggler_exec_begin" : "straggler_exec_end",
        static_cast<std::uint64_t>(scale),
        static_cast<std::uint64_t>(telem_engine_[0]));  // 'c'pu vs 'd'pa
}

Worker& Complex::create_worker() {
  for (std::size_t c = 0; c < cores_.size(); ++c) {
    if (cores_[c].workers < config_.threads_per_core)
      return create_worker_on(c);
  }
  MCCL_CHECK_MSG(false, "compute complex out of hardware threads");
  __builtin_unreachable();
}

Worker& Complex::create_worker_on(std::size_t core) {
  MCCL_CHECK(core < cores_.size());
  MCCL_CHECK_MSG(cores_[core].workers < config_.threads_per_core,
                 "core out of hardware threads");
  ++cores_[core].workers;
  workers_.push_back(std::make_unique<Worker>(*this, core));
  return *workers_.back();
}

void Complex::flush_trace() {
  for (auto& w : workers_) w->flush_trace();
}

Worker::Worker(Complex& complex, std::size_t core_index)
    : complex_(complex), core_(core_index) {}

Worker::~Worker() { flush_trace(); }

void Worker::set_trace(telemetry::Tracer* tracer, telemetry::TrackId track) {
  tracer_ = tracer;
  trace_track_ = track;
}

void Worker::flush_trace() {
  if (!span_open_) return;
  span_open_ = false;
  if (tracer_ != nullptr && tracer_->enabled())
    tracer_->complete(trace_track_, "busy", span_start_, span_end_, "exec");
}

void Worker::subscribe(rdma::Cq& cq, CqeHandler handler, Cost per_cqe) {
  subs_.push_back(std::make_unique<Subscription>(*this, cq,
                                                 std::move(handler), per_cqe));
  Subscription& sub = *subs_.back();
  cq.set_consumer(&sub);
  // Queue a turn for each CQE already waiting.
  for (std::size_t i = 0; i < cq.depth(); ++i) sub.on_cqe(cq);
}

// mccl-lint: begin-hot worker-dispatch
void Worker::Subscription::on_cqe(rdma::Cq& /*cq*/) {
  ++worker.cqes_seen_;
  // The subscription is heap-allocated and owned by the worker, so it
  // outlives every order entry that names it.
  worker.order_.push(this);
  worker.pump();
}

void Worker::pump() {
  if (running_ || order_.empty()) return;
  running_ = true;
  // The item stays at the head of its queue until its completion event
  // fires: the event captures only `this` (8 bytes, always inline) instead
  // of relocating the callback into the engine. Items queued meanwhile go
  // behind it, so FIFO order is preserved.
  const Subscription* sub = order_.front();
  const Cost cost = sub != nullptr ? sub->cost : tasks_.front().cost;

  sim::Engine& engine = complex_.engine_;
  const double ghz = complex_.config_.ghz;
  const Time ready = std::max(engine.now(), thread_free_);
  // cost_scale_ > 1 while the host is a straggler (fault injection).
  const double scale = complex_.cost_scale_;
  const Time instr_time = cycles_to_time(cost.instr * scale, ghz);
  const Time stall_time = cycles_to_time(cost.stall * scale, ghz);
  // Issue cycles contend on the core's shared pipeline; stall cycles only
  // block this hardware thread (they overlap with other workers' issues).
  const Time issue_done =
      complex_.cores_[core_].issue.acquire(ready, instr_time);
  thread_free_ = issue_done + stall_time;

  total_instr_ += cost.instr;
  total_stall_ += cost.stall;
  busy_time_ += thread_free_ - ready;
  ++tasks_done_;

  if (tracer_ != nullptr && tracer_->enabled() && thread_free_ > ready) {
    if (span_open_ && ready > span_end_) flush_trace();
    if (!span_open_) {
      span_open_ = true;
      span_start_ = ready;
    }
    span_end_ = thread_free_;
  }

  engine.schedule_at(thread_free_, [this] { run_front(); });
}

void Worker::run_front() {
  if (Subscription* sub = order_.pop()) {
    // Popped before the handler runs: the handler may push to this CQ.
    const rdma::Cqe cqe = sub->cq.pop();
    sub->handler(cqe);
  } else {
    Task task = tasks_.pop();  // moved out: fn may post() and grow tasks_
    task.fn();
  }
  running_ = false;
  pump();
}
// mccl-lint: end-hot

double Worker::ipc() const {
  if (busy_time_ <= 0) return 0.0;
  const double busy_cycles =
      static_cast<double>(busy_time_) * complex_.ghz() / 1000.0;
  return total_instr_ / busy_cycles;
}

void Worker::reset_stats() {
  tasks_done_ = 0;
  cqes_seen_ = 0;
  total_instr_ = 0;
  total_stall_ = 0;
  busy_time_ = 0;
}

}  // namespace mccl::exec
