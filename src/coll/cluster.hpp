// Cluster: the simulated machine room.
//
// Owns the event engine, the fabric, one NIC per host, one host-CPU complex
// per host, one DPA complex per host and, when enabled, the link-health
// monitor that watches the fabric for every communicator on the cluster
// (health_monitor.hpp). Communicators are built over a
// subset of hosts. The Cluster also hands out globally unique collective
// ids and rkeys so that concurrent communicators never collide.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/coll/health_monitor.hpp"
#include "src/exec/worker.hpp"
#include "src/fabric/fabric.hpp"
#include "src/inc/engine.hpp"
#include "src/rdma/nic.hpp"
#include "src/sim/engine.hpp"
#include "src/telemetry/telemetry.hpp"

namespace mccl::coll {

struct ClusterConfig {
  fabric::Fabric::Config fabric;
  rdma::NicConfig nic;
  exec::Complex::Config cpu = exec::Complex::cpu_config();
  exec::Complex::Config dpa = exec::Complex::dpa_config();
  telemetry::TelemetryConfig telemetry;
  /// Online link-health plane: per-link health drives weighted-ECMP
  /// steering, multicast subgroup re-pinning and the scheduler's
  /// predictive admission gate. Off by default (static baseline).
  HealthConfig health;
};

class Cluster {
 public:
  Cluster(fabric::Topology topology, ClusterConfig config = {});

  sim::Engine& engine() { return engine_; }
  fabric::Fabric& fabric() { return *fabric_; }
  inc::Engine& inc() { return *inc_; }
  const ClusterConfig& config() const { return config_; }
  /// The cluster's link-health monitor; null unless config().health is
  /// enabled.
  HealthMonitor* health() { return health_.get(); }

  std::size_t num_hosts() const { return nics_.size(); }
  rdma::Nic& nic(std::size_t host) { return *nics_[host]; }
  exec::Complex& cpu(std::size_t host) { return *cpus_[host]; }
  exec::Complex& dpa(std::size_t host) { return *dpas_[host]; }

  /// Globally unique 12-bit collective instance id.
  std::uint16_t next_op_id() {
    MCCL_CHECK_MSG(next_op_id_ < (1u << 12), "collective id space exhausted");
    return next_op_id_++;
  }
  /// Globally unique rkey for symmetric (same value on every rank)
  /// registrations, e.g. the fetch-layer receive buffer registration.
  std::uint32_t next_shared_rkey() { return next_rkey_++; }

  /// Runs the simulation until `done` returns true; returns the time.
  /// Templated on the predicate so the per-event check is a direct call
  /// (no std::function type erasure on the dispatch loop).
  template <typename Pred>
  Time run_until_done(Pred&& done) {
    const bool ok = engine_.run_while_pending(std::forward<Pred>(done));
    MCCL_CHECK_MSG(ok, "simulation drained without reaching completion");
    return engine_.now();
  }

  /// Physical-crash notifications (fault-plane kNodeCrash/kNodeRecover).
  /// The Cluster silences the host's NIC itself; communicators subscribe
  /// here for membership accounting. Returns an id for removal — listeners
  /// must unregister before they are destroyed.
  using CrashListener = std::function<void(fabric::NodeId host, bool crashed)>;
  std::uint64_t add_crash_listener(CrashListener fn);
  void remove_crash_listener(std::uint64_t id);
  bool host_crashed(std::size_t host) const {
    return nics_[host]->crashed();
  }

  // --- Telemetry -----------------------------------------------------------
  telemetry::Telemetry& telemetry() { return telemetry_; }
  const telemetry::Telemetry& telemetry() const { return telemetry_; }

  /// Flushes open worker-occupancy spans into the tracer (they are normally
  /// closed lazily / at destruction). Call before reading tracer events.
  void flush_trace();
  /// flush_trace() + write the Chrome trace-event JSON. Returns false on
  /// I/O failure.
  bool write_trace(const std::string& path);
  /// Snapshots the metrics registry (running publishers) and writes JSON.
  bool write_metrics(const std::string& path);

 private:
  void publish_metrics(telemetry::MetricsRegistry& reg);

  // Declared first so it outlives every subsystem holding a pointer to it
  // (workers flush trace spans from their destructors).
  telemetry::Telemetry telemetry_;
  sim::Engine engine_;
  ClusterConfig config_;
  std::unique_ptr<fabric::Fabric> fabric_;
  std::unique_ptr<inc::Engine> inc_;
  std::vector<std::unique_ptr<rdma::Nic>> nics_;
  std::vector<std::unique_ptr<exec::Complex>> cpus_;
  std::vector<std::unique_ptr<exec::Complex>> dpas_;
  std::unique_ptr<HealthMonitor> health_;
  std::uint16_t next_op_id_ = 1;
  std::uint32_t next_rkey_ = 1 << 20;  // above per-NIC sequential keys
  std::vector<std::pair<std::uint64_t, CrashListener>> crash_listeners_;
  std::uint64_t next_crash_listener_ = 1;
};

}  // namespace mccl::coll
