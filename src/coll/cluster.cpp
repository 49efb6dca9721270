#include "src/coll/cluster.hpp"

namespace mccl::coll {

Cluster::Cluster(fabric::Topology topology, ClusterConfig config)
    : telemetry_(config.telemetry), config_(config) {
  engine_.set_tracer(
      &telemetry_.tracer,
      telemetry_.tracer.track(telemetry::kSimTracePid, "sim", 0, "engine"),
      config.telemetry.engine_sample);
  fabric_ =
      std::make_unique<fabric::Fabric>(engine_, std::move(topology),
                                       config.fabric);
  fabric_->set_telemetry(&telemetry_);
  inc_ = std::make_unique<inc::Engine>(*fabric_);
  const std::size_t hosts = fabric_->topology().num_hosts();
  nics_.reserve(hosts);
  for (std::size_t h = 0; h < hosts; ++h) {
    nics_.push_back(std::make_unique<rdma::Nic>(
        engine_, *fabric_, static_cast<fabric::NodeId>(h), config.nic));
    nics_.back()->set_telemetry(&telemetry_);
    nics_.back()->set_inc_handler(
        [this, h](const fabric::PacketPtr& p) {
          inc_->on_host_packet(static_cast<fabric::NodeId>(h), p);
        });
    cpus_.push_back(std::make_unique<exec::Complex>(engine_, config.cpu));
    dpas_.push_back(std::make_unique<exec::Complex>(engine_, config.dpa));
    cpus_.back()->set_telemetry(&telemetry_, static_cast<std::int32_t>(h),
                                "cpu");
    dpas_.back()->set_telemetry(&telemetry_, static_cast<std::int32_t>(h),
                                "dpa");
  }
  // The fault plane owns the straggler timeline; applying the slowdown to a
  // host's compute complexes is the Cluster's job (the fabric has no notion
  // of progress engines).
  fabric_->faults().set_straggler_handler(
      [this](fabric::NodeId host, double factor) {
        const auto h = static_cast<std::size_t>(host);
        MCCL_CHECK(h < cpus_.size());
        cpus_[h]->set_cost_scale(factor);
        dpas_[h]->set_cost_scale(factor);
      });
  // Node crashes silence the host's NIC (delivery, egress, DMA completions
  // and CQE generation all stop); interested communicators are notified so
  // they can settle op accounting for the dead rank.
  fabric_->faults().set_crash_handler(
      [this](fabric::NodeId host, bool crashed) {
        const auto h = static_cast<std::size_t>(host);
        MCCL_CHECK(h < nics_.size());
        nics_[h]->set_crashed(crashed);
        for (const auto& [id, fn] : crash_listeners_) fn(host, crashed);
      });
  if (config.health.enabled)
    health_ = std::make_unique<HealthMonitor>(*this, config.health);
  // Cluster-owned state (fabric counters, NIC/QP totals, engine stats) is
  // mirrored into the registry at snapshot time; hot paths stay untouched.
  telemetry_.metrics.add_publisher(
      [this](telemetry::MetricsRegistry& reg) { publish_metrics(reg); });
}

void Cluster::publish_metrics(telemetry::MetricsRegistry& reg) {
  reg.counter("sim.events_dispatched").set(engine_.dispatched());
  reg.gauge("sim.time_us").set(to_microseconds(engine_.now()));
  fabric_->publish_metrics(reg);
  std::uint64_t rnr = 0, retx = 0, broken = 0, dma_ops = 0, dma_bytes = 0;
  std::uint64_t crc_drops = 0;
  for (const auto& nic : nics_) {
    rnr += nic->ud_rnr_drops() + nic->uc_rnr_drops();
    retx += nic->rc_retransmissions();
    broken += nic->uc_broken_messages();
    dma_ops += nic->dma_ops();
    dma_bytes += nic->dma_bytes();
    crc_drops += nic->crc_drops();
  }
  reg.counter("nic.rnr_drops").set(rnr);
  reg.counter("nic.rc_retransmissions").set(retx);
  reg.counter("nic.uc_broken_messages").set(broken);
  reg.counter("nic.dma_ops").set(dma_ops);
  reg.counter("nic.dma_bytes").set(dma_bytes);
  reg.counter("integrity.crc_drops").set(crc_drops);
}

std::uint64_t Cluster::add_crash_listener(CrashListener fn) {
  const std::uint64_t id = next_crash_listener_++;
  crash_listeners_.emplace_back(id, std::move(fn));
  return id;
}

void Cluster::remove_crash_listener(std::uint64_t id) {
  for (auto it = crash_listeners_.begin(); it != crash_listeners_.end(); ++it) {
    if (it->first == id) {
      crash_listeners_.erase(it);
      return;
    }
  }
}

void Cluster::flush_trace() {
  for (auto& c : cpus_) c->flush_trace();
  for (auto& c : dpas_) c->flush_trace();
}

bool Cluster::write_trace(const std::string& path) {
  flush_trace();
  return telemetry_.tracer.write_json(path);
}

bool Cluster::write_metrics(const std::string& path) {
  return telemetry_.metrics.write_json(path);
}

}  // namespace mccl::coll
