// Telemetry facade: one object bundling the three observability primitives
// (metrics registry, sim-time tracer, flight recorder) plus their shared
// configuration. The Cluster owns one instance and hands pointers down the
// stack (fabric, NICs, workers, collectives); subsystems hold only a
// pointer and check enablement per event, so a disabled telemetry object
// costs a branch per instrumentation site.
#pragma once

#include <cstdint>

#include "src/telemetry/metrics.hpp"
#include "src/telemetry/recorder.hpp"
#include "src/telemetry/trace.hpp"

namespace mccl::telemetry {

struct TelemetryConfig {
  /// Start with sim-time tracing enabled (can also be flipped at runtime
  /// via Tracer::enable before the run of interest).
  bool trace = false;
  std::size_t trace_max_events = 1u << 20;
  /// The engine emits one dispatch-window span + pending-queue counter
  /// sample every `engine_sample` dispatched events when tracing.
  std::uint64_t engine_sample = 8192;
};

/// Trace pid used for cluster-global (non-rank) rows: the engine track.
inline constexpr std::int64_t kSimTracePid = 1'000'000;

class Telemetry {
 public:
  /// Flight-recorder ring capacity per node. The recorder is always on.
  static constexpr std::size_t kRecorderCapacity = 256;

  explicit Telemetry(TelemetryConfig cfg = {})
      : config(cfg),
        tracer(Tracer::Options{cfg.trace_max_events}),
        recorder(kRecorderCapacity) {
    tracer.enable(cfg.trace);
  }

  TelemetryConfig config;
  MetricsRegistry metrics;
  Tracer tracer;
  FlightRecorder recorder;
};

}  // namespace mccl::telemetry
