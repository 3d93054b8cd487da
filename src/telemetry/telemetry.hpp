#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "telemetry/counters.hpp"
#include "telemetry/trace.hpp"

namespace ibsim::telemetry {

/// Construction options for one Telemetry instance.
struct TelemetryOptions {
  std::uint32_t trace_categories = 0;  ///< 0 disables the tracer entirely
  std::size_t ring_capacity = 1u << 20;
  /// Register per-port / per-node instruments (queue_bytes, buf_bytes,
  /// credit_stall_ps, per-HCA CCTI) in addition to the fabric-wide
  /// aggregates. Off by default: on a 648-node fabric this is tens of
  /// thousands of gauges.
  bool detailed = false;
};

/// The observability root one simulation owns: a counter registry, an
/// optional tracer, and the track names exporters render. Devices never
/// see it: they keep their own counts, which the fabric reads into the
/// registry before each CSV row and snapshot, and receive only the tracer
/// (null = tracing off, the only cost a probe then pays is that null
/// check).
class Telemetry {
 public:
  explicit Telemetry(const TelemetryOptions& options) : options_(options) {
    if (options.trace_categories != 0) {
      tracer_ = std::make_unique<Tracer>(options.ring_capacity, options.trace_categories);
    }
  }

  [[nodiscard]] const TelemetryOptions& options() const { return options_; }
  [[nodiscard]] bool detailed() const { return options_.detailed; }

  [[nodiscard]] CounterRegistry& registry() { return registry_; }
  [[nodiscard]] const CounterRegistry& registry() const { return registry_; }

  /// Null when no trace category is enabled — probes cache this pointer.
  [[nodiscard]] Tracer* tracer() { return tracer_.get(); }
  [[nodiscard]] const Tracer* tracer() const { return tracer_.get(); }

  /// Name the trace track of a device ("switch 3", "hca 12 (node 5)").
  void set_track_name(std::int32_t dev, std::string name) {
    track_names_[dev] = std::move(name);
  }
  [[nodiscard]] const std::map<std::int32_t, std::string>& track_names() const {
    return track_names_;
  }

 private:
  TelemetryOptions options_;
  CounterRegistry registry_;
  std::unique_ptr<Tracer> tracer_;
  std::map<std::int32_t, std::string> track_names_;
};

}  // namespace ibsim::telemetry
