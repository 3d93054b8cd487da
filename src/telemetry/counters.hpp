#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/assert.hpp"

namespace ibsim::telemetry {

/// Registry of named, hierarchical counters and gauges
/// (`switch.3.port.12.vl0.queue_bytes`, `fabric.fecn_marked`, ...).
///
/// Names are resolved once, at instrumentation time, into dense integer
/// handles. Nothing on the simulation's hot path writes here: devices keep
/// their own counts, and the fabric sets every instrument from them
/// before each CSV row and snapshot (DESIGN.md §7). Counters hold monotone
/// counts, gauges the latest sampled value — the distinction only matters
/// to exporters (a CSV consumer differentiates counters, plots gauges).
class CounterRegistry {
 public:
  enum class Kind : std::uint8_t { Counter, Gauge };

  /// Pre-resolved instrument reference. Invalid handles (default
  /// constructed) are legal and make updates no-ops, so a device can
  /// publish unconditionally and skip registration when a detail level is
  /// disabled.
  struct Handle {
    std::int32_t idx = -1;
    [[nodiscard]] bool valid() const { return idx >= 0; }
  };

  /// Get-or-create by name. Re-resolving an existing name returns the
  /// same handle; the kind must match.
  Handle counter(const std::string& name) { return resolve(name, Kind::Counter); }
  Handle gauge(const std::string& name) { return resolve(name, Kind::Gauge); }

  /// Store an instrument's current value (a no-op for an invalid handle).
  void set(Handle h, std::int64_t value) {
    if (h.idx >= 0) values_[static_cast<std::size_t>(h.idx)] = value;
  }

  // --- introspection -------------------------------------------------------
  [[nodiscard]] std::size_t size() const { return values_.size(); }
  [[nodiscard]] const std::string& name(std::size_t i) const { return names_[i]; }
  [[nodiscard]] Kind kind(std::size_t i) const { return kinds_[i]; }
  [[nodiscard]] std::int64_t value(std::size_t i) const { return values_[i]; }
  [[nodiscard]] std::int64_t value(Handle h) const {
    IBSIM_ASSERT(h.valid(), "reading an invalid counter handle");
    return values_[static_cast<std::size_t>(h.idx)];
  }

  /// (name, value) pairs in registration order — registration order is
  /// deterministic, so snapshots of identical runs compare equal.
  [[nodiscard]] std::vector<std::pair<std::string, std::int64_t>> snapshot() const;

 private:
  Handle resolve(const std::string& name, Kind kind);

  std::unordered_map<std::string, std::int32_t> index_;
  std::vector<std::string> names_;
  std::vector<Kind> kinds_;
  std::vector<std::int64_t> values_;
};

}  // namespace ibsim::telemetry
