#pragma once

#include <cstdio>
#include <functional>
#include <string>

#include "core/event.hpp"
#include "core/scheduler.hpp"
#include "core/time.hpp"
#include "telemetry/counters.hpp"

namespace ibsim::telemetry {

/// Periodic CSV sampler of a counter registry: one column per
/// instrument, one row per sampling interval, the first row one
/// interval after install. It is the simulator's only time series;
/// readers find a series by its column name and difference cumulative
/// columns for rates. The column set is frozen at install time —
/// instrument the fabric first, then install.
///
/// The optional `refresh` hook runs before each row and lets the owner
/// set the instruments from current state (device counts, fabric-wide
/// queued bytes, bytes per node class): nothing else writes them.
class CounterSampler final : public core::EventHandler {
 public:
  CounterSampler(const CounterRegistry* registry, core::Time interval, std::string csv_path,
                 std::function<void(core::Time)> refresh = {});
  ~CounterSampler() override;

  CounterSampler(const CounterSampler&) = delete;
  CounterSampler& operator=(const CounterSampler&) = delete;

  /// Open the CSV, write the header, and begin sampling every interval.
  /// Returns false (and samples nothing) if the file cannot be opened.
  bool install(core::Scheduler& sched);

  void on_event(core::Scheduler& sched, const core::Event& ev) override;

  /// Flush and close the file; further samples are dropped. Idempotent,
  /// also run by the destructor.
  void close();

  [[nodiscard]] std::uint64_t rows_written() const { return rows_; }

 private:
  const CounterRegistry* registry_;
  core::Time interval_;
  std::string path_;
  std::function<void(core::Time)> refresh_;
  std::FILE* file_ = nullptr;
  std::size_t columns_ = 0;
  std::uint64_t rows_ = 0;
  bool installed_ = false;
};

}  // namespace ibsim::telemetry
