#pragma once

#include <memory>
#include <string>

#include "ib/cc_params.hpp"
#include "ib/cct.hpp"
#include "telemetry/counters.hpp"

namespace ibsim::cc {

/// The Congestion Control Manager role from the IB architecture: owns the
/// fabric-wide CC parameter set and the Congestion Control Table contents
/// that every channel adapter is configured with.
///
/// The real CC manager is a subnet-management agent; here it is the
/// configuration root the simulation builder distributes to switches
/// (marking parameters) and HCAs (CA parameters + CCT).
class CcManager {
 public:
  /// `cct_entries` sizes the table; it must exceed ccti_limit.
  /// `ref_gbps` is the injection rate IRD delays are computed against.
  explicit CcManager(const ib::CcParams& params, std::size_t cct_entries = 128,
                     double ref_gbps = 13.5);

  [[nodiscard]] const ib::CcParams& params() const { return params_; }
  [[nodiscard]] const ib::CongestionControlTable& cct() const { return *cct_; }
  [[nodiscard]] bool enabled() const { return params_.enabled; }

  /// Reaction-point algorithm every channel adapter is configured with
  /// (a ccalg::CcAlgorithmRegistry name; default "iba_a10"). The
  /// *effective* algorithm is "none" whenever CC is disabled.
  void set_algo(const std::string& algo) { algo_ = algo; }
  [[nodiscard]] const std::string& algo() const { return algo_; }
  [[nodiscard]] std::string effective_algo() const {
    return params_.enabled ? algo_ : "none";
  }

  /// Absolute queue threshold (bytes) for a switch output Port VL, given
  /// the reference input-buffer capacity of one VL.
  [[nodiscard]] std::int64_t threshold_bytes(std::int64_t ref_buffer_bytes) const;

  /// Publish the fabric-wide CC configuration into a counter registry as
  /// `cc.*` gauges, so exported counter sets are self-describing (a CSV
  /// or summary read in isolation still shows which CC regime ran).
  void publish(telemetry::CounterRegistry& registry) const;

 private:
  ib::CcParams params_;
  std::string algo_ = "iba_a10";
  std::unique_ptr<ib::CongestionControlTable> cct_;
};

}  // namespace ibsim::cc
