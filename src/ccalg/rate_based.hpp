#pragma once

#include <cstdint>
#include <vector>

#include "ccalg/cc_algorithm.hpp"
#include "ccalg/flow_table.hpp"

namespace ibsim::ccalg {

/// Shared machinery of the rate-based reaction points (`dcqcn`, `aimd`):
/// each flow holds a current injection-rate fraction in (0, 1]; a BECN
/// tightens it (subclass policy), the recovery timer relaxes it
/// (subclass policy), and the injection-rate delay is derived from the
/// fraction exactly like a CCT entry's IRD — a packet of `b` bytes at
/// rate `r` is followed by a gap of T(b) x (1 - r) / r, so back-to-back
/// MTU packets average `r` x reference rate.
///
/// Flow state lives in the same FlowTable as IbaA10's (an untouched flow
/// reads as rate 1, ready at 0), and the active-flow set uses the same
/// swap-remove bookkeeping; the severity gauge is the quantized rate
/// deficit sum(round(1024 x (1 - rate))), maintained incrementally.
class RateBasedAlgorithm : public CcAlgorithm {
 public:
  RateBasedAlgorithm(const CcAlgoContext& ctx, double min_rate);

  core::Time on_send(std::int32_t flow, std::int32_t bytes, core::Time end) override;
  [[nodiscard]] core::Time ready_at(std::int32_t flow) const override;
  [[nodiscard]] core::Time injection_delay(std::int32_t flow,
                                           std::int32_t bytes) const override;

  BecnOutcome on_becn(std::int32_t flow, core::Time now) override;

  [[nodiscard]] core::Time timer_delay() const override;
  std::int64_t on_timer(core::Time now, std::vector<std::int32_t>* ended) override;

  [[nodiscard]] std::int32_t active_flow_count() const override {
    return static_cast<std::int32_t>(active_flows_.size());
  }
  [[nodiscard]] std::int64_t severity_sum() const override { return severity_total_; }
  [[nodiscard]] double rate_fraction(std::int32_t flow) const override {
    return flows_.state(flow).rate;
  }

 protected:
  struct RateFlow {
    double rate = 1.0;    ///< granted fraction of the reference rate
    double target = 1.0;  ///< recovery target (DCQCN; unused by AIMD)
    double alpha = 1.0;   ///< congestion estimate (DCQCN; unused by AIMD)
    core::Time ready_at = 0;
    std::int32_t flow = -1;   ///< FlowTable's key
    std::uint16_t stage = 0;  ///< recovery stages since the last BECN (DCQCN: < 40)
    bool active = false;      ///< listed in active_flows_
  };
  static_assert(sizeof(RateFlow) == 40, "the key must fill RateFlow's padding");

  /// Tighten `f` for one BECN (rate must end in [min_rate, 1]).
  virtual void react(RateFlow& f) = 0;
  /// One recovery step for `f`; return true when fully recovered (the
  /// flow then leaves the active set with rate snapped back to 1).
  virtual bool recover(RateFlow& f) = 0;

  [[nodiscard]] double min_rate() const { return min_rate_; }

  ib::CcParams params_;

 private:
  [[nodiscard]] static std::int64_t severity_of(const RateFlow& f) {
    return static_cast<std::int64_t>(1024.0 * (1.0 - f.rate) + 0.5);
  }
  [[nodiscard]] core::Time delay_of(const RateFlow& f, std::int32_t bytes) const;

  double ref_gbps_;
  double min_rate_;
  FlowTable<RateFlow> flows_;
  std::vector<std::int32_t> active_flows_;
  std::int64_t severity_total_ = 0;
};

}  // namespace ibsim::ccalg
