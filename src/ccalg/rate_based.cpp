#include "ccalg/rate_based.hpp"

#include <cmath>

#include "core/assert.hpp"

namespace ibsim::ccalg {

RateBasedAlgorithm::RateBasedAlgorithm(const CcAlgoContext& ctx, double min_rate)
    : params_(ctx.params), ref_gbps_(ctx.reference_gbps()), min_rate_(min_rate) {
  IBSIM_ASSERT(min_rate_ > 0.0 && min_rate_ < 1.0, "min_rate must be in (0, 1)");
}

core::Time RateBasedAlgorithm::on_send(std::int32_t flow, std::int32_t bytes,
                                       core::Time end) {
  RateFlow& f = flows_.touch(flow);
  f.ready_at = end + delay_of(f, bytes);
  return f.ready_at;
}

core::Time RateBasedAlgorithm::ready_at(std::int32_t flow) const {
  return flows_.state(flow).ready_at;
}

core::Time RateBasedAlgorithm::injection_delay(std::int32_t flow,
                                               std::int32_t bytes) const {
  return delay_of(flows_.state(flow), bytes);
}

core::Time RateBasedAlgorithm::delay_of(const RateFlow& f, std::int32_t bytes) const {
  if (f.rate >= 1.0) return 0;
  // Gap after a packet of T(bytes) so the averaged rate is f.rate:
  // T x (1 - r) / r, same semantics as a CCT entry's IRD factor.
  const double gap = static_cast<double>(core::transmit_time(bytes, ref_gbps_)) *
                     (1.0 - f.rate) / f.rate;
  return static_cast<core::Time>(std::llround(gap));
}

BecnOutcome RateBasedAlgorithm::on_becn(std::int32_t flow, core::Time now) {
  (void)now;
  RateFlow& f = flows_.touch(flow);
  BecnOutcome out;
  out.newly_throttled = !f.active;
  if (out.newly_throttled) {
    f.active = true;
    active_flows_.push_back(flow);
  }
  const std::int64_t before = severity_of(f);
  react(f);
  if (f.rate < min_rate_) f.rate = min_rate_;
  severity_total_ += severity_of(f) - before;
  out.severity = severity_total_;
  return out;
}

core::Time RateBasedAlgorithm::timer_delay() const {
  return active_flows_.empty() ? 0 : params_.timer_interval();
}

std::int64_t RateBasedAlgorithm::on_timer(core::Time now, std::vector<std::int32_t>* ended) {
  (void)now;
  for (std::size_t i = 0; i < active_flows_.size();) {
    const std::int32_t flow = active_flows_[i];
    RateFlow& f = flows_.touch(flow);
    const std::int64_t before = severity_of(f);
    const bool done = recover(f);
    if (done) {
      f.rate = 1.0;
      f.target = 1.0;
      f.stage = 0;
      f.active = false;
      active_flows_[i] = active_flows_.back();
      active_flows_.pop_back();
      if (ended != nullptr) ended->push_back(flow);
    } else {
      ++i;
    }
    severity_total_ += severity_of(f) - before;
  }
  return severity_total_;
}

}  // namespace ibsim::ccalg
