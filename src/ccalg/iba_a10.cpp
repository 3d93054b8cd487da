#include "ccalg/iba_a10.hpp"

#include <algorithm>

#include "core/assert.hpp"

namespace ibsim::ccalg {

IbaA10::IbaA10(const CcAlgoContext& ctx) : params_(ctx.params), cct_(ctx.cct) {
  IBSIM_ASSERT(cct_ != nullptr, "iba_a10 needs a congestion control table");
}

std::unique_ptr<CcAlgorithm> IbaA10::make(const CcAlgoContext& ctx) {
  return std::make_unique<IbaA10>(ctx);
}

core::Time IbaA10::on_send(std::int32_t flow, std::int32_t bytes, core::Time end) {
  FlowCc& f = flows_.touch(flow);
  if (f.ccti == 0) {
    f.ready_at = end;
    return f.ready_at;
  }
  f.ready_at = end + cct_->ird_delay(f.ccti, bytes);
  return f.ready_at;
}

core::Time IbaA10::ready_at(std::int32_t flow) const { return flows_.state(flow).ready_at; }

core::Time IbaA10::injection_delay(std::int32_t flow, std::int32_t bytes) const {
  const FlowCc& f = flows_.state(flow);
  return f.ccti == 0 ? 0 : cct_->ird_delay(f.ccti, bytes);
}

BecnOutcome IbaA10::on_becn(std::int32_t flow, core::Time now) {
  (void)now;
  FlowCc& f = flows_.touch(flow);
  BecnOutcome out;
  out.newly_throttled = f.ccti == 0 && !f.active;
  if (out.newly_throttled) {
    f.active = true;
    active_flows_.push_back(flow);
  }
  const std::uint16_t before = f.ccti;
  f.ccti = static_cast<std::uint16_t>(
      std::min<std::uint32_t>(f.ccti + params_.ccti_increase, params_.ccti_limit));
  ccti_total_ += f.ccti - before;
  out.severity = ccti_total_;
  return out;
}

core::Time IbaA10::timer_delay() const {
  return active_flows_.empty() ? 0 : params_.timer_interval();
}

std::int64_t IbaA10::on_timer(core::Time now, std::vector<std::int32_t>* ended) {
  (void)now;
  // Every expiry of the CCTI_Timer decrements the CCTI of all flows of
  // the port by one, down to CCTI_Min. Only throttled flows are visited;
  // flows reaching zero leave the active list (swap-remove).
  for (std::size_t i = 0; i < active_flows_.size();) {
    const std::int32_t flow = active_flows_[i];
    FlowCc& f = flows_.touch(flow);
    if (f.ccti > params_.ccti_min) {
      --f.ccti;
      --ccti_total_;
    }
    if (f.ccti == 0) {
      f.active = false;
      active_flows_[i] = active_flows_.back();
      active_flows_.pop_back();
      if (ended != nullptr) ended->push_back(flow);
    } else {
      ++i;
    }
  }
  return ccti_total_;
}

std::uint16_t IbaA10::ccti(std::int32_t flow) const { return flows_.state(flow).ccti; }

double IbaA10::rate_fraction(std::int32_t flow) const {
  return cct_->rate_fraction(flows_.state(flow).ccti);
}

}  // namespace ibsim::ccalg
