#include "cc/ca_cc.hpp"

#include "ccalg/registry.hpp"
#include "core/assert.hpp"

namespace ibsim::cc {

namespace {
constexpr std::uint32_t kTimerEvent = 0xCC01;
}

CaCcAgent::CaCcAgent(ib::NodeId self, std::int32_t n_nodes, const ib::CcParams& params,
                     const ib::CongestionControlTable* cct, core::Scheduler* sched,
                     CnpSender* cnp_sender, const std::string& algo)
    : self_(self), n_nodes_(n_nodes), params_(params), sched_(sched), cnp_sender_(cnp_sender) {
  IBSIM_ASSERT(!params_.enabled || cct != nullptr, "enabled CC agent needs a CCT");
  IBSIM_ASSERT(n_nodes > 0, "agent needs a node count");
  ccalg::CcAlgoContext ctx;
  ctx.params = params_;
  ctx.cct = cct;
  algo_ = ccalg::CcAlgorithmRegistry::instance().create(
      params_.enabled ? algo : "none", ctx);
}

std::int32_t CaCcAgent::flow_index(ib::NodeId dst) const {
  IBSIM_ASSERT(dst >= 0 && dst < n_nodes_, "flow destination out of range");
  // SL-level CC shares one state across all destinations of the port.
  return params_.sl_level ? 0 : dst;
}

core::Time CaCcAgent::flow_ready_at(ib::NodeId dst) const {
  if (!params_.enabled) return 0;
  return algo_->ready_at(flow_index(dst));
}

void CaCcAgent::on_data_granted(ib::NodeId dst, std::int32_t bytes, core::Time end) {
  if (!params_.enabled) return;
  algo_->on_send(flow_index(dst), bytes, end);
}

void CaCcAgent::on_becn(ib::NodeId flow_dst, core::Time now) {
  if (!params_.enabled) return;
  ++becn_received_;
  const ccalg::BecnOutcome out = algo_->on_becn(flow_index(flow_dst), now);
  if (out.newly_throttled) ++throttle_events_;
  if (tracer_ != nullptr && tracer_->enabled(telemetry::Category::kCc)) {
    tracer_->record(telemetry::Category::kCc, telemetry::EventKind::kBecnDelivered, now,
                    trace_dev_, -1, -1, flow_dst);
    if (out.newly_throttled) {
      tracer_->record(telemetry::Category::kCc, telemetry::EventKind::kThrottleStart, now,
                      trace_dev_, -1, -1, 0, flow_dst);
    }
    tracer_->record(telemetry::Category::kCc, telemetry::EventKind::kCctiSet, now,
                    trace_dev_, -1, -1, out.severity, flow_dst);
  }
  arm_timer(now);
}

void CaCcAgent::on_fecn(ib::NodeId src) {
  if (!params_.enabled) return;
  if (!algo_->cnp_on_fecn()) return;
  ++cnps_sent_;
  cnp_sender_->send_cnp(src, self_);
}

void CaCcAgent::arm_timer(core::Time now) {
  if (timer_armed_) return;
  const core::Time delay = algo_->timer_delay();
  if (delay == 0) return;
  timer_armed_ = true;
  sched_->schedule_at(now + delay, this, kTimerEvent);
}

void CaCcAgent::on_event(core::Scheduler& sched, const core::Event& ev) {
  IBSIM_ASSERT(ev.kind == kTimerEvent, "CA CC agent received an unknown event");
  ++timer_expirations_;
  timer_armed_ = false;
  const bool trace_cc = tracer_ != nullptr && tracer_->enabled(telemetry::Category::kCc);
  ended_scratch_.clear();
  const std::int64_t severity =
      algo_->on_timer(sched.now(), trace_cc ? &ended_scratch_ : nullptr);
  if (trace_cc) {
    for (const std::int32_t dst : ended_scratch_) {
      tracer_->record(telemetry::Category::kCc, telemetry::EventKind::kThrottleEnd,
                      sched.now(), trace_dev_, -1, -1, 0, dst);
    }
    tracer_->record(telemetry::Category::kCc, telemetry::EventKind::kCctiSet, sched.now(),
                    trace_dev_, -1, -1, severity, -1);
  }
  // Keep the chain running while any flow is still throttled.
  arm_timer(sched.now());
}

std::uint16_t CaCcAgent::ccti(ib::NodeId dst) const {
  return algo_->ccti(flow_index(dst));
}

}  // namespace ibsim::cc
