#include "core/scheduler.hpp"

namespace ibsim::core {

std::uint64_t Scheduler::run_until(Time until) {
  std::uint64_t count = 0;
  for (;;) {
    const Event* front = queue_.peek();
    if (front == nullptr || front->at > until) break;
    const Event ev = *front;
    queue_.pop();
    IBSIM_ASSERT(ev.at >= now_, "scheduler time went backwards");
    now_ = ev.at;
    cur_seq_ = ev.seq;
    ev.target->on_event(*this, ev);
    ++count;
    ++executed_;
    ++executed_by_kind_[ev.kind < kKindSlots - 1 ? ev.kind : kKindSlots - 1];
  }
  if (queue_.empty() && until != kTimeNever && now_ < until) {
    // Queue drained before the horizon: advance the clock so metric
    // windows measured against `until` stay well defined.
    now_ = until;
  }
  return count;
}

}  // namespace ibsim::core
