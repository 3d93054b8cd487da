#pragma once

#include <cstdint>

#include "core/time.hpp"

namespace ibsim::core {

class Scheduler;
struct Event;

/// Component interface for receiving scheduled events.
///
/// Handlers are plain objects owned by the model (switch ports, HCAs,
/// generators, timers); the scheduler never owns or frees them. Using a
/// virtual dispatch with an integer `kind` instead of std::function keeps
/// event scheduling allocation-free, which matters at the tens of millions
/// of events a single figure reproduction processes.
class EventHandler {
 public:
  virtual ~EventHandler() = default;

  /// Called by the scheduler when an event addressed to this handler
  /// reaches the head of the queue.
  virtual void on_event(Scheduler& sched, const Event& ev) = 0;
};

/// A scheduled occurrence. `kind` and the payload words `a`/`b` are
/// interpreted by the target handler: `a` carries 32 bits (a packet
/// handle or packed credit info), `b` a 16-bit index such as a port.
///
/// Layout is hot: events are copied during every queue operation, so the
/// ordering key (at, seq) leads the struct and the whole record is
/// 32 bytes, two to a cache line (see the static_assert below).
struct Event {
  Time at = 0;             ///< absolute firing time
  std::uint64_t seq = 0;   ///< insertion sequence; breaks time ties deterministically
  EventHandler* target = nullptr;
  std::uint32_t a = 0;
  std::uint16_t b = 0;
  std::uint16_t kind = 0;
};

static_assert(sizeof(Event) == 32,
              "Event must stay 32 bytes; queue ops copy events constantly");

/// Strict weak ordering for the scheduler's queues: earlier time first,
/// then earlier insertion. Guarantees replay determinism independent of
/// queue internals.
[[nodiscard]] inline bool event_after(const Event& lhs, const Event& rhs) {
  if (lhs.at != rhs.at) return lhs.at > rhs.at;
  return lhs.seq > rhs.seq;
}

/// Companion ordering for sorted calendar buckets: (at, seq) ascending.
[[nodiscard]] inline bool event_before(const Event& lhs, const Event& rhs) {
  if (lhs.at != rhs.at) return lhs.at < rhs.at;
  return lhs.seq < rhs.seq;
}

}  // namespace ibsim::core
