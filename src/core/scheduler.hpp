#pragma once

#include <array>
#include <cstdint>

#include "core/assert.hpp"
#include "core/event.hpp"
#include "core/event_queue.hpp"
#include "core/time.hpp"

namespace ibsim::core {

/// Discrete-event scheduler over a two-tier event queue: a calendar
/// wheel for the short-horizon events that dominate a busy fabric,
/// backed by a 4-ary min-heap for far-future timers (see CalendarQueue).
///
/// This is the replacement for the OMNeT++ kernel the paper's model ran
/// on. It is deliberately minimal: schedule and run. Determinism is a
/// hard guarantee — two runs with the same schedule produce identical
/// event orderings, because ties are broken by insertion sequence rather
/// than queue layout.
class Scheduler {
 public:
  /// Per-kind executed() breakdown: slots 1..5 hold the fabric event
  /// kinds (PacketArrive..RetryInject), slot 0 holds kind-0 events
  /// (bench/test drivers), slot 6 aggregates everything else (timers,
  /// telemetry samples, hotspot moves). Fixed-size array so the hot
  /// path is one indexed increment — no strings, no hashing.
  static constexpr std::size_t kKindSlots = 7;

  Scheduler() = default;

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Current simulation time. Advances only while events execute.
  [[nodiscard]] Time now() const { return now_; }

  /// Number of pending events.
  [[nodiscard]] std::size_t pending() const { return queue_.size(); }

  /// Total events executed so far.
  [[nodiscard]] std::uint64_t executed() const { return executed_; }

  /// executed() broken down by event kind (see kKindSlots for the slot
  /// mapping).
  [[nodiscard]] const std::array<std::uint64_t, kKindSlots>& executed_by_kind() const {
    return executed_by_kind_;
  }

  /// Sequence number of the event currently being dispatched. Valid only
  /// inside on_event; lets handlers compare their own position in a
  /// same-timestamp tie against a reserved (elided) event's slot.
  [[nodiscard]] std::uint64_t current_seq() const { return cur_seq_; }

  /// Timestamp of the earliest pending event, or kTimeNever when the
  /// queue is empty. Non-const because the calendar queue may lazily
  /// advance its wheel to find the front; the event set is unchanged.
  /// The sharded engine uses this to derive the next lookahead window.
  [[nodiscard]] Time next_event_time() {
    const Event* front = queue_.peek();
    return front == nullptr ? kTimeNever : front->at;
  }

  /// Count one event injected from another shard's mailbox (window-
  /// barrier drain). Pure bookkeeping for the sched.shard.* gauges.
  void note_external_event() { ++external_events_; }

  /// Events injected via note_external_event() since construction.
  [[nodiscard]] std::uint64_t external_events() const { return external_events_; }

  /// Schedule an event at absolute time `at` (must not be in the past).
  /// Returns the insertion sequence assigned to the event, which fixes
  /// its position among same-timestamp peers.
  std::uint64_t schedule_at(Time at, EventHandler* target, std::uint16_t kind,
                            std::uint32_t a = 0, std::uint16_t b = 0) {
    IBSIM_ASSERT(target != nullptr, "event needs a target handler");
    IBSIM_ASSERT(at >= now_, "cannot schedule an event in the past");
    const std::uint64_t seq = next_seq_++;
    queue_.push(Event{at, seq, target, a, b, kind});
    return seq;
  }

  /// Schedule an event `delay` after the current time.
  std::uint64_t schedule_in(Time delay, EventHandler* target, std::uint16_t kind,
                            std::uint32_t a = 0, std::uint16_t b = 0) {
    return schedule_at(now_ + delay, target, kind, a, b);
  }

  /// Burn one insertion sequence number without scheduling anything.
  /// The fabric fast path reserves the slot an elided event would have
  /// occupied so every event that *does* execute keeps the exact
  /// (at, seq) it would have had on the slow path — the foundation of
  /// the fast-on/fast-off bit-identity guarantee (DESIGN.md §11).
  [[nodiscard]] std::uint64_t reserve_seq() { return next_seq_++; }

  /// Schedule an event into a sequence slot previously obtained from
  /// reserve_seq(). The queue orders by (at, seq), so a deferred wakeup
  /// scheduled late still lands exactly where its eager twin would have.
  void schedule_at_reserved(Time at, std::uint64_t seq, EventHandler* target,
                            std::uint16_t kind, std::uint32_t a = 0, std::uint16_t b = 0) {
    IBSIM_ASSERT(target != nullptr, "event needs a target handler");
    IBSIM_ASSERT(at >= now_, "cannot schedule an event in the past");
    IBSIM_ASSERT(seq < next_seq_, "reserved seq must come from reserve_seq()");
    queue_.push(Event{at, seq, target, a, b, kind});
  }

  /// Run until the queue drains or `until` is reached (events at exactly
  /// `until` still execute). Returns the number of events executed.
  std::uint64_t run_until(Time until);

  /// Run until the queue drains.
  std::uint64_t run() { return run_until(kTimeNever); }

 private:
  CalendarQueue queue_;
  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t cur_seq_ = 0;
  std::uint64_t external_events_ = 0;
  std::array<std::uint64_t, kKindSlots> executed_by_kind_{};
};

}  // namespace ibsim::core
