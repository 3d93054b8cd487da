#include "core/scheduler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/event_queue.hpp"
#include "core/rng.hpp"

namespace ibsim::core {
namespace {

/// Records the order and payloads of events it receives.
class Recorder : public EventHandler {
 public:
  void on_event(Scheduler& sched, const Event& ev) override {
    times.push_back(sched.now());
    kinds.push_back(ev.kind);
    payloads.push_back(ev.a);
  }
  std::vector<Time> times;
  std::vector<std::uint32_t> kinds;
  std::vector<std::uint64_t> payloads;
};

/// Handler that schedules a follow-up event on itself, `step` ahead.
class Chainer : public EventHandler {
 public:
  explicit Chainer(int remaining, Time step = 10) : remaining_(remaining), step_(step) {}
  void on_event(Scheduler& sched, const Event&) override {
    ++fired;
    if (--remaining_ > 0) sched.schedule_in(step_, this, 0);
  }
  int fired = 0;

 private:
  int remaining_;
  Time step_;
};

TEST(Scheduler, StartsAtTimeZeroEmpty) {
  Scheduler sched;
  EXPECT_EQ(sched.now(), 0);
  EXPECT_EQ(sched.pending(), 0u);
  EXPECT_EQ(sched.executed(), 0u);
}

TEST(Scheduler, ExecutesInTimeOrder) {
  Scheduler sched;
  Recorder rec;
  sched.schedule_at(30, &rec, 3);
  sched.schedule_at(10, &rec, 1);
  sched.schedule_at(20, &rec, 2);
  sched.run();
  ASSERT_EQ(rec.kinds.size(), 3u);
  EXPECT_EQ(rec.kinds, (std::vector<std::uint32_t>{1, 2, 3}));
  EXPECT_EQ(rec.times, (std::vector<Time>{10, 20, 30}));
}

TEST(Scheduler, TiesBreakByInsertionOrder) {
  Scheduler sched;
  Recorder rec;
  for (std::uint64_t i = 0; i < 100; ++i) sched.schedule_at(42, &rec, 0, i);
  sched.run();
  ASSERT_EQ(rec.payloads.size(), 100u);
  for (std::uint64_t i = 0; i < 100; ++i) EXPECT_EQ(rec.payloads[i], i);
}

TEST(Scheduler, RunUntilStopsAtHorizonInclusive) {
  Scheduler sched;
  Recorder rec;
  sched.schedule_at(10, &rec, 1);
  sched.schedule_at(20, &rec, 2);
  sched.schedule_at(21, &rec, 3);
  const std::uint64_t n = sched.run_until(20);
  EXPECT_EQ(n, 2u);
  EXPECT_EQ(sched.pending(), 1u);
  EXPECT_EQ(sched.now(), 20);
}

TEST(Scheduler, RunUntilAdvancesClockWhenQueueDrains) {
  Scheduler sched;
  Recorder rec;
  sched.schedule_at(5, &rec, 1);
  sched.run_until(1000);
  EXPECT_EQ(sched.now(), 1000);
}

TEST(Scheduler, ResumesAfterHorizon) {
  Scheduler sched;
  Recorder rec;
  sched.schedule_at(10, &rec, 1);
  sched.schedule_at(30, &rec, 2);
  sched.run_until(15);
  EXPECT_EQ(rec.kinds.size(), 1u);
  sched.run_until(40);
  EXPECT_EQ(rec.kinds.size(), 2u);
}

TEST(Scheduler, HandlersCanScheduleDuringExecution) {
  Scheduler sched;
  Chainer chain(5);
  sched.schedule_at(0, &chain, 0);
  sched.run();
  EXPECT_EQ(chain.fired, 5);
  EXPECT_EQ(sched.now(), 40);
}

TEST(Scheduler, NextEventTimePeeksWithoutExecuting) {
  Scheduler sched;
  Recorder rec;
  EXPECT_EQ(sched.next_event_time(), kTimeNever);
  sched.schedule_at(30, &rec, 1);
  sched.schedule_at(10, &rec, 2);
  EXPECT_EQ(sched.next_event_time(), 10);
  EXPECT_EQ(sched.pending(), 2u);  // peek must not pop
  sched.run_until(10);
  EXPECT_EQ(sched.next_event_time(), 30);
  sched.run();
  EXPECT_EQ(sched.next_event_time(), kTimeNever);
}

TEST(Scheduler, ExecutedCountsAcrossRuns) {
  Scheduler sched;
  Recorder rec;
  for (Time t = 1; t <= 10; ++t) sched.schedule_at(t, &rec, 0);
  sched.run_until(5);
  sched.run_until(10);
  EXPECT_EQ(sched.executed(), 10u);
}

TEST(Scheduler, SchedulingAtCurrentTimeDuringEventWorks) {
  class SameTime : public EventHandler {
   public:
    void on_event(Scheduler& sched, const Event& ev) override {
      ++fired;
      if (ev.kind == 0) sched.schedule_at(sched.now(), this, 1);
    }
    int fired = 0;
  };
  Scheduler sched;
  SameTime handler;
  sched.schedule_at(7, &handler, 0);
  sched.run();
  EXPECT_EQ(handler.fired, 2);
  EXPECT_EQ(sched.now(), 7);
}

TEST(SchedulerDeath, PastSchedulingAborts) {
  Scheduler sched;
  Recorder rec;
  sched.schedule_at(100, &rec, 0);
  sched.run();
  EXPECT_DEATH(sched.schedule_at(50, &rec, 0), "past");
}

TEST(SchedulerDeath, NullTargetAborts) {
  Scheduler sched;
  EXPECT_DEATH(sched.schedule_at(1, nullptr, 0), "target");
}

TEST(Scheduler, LargeRandomBatchStaysSorted) {
  Scheduler sched;
  Recorder rec;
  std::uint64_t state = 99;
  for (int i = 0; i < 10000; ++i) {
    sched.schedule_at(static_cast<Time>(splitmix64(state) % 1000000), &rec, 0);
  }
  sched.run();
  ASSERT_EQ(rec.times.size(), 10000u);
  for (std::size_t i = 1; i < rec.times.size(); ++i) {
    EXPECT_LE(rec.times[i - 1], rec.times[i]);
  }
}

// ---------------------------------------------------------------------------
// Every ordering property must hold on both tiers of the scheduler's
// queue. `TwoTier` schedules inside the calendar wheel's horizon, the
// path nearly every fabric event takes; `Heap` shifts every time past
// it, so the events wait in the far-tier 4-ary heap and reach their
// bucket by migration as the wheel turns.
// ---------------------------------------------------------------------------
enum class QueueTier : std::uint8_t { kTwoTier, kHeap };

/// The wheel's horizon at time 0: the earliest time the far heap holds.
constexpr Time kWheelHorizon =
    CalendarQueue::kBucketWidth * static_cast<Time>(CalendarQueue::kNumBuckets);

class SchedulerQueueKind : public ::testing::TestWithParam<QueueTier> {
 protected:
  /// Added to every time a test schedules at.
  [[nodiscard]] Time base() const { return GetParam() == QueueTier::kHeap ? kWheelHorizon : 0; }
};

INSTANTIATE_TEST_SUITE_P(BothQueues, SchedulerQueueKind,
                         ::testing::Values(QueueTier::kTwoTier, QueueTier::kHeap),
                         [](const auto& info) {
                           return info.param == QueueTier::kTwoTier ? "TwoTier" : "Heap";
                         });

TEST_P(SchedulerQueueKind, ExecutesInTimeThenInsertionOrder) {
  Scheduler sched;
  Recorder rec;
  sched.schedule_at(base() + 30, &rec, 0, 4);
  sched.schedule_at(base() + 10, &rec, 0, 1);
  sched.schedule_at(base() + 10, &rec, 0, 2);
  sched.schedule_at(base() + 20, &rec, 0, 3);
  sched.run();
  EXPECT_EQ(rec.payloads, (std::vector<std::uint64_t>{1, 2, 3, 4}));
}

TEST_P(SchedulerQueueKind, MixedHorizonsReplayIdentically) {
  // Times span from sub-bucket to beyond the calendar horizon. The
  // observable execution order is the contract: ascending time, ties in
  // scheduling order — exactly a stable sort of the scheduled list.
  Scheduler sched;
  Recorder rec;
  Rng rng(7);
  std::vector<std::pair<Time, std::uint64_t>> scheduled;
  for (std::uint64_t i = 0; i < 5000; ++i) {
    // Up to ~286 µs: crosses the 67 µs wheel horizon regularly. A narrow
    // range every fourth event forces same-time ties.
    const Time at = base() + static_cast<Time>(rng.next_below(i % 4 == 0 ? 64 : 1u << 28));
    sched.schedule_at(at, &rec, 0, i);
    scheduled.emplace_back(at, i);
  }
  sched.run();
  std::stable_sort(scheduled.begin(), scheduled.end(),
                   [](const auto& x, const auto& y) { return x.first < y.first; });
  ASSERT_EQ(rec.payloads.size(), scheduled.size());
  for (std::size_t k = 0; k < scheduled.size(); ++k) {
    ASSERT_EQ(rec.times[k], scheduled[k].first) << "event " << k;
    ASSERT_EQ(rec.payloads[k], scheduled[k].second) << "event " << k;
  }
}

TEST_P(SchedulerQueueKind, ChainedSchedulingAdvances) {
  // With `Heap`, every follow-up also lands past the wheel horizon as
  // seen from the event that schedules it.
  const Time step = base() + 10;
  Scheduler sched;
  Chainer chain(1000, step);
  sched.schedule_at(base(), &chain, 0);
  sched.run();
  EXPECT_EQ(chain.fired, 1000);
  EXPECT_EQ(sched.executed(), 1000u);
  EXPECT_EQ(sched.now(), base() + 999 * step);
}

// ---------------------------------------------------------------------------
// Reserved sequence slots and the per-kind counters — the
// scheduler-side contract the fabric fast path is built on.
// ---------------------------------------------------------------------------

TEST_P(SchedulerQueueKind, ReservedSeqKeepsItsSlotInSameTimeTies) {
  // A slot reserved early but scheduled late must still execute where
  // its eager twin would have: before every same-timestamp event with a
  // higher sequence, even though those were pushed into the queue first.
  Scheduler sched;
  Recorder rec;
  sched.schedule_at(base() + 100, &rec, 0, 1);
  const std::uint64_t reserved = sched.reserve_seq();
  sched.schedule_at(base() + 100, &rec, 0, 3);
  sched.schedule_at(base() + 100, &rec, 0, 4);
  sched.schedule_at_reserved(base() + 100, reserved, &rec, 0, 2);  // materialize late
  sched.run();
  EXPECT_EQ(rec.payloads, (std::vector<std::uint64_t>{1, 2, 3, 4}));
}

TEST_P(SchedulerQueueKind, ReserveSeqBurnsExactlyOneSequence) {
  // Interleaving reservations must not shift the sequence numbering the
  // surrounding schedule_at calls observe — parity with a run that
  // scheduled a real event in each slot.
  Scheduler sched;
  Recorder rec;
  const std::uint64_t s0 = sched.schedule_at(base() + 10, &rec, 0);
  const std::uint64_t r0 = sched.reserve_seq();
  const std::uint64_t s1 = sched.schedule_at(base() + 10, &rec, 0);
  EXPECT_EQ(r0, s0 + 1);
  EXPECT_EQ(s1, r0 + 1);
  sched.run();  // an unmaterialized reservation simply never fires
  EXPECT_EQ(sched.executed(), 2u);
}

TEST(Scheduler, CurrentSeqMatchesDispatchedEvent) {
  class SeqProbe : public EventHandler {
   public:
    void on_event(Scheduler& sched, const Event& ev) override {
      seen.push_back(sched.current_seq());
      expected.push_back(ev.seq);
    }
    std::vector<std::uint64_t> seen;
    std::vector<std::uint64_t> expected;
  };
  Scheduler sched;
  SeqProbe probe;
  sched.schedule_at(5, &probe, 0);
  (void)sched.reserve_seq();
  sched.schedule_at(5, &probe, 0);
  sched.run();
  EXPECT_EQ(probe.seen, probe.expected);
  ASSERT_EQ(probe.seen.size(), 2u);
  EXPECT_LT(probe.seen[0] + 1, probe.seen[1]);  // the burnt slot shows up
}

TEST(Scheduler, PerKindCountersMapFabricKindsAndOverflow) {
  Scheduler sched;
  Recorder rec;
  sched.schedule_at(1, &rec, 0);      // slot 0: kind-0 driver events
  sched.schedule_at(2, &rec, 2);      // slot 2: a fabric kind
  sched.schedule_at(3, &rec, 2);
  sched.schedule_at(4, &rec, 5);      // slot 5: highest dedicated kind
  sched.schedule_at(5, &rec, 6);      // first aggregated kind
  sched.schedule_at(6, &rec, 0xCC01); // far-off kind, same bucket
  sched.run();
  const auto& by_kind = sched.executed_by_kind();
  EXPECT_EQ(by_kind[0], 1u);
  EXPECT_EQ(by_kind[1], 0u);
  EXPECT_EQ(by_kind[2], 2u);
  EXPECT_EQ(by_kind[5], 1u);
  EXPECT_EQ(by_kind[Scheduler::kKindSlots - 1], 2u);
  std::uint64_t total = 0;
  for (const std::uint64_t n : by_kind) total += n;
  EXPECT_EQ(total, sched.executed());
}

TEST(SchedulerDeath, ReservedSeqMustComeFromReserveSeq) {
  Scheduler sched;
  Recorder rec;
  EXPECT_DEATH(sched.schedule_at_reserved(10, 99, &rec, 0), "reserve");
}

}  // namespace
}  // namespace ibsim::core
