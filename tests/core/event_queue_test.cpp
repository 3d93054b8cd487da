#include "core/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <vector>

#include "core/rng.hpp"

namespace ibsim::core {
namespace {

class NullHandler final : public EventHandler {
 public:
  void on_event(Scheduler&, const Event&) override {}
};

NullHandler g_handler;

Event make_event(Time at, std::uint64_t seq) {
  return Event{at, seq, &g_handler, seq, 0, 0};
}

/// Drain `queue` completely, returning the (at, seq) extraction order.
template <typename Queue>
std::vector<std::pair<Time, std::uint64_t>> drain(Queue& queue) {
  std::vector<std::pair<Time, std::uint64_t>> order;
  for (;;) {
    const Event* front = queue.peek();
    if (front == nullptr) break;
    order.emplace_back(front->at, front->seq);
    queue.pop();
  }
  return order;
}

TEST(CalendarQueue, EmptyPeeksNull) {
  CalendarQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.peek(), nullptr);
}

TEST(CalendarQueue, SingleBucketOrdersByTimeThenSeq) {
  CalendarQueue q;
  q.push(make_event(30, 0));
  q.push(make_event(10, 1));
  q.push(make_event(10, 2));
  q.push(make_event(20, 3));
  const auto order = drain(q);
  const std::vector<std::pair<Time, std::uint64_t>> want{
      {10, 1}, {10, 2}, {20, 3}, {30, 0}};
  EXPECT_EQ(order, want);
}

TEST(CalendarQueue, FarFutureEventsMigrateFromHeap) {
  CalendarQueue q;
  // Beyond the wheel horizon at insertion time.
  const Time far = CalendarQueue::kBucketWidth *
                   static_cast<Time>(CalendarQueue::kNumBuckets) * 3;
  q.push(make_event(far + 5, 0));
  q.push(make_event(far + 5, 1));
  q.push(make_event(3, 2));
  const auto order = drain(q);
  const std::vector<std::pair<Time, std::uint64_t>> want{
      {3, 2}, {far + 5, 0}, {far + 5, 1}};
  EXPECT_EQ(order, want);
}

TEST(CalendarQueue, InsertIntoDrainingBucketKeepsOrder) {
  // Events pushed into the current bucket *while* it drains (the overlay
  // path) must still come out in (at, seq) order.
  CalendarQueue q;
  q.push(make_event(10, 0));
  q.push(make_event(50, 1));
  const Event* front = q.peek();
  ASSERT_NE(front, nullptr);
  EXPECT_EQ(front->at, 10);
  q.pop();
  // Bucket 0 is now mid-drain; 20 and 50 land in it via the overlay.
  q.push(make_event(20, 2));
  q.push(make_event(50, 3));
  const auto order = drain(q);
  const std::vector<std::pair<Time, std::uint64_t>> want{
      {20, 2}, {50, 1}, {50, 3}};
  EXPECT_EQ(order, want);
}

TEST(CalendarQueue, JumpsOverEmptyStretches) {
  CalendarQueue q;
  // A sparse sequence spanning many rotations of the wheel.
  std::vector<std::pair<Time, std::uint64_t>> want;
  Time at = 0;
  for (std::uint64_t seq = 0; seq < 30; ++seq) {
    at += CalendarQueue::kBucketWidth * 700;  // > half a rotation apart
    q.push(make_event(at, seq));
    want.emplace_back(at, seq);
  }
  EXPECT_EQ(drain(q), want);
}

TEST(CalendarQueue, SizeTracksAllTiers) {
  CalendarQueue q;
  q.push(make_event(1, 0));                                    // current bucket
  q.push(make_event(CalendarQueue::kBucketWidth * 5, 1));      // future bucket
  const Time far = CalendarQueue::kBucketWidth *
                   static_cast<Time>(CalendarQueue::kNumBuckets) * 2;
  q.push(make_event(far, 2));                                  // far heap
  EXPECT_EQ(q.size(), 3u);
  (void)q.peek();
  q.pop();
  EXPECT_EQ(q.size(), 2u);
}

TEST(CalendarQueue, MatchesHeapOnRandomWorkload) {
  // The determinism contract, exercised adversarially: interleaved
  // pushes and pops with times spanning bucket, rotation, and horizon
  // scales must extract in exactly the heap's (at, seq) order. Besides
  // fresh pushes, the workload issues every push Scheduler can: a
  // sequence number reserved earlier and pushed late, as
  // schedule_at_reserved does. Late pushes tie on `at` with events
  // already queued under higher sequence numbers — at `now` (the
  // draining bucket's overlay), on bucket edges, and past the wheel
  // horizon — and the older sequence must still come out first.
  constexpr Time kWidth = CalendarQueue::kBucketWidth;
  constexpr Time kHorizon = kWidth * static_cast<Time>(CalendarQueue::kNumBuckets);
  CalendarQueue cal;
  HeapQueue heap;
  Rng rng(2024);
  Time now = 0;
  std::uint64_t seq = 0;
  std::vector<std::uint64_t> reserved;  // handed out, not yet pushed
  std::vector<Time> recent;             // recent push times: tie targets
  const auto push = [&](Time at, std::uint64_t s) {
    cal.push(make_event(at, s));
    heap.push(make_event(at, s));
    recent.push_back(at);
    if (recent.size() > 64) recent.erase(recent.begin());
  };
  // The last picosecond of a bucket or the first of the next, `ahead`
  // buckets past the one holding `now`.
  const auto bucket_edge = [&](Time ahead) {
    return (now / kWidth + ahead) * kWidth - static_cast<Time>(rng.next_below(2));
  };
  for (int round = 0; round < 20000; ++round) {
    const std::uint64_t action = rng.next_below(6);
    if (action < 2 && !cal.empty()) {
      const Event* front = cal.peek();
      ASSERT_NE(front, nullptr);
      ASSERT_FALSE(heap.empty());
      EXPECT_EQ(front->at, heap.top().at);
      EXPECT_EQ(front->seq, heap.top().seq);
      now = front->at;  // simulation time advances monotonically
      cal.pop();
      heap.pop();
    } else if (action == 2) {
      reserved.push_back(seq++);
    } else if (action == 3 && !reserved.empty()) {
      const std::size_t pick = rng.next_below(reserved.size());
      const std::uint64_t late_seq = reserved[pick];
      reserved.erase(reserved.begin() + static_cast<std::ptrdiff_t>(pick));
      Time at = 0;
      switch (rng.next_below(3)) {
        case 0:  // tie with a recent push; one already popped past means `now`
          at = recent.empty() ? now : std::max(now, recent[rng.next_below(recent.size())]);
          break;
        case 1:
          at = bucket_edge(1 + static_cast<Time>(rng.next_below(4)));
          break;
        default:
          at = bucket_edge(static_cast<Time>(CalendarQueue::kNumBuckets) + 1 +
                           static_cast<Time>(rng.next_below(4)));
          break;
      }
      push(at, late_seq);
    } else if (action == 4) {
      // Fresh pushes onto the same edges, so late pushes find ties there.
      const Time ahead = rng.next_below(2) == 0
                             ? 1 + static_cast<Time>(rng.next_below(4))
                             : static_cast<Time>(CalendarQueue::kNumBuckets) + 1 +
                                   static_cast<Time>(rng.next_below(4));
      push(bucket_edge(ahead), seq++);
    } else {
      // Mixed horizons: same-bucket, near, far, very far.
      static constexpr Time kSpans[] = {1, kWidth / 2, kWidth * 20, kHorizon * 4};
      const Time span = kSpans[rng.next_below(4)];
      push(now + static_cast<Time>(rng.next_below(static_cast<std::uint64_t>(span))) + 1,
           seq++);
    }
    ASSERT_EQ(cal.size(), heap.size());
  }
  // Drain the rest in lockstep.
  while (!heap.empty()) {
    const Event* front = cal.peek();
    ASSERT_NE(front, nullptr);
    EXPECT_EQ(front->at, heap.top().at);
    EXPECT_EQ(front->seq, heap.top().seq);
    cal.pop();
    heap.pop();
  }
  EXPECT_TRUE(cal.empty());
}

TEST(CalendarQueue, MatchesHeapAcrossChunkBoundaries) {
  // Bursts of up to five chunks' worth of events into one future bucket,
  // often one that already holds an earlier burst's partial tail chunk.
  // Pops keep the wheel turning over, so the same buckets are filled
  // again after full rotations from chunks other buckets returned. Chunk
  // boundaries, partial tails and recycled chunks all run in lockstep
  // with the reference heap.
  constexpr Time kWidth = CalendarQueue::kBucketWidth;
  constexpr std::size_t kChunk = CalendarQueue::kChunkEvents;
  CalendarQueue cal;
  HeapQueue heap;
  Rng rng(77);
  Time now = 0;
  std::uint64_t seq = 0;
  std::size_t peak = 0;
  const auto pop_in_lockstep = [&] {
    const Event* front = cal.peek();
    ASSERT_NE(front, nullptr);
    ASSERT_FALSE(heap.empty());
    ASSERT_EQ(front->at, heap.top().at);
    ASSERT_EQ(front->seq, heap.top().seq);
    now = front->at;
    cal.pop();
    heap.pop();
  };
  for (int round = 0; round < 3000; ++round) {
    const Time bucket =
        now / kWidth + 1 +
        static_cast<Time>(rng.next_below(CalendarQueue::kNumBuckets - 1));
    // Half the bursts sit on eight instants per bucket, so same-`at` ties
    // straddle chunk boundaries.
    const bool coarse = rng.next_below(2) == 0;
    const std::uint64_t burst = 1 + rng.next_below(5 * kChunk);
    for (std::uint64_t i = 0; i < burst; ++i) {
      const Time offset = coarse ? static_cast<Time>(rng.next_below(8)) * (kWidth / 8)
                                 : static_cast<Time>(rng.next_below(kWidth));
      const Event ev = make_event(bucket * kWidth + offset, seq++);
      cal.push(ev);
      heap.push(ev);
    }
    peak = std::max(peak, cal.size());
    const std::uint64_t pops = rng.next_below(2 * burst);
    for (std::uint64_t i = 0; i < pops && !heap.empty(); ++i) {
      pop_in_lockstep();
      if (HasFatalFailure()) return;
    }
    ASSERT_EQ(cal.size(), heap.size());
  }
  while (!heap.empty()) {
    pop_in_lockstep();
    if (HasFatalFailure()) return;
  }
  EXPECT_TRUE(cal.empty());
  EXPECT_EQ(cal.peek(), nullptr);
  EXPECT_GE(now / kWidth, static_cast<Time>(10 * CalendarQueue::kNumBuckets))
      << "the wheel must turn over many times";
  // Chunks in use never exceed pending / kChunk full chunks plus one
  // partial chunk per non-empty bucket, and the pool grows only when
  // every chunk is in use.
  EXPECT_GE(cal.chunk_count(), peak / kChunk);
  EXPECT_LE(cal.chunk_count(), peak / kChunk + std::min(peak, CalendarQueue::kNumBuckets));
}

TEST(CalendarQueue, ChunkPoolFollowsThePendingCount) {
  // 200 bursts of 1000 events, each into a different bucket and drained
  // before the next; the buckets wrap around the wheel. One
  // burst's chunks serve every later one, so the pool stays at a single
  // burst's worth however many buckets have been busy.
  constexpr std::size_t kBurst = 1000;
  constexpr Time kBursts = 200;
  constexpr Time kStride = 7;  // buckets between bursts
  constexpr std::size_t kBurstChunks =
      (kBurst + CalendarQueue::kChunkEvents - 1) / CalendarQueue::kChunkEvents;
  CalendarQueue q;
  // A far-future event past every burst: a drain that lost events stops
  // here instead of searching an empty wheel for them.
  const Time sentinel = (kBursts + 1) * kStride * CalendarQueue::kBucketWidth;
  q.push(make_event(sentinel, 0));
  std::uint64_t seq = 1;
  for (Time burst = 1; burst <= kBursts; ++burst) {
    const Time start = burst * kStride * CalendarQueue::kBucketWidth;
    for (std::size_t i = 0; i < kBurst; ++i) {
      q.push(make_event(start + static_cast<Time>(i % 97), seq++));
    }
    // Stop at the burst's last event: one more peek would jump the
    // cursor to the sentinel, and the next burst would miss the wheel.
    std::vector<std::pair<Time, std::uint64_t>> order;
    while (order.size() < kBurst) {
      const Event* front = q.peek();
      if (front->at == sentinel) break;
      order.emplace_back(front->at, front->seq);
      q.pop();
    }
    ASSERT_EQ(order.size(), kBurst) << "burst " << burst;
    EXPECT_TRUE(std::is_sorted(order.begin(), order.end())) << "burst " << burst;
  }
  EXPECT_EQ(q.size(), 1u);
  EXPECT_GE(q.chunk_count(), kBurstChunks) << "the bursts must go through the wheel";
  EXPECT_LE(q.chunk_count(), kBurstChunks + 2);
}

TEST(EventStruct, StaysWithinOneCacheLine) {
  // Queue operations copy events constantly; the layout must not creep
  // past a cache line. (at, seq) lead the struct so ordering compares
  // touch the first 16 bytes only.
  EXPECT_LE(sizeof(Event), 64u);
  EXPECT_EQ(offsetof(Event, at), 0u);
  EXPECT_EQ(offsetof(Event, seq), 8u);
}

}  // namespace
}  // namespace ibsim::core
