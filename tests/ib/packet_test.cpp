#include "ib/packet.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <set>
#include <vector>

#include "core/rng.hpp"

namespace ibsim::ib {
namespace {

TEST(PacketArena, AllocatesFreshPackets) {
  PacketArena arena;
  const PacketHandle a = arena.allocate();
  const PacketHandle b = arena.allocate();
  ASSERT_NE(a, kNullPacket);
  ASSERT_NE(b, kNullPacket);
  EXPECT_NE(a, b);
  EXPECT_NE(arena.get(a).id, arena.get(b).id);
  EXPECT_EQ(arena.live(), 2);
}

TEST(PacketArena, RecyclesReleasedHandles) {
  PacketArena arena;
  const PacketHandle a = arena.allocate();
  arena.get(a).bytes = 2048;
  arena.get(a).fecn = true;
  arena.release(a);
  const PacketHandle b = arena.allocate();
  EXPECT_EQ(a, b);  // LIFO freelist reuses the slot
  EXPECT_EQ(arena.get(b).bytes, 0);
  EXPECT_FALSE(arena.get(b).fecn);  // fully reset
  EXPECT_EQ(arena.get(b).dst, kInvalidNode);
}

TEST(PacketArena, GrowsBeyondInitialReserve) {
  // An arena starts with no slots and appends one per allocation that
  // finds the freelist empty.
  PacketArena arena;
  EXPECT_EQ(arena.slots(), 0u);
  std::vector<PacketHandle> pkts;
  for (int i = 0; i < 50; ++i) pkts.push_back(arena.allocate());
  EXPECT_EQ(arena.live(), 50);
  EXPECT_EQ(arena.slots(), 50u);
  EXPECT_GE(arena.capacity(), 50u);
  for (const PacketHandle h : pkts) arena.release(h);
  EXPECT_EQ(arena.live(), 0);
}

TEST(PacketArena, HandlesStayValidAcrossGrowth) {
  // Growth reallocates the slot storage but handles are indices: data
  // written before a regrowth must read back unchanged through the same
  // handles afterwards.
  PacketArena arena;
  std::vector<PacketHandle> pkts;
  for (int i = 0; i < 4; ++i) {
    const PacketHandle h = arena.allocate();
    arena.get(h).bytes = 100 + i;
    arena.get(h).msg_seq = static_cast<std::uint32_t>(i);
    pkts.push_back(h);
  }
  const std::uint64_t growths_before = arena.growths();
  for (int i = 0; i < 100; ++i) pkts.push_back(arena.allocate());  // forces regrowth
  EXPECT_GT(arena.growths(), growths_before);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(arena.get(pkts[static_cast<std::size_t>(i)]).bytes, 100 + i);
    EXPECT_EQ(arena.get(pkts[static_cast<std::size_t>(i)]).msg_seq,
              static_cast<std::uint32_t>(i));
  }
  for (const PacketHandle h : pkts) arena.release(h);
  EXPECT_EQ(arena.live(), 0);
}

TEST(PacketArena, IdsAreUniqueAcrossRecycling) {
  PacketArena arena;
  const PacketHandle a = arena.allocate();
  const std::uint64_t id0 = arena.get(a).id;
  arena.release(a);
  const PacketHandle b = arena.allocate();
  EXPECT_NE(arena.get(b).id, id0);
}

TEST(PacketArenaDeath, DoubleAccountingCaught) {
  PacketArena arena;
  const PacketHandle a = arena.allocate();
  arena.release(a);
  EXPECT_DEATH(arena.release(a), "more packets");
}

TEST(PacketArenaDeath, ForeignHandleCaught) {
  PacketArena arena;
  (void)arena.allocate();
  EXPECT_DEATH(arena.release(kNullPacket), "foreign");
}

TEST(PacketQueue, FifoOrder) {
  PacketArena arena;
  PacketQueue q;
  const PacketHandle a = arena.allocate();
  const PacketHandle b = arena.allocate();
  const PacketHandle c = arena.allocate();
  q.push_back(arena, a);
  q.push_back(arena, b);
  q.push_back(arena, c);
  EXPECT_EQ(q.pop_front(arena), a);
  EXPECT_EQ(q.pop_front(arena), b);
  EXPECT_EQ(q.pop_front(arena), c);
  EXPECT_TRUE(q.empty());
}

TEST(PacketQueue, InterleavedOperations) {
  PacketArena arena;
  PacketQueue q;
  std::vector<PacketHandle> order;
  for (int i = 0; i < 5; ++i) {
    const PacketHandle h = arena.allocate();
    order.push_back(h);
    q.push_back(arena, h);
  }
  EXPECT_EQ(q.pop_front(arena), order[0]);
  const PacketHandle extra = arena.allocate();
  q.push_back(arena, extra);
  EXPECT_EQ(q.pop_front(arena), order[1]);
  EXPECT_EQ(q.pop_front(arena), order[2]);
  EXPECT_EQ(q.pop_front(arena), order[3]);
  EXPECT_EQ(q.pop_front(arena), order[4]);
  EXPECT_EQ(q.pop_front(arena), extra);
}

TEST(PacketArena, ReusedSlotsCycleWithoutGrowth) {
  // Steady-state churn must be served entirely from the freelist: with
  // never more than 4 live, the same 4 slots cycle forever, the arena
  // never grows again, and every reused packet comes back fully reset.
  PacketArena arena;
  std::vector<PacketHandle> first;
  for (int i = 0; i < 4; ++i) first.push_back(arena.allocate());
  std::set<PacketHandle> slots(first.begin(), first.end());
  for (const PacketHandle h : first) {
    arena.get(h).bytes = 2048;
    arena.get(h).msg_seq = 7;
    arena.get(h).becn = true;
    arena.release(h);
  }
  const std::uint64_t growths = arena.growths();
  for (int round = 0; round < 100; ++round) {
    const PacketHandle h = arena.allocate();
    EXPECT_EQ(slots.count(h), 1u) << "allocation left the original slots";
    EXPECT_EQ(arena.get(h).bytes, 0);
    EXPECT_EQ(arena.get(h).msg_seq, 0u);
    EXPECT_FALSE(arena.get(h).becn);
    EXPECT_EQ(arena.get(h).next, kNullPacket);
    arena.release(h);
  }
  EXPECT_EQ(arena.growths(), growths) << "steady-state churn grew the arena";
  EXPECT_EQ(arena.live(), 0);
}

TEST(PacketQueue, ReleasedPacketNeverStaysLinked) {
  // pop_front must sever the link before handing the handle out;
  // otherwise a release-then-reallocate could double-link the freelist
  // with a packet still referenced by a queue.
  PacketArena arena;
  PacketQueue q;
  const PacketHandle a = arena.allocate();
  const PacketHandle b = arena.allocate();
  q.push_back(arena, a);
  q.push_back(arena, b);  // a.next == b inside the queue
  const PacketHandle popped = q.pop_front(arena);
  ASSERT_EQ(popped, a);
  EXPECT_EQ(arena.get(popped).next, kNullPacket);
  arena.release(popped);
  const PacketHandle c = arena.allocate();
  EXPECT_EQ(c, a);  // LIFO reuse
  EXPECT_EQ(arena.get(c).next, kNullPacket);
  // b is still queued and untouched by the recycling of a.
  EXPECT_EQ(q.front(), b);
  EXPECT_EQ(q.pop_front(arena), b);
  EXPECT_TRUE(q.empty());
}

TEST(PacketQueue, InterleavedFrontBackAccounting) {
  // FIFO order under random interleaving of arrivals (push_back) and
  // grants (pop_front), against a deque model: the queue must hand back
  // exactly the model's front and agree on empty() at every step.
  PacketArena arena;
  PacketQueue q;
  std::deque<PacketHandle> model;
  std::uint64_t state = 123;
  for (int step = 0; step < 2000; ++step) {
    if (core::splitmix64(state) % 2 == 0 && !model.empty()) {
      const PacketHandle h = q.pop_front(arena);
      ASSERT_EQ(h, model.front());
      model.pop_front();
      arena.release(h);
    } else {
      const PacketHandle h = arena.allocate();
      q.push_back(arena, h);
      model.push_back(h);
    }
    ASSERT_EQ(q.empty(), model.empty());
    if (!model.empty()) {
      ASSERT_EQ(q.front(), model.front());
    }
  }
  while (!model.empty()) {
    const PacketHandle h = q.pop_front(arena);
    ASSERT_EQ(h, model.front());
    model.pop_front();
    arena.release(h);
  }
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(arena.live(), 0);
}

TEST(PacketArena, ResetCoversEveryHeaderField) {
  // The fast path recycles packets harder (fewer events between release
  // and reallocation), so a stale CC mark or stream tag on a reused slot
  // would silently corrupt marking statistics. Exercise every field
  // reset() promises to clear.
  PacketArena arena;
  const PacketHandle h = arena.allocate();
  Packet& p = arena.get(h);
  p.src = 3;
  p.dst = 5;
  p.bytes = 2048;
  p.vl = 1;
  p.sl = 2;
  p.fecn = true;
  p.becn = true;
  p.is_cnp = true;
  p.flow_dst = 7;
  p.hotspot_stream = true;
  p.app = true;
  p.msg_seq = 42;
  p.injected_at = 123456;
  arena.release(h);
  const PacketHandle h2 = arena.allocate();
  ASSERT_EQ(h2, h);  // LIFO freelist: same slot comes straight back
  const Packet& q = arena.get(h2);
  EXPECT_EQ(q.src, kInvalidNode);
  EXPECT_EQ(q.dst, kInvalidNode);
  EXPECT_EQ(q.bytes, 0);
  EXPECT_EQ(q.vl, kDataVl);
  EXPECT_EQ(q.sl, 0);
  EXPECT_FALSE(q.fecn);
  EXPECT_FALSE(q.becn);
  EXPECT_FALSE(q.is_cnp);
  EXPECT_EQ(q.flow_dst, kInvalidNode);
  EXPECT_FALSE(q.hotspot_stream);
  EXPECT_FALSE(q.app);
  EXPECT_EQ(q.msg_seq, 0u);
  EXPECT_EQ(q.injected_at, 0);
}

TEST(PacketArena, ChurnKeepsIdsUniqueAndAccountingExact) {
  // Randomized allocate/release churn across growth boundaries: live()
  // must track the model exactly, ids of live packets must never
  // collide, total_allocated() must grow by one per allocation, and the
  // slots touched must equal the most packets ever live at once.
  PacketArena arena;
  std::vector<PacketHandle> live;
  std::set<std::uint64_t> live_ids;
  std::uint64_t state = 2026;
  std::uint64_t allocations = 0;
  std::size_t peak = 0;
  for (int step = 0; step < 5000; ++step) {
    const bool grow = live.empty() || core::splitmix64(state) % 3 != 0;
    if (grow) {
      const PacketHandle h = arena.allocate();
      ++allocations;
      ASSERT_TRUE(live_ids.insert(arena.get(h).id).second) << "duplicate live id";
      live.push_back(h);
    } else {
      const std::size_t idx = core::splitmix64(state) % live.size();
      const PacketHandle h = live[idx];
      live_ids.erase(arena.get(h).id);
      live[idx] = live.back();
      live.pop_back();
      arena.release(h);
    }
    ASSERT_EQ(arena.live(), static_cast<std::int64_t>(live.size()));
    ASSERT_EQ(arena.total_allocated(), allocations);
    peak = std::max(peak, live.size());
    ASSERT_EQ(arena.slots(), peak);
  }
  for (const PacketHandle h : live) arena.release(h);
  EXPECT_EQ(arena.live(), 0);
}

TEST(PacketQueueDeath, PopEmptyAborts) {
  PacketArena arena;
  PacketQueue q;
  EXPECT_DEATH((void)q.pop_front(arena), "empty");
}

TEST(PacketConstants, PaperFraming) {
  // Section IV: MTU 2048 B, two packets per 4096 B message.
  EXPECT_EQ(kMtuBytes, 2048);
  EXPECT_EQ(kPacketsPerMessage, 2);
  EXPECT_EQ(kMessageBytes, 4096);
}

}  // namespace
}  // namespace ibsim::ib
