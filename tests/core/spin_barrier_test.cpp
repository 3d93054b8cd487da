#include "core/shard.hpp"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

namespace ibsim::core {
namespace {

TEST(SpinBarrier, EveryPartySeesEveryWriteOfItsRound) {
  // Each thread writes its slot, crosses the barrier, then reads every
  // slot. The slots are plain memory, so only the barrier orders the
  // writes before the reads (ThreadSanitizer checks exactly that). Rounds
  // alternate between two banks: a thread can start writing round r + 1
  // while others still read round r, but it cannot reach round r + 2
  // until all of them have arrived at the next barrier.
  constexpr int kThreads = 4;
  constexpr std::uint32_t kRounds = 10000;
  SpinBarrier barrier(kThreads);
  std::array<std::array<std::uint32_t, kThreads>, 2> slots{};
  std::atomic<std::uint64_t> stale{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::uint32_t round = 1; round <= kRounds; ++round) {
        auto& bank = slots[round % 2];
        bank[static_cast<std::size_t>(t)] = round;
        barrier.arrive_and_wait();
        for (const std::uint32_t seen : bank) {
          if (seen != round) stale.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(stale.load(), 0u);
}

TEST(SpinBarrier, OnePartyReturnsAtOnce) {
  SpinBarrier barrier(1);
  for (int i = 0; i < 1000; ++i) barrier.arrive_and_wait();
  EXPECT_EQ(barrier.parties(), 1);
}

}  // namespace
}  // namespace ibsim::core
