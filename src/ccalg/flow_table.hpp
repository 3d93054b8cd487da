#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "core/assert.hpp"

namespace ibsim::ccalg {

/// Per-flow reaction-point state for the flows a port has actually used,
/// keyed by flow id (the destination NodeId; 0 in SL-level mode). A
/// reaction point keeps state per QP, i.e. per destination, and a port
/// pays only for the destinations it has sent to or had a BECN from.
///
/// `State` carries its own key: a `std::int32_t flow` member that reads
/// kNoFlow in a default-constructed State and that only the table
/// writes. The key then sits in what would otherwise be the state's
/// padding, so a slot is no bigger than a dense per-node entry was
/// (16 bytes for IbaA10, 40 for the rate-based algorithms).
///
/// Open addressing with linear probing over a power-of-two slot array;
/// Fibonacci hashing spreads the consecutive NodeIds of a pod across it.
/// The table starts empty, allocates 8 slots on the first insert and
/// doubles before an insert would take it past 3/4 full, so inserts cost
/// amortized O(1) and never allocate one by one.
///
/// Entries are never erased — a flow keeps its last grant end after it
/// recovers, which flow_ready_at reports — so memory grows with the
/// number of distinct flows the port has used, at 4/3 to 8/3 slots per
/// flow. It does not grow with the fabric's size as such, but a port
/// that over a long run of uniform traffic sends to nearly every node
/// ends up with an entry per node: then the table is 4/3 to 8/3 times
/// the size of a dense per-node array of the same state.
template <class State>
class FlowTable {
 public:
  static constexpr std::int32_t kNoFlow = -1;

  /// `flow`'s state; a flow never touched reads as a default-constructed
  /// (idle) State.
  [[nodiscard]] const State& state(std::int32_t flow) const {
    if (slots_.empty()) return kIdle;
    for (std::size_t i = home(flow);; i = (i + 1) & mask_) {
      const State& s = slots_[i];
      if (s.flow == flow) return s;
      if (s.flow == kNoFlow) return kIdle;
    }
  }

  /// `flow`'s state for update, default-constructed (idle) on first touch.
  /// Callers must not write its `flow` member.
  State& touch(std::int32_t flow) {
    static_assert(State{}.flow == kNoFlow, "a default-constructed State must read kNoFlow");
    IBSIM_ASSERT(flow >= 0, "flow ids are non-negative");
    if (!slots_.empty()) {
      for (std::size_t i = home(flow);; i = (i + 1) & mask_) {
        State& s = slots_[i];
        if (s.flow == flow) return s;
        if (s.flow == kNoFlow) {
          if (4 * (size_ + 1) > 3 * slots_.size()) break;  // past 3/4 full: grow first
          return claim(s, flow);
        }
      }
    }
    grow();
    return claim(slots_[free_slot(flow)], flow);
  }

  /// Flows stored (every flow ever touched).
  [[nodiscard]] std::size_t size() const { return size_; }
  /// Slots allocated (0 until the first touch).
  [[nodiscard]] std::size_t capacity() const { return slots_.size(); }

 private:
  static constexpr std::size_t kFirstSlots = 8;
  static constexpr State kIdle{};

  [[nodiscard]] std::size_t home(std::int32_t flow) const {
    return (static_cast<std::uint32_t>(flow) * 0x9E3779B9u) >> shift_;
  }

  [[nodiscard]] std::size_t free_slot(std::int32_t flow) const {
    std::size_t i = home(flow);
    while (slots_[i].flow != kNoFlow) i = (i + 1) & mask_;
    return i;
  }

  State& claim(State& s, std::int32_t flow) {
    s.flow = flow;
    ++size_;
    return s;
  }

  void grow() {
    std::vector<State> old = std::move(slots_);
    const std::size_t n = old.empty() ? kFirstSlots : 2 * old.size();
    slots_.assign(n, State{});
    mask_ = n - 1;
    shift_ = 32;
    for (std::size_t m = n; m > 1; m >>= 1) --shift_;
    for (State& s : old) {
      if (s.flow != kNoFlow) slots_[free_slot(s.flow)] = std::move(s);
    }
  }

  std::vector<State> slots_;
  std::size_t mask_ = 0;
  unsigned shift_ = 32;  ///< 32 - log2(capacity)
  std::size_t size_ = 0;
};

}  // namespace ibsim::ccalg
