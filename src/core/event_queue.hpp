#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/event.hpp"
#include "core/time.hpp"

namespace ibsim::core {

/// 4-ary min-heap of events ordered by (time, insertion sequence). The
/// wider fan-out halves the tree depth of a binary heap and keeps sift
/// paths within fewer cache lines. It holds the CalendarQueue's overlay
/// and far tier, and tests/core/event_queue_test.cpp runs it in lockstep
/// with the CalendarQueue as the reference (at, seq) order.
class HeapQueue {
 public:
  [[nodiscard]] std::size_t size() const { return heap_.size(); }
  [[nodiscard]] bool empty() const { return heap_.empty(); }

  /// Minimum event by (at, seq); undefined when empty.
  [[nodiscard]] const Event& top() const { return heap_.front(); }

  void push(const Event& ev);
  void pop();

 private:
  void sift_up(std::size_t i);
  void sift_down(std::size_t i);

  std::vector<Event> heap_;
};

/// Two-tier pending-event set: a calendar wheel of fixed-width buckets
/// covering the near future, backed by a HeapQueue for events beyond the
/// wheel horizon.
///
/// The busy-fabric event mix (`kEvLinkFree`, `kEvPacketArrive`,
/// `kEvCreditUpdate`, `kEvSinkFree`) schedules within a few
/// link-serialization times of `now` (an MTU at 16 Gb/s serializes in
/// ~1 us), so nearly every hot-path event lands in the wheel, where push
/// is an O(1) append and pop is an amortized O(1) walk of a sorted
/// bucket. Far-future events (CCTI timers at ~150 us, hotspot
/// relocations at ms scale) overflow into the heap and migrate into
/// their bucket when the wheel reaches them.
///
/// Future buckets keep their events in fixed-size chunks drawn from one
/// LIFO free list. When the wheel reaches a bucket, its events are copied
/// into one reused drain array and its chunks go straight back to the
/// list, so the next pushes write the lines just read. Chunk storage
/// is bounded by the peak pending count plus one partial chunk per
/// non-empty bucket, not by each bucket's own busiest moment.
///
/// A bucket of up to kDenseBucket events is ordered by std::sort. A
/// denser one is ordered by a stable LSD radix sort on `at - base_`
/// (below 2^16 inside a bucket: two 8-bit counting passes). Chunks are
/// copied head to tail, so the radix input is in push order, which is
/// ascending seq except for the late set: events whose seq is older than
/// one already copied (reserved seqs pushed late) and the far events
/// that migrate into the bucket. The late set is sorted by (at, seq) and
/// merged back, so no bucket costs more than O(n log n).
///
/// Determinism contract: extraction order is exactly ascending (at, seq)
/// — identical, bit for bit, to a plain HeapQueue — because every
/// bucket is ordered by (at, seq) before it drains, migrated heap events
/// join the bucket before that, and same-bucket insertions made while
/// the bucket drains go through a (at, seq)-ordered overlay heap that is
/// merged on extraction.
class CalendarQueue {
 public:
  /// Bucket width of 2^16 ps ~= 65.5 ns: an MTU serialization spans ~16
  /// buckets, so concurrent link events spread instead of piling into
  /// one bucket.
  static constexpr int kBucketBits = 16;
  static constexpr Time kBucketWidth = Time{1} << kBucketBits;
  /// 1024 buckets -> ~67 us horizon; comfortably past every
  /// link-layer delay yet small enough that a full rotation of empty
  /// buckets is a trivial scan.
  static constexpr std::size_t kNumBuckets = 1024;
  /// Events per pool chunk: 32 x 32 B = 1 KiB.
  static constexpr std::size_t kChunkEvents = 32;
  /// Buckets holding more events than this are radix-sorted; std::sort
  /// orders the rest, where its constant factor wins.
  static constexpr std::size_t kDenseBucket = 16;

  CalendarQueue() : buckets_(kNumBuckets) {}

  CalendarQueue(const CalendarQueue&) = delete;
  CalendarQueue& operator=(const CalendarQueue&) = delete;

  [[nodiscard]] std::size_t size() const {
    return wheel_count_ + overlay_.size() + far_.size();
  }
  [[nodiscard]] bool empty() const { return size() == 0; }

  void push(const Event& ev);

  /// Minimum pending event by (at, seq), or nullptr when empty. Lazily
  /// advances the wheel (migrating + sorting buckets), which is why this
  /// is non-const; simulation time is not affected.
  [[nodiscard]] const Event* peek();

  /// Remove the event returned by the immediately preceding peek().
  void pop();

  /// Chunks the pool has allocated, in buckets or on the free list. The
  /// pool grows only when every chunk is in use, so this is the peak
  /// number of chunks the wheel has held at once.
  [[nodiscard]] std::size_t chunk_count() const { return chunks_.size(); }

 private:
  struct Chunk {
    std::array<Event, kChunkEvents> events;
    Chunk* next = nullptr;
  };

  /// A future bucket: a list of chunks, all full except the tail.
  struct Bucket {
    Chunk* head = nullptr;
    Chunk* tail = nullptr;
    std::size_t size = 0;  ///< events in the bucket
  };

  /// Advance to the next bucket that can hold the earliest event:
  /// one step forward when the wheel still holds events, or a direct
  /// jump to the heap-top's bucket when it does not. Migrates heap
  /// events that fall inside the new bucket, then orders it into
  /// current_.
  void advance();

  /// Order a bucket of more than kDenseBucket events into current_:
  /// radix-sort the chunk events in push order, then merge in late_.
  void radix_order(const Bucket& bucket);

  [[nodiscard]] Time horizon() const {
    return base_ + static_cast<Time>(kNumBuckets) * kBucketWidth;
  }

  /// Pop a chunk off the free list, allocating one when it is empty.
  Chunk* take_chunk();

  /// Return `bucket`'s chunks to the free list and empty it.
  void release(Bucket& bucket);

  std::vector<Bucket> buckets_;
  std::vector<std::unique_ptr<Chunk>> chunks_;  ///< owns every chunk
  Chunk* free_ = nullptr;        ///< LIFO free list through Chunk::next
  /// The draining bucket, sorted, in its first len_ slots. current_
  /// and scratch_ only grow, so each is bounded by the largest bucket.
  std::vector<Event> current_;
  std::vector<Event> scratch_;   ///< the radix sort's other buffer
  std::vector<Event> late_;      ///< a dense bucket's out-of-seq-order events
  std::size_t len_ = 0;          ///< events of the draining bucket
  std::size_t cur_ = 0;          ///< index of the bucket starting at base_
  std::size_t pos_ = 0;          ///< drain position within current_
  Time base_ = 0;                ///< start time of the current bucket
  std::size_t wheel_count_ = 0;  ///< undrained events across all buckets
  bool front_in_overlay_ = false;  ///< where the last peek() found the min
  HeapQueue overlay_;  ///< current-bucket insertions made while it drains
  HeapQueue far_;      ///< events at or beyond the wheel horizon
};

}  // namespace ibsim::core
