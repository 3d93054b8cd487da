#include "core/event_queue.hpp"

#include <algorithm>
#include <cstddef>

#include "core/assert.hpp"

namespace ibsim::core {

// ---------------------------------------------------------------------------
// HeapQueue
// ---------------------------------------------------------------------------

void HeapQueue::sift_up(std::size_t i) {
  Event ev = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!event_after(heap_[parent], ev)) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = ev;
}

void HeapQueue::sift_down(std::size_t i) {
  Event ev = heap_[i];
  const std::size_t n = heap_.size();
  for (;;) {
    const std::size_t first = 4 * i + 1;
    if (first >= n) break;
    std::size_t best = first;
    const std::size_t last = std::min(first + 4, n);
    for (std::size_t child = first + 1; child < last; ++child) {
      if (event_after(heap_[best], heap_[child])) best = child;
    }
    if (!event_after(ev, heap_[best])) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = ev;
}

void HeapQueue::push(const Event& ev) {
  heap_.push_back(ev);
  sift_up(heap_.size() - 1);
}

void HeapQueue::pop() {
  IBSIM_ASSERT(!heap_.empty(), "popping an empty event heap");
  heap_.front() = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0);
}

// ---------------------------------------------------------------------------
// CalendarQueue
// ---------------------------------------------------------------------------

void CalendarQueue::push(const Event& ev) {
  if (ev.at < base_ + kBucketWidth) {
    // Into (or before) the bucket currently draining. The scheduler
    // guarantees ev.at >= now, so "before base_" only happens when the
    // wheel cursor ran ahead of simulation time while locating the next
    // event; ordering still holds because the overlay merges by
    // (at, seq) against the sorted bucket remainder.
    overlay_.push(ev);
    return;
  }
  if (ev.at < horizon()) {
    // Future bucket: O(1) append to its tail chunk, sorted only when the
    // wheel gets there.
    Bucket& bucket = buckets_[(static_cast<std::uint64_t>(ev.at) >> kBucketBits) &
                              (kNumBuckets - 1)];
    const std::size_t slot = bucket.size % kChunkEvents;
    if (slot == 0) {
      Chunk* chunk = take_chunk();
      if (bucket.tail == nullptr) {
        bucket.head = chunk;
      } else {
        bucket.tail->next = chunk;
      }
      bucket.tail = chunk;
    }
    bucket.tail->events[slot] = ev;
    ++bucket.size;
    ++wheel_count_;
    return;
  }
  far_.push(ev);
}

CalendarQueue::Chunk* CalendarQueue::take_chunk() {
  Chunk* chunk = free_;
  if (chunk == nullptr) {
    chunks_.push_back(std::make_unique<Chunk>());
    chunk = chunks_.back().get();
  } else {
    free_ = chunk->next;
  }
  chunk->next = nullptr;
  return chunk;
}

void CalendarQueue::release(Bucket& bucket) {
  if (bucket.head != nullptr) {
    bucket.tail->next = free_;
    free_ = bucket.head;
  }
  bucket = Bucket{};
}

void CalendarQueue::advance() {
  IBSIM_ASSERT(pos_ == current_.size() && overlay_.empty(),
               "advancing a wheel bucket that still holds events");
  current_.clear();
  pos_ = 0;
  if (wheel_count_ == 0) {
    // Every bucket is empty: jump straight to the bucket of the earliest
    // far event instead of stepping through empty buckets.
    IBSIM_ASSERT(!far_.empty(), "advancing an empty calendar queue");
    base_ = far_.top().at & ~(kBucketWidth - 1);
    cur_ = (static_cast<std::uint64_t>(base_) >> kBucketBits) & (kNumBuckets - 1);
  } else {
    base_ += kBucketWidth;
    cur_ = (cur_ + 1) & (kNumBuckets - 1);
  }
  // Copy the bucket out and hand its chunks straight back: the next
  // pushes reuse the lines this copy just read.
  Bucket& bucket = buckets_[cur_];
  std::size_t left = bucket.size;
  for (const Chunk* chunk = bucket.head; chunk != nullptr; chunk = chunk->next) {
    const std::size_t n = std::min(left, kChunkEvents);
    current_.insert(current_.end(), chunk->events.begin(),
                    chunk->events.begin() + static_cast<std::ptrdiff_t>(n));
    left -= n;
  }
  release(bucket);
  // Far events that now fall inside this bucket join it before the sort,
  // which is what makes their ordering indistinguishable from events
  // scheduled into the wheel directly.
  const Time end = base_ + kBucketWidth;
  while (!far_.empty() && far_.top().at < end) {
    current_.push_back(far_.top());
    far_.pop();
    ++wheel_count_;
  }
  std::sort(current_.begin(), current_.end(),
            [](const Event& lhs, const Event& rhs) { return event_before(lhs, rhs); });
}

const Event* CalendarQueue::peek() {
  for (;;) {
    const Event* bucket_front = pos_ < current_.size() ? &current_[pos_] : nullptr;
    if (!overlay_.empty()) {
      const Event& o = overlay_.top();
      if (bucket_front == nullptr || event_before(o, *bucket_front)) {
        front_in_overlay_ = true;
        return &o;
      }
    }
    if (bucket_front != nullptr) {
      front_in_overlay_ = false;
      return bucket_front;
    }
    if (wheel_count_ == 0 && far_.empty()) return nullptr;
    advance();
  }
}

void CalendarQueue::pop() {
  if (front_in_overlay_) {
    overlay_.pop();
    return;
  }
  IBSIM_ASSERT(pos_ < current_.size() && wheel_count_ > 0,
               "calendar pop without a preceding peek");
  ++pos_;
  --wheel_count_;
}

}  // namespace ibsim::core
