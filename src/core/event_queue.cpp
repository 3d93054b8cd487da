#include "core/event_queue.hpp"

#include <algorithm>
#include <array>
#include <cstddef>
#include <utility>

#include "core/assert.hpp"

namespace ibsim::core {

namespace {
// An inlined comparator for the sorts and the merge: passing
// event_before as a function pointer costs an out-of-line call per
// comparison.
constexpr auto kBefore = [](const Event& lhs, const Event& rhs) { return event_before(lhs, rhs); };
}  // namespace

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
  IBSIM_ASSERT(pos_ == len_ && overlay_.empty(),
               "advancing a wheel bucket that still holds events");
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
  Bucket& bucket = buckets_[cur_];
  const Time end = base_ + kBucketWidth;
  len_ = 0;
  // Most steps of a quiet wheel land on an empty bucket: leave at once.
  if (bucket.size == 0 && (far_.empty() || far_.top().at >= end)) return;
  // Far events that now fall inside this bucket join it before it is
  // ordered, which is what makes their ordering indistinguishable from
  // events scheduled into the wheel directly. They leave the heap in
  // (at, seq) order.
  late_.clear();
  while (!far_.empty() && far_.top().at < end) {
    late_.push_back(far_.top());
    far_.pop();
  }
  wheel_count_ += late_.size();
  len_ = bucket.size + late_.size();
  if (current_.size() < len_) {
    current_.resize(len_);
    scratch_.resize(len_);
  }
  if (len_ > kDenseBucket) {
    radix_order(bucket);
  } else {
    Event* out = current_.data();
    std::size_t left = bucket.size;
    for (const Chunk* chunk = bucket.head; chunk != nullptr; chunk = chunk->next) {
      const std::size_t n = std::min(left, kChunkEvents);
      out = std::copy_n(chunk->events.begin(), n, out);
      left -= n;
    }
    std::copy(late_.begin(), late_.end(), out);
    std::sort(current_.begin(), current_.begin() + static_cast<std::ptrdiff_t>(len_), kBefore);
  }
  // Hand the chunks straight back: the next pushes reuse the lines the
  // copy just read.
  release(bucket);
}

void CalendarQueue::radix_order(const Bucket& bucket) {
  // Copy the chunks head to tail, i.e. in push order. A fresh push takes
  // a seq newer than every queued event, so the copied events are in
  // ascending seq except those older than one copied before them:
  // reserved seqs pushed late. Those join the migrated far events in
  // late_; the rest go to current_ and are counted per key byte.
  const Time base = base_;
  std::array<std::uint32_t, 256> low{};
  std::array<std::uint32_t, 256> high{};
  Event* src = current_.data();
  Event* dst = scratch_.data();
  std::size_t n = 0;
  std::uint64_t newest = 0;
  std::size_t left = bucket.size;
  for (const Chunk* chunk = bucket.head; chunk != nullptr; chunk = chunk->next) {
    const std::size_t k = std::min(left, kChunkEvents);
    for (std::size_t i = 0; i < k; ++i) {
      const Event& ev = chunk->events[i];
      // The first event always goes to current_; seqs are unique, so no
      // later one ties.
      if (ev.seq >= newest) {
        newest = ev.seq;
        // Every event of this bucket has base <= at < base + 2^16.
        const auto key = static_cast<std::uint32_t>(ev.at - base);
        ++low[key & 0xffu];
        ++high[key >> 8];
        src[n++] = ev;
      } else {
        late_.push_back(ev);
      }
    }
    left -= k;
  }
  // Two stable counting passes, low key byte then high, ping-ponging
  // between current_ and scratch_. A pass whose byte is the same for
  // every event would leave the order as it is, so it is skipped: a
  // bucket of same-`at` events is not moved at all.
  const auto pass = [&](std::array<std::uint32_t, 256>& count, int shift) {
    if (n == 0 || count[(static_cast<std::uint32_t>(src[0].at - base) >> shift) & 0xffu] == n) {
      return;
    }
    std::uint32_t offset = 0;
    for (std::uint32_t& c : count) {
      const std::uint32_t here = c;
      c = offset;
      offset += here;
    }
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint32_t digit = (static_cast<std::uint32_t>(src[i].at - base) >> shift) & 0xffu;
      dst[count[digit]++] = src[i];
    }
    std::swap(src, dst);
  };
  pass(low, 0);
  pass(high, 8);
  if (!late_.empty()) {
    std::sort(late_.begin(), late_.end(), kBefore);
    std::merge(src, src + n, late_.begin(), late_.end(), dst, kBefore);
    std::swap(src, dst);
  }
  if (src != current_.data()) current_.swap(scratch_);
}

const Event* CalendarQueue::peek() {
  for (;;) {
    const Event* bucket_front = pos_ < len_ ? &current_[pos_] : nullptr;
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
  IBSIM_ASSERT(pos_ < len_ && wheel_count_ > 0,
               "calendar pop without a preceding peek");
  ++pos_;
  --wheel_count_;
}

}  // namespace ibsim::core
