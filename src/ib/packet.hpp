#pragma once

#include <cstdint>
#include <vector>

#include "core/time.hpp"
#include "ib/types.hpp"

namespace ibsim::ib {

/// Index of a packet inside its PacketArena. Handles are what the fabric
/// stores everywhere a packet rests (event payloads, staged slots, VoQs,
/// receive queues) — they stay valid across arena growth, unlike raw
/// pointers/references, and they halve the size of every queue link.
using PacketHandle = std::uint32_t;

/// The null handle ("no packet"). An arena never hands this index out.
inline constexpr PacketHandle kNullPacket = 0xffffffffu;

/// One InfiniBand packet as the simulator models it: the header fields the
/// CC mechanism and the fabric need, plus bookkeeping for metrics.
///
/// Packets live in a PacketArena and travel by PacketHandle through
/// scheduler event payloads; they are never copied on the data path. A
/// `Packet&` obtained from an arena is a *transient* view: it may dangle
/// after the next allocate() (the slot vector can grow), so persistent
/// state must hold handles and re-resolve.
struct Packet {
  std::uint64_t id = 0;       ///< unique per simulation, for tracing
  NodeId src = kInvalidNode;  ///< source end node
  NodeId dst = kInvalidNode;  ///< destination end node (DLID)
  std::int32_t bytes = 0;     ///< wire size
  Vl vl = kDataVl;
  Sl sl = 0;

  bool fecn = false;    ///< Forward Explicit Congestion Notification bit
  bool becn = false;    ///< Backward Explicit Congestion Notification bit
  bool is_cnp = false;  ///< explicit congestion notification packet

  /// BECN/CNP flow reference: the destination of the *original* data flow
  /// this notification throttles (i.e. the congested hotspot), so the
  /// source can index its per-QP CCTI.
  NodeId flow_dst = kInvalidNode;

  bool hotspot_stream = false;  ///< generator stream tag (metrics only)
  bool app = false;             ///< workload-engine payload; msg_seq is the op id
  std::uint32_t msg_seq = 0;    ///< message number within its flow
  core::Time injected_at = 0;   ///< grant time at the source HCA

  /// Intrusive link: the next handle in whichever list holds this packet
  /// (arena freelist or one PacketQueue — never both).
  PacketHandle next = kNullPacket;

  /// Reset every live header/bookkeeping field to its freshly-constructed
  /// value. `id` and `next` are deliberately untouched: the arena assigns
  /// a fresh id on allocation and owns the list link. Keeping this an
  /// explicit field list (instead of `*this = Packet{}`) avoids the
  /// double id write on the allocation hot path and makes any future
  /// field addition a conscious reset decision.
  void reset() {
    src = kInvalidNode;
    dst = kInvalidNode;
    bytes = 0;
    vl = kDataVl;
    sl = 0;
    fecn = false;
    becn = false;
    is_cnp = false;
    flow_dst = kInvalidNode;
    hotspot_stream = false;
    app = false;
    msg_seq = 0;
    injected_at = 0;
  }
};

/// Contiguous packet storage with an intrusive handle freelist. All
/// packets of one simulation live in a single dense vector, so the hot
/// loop walks cache lines instead of chasing per-chunk heap pointers, and
/// a handle is a 32-bit index instead of a 64-bit pointer.
///
/// An arena starts empty. Allocation reuses the most recently released
/// slot and appends a fresh one only when none is free, so the slots
/// ever touched equal the peak live-packet count. Appending doubles the
/// slot vector when it is full; each such reallocation is counted in
/// `growths()` so tests can pin a steady-state window to zero.
class PacketArena {
 public:
  PacketArena() = default;
  PacketArena(const PacketArena&) = delete;
  PacketArena& operator=(const PacketArena&) = delete;

  /// Fetch a zero-initialised packet with a fresh id.
  [[nodiscard]] PacketHandle allocate() {
    PacketHandle h = free_head_;
    if (h == kNullPacket) {
      h = append();
    } else {
      free_head_ = slots_[h].next;
    }
    Packet& pkt = slots_[h];
    pkt.reset();
    pkt.id = next_id_++;
    pkt.next = kNullPacket;
    ++live_;
    return h;
  }

  /// Return a packet to the arena. Must have come from this arena.
  void release(PacketHandle h);

  /// Resolve a handle. The reference is transient: valid only until the
  /// next allocate() (the slot vector may grow).
  [[nodiscard]] Packet& get(PacketHandle h) { return slots_[h]; }
  [[nodiscard]] const Packet& get(PacketHandle h) const { return slots_[h]; }

  /// Packets currently handed out (allocated minus released).
  [[nodiscard]] std::int64_t live() const { return live_; }

  /// Total packets ever allocated (freshly or recycled).
  [[nodiscard]] std::uint64_t total_allocated() const { return next_id_; }

  /// Slots touched so far (live + free): the peak live-packet count.
  [[nodiscard]] std::size_t slots() const { return slots_.size(); }

  /// Slots the storage holds before it must reallocate.
  [[nodiscard]] std::size_t capacity() const { return slots_.capacity(); }

  /// Times the slot vector reallocated. A steady-state window with
  /// growths() unchanged proves the packet path performed zero heap
  /// allocations.
  [[nodiscard]] std::uint64_t growths() const { return growths_; }

 private:
  /// Append a fresh slot (no free one is left) and return its handle.
  [[nodiscard]] PacketHandle append();

  std::vector<Packet> slots_;
  PacketHandle free_head_ = kNullPacket;
  std::int64_t live_ = 0;
  std::uint64_t next_id_ = 0;
  std::uint64_t growths_ = 0;
};

/// Intrusive FIFO of packets, chained through `Packet::next` (a packet is
/// either in the arena's freelist or in at most one queue, never both).
/// Holds handles, not pointers, and takes the arena as a parameter
/// instead of storing it — a queue is two handles, 8 bytes, which is what
/// keeps the 1.38M VoQs of a 10k-endpoint fabric dense in cache. Byte
/// occupancy lives with its readers: the switch's per-input buffer
/// counts and the CC detectors' queue depths.
class PacketQueue {
 public:
  [[nodiscard]] bool empty() const { return head_ == kNullPacket; }
  [[nodiscard]] PacketHandle front() const { return head_; }

  void push_back(PacketArena& arena, PacketHandle h);
  [[nodiscard]] PacketHandle pop_front(PacketArena& arena);

 private:
  PacketHandle head_ = kNullPacket;
  PacketHandle tail_ = kNullPacket;
};
static_assert(sizeof(PacketQueue) == 8, "a VoQ is two packet handles");

}  // namespace ibsim::ib
