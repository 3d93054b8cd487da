#include "ib/packet.hpp"

#include "core/assert.hpp"

namespace ibsim::ib {

void PacketQueue::push_back(PacketArena& arena, PacketHandle h) {
  IBSIM_ASSERT(h != kNullPacket, "queueing null packet");
  arena.get(h).next = kNullPacket;
  if (tail_ == kNullPacket) {
    head_ = tail_ = h;
  } else {
    arena.get(tail_).next = h;
    tail_ = h;
  }
}

PacketHandle PacketQueue::pop_front(PacketArena& arena) {
  IBSIM_ASSERT(head_ != kNullPacket, "popping an empty packet queue");
  const PacketHandle h = head_;
  Packet& pkt = arena.get(h);
  head_ = pkt.next;
  if (head_ == kNullPacket) tail_ = kNullPacket;
  pkt.next = kNullPacket;
  return h;
}

PacketHandle PacketArena::append() {
  IBSIM_ASSERT(slots_.size() < static_cast<std::size_t>(kNullPacket),
               "packet arena exceeds the 32-bit handle space");
  if (slots_.size() == slots_.capacity()) ++growths_;
  slots_.emplace_back();
  return static_cast<PacketHandle>(slots_.size() - 1);
}

void PacketArena::release(PacketHandle h) {
  IBSIM_ASSERT(h != kNullPacket && h < slots_.size(), "releasing a foreign packet handle");
  IBSIM_ASSERT(live_ > 0, "arena released more packets than it allocated");
  slots_[h].next = free_head_;
  free_head_ = h;
  --live_;
}

}  // namespace ibsim::ib
