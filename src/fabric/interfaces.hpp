#pragma once

#include "core/time.hpp"
#include "ib/packet.hpp"
#include "ib/types.hpp"

namespace ibsim::fabric {

/// A traffic source attached to an HCA. The HCA polls it whenever the
/// injection path is free; the source either hands over the next packet
/// to send (an arena handle — ownership transfers to the fabric) or
/// reports when it should be polled again (budget refill, throttled flow
/// becoming ready, next arrival of an open-loop process).
/// `retry_at == kTimeNever` means "nothing until external state changes".
class TrafficSource {
 public:
  virtual ~TrafficSource() = default;

  struct Poll {
    ib::PacketHandle pkt = ib::kNullPacket;
    core::Time retry_at = core::kTimeNever;
  };

  [[nodiscard]] virtual Poll poll(core::Time now) = 0;
};

/// Observer of data packets fully drained by an HCA sink: the workload
/// engine resolves application messages with it. The HCA counts bytes,
/// packets and latency itself; CNPs are consumed by the CC agent and do
/// not reach the observer.
class SinkObserver {
 public:
  virtual ~SinkObserver() = default;
  virtual void on_delivered(ib::NodeId node, const ib::Packet& pkt, core::Time now) = 0;
};

}  // namespace ibsim::fabric
