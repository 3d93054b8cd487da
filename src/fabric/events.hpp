#pragma once

#include <cstdint>

#include "ib/types.hpp"

namespace ibsim::fabric {

/// Event kinds exchanged between fabric components. Payload conventions:
/// `a` carries a PacketHandle (PacketArrive) or packed credit info
/// (CreditUpdate); `b` carries the port index on the *receiving* device.
enum EventKind : std::uint32_t {
  /// A packet's head reaches an input buffer (after link + pipeline
  /// delays). a = PacketHandle, b = input port.
  kEvPacketArrive = 1,
  /// An output port finished serializing (or pacing) a packet and may
  /// arbitrate again. b = output port.
  kEvLinkFree = 2,
  /// Flow-control credits returned by the downstream input buffer.
  /// a = pack_credit(vl, bytes), b = output port being replenished.
  kEvCreditUpdate = 3,
  /// The HCA sink finished draining a packet (held in the HCA's
  /// draining slot; the payload is unused).
  kEvSinkFree = 4,
  /// Timed retry for an HCA whose traffic source reported a future
  /// readiness time (pacing budget, IRD throttle).
  kEvRetryInject = 5,
};

[[nodiscard]] inline std::uint64_t pack_credit(ib::Vl vl, std::int32_t bytes) {
  return (static_cast<std::uint64_t>(vl) << 32) | static_cast<std::uint32_t>(bytes);
}

[[nodiscard]] inline ib::Vl credit_vl(std::uint64_t packed) {
  return static_cast<ib::Vl>((packed >> 32) & 0xffffu);
}

[[nodiscard]] inline std::int32_t credit_bytes(std::uint64_t packed) {
  return static_cast<std::int32_t>(packed & 0xffffffffu);
}

}  // namespace ibsim::fabric
