#pragma once

#include <cstdint>

#include "ib/types.hpp"

namespace ibsim::fabric {

/// Event kinds exchanged between fabric components. Payload conventions:
/// `a` carries a PacketHandle (PacketArrive) or packed credit info
/// (CreditUpdate); `b` carries the port index on the *receiving* device.
enum EventKind : std::uint16_t {
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

/// A credit return refunds one packet, so its byte count fits the low
/// 16 bits of the event's 32-bit payload and the VL the high 16.
static_assert(ib::kMtuBytes <= 0xffff, "a credit return must pack into 16 bits of bytes");

[[nodiscard]] inline std::uint32_t pack_credit(ib::Vl vl, std::int32_t bytes) {
  return (static_cast<std::uint32_t>(vl) << 16) | static_cast<std::uint16_t>(bytes);
}

[[nodiscard]] inline ib::Vl credit_vl(std::uint32_t packed) {
  return static_cast<ib::Vl>(packed >> 16);
}

[[nodiscard]] inline std::int32_t credit_bytes(std::uint32_t packed) {
  return static_cast<std::int32_t>(packed & 0xffffu);
}

}  // namespace ibsim::fabric
