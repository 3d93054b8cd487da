#pragma once

#include <cstdint>

namespace ibsim::ib {

/// End-node identifier. Doubles as the destination LID used by the linear
/// forwarding tables: in this model each HCA owns exactly one LID and
/// switches are addressed structurally, as in the paper's setup.
using NodeId = std::int32_t;
inline constexpr NodeId kInvalidNode = -1;

/// Virtual lane index (IBA allows 0..14 data VLs; the model uses VL 0 and 1).
using Vl = std::uint8_t;

/// Service level. The model keeps SL == VL (identity SL-to-VL map).
using Sl = std::uint8_t;

/// Fabric-wide constants matching the paper's simulation setup
/// (section IV: 4x DDR links, MTU 2048 B, 4096 B messages).
inline constexpr std::int32_t kMtuBytes = 2048;
inline constexpr std::int32_t kPacketsPerMessage = 2;
inline constexpr std::int32_t kMessageBytes = kMtuBytes * kPacketsPerMessage;

/// Congestion notification packets are small (BECN-carrying CNP).
inline constexpr std::int32_t kCnpBytes = 64;

/// VL assignment: bulk data on VL 0, CNPs on a dedicated VL so that the
/// CC feedback loop cannot be starved by the very congestion it is
/// trying to resolve (the spec routes CNPs on a configured SL).
/// fabric::FabricParams::n_vls = 1 folds the CNP lane into VL 0.
inline constexpr Vl kDataVl = 0;
inline constexpr Vl kCnpVl = 1;
inline constexpr int kDefaultVlCount = 2;

}  // namespace ibsim::ib
