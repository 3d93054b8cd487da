#pragma once

#include <cstdint>

#include "core/time.hpp"
#include "ib/types.hpp"
#include "topo/topology.hpp"

namespace ibsim::fabric {

/// Fast-path link-wakeup state of a switch output port
/// (FabricParams::fast_path). The slow path schedules kEvLinkFree
/// unconditionally after every grant; the fast path elides it when the
/// output drained, remembering the (at, seq) slot the event would have
/// occupied so a later materialization — or forgetting it once the slot
/// has passed, since the skipped wakeup was a no-op — is
/// indistinguishable from the eager schedule (DESIGN.md §11). An HCA
/// schedules every wakeup, so its port stays kNone.
enum class WakeState : std::uint8_t {
  kNone = 0,       ///< no wakeup outstanding (slow path always here)
  kScheduled = 1,  ///< a kEvLinkFree with seq == wake_seq is in the queue
  kElided = 2,     ///< slot reserved at (busy_until, wake_seq), no event queued
};

/// Per-output-port state shared by switches and HCAs: the downstream
/// link, timing and (switches only) the wakeup bookkeeping. This is a
/// flat value type — no heap blocks behind it. The per-(port, VL) hot
/// arrays (credits, round-robin cursors, CC detectors) live in the
/// owning device's PortVlBank so the grant loop reads them from
/// stride-indexed contiguous storage (DESIGN.md §13).
///
/// Behaviour (arbitration loops, event scheduling) lives in the owning
/// device; this struct is deliberately state-plus-small-helpers so both
/// device types reuse it without virtual dispatch on the hot path.
struct OutputPort {
  // Downstream endpoint.
  topo::DeviceId peer_dev = topo::kInvalidDevice;
  std::int32_t peer_port = -1;
  bool peer_is_hca = false;
  bool connected = false;

  // Link timing: serialization on the wire, pacing of consecutive grants
  // (HCA injection is paced below wire speed by the PCIe bottleneck), and
  // the one-way delays applied to packet and credit events.
  double wire_gbps = 16.0;
  double pace_gbps = 16.0;
  core::Time prop_delay = 0;
  core::Time rx_pipeline_delay = 0;  ///< receiver-side pipeline, added on arrival

  core::Time busy_until = 0;

  // Fast-path wakeup bookkeeping of a switch port (see WakeState).
  // wake_seq identifies the live wakeup: an in-queue kEvLinkFree whose
  // seq differs is stale and must be dropped without acting.
  WakeState wake = WakeState::kNone;
  std::uint64_t wake_seq = 0;

  // Credit stalls, kept whether or not telemetry is attached: when this
  // port last went work-but-no-credits (kTimeNever = not stalled), and
  // how many stalls have ended and how long they lasted in total.
  // Telemetry reads them (DESIGN.md §7).
  core::Time stall_since = core::kTimeNever;
  std::uint64_t stalls = 0;
  core::Time stall_ps = 0;

  [[nodiscard]] core::Time ser_time(std::int32_t bytes) const {
    return core::transmit_time(bytes, wire_gbps);
  }
  [[nodiscard]] core::Time pace_time(std::int32_t bytes) const {
    return core::transmit_time(bytes, pace_gbps);
  }
  [[nodiscard]] bool idle(core::Time now) const { return connected && now >= busy_until; }
};

}  // namespace ibsim::fabric
