#pragma once

#include <cstdint>
#include <vector>

#include "core/event.hpp"
#include "fabric/output_port.hpp"
#include "fabric/port_state.hpp"
#include "ib/packet.hpp"
#include "telemetry/counters.hpp"
#include "telemetry/trace.hpp"
#include "topo/routing.hpp"

namespace ibsim::fabric {

class Fabric;

/// A crossbar switch: virtual output queues per (input, output, VL),
/// destination routing via the linear forwarding tables, per output the
/// CNP lane ahead of the data lane and round-robin across inputs, and
/// per-output-Port-VL congestion detection / FECN marking.
///
/// Hot state is structure-of-arrays: credits / round-robin cursors / CC
/// detectors live in a flat PortVlBank, and the VoQs are one
/// switch-level array laid out so the inputs competing for an (output,
/// VL) pair are contiguous — the arbitration scan walks one cache-line
/// run instead of hopping across per-input buffer objects.
class SwitchDevice final : public core::EventHandler {
 public:
  SwitchDevice(Fabric* fabric, topo::DeviceId dev, std::int32_t n_ports);

  void on_event(core::Scheduler& sched, const core::Event& ev) override;

  [[nodiscard]] topo::DeviceId device_id() const { return dev_; }
  [[nodiscard]] std::int32_t n_ports() const { return n_ports_; }
  [[nodiscard]] OutputPort& output(std::int32_t port) { return outputs_[static_cast<std::size_t>(port)]; }
  [[nodiscard]] const OutputPort& output(std::int32_t port) const {
    return outputs_[static_cast<std::size_t>(port)];
  }

  /// The flat per-(output port, VL) state bank (credits, CC, cursors).
  [[nodiscard]] PortVlBank& bank() { return bank_; }
  [[nodiscard]] const PortVlBank& bank() const { return bank_; }

  /// Bytes resident in input `in`'s buffer on `vl` (all VoQs).
  [[nodiscard]] std::int64_t input_vl_bytes(std::int32_t in, ib::Vl vl) const {
    return vl_bytes_[static_cast<std::size_t>(in) * static_cast<std::size_t>(fabric_vls_) +
                     static_cast<std::size_t>(vl)];
  }

  /// Total FECN marks applied by this switch (all ports/VLs).
  [[nodiscard]] std::uint64_t fecn_marked() const;
  /// Packets granted onto an output link (all ports/VLs).
  [[nodiscard]] std::uint64_t arb_grants() const { return grants_; }

  /// The trace stream (null = tracing off); set by Fabric::attach_telemetry.
  void set_tracer(telemetry::Tracer* tracer) { tracer_ = tracer; }

  /// Detailed telemetry: register this switch's per-port instruments —
  /// per output Port VL the queued bytes, per output port the credit
  /// stall time, per input VL the buffered bytes — in a fixed order, so
  /// CSV columns and summary rows are stable across runs.
  void register_detailed(telemetry::CounterRegistry& registry);
  /// Set the instruments register_detailed resolved from current state
  /// (a no-op when none were registered).
  void publish(telemetry::CounterRegistry& registry) const;

 private:
  friend class Fabric;  // wiring

  void receive(core::Scheduler& sched, ib::PacketHandle h, std::int32_t in_port);
  void try_send(core::Scheduler& sched, std::int32_t out_port);
  [[nodiscard]] bool grant_one(core::Scheduler& sched, std::int32_t out_port);

  /// VoQ layout: the n_ports inputs of one (out, vl) pair are adjacent,
  /// so the credit-fallback scan over busy inputs stays in one stride.
  [[nodiscard]] std::size_t voq_slot(std::int32_t in, std::int32_t out, ib::Vl vl) const {
    IBSIM_ASSERT(in >= 0 && in < n_ports_ && out >= 0 && out < n_ports_ && vl < fabric_vls_,
                 "VoQ index out of range");
    return (static_cast<std::size_t>(out) * static_cast<std::size_t>(fabric_vls_) +
            static_cast<std::size_t>(vl)) *
               static_cast<std::size_t>(n_ports_) +
           static_cast<std::size_t>(in);
  }

  // --- credit stalls (always kept) and tracing (behind a null check) ----
  void note_blocked(std::int32_t out, core::Time now);
  void end_stall(std::int32_t out, core::Time now);
  void trace_grant(core::Time now, std::int32_t out, ib::Vl vl, const ib::Packet& pkt,
                   bool exited_congestion, bool fecn_set, core::Time pace);

  /// Bitmask of input ports with a nonempty VoQ towards (out, vl): bit i
  /// set means input i has queued work. Lets arbitration find the next
  /// round-robin input in O(1) instead of scanning all ports. One bit per
  /// port is what limits a switch to topo::kMaxSwitchPorts.
  [[nodiscard]] std::uint64_t& busy_mask(std::int32_t out, ib::Vl vl) {
    return busy_mask_[static_cast<std::size_t>(out) *
                          static_cast<std::size_t>(fabric_vls_) +
                      static_cast<std::size_t>(vl)];
  }

  /// Per-output bitmask of VLs with any queued work: bit vl set iff
  /// busy_mask(out, vl) != 0. Lets grant_one() and note_blocked() test a
  /// single word instead of each VL's VoQ bitmask.
  [[nodiscard]] std::uint16_t& active_vls(std::int32_t out) {
    return active_vls_[static_cast<std::size_t>(out)];
  }

  Fabric* fabric_;
  topo::DeviceId dev_;
  std::int32_t n_ports_;
  std::int32_t fabric_vls_;
  bool fast_path_;                  ///< FabricParams::fast_path, cached off the hot path
  ib::Vl cnp_vl_;                   ///< FabricParams::cnp_vl(), served ahead of kDataVl
  ib::PacketArena* arena_ = nullptr;  ///< this device's shard-local arena
  const std::int8_t* lft_row_;      ///< this switch's row of the flat LFT, indexed by dst
  std::vector<OutputPort> outputs_;
  PortVlBank bank_;                          ///< per (out, vl): credits/rr/cc
  std::vector<ib::PacketQueue> voqs_;        ///< [(out * n_vls + vl) * n_ports + in]
  std::vector<std::int64_t> vl_bytes_;       ///< per (in, vl) buffer occupancy
  std::vector<std::uint64_t> busy_mask_;
  std::vector<std::uint16_t> active_vls_;  ///< per output port

  std::uint64_t grants_ = 0;

  // Telemetry (null / empty when not attached).
  telemetry::Tracer* tracer_ = nullptr;
  /// Detailed-mode instruments in registration order: per port, its
  /// output VLs' queue gauges, its stall-time counter, its input VLs'
  /// buffer gauges.
  std::vector<telemetry::CounterRegistry::Handle> detail_;
};

}  // namespace ibsim::fabric
