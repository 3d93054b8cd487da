#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "cc/ca_cc.hpp"
#include "cc/cc_manager.hpp"
#include "core/event.hpp"
#include "core/stats.hpp"
#include "fabric/interfaces.hpp"
#include "fabric/output_port.hpp"
#include "fabric/port_state.hpp"
#include "ib/packet.hpp"
#include "telemetry/counters.hpp"
#include "telemetry/trace.hpp"
#include "topo/topology.hpp"

namespace ibsim::fabric {

class Fabric;

/// A host channel adapter: traffic injection (paced at the PCIe-limited
/// rate, CNPs ahead of data, per-flow IRD throttling via the CC agent)
/// and the receive path (per-VL receive queues drained by the sink at the
/// calibrated end-node rate, FECN-to-CNP turnaround, delivery counts and
/// latency).
///
/// Packets are arena handles throughout; the per-VL credit balances live
/// in a one-port PortVlBank (no CC detectors — an HCA never marks FECN).
class Hca final : public core::EventHandler, public cc::CnpSender {
 public:
  Hca(Fabric* fabric, topo::DeviceId dev, ib::NodeId node, std::int32_t n_nodes,
      const cc::CcManager& ccm);

  /// Attach the generator polled for data packets. May be null (a node
  /// that only receives).
  void attach_source(TrafficSource* source) { source_ = source; }
  void attach_observer(SinkObserver* observer) { observer_ = observer; }

  /// Kick off injection at the current simulation time.
  void start(core::Scheduler& sched);

  void on_event(core::Scheduler& sched, const core::Event& ev) override;

  /// cc::CnpSender: queue a congestion notification ahead of data.
  void send_cnp(ib::NodeId to, ib::NodeId flow_dst) override;

  /// Ask the injection path to re-poll the source (used when external
  /// state such as a hotspot move makes a source ready again).
  void nudge(core::Scheduler& sched) { try_inject(sched); }

  [[nodiscard]] ib::NodeId node() const { return node_; }
  [[nodiscard]] topo::DeviceId device_id() const { return dev_; }
  [[nodiscard]] cc::CaCcAgent& cc_agent() { return *cc_agent_; }
  [[nodiscard]] const cc::CaCcAgent& cc_agent() const { return *cc_agent_; }
  [[nodiscard]] OutputPort& out() { return out_; }

  /// The flat per-VL state bank of the single uplink port (port 0).
  [[nodiscard]] PortVlBank& bank() { return bank_; }
  [[nodiscard]] const PortVlBank& bank() const { return bank_; }

  [[nodiscard]] std::int64_t injected_bytes() const { return injected_bytes_; }
  [[nodiscard]] std::uint64_t injected_packets() const { return injected_packets_; }
  [[nodiscard]] std::int64_t delivered_bytes() const { return delivered_bytes_; }
  [[nodiscard]] std::uint64_t delivered_packets() const { return delivered_packets_; }
  [[nodiscard]] std::uint64_t fecn_delivered() const { return fecn_delivered_; }

  /// The trace stream of this HCA and its CC agent (null = tracing off);
  /// set by Fabric::attach_telemetry.
  void set_tracer(telemetry::Tracer* tracer);

  /// Detailed telemetry: register this node's CCTI gauge, and set it from
  /// the CC agent (publish is a no-op until registered).
  void register_detailed(telemetry::CounterRegistry& registry);
  void publish(telemetry::CounterRegistry& registry) const;

 private:
  friend class Fabric;  // wiring

  void try_inject(core::Scheduler& sched);
  void grant(core::Scheduler& sched, ib::PacketHandle h);
  void maybe_schedule_retry(core::Scheduler& sched, core::Time at);
  void receive(core::Scheduler& sched, ib::PacketHandle h);
  void try_drain(core::Scheduler& sched);
  void finish_drain(core::Scheduler& sched);

  Fabric* fabric_;
  topo::DeviceId dev_;
  ib::NodeId node_;
  /// This device's shard-local arena, scheduler and latency histogram
  /// (the fabric-wide ones when the fabric is serial). Cached so the hot
  /// paths never consult the shard map.
  ib::PacketArena* arena_ = nullptr;
  core::Scheduler* home_sched_ = nullptr;
  core::Histogram* latency_us_ = nullptr;

  // Injection side.
  OutputPort out_;
  PortVlBank bank_;  ///< port 0 only: per-VL credits
  ib::PacketHandle staged_ = ib::kNullPacket;  ///< data packet waiting for credits
  ib::PacketQueue cnp_queue_;
  TrafficSource* source_ = nullptr;
  core::Time retry_at_ = core::kTimeNever;

  // Receive side.
  std::vector<ib::PacketQueue> rx_;  ///< per VL
  std::uint16_t rx_active_vls_ = 0;  ///< bit vl set iff rx_[vl] nonempty
  ib::PacketHandle draining_ = ib::kNullPacket;
  double drain_gbps_ = 13.6;
  SinkObserver* observer_ = nullptr;

  std::unique_ptr<cc::CaCcAgent> cc_agent_;

  // Telemetry (null / invalid when not attached).
  telemetry::Tracer* tracer_ = nullptr;
  telemetry::CounterRegistry::Handle ccti_gauge_;

  std::int64_t injected_bytes_ = 0;
  std::uint64_t injected_packets_ = 0;
  std::int64_t delivered_bytes_ = 0;
  std::uint64_t delivered_packets_ = 0;
  std::uint64_t fecn_delivered_ = 0;
};

}  // namespace ibsim::fabric
