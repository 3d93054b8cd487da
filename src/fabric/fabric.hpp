#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "cc/cc_manager.hpp"
#include "core/scheduler.hpp"
#include "core/stats.hpp"
#include "fabric/hca.hpp"
#include "fabric/params.hpp"
#include "fabric/switch_device.hpp"
#include "ib/packet.hpp"
#include "telemetry/telemetry.hpp"
#include "topo/routing.hpp"
#include "topo/topology.hpp"

namespace ibsim::fabric {

/// The instantiated network: one SwitchDevice per topology switch, one
/// Hca per end node, links wired with rates, delays and initial credit
/// balances, and CC configured everywhere from the CcManager.
///
/// The Fabric borrows the topology, routing tables, CC manager and
/// scheduler — they must outlive it. Traffic sources and sink observers
/// are attached afterwards by the simulation builder.
///
/// All packets live in one per-fabric PacketArena and travel as 32-bit
/// handles; the arena grows with the peak live-packet count, so
/// steady-state operation performs no per-packet allocation.
class Fabric {
 public:
  /// Spatial decomposition for the sharded engine: which shard owns each
  /// device, and the per-shard scheduler each shard's events run on.
  /// The referenced shard_of_device vector and schedulers must outlive
  /// the Fabric (the simulation owns both).
  struct ShardLayout {
    const std::vector<std::int32_t>* shard_of_device = nullptr;  // by DeviceId
    std::vector<core::Scheduler*> scheds;                        // one per shard
  };

  Fabric(const topo::Topology& topo, const topo::RoutingTables& routing,
         const FabricParams& params, const cc::CcManager& ccm, core::Scheduler& sched);

  /// Sharded construction: devices are owned by shards, each with its own
  /// scheduler and packet arena; packets and credits that cross a shard
  /// boundary go through mailboxes drained at window barriers instead of
  /// being scheduled directly (DESIGN.md §15).
  Fabric(const topo::Topology& topo, const topo::RoutingTables& routing,
         const FabricParams& params, const cc::CcManager& ccm, const ShardLayout& layout);

  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  [[nodiscard]] Hca& hca(ib::NodeId node) { return *hcas_[static_cast<std::size_t>(node)]; }
  [[nodiscard]] const Hca& hca(ib::NodeId node) const {
    return *hcas_[static_cast<std::size_t>(node)];
  }
  [[nodiscard]] std::int32_t node_count() const { return static_cast<std::int32_t>(hcas_.size()); }
  [[nodiscard]] SwitchDevice& switch_at(std::size_t i) { return *switches_[i]; }
  [[nodiscard]] std::size_t switch_count() const { return switches_.size(); }

  [[nodiscard]] core::Scheduler& sched() { return *sched_; }
  [[nodiscard]] ib::PacketArena& arena() { return arena_; }
  [[nodiscard]] const ib::PacketArena& arena() const { return arena_; }

  // Shard topology of this fabric (serial fabrics are one big shard).
  [[nodiscard]] std::int32_t n_shards() const { return n_shards_; }
  [[nodiscard]] std::int32_t shard_of(topo::DeviceId dev) const {
    return shard_of_.empty() ? 0 : shard_of_[static_cast<std::size_t>(dev)];
  }
  /// Scheduler that runs `dev`'s events (the serial scheduler when the
  /// fabric is not sharded).
  [[nodiscard]] core::Scheduler& sched_for(topo::DeviceId dev) {
    return shard_scheds_.empty() ? *sched_ : *shard_scheds_[static_cast<std::size_t>(shard_of(dev))];
  }
  /// Arena that owns packets created or buffered at `dev`.
  [[nodiscard]] ib::PacketArena& arena_for(topo::DeviceId dev) {
    return shard_arenas_.empty() ? arena_ : *shard_arenas_[static_cast<std::size_t>(shard_of(dev))];
  }
  /// Latency histogram of `dev`'s shard: the HCAs of that shard add each
  /// data packet they drain to it, so only that shard's worker writes it.
  [[nodiscard]] core::Histogram& latency_for(topo::DeviceId dev) {
    return latency_us_[static_cast<std::size_t>(shard_of(dev))];
  }
  /// Arena for packets injected by end node `node` (traffic generators).
  [[nodiscard]] ib::PacketArena& arena_for_node(ib::NodeId node) {
    return arena_for(topo_->hca_device(node));
  }
  [[nodiscard]] const FabricParams& params() const { return params_; }
  [[nodiscard]] const cc::CcManager& cc_manager() const { return *ccm_; }
  [[nodiscard]] const topo::Topology& topology() const { return *topo_; }
  [[nodiscard]] const topo::RoutingTables& routing() const { return *routing_; }

  /// Event-handler of any device (for cross-device event scheduling).
  [[nodiscard]] core::EventHandler* handler(topo::DeviceId dev) {
    return handlers_[static_cast<std::size_t>(dev)];
  }

  /// Schedule the flow-control credit refund for a packet that leaves the
  /// input buffer of (`dev`, `in_port`) at `tail_time`, addressed to the
  /// upstream sender's output port. `sched` is the scheduler of `dev`'s
  /// shard; when the upstream port lives in another shard the refund is
  /// deposited in that shard's mailbox instead of scheduled directly.
  void schedule_credit_return(core::Scheduler& sched, topo::DeviceId dev, std::int32_t in_port,
                              ib::Vl vl, std::int32_t bytes, core::Time tail_time);

  /// Deliver packet `h` (owned by `from_dev`'s arena) to (`to_dev`,
  /// `to_port`) at time `arrive`. Same shard: a plain kEvPacketArrive on
  /// `sched`, bit-identical to scheduling it directly. Cross-shard: the
  /// packet is copied into the destination shard's mailbox and the local
  /// handle released — after this call `h` must not be touched.
  void send_packet(core::Scheduler& sched, topo::DeviceId from_dev, core::Time arrive,
                   topo::DeviceId to_dev, std::int32_t to_port, ib::PacketHandle h);

  /// Drain every mailbox addressed to `dst_shard` into that shard's
  /// scheduler, in ascending source-shard order (the deterministic merge
  /// order — see DESIGN.md §15). Called at window barriers by the owner
  /// of `dst_shard` only; touches no other shard's state.
  void drain_mailboxes_into(std::int32_t dst_shard);

  /// Cross-shard traffic since construction (mailbox deposits).
  [[nodiscard]] std::uint64_t crossed_packets() const;
  [[nodiscard]] std::uint64_t crossed_credits() const;

  /// Start all HCA injectors.
  void start(core::Scheduler& sched);

  /// Install observability fabric-wide, once: register the fabric-wide
  /// counters and gauges, publish the CC configuration, in detailed mode
  /// register every device's instruments, name the trace tracks, and hand
  /// every device the tracer. Devices never write the registry; they
  /// keep their own counts, which refresh_gauges reads. Observation-only —
  /// attaching telemetry never changes simulated behaviour.
  void attach_telemetry(telemetry::Telemetry& telemetry);

  /// Set every registered instrument from current device state: the
  /// fabric-wide counts and gauges, and in detailed mode each device's.
  /// Called by the CSV sampler and before counter snapshots, never from a
  /// device handler; a no-op when telemetry is not attached.
  void refresh_gauges();

  /// Override the data rate of one direction of a link (the output port
  /// (dev, port) serializes and paces at `gbps` from now on). Models
  /// link frequency/voltage scaling — one of the congestion causes the
  /// paper's introduction lists. Call before or during a run.
  void set_link_rate(topo::DeviceId dev, std::int32_t port, double gbps);

  // Fabric-wide statistics.
  [[nodiscard]] std::uint64_t total_fecn_marked() const;
  [[nodiscard]] std::uint64_t total_becn_received() const;
  [[nodiscard]] std::uint64_t total_cnps_sent() const;
  [[nodiscard]] std::int64_t total_injected_bytes() const;
  [[nodiscard]] std::int64_t total_delivered_bytes() const;
  /// Packets handed to sinks across every HCA (lifetime of the run).
  [[nodiscard]] std::uint64_t total_delivered_packets() const;

  /// End-to-end latency in microseconds, injection to drain, of every
  /// data packet the HCAs drained since the last reset_latency: each
  /// shard's histogram folded in shard order. Call only while no shard
  /// worker runs, as for reset_latency.
  [[nodiscard]] core::Histogram latency_us() const;
  /// Empty every shard's latency histogram (a measurement window opens).
  void reset_latency();

 private:
  Fabric(const topo::Topology& topo, const topo::RoutingTables& routing,
         const FabricParams& params, const cc::CcManager& ccm, core::Scheduler* sched,
         const ShardLayout* layout);

  void wire_output(OutputPort& op, PortVlBank& bank, std::int32_t port, topo::PortRef peer,
                   bool from_hca);

  /// The OutputPort object behind (dev, port), switch or HCA.
  [[nodiscard]] OutputPort& output_port_at(topo::DeviceId dev, std::int32_t port);

  /// A boundary crossing parked until the next window barrier. Packets
  /// travel by value — the handle is released in the source arena and
  /// re-allocated in the destination arena at drain time.
  struct PacketMsg {
    core::Time at;
    topo::DeviceId dst_dev;
    std::int32_t dst_port;
    ib::Packet pkt;
  };
  struct CreditMsg {
    core::Time at;
    topo::DeviceId dev;  // upstream device whose output port is refunded
    std::int32_t port;
    ib::Vl vl;
    std::int32_t bytes;
  };
  /// SPSC by protocol: mailbox (src, dst) is written only by src's owner
  /// thread during a window and read only by dst's owner at the barrier.
  struct Mailbox {
    std::vector<PacketMsg> packets;
    std::vector<CreditMsg> credits;
  };

  std::int32_t n_shards_ = 1;
  std::vector<std::int32_t> shard_of_;              // empty when serial
  std::vector<core::Scheduler*> shard_scheds_;      // empty when serial
  std::vector<std::unique_ptr<ib::PacketArena>> shard_arenas_;
  std::vector<Mailbox> mail_;                       // indexed src * n_shards_ + dst
  struct ShardTraffic {
    std::uint64_t packets = 0;
    std::uint64_t credits = 0;
  };
  std::vector<ShardTraffic> crossings_;             // per source shard
  /// One latency histogram per shard (one when serial), sized before the
  /// HCAs cache pointers into it and never resized.
  std::vector<core::Histogram> latency_us_;

  const topo::Topology* topo_;
  const topo::RoutingTables* routing_;
  FabricParams params_;
  const cc::CcManager* ccm_;
  core::Scheduler* sched_;

  ib::PacketArena arena_;
  std::vector<std::unique_ptr<SwitchDevice>> switches_;
  std::vector<std::unique_ptr<Hca>> hcas_;
  std::vector<core::EventHandler*> handlers_;

  // Telemetry (null when not attached).
  telemetry::Telemetry* telemetry_ = nullptr;
  /// The fabric-wide instruments, in fabric.cpp's kFabricInstruments order.
  std::array<telemetry::CounterRegistry::Handle, 10> instruments_{};
};

}  // namespace ibsim::fabric
