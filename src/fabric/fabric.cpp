#include "fabric/fabric.hpp"

#include <cmath>
#include <string>
#include <utility>

#include "fabric/events.hpp"

namespace ibsim::fabric {

namespace {
/// The fabric-wide instruments in registration order: seven counters,
/// then three gauges (the live size of every congestion tree, and the
/// throttled flows and their CCTI mass).
constexpr std::array<const char*, 10> kFabricInstruments = {
    "fabric.fecn_marked",     "fabric.becn_sent",      "fabric.becn_delivered",
    "fabric.throttle_events", "fabric.credit_stalls",  "fabric.credit_stall_ps",
    "fabric.arb_grants",      "fabric.queued_bytes",   "fabric.active_cc_flows",
    "fabric.ccti_sum"};
constexpr std::size_t kFirstGauge = 7;
}  // namespace

std::string check_rate(const char* name, double gbps) {
  // 2^63 ps is the first value past core::Time; NaN fails every compare.
  if (std::isfinite(gbps) && gbps > 0.0 &&
      static_cast<double>(ib::kMtuBytes) * 8000.0 / gbps < 0x1p63) {
    return {};
  }
  return std::string(name) + " must be a finite, positive rate at which an MTU's transmit " +
         "time fits the simulation clock";
}

std::string FabricParams::validate() const {
  for (const auto& [name, gbps] : {std::pair{"wire_gbps", wire_gbps},
                                   std::pair{"hca_inject_gbps", hca_inject_gbps},
                                   std::pair{"hca_drain_gbps", hca_drain_gbps}}) {
    if (std::string err = check_rate(name, gbps); !err.empty()) return err;
  }
  if (hca_inject_gbps > wire_gbps) return "injection pacing cannot exceed the wire rate";
  if (n_vls != 1 && n_vls != 2) {
    return "n_vls must be 1 (CNPs share VL0) or 2 (CNPs on VL1), not " + std::to_string(n_vls);
  }
  if (switch_ibuf_data_bytes < ib::kMtuBytes || hca_ibuf_data_bytes < ib::kMtuBytes)
    return "data VL buffers must hold at least one MTU packet";
  if (n_vls == 2 &&
      (switch_ibuf_cnp_bytes < ib::kCnpBytes || hca_ibuf_cnp_bytes < ib::kCnpBytes))
    return "CNP VL buffers must hold at least one CNP";
  return {};
}

Fabric::Fabric(const topo::Topology& topo, const topo::RoutingTables& routing,
               const FabricParams& params, const cc::CcManager& ccm, core::Scheduler& sched)
    : Fabric(topo, routing, params, ccm, &sched, nullptr) {}

Fabric::Fabric(const topo::Topology& topo, const topo::RoutingTables& routing,
               const FabricParams& params, const cc::CcManager& ccm, const ShardLayout& layout)
    : Fabric(topo, routing, params, ccm, nullptr, &layout) {}

Fabric::Fabric(const topo::Topology& topo, const topo::RoutingTables& routing,
               const FabricParams& params, const cc::CcManager& ccm, core::Scheduler* sched,
               const ShardLayout* layout)
    : topo_(&topo), routing_(&routing), params_(params), ccm_(&ccm), sched_(sched) {
  const std::string err = params_.validate();
  IBSIM_ASSERT(err.empty(), err.c_str());
  const std::string topo_err = topo.validate();
  IBSIM_ASSERT(topo_err.empty(), topo_err.c_str());

  if (layout != nullptr) {
    IBSIM_ASSERT(layout->shard_of_device != nullptr &&
                     layout->shard_of_device->size() ==
                         static_cast<std::size_t>(topo.device_count()),
                 "shard layout must cover every device");
    shard_of_ = *layout->shard_of_device;
    shard_scheds_ = layout->scheds;
    n_shards_ = static_cast<std::int32_t>(shard_scheds_.size());
    IBSIM_ASSERT(n_shards_ >= 1, "shard layout needs at least one scheduler");
    sched_ = shard_scheds_.front();
    mail_.resize(static_cast<std::size_t>(n_shards_) * static_cast<std::size_t>(n_shards_));
    crossings_.resize(static_cast<std::size_t>(n_shards_));
    for (std::int32_t s = 0; s < n_shards_; ++s) {
      shard_arenas_.push_back(std::make_unique<ib::PacketArena>());
    }
    // The HCA<->leaf loop (grant, sink credit refund, CNP emission) is
    // latency-critical and assumed shard-local everywhere; the planner
    // guarantees it, the engine depends on it.
    for (ib::NodeId node = 0; node < topo.node_count(); ++node) {
      const topo::DeviceId hca = topo.hca_device(node);
      const topo::PortRef up = topo.peer(topo::PortRef{hca, 0});
      IBSIM_ASSERT(up.valid() && shard_of(hca) == shard_of(up.device),
                   "HCA must share a shard with its leaf switch");
    }
  }

  handlers_.resize(static_cast<std::size_t>(topo.device_count()), nullptr);
  switches_.reserve(topo.switches().size());
  hcas_.reserve(static_cast<std::size_t>(topo.node_count()));
  for (topo::DeviceId dev = 0; dev < topo.device_count(); ++dev) {
    if (topo.kind(dev) == topo::DeviceKind::Switch) {
      switches_.push_back(std::make_unique<SwitchDevice>(this, dev, topo.port_count(dev)));
      handlers_[static_cast<std::size_t>(dev)] = switches_.back().get();
    } else {
      const ib::NodeId node = topo.node_of(dev);
      IBSIM_ASSERT(node == static_cast<ib::NodeId>(hcas_.size()),
                   "HCA creation order must match NodeId order");
      hcas_.push_back(std::make_unique<Hca>(this, dev, node, topo.node_count(), ccm));
      handlers_[static_cast<std::size_t>(dev)] = hcas_.back().get();
    }
  }

  for (auto& sw : switches_) {
    for (std::int32_t p = 0; p < sw->n_ports(); ++p) {
      const topo::PortRef peer = topo.peer(topo::PortRef{sw->device_id(), p});
      if (!peer.valid()) continue;
      wire_output(sw->output(p), sw->bank(), p, peer, /*from_hca=*/false);
    }
  }
  for (auto& h : hcas_) {
    const topo::PortRef peer = topo.peer(topo::PortRef{h->device_id(), 0});
    IBSIM_ASSERT(peer.valid(), "HCA must be cabled");
    wire_output(h->out_, h->bank(), 0, peer, /*from_hca=*/true);
  }
}

void Fabric::wire_output(OutputPort& op, PortVlBank& bank, std::int32_t port,
                         topo::PortRef peer, bool from_hca) {
  const std::int32_t n_vls = params_.n_vls;
  op.peer_dev = peer.device;
  op.peer_port = peer.port;
  op.peer_is_hca = topo_->kind(peer.device) == topo::DeviceKind::Hca;
  op.connected = true;
  op.wire_gbps = params_.wire_gbps;
  op.pace_gbps = from_hca ? params_.hca_inject_gbps : params_.wire_gbps;
  op.prop_delay = params_.link_delay;
  op.rx_pipeline_delay = op.peer_is_hca ? params_.hca_rx_delay : params_.switch_delay;

  for (std::int32_t vl = 0; vl < n_vls; ++vl) {
    const auto v = static_cast<ib::Vl>(vl);
    bank.credit(port, v).initialize(params_.vl_capacity(v, op.peer_is_hca));
    if (!from_hca) {
      // Only switches detect congestion and mark FECN. The threshold is
      // referenced to the switch input-buffer VL capacity; the Victim
      // Mask is applied to ports that face HCAs (endpoint congestion
      // roots there and an HCA never detects congestion itself).
      const bool victim_mask = op.peer_is_hca && ccm_->params().victim_mask_hca_ports;
      bank.cc(port, v).configure(ccm_->params(),
                                 ccm_->threshold_bytes(params_.vl_capacity(v, /*hca=*/false)),
                                 victim_mask);
    }
  }
}

void Fabric::schedule_credit_return(core::Scheduler& sched, topo::DeviceId dev,
                                    std::int32_t in_port, ib::Vl vl, std::int32_t bytes,
                                    core::Time tail_time) {
  const topo::PortRef upstream = topo_->peer(topo::PortRef{dev, in_port});
  IBSIM_ASSERT(upstream.valid(), "credit return towards an uncabled port");
  const core::Time at = tail_time + params_.link_delay + params_.credit_delay;
  const std::int32_t shard = shard_of(dev);
  if (!shard_of_.empty() && shard != shard_of(upstream.device)) {
    // Refund crosses the cut: park it in the upstream shard's mailbox.
    mail_[static_cast<std::size_t>(shard) * static_cast<std::size_t>(n_shards_) +
          static_cast<std::size_t>(shard_of(upstream.device))]
        .credits.push_back({at, upstream.device, upstream.port, vl, bytes});
    ++crossings_[static_cast<std::size_t>(shard)].credits;
    return;
  }
  sched.schedule_at(at, handlers_[static_cast<std::size_t>(upstream.device)], kEvCreditUpdate,
                    pack_credit(vl, bytes), static_cast<std::uint16_t>(upstream.port));
}

void Fabric::send_packet(core::Scheduler& sched, topo::DeviceId from_dev, core::Time arrive,
                         topo::DeviceId to_dev, std::int32_t to_port, ib::PacketHandle h) {
  const std::int32_t src = shard_of(from_dev);
  const std::int32_t dst = shard_of(to_dev);
  if (src == dst) {
    sched.schedule_at(arrive, handlers_[static_cast<std::size_t>(to_dev)], kEvPacketArrive, h,
                      static_cast<std::uint16_t>(to_port));
    return;
  }
  ib::PacketArena& arena = *shard_arenas_[static_cast<std::size_t>(src)];
  Mailbox& mb = mail_[static_cast<std::size_t>(src) * static_cast<std::size_t>(n_shards_) +
                      static_cast<std::size_t>(dst)];
  mb.packets.push_back({arrive, to_dev, to_port, arena.get(h)});
  // The copy dragged the freelist link along; sever it so the message
  // holds a standalone packet.
  mb.packets.back().pkt.next = ib::kNullPacket;
  arena.release(h);
  ++crossings_[static_cast<std::size_t>(src)].packets;
}

void Fabric::drain_mailboxes_into(std::int32_t dst_shard) {
  core::Scheduler& sched = *shard_scheds_[static_cast<std::size_t>(dst_shard)];
  ib::PacketArena& arena = *shard_arenas_[static_cast<std::size_t>(dst_shard)];
  for (std::int32_t src = 0; src < n_shards_; ++src) {
    Mailbox& mb = mail_[static_cast<std::size_t>(src) * static_cast<std::size_t>(n_shards_) +
                        static_cast<std::size_t>(dst_shard)];
    // Credits before packets within one source: both orders are valid
    // interleavings, but one must be fixed for run-to-run determinism.
    for (const CreditMsg& m : mb.credits) {
      sched.schedule_at(m.at, handlers_[static_cast<std::size_t>(m.dev)], kEvCreditUpdate,
                        pack_credit(m.vl, m.bytes), static_cast<std::uint16_t>(m.port));
      sched.note_external_event();
    }
    mb.credits.clear();
    for (const PacketMsg& m : mb.packets) {
      const ib::PacketHandle h = arena.allocate();
      ib::Packet& pkt = arena.get(h);
      pkt = m.pkt;  // keeps the source-assigned packet id (trace-only)
      pkt.next = ib::kNullPacket;
      sched.schedule_at(m.at, handlers_[static_cast<std::size_t>(m.dst_dev)], kEvPacketArrive, h,
                        static_cast<std::uint16_t>(m.dst_port));
      sched.note_external_event();
    }
    mb.packets.clear();
  }
}

std::uint64_t Fabric::crossed_packets() const {
  std::uint64_t total = 0;
  for (const ShardTraffic& t : crossings_) total += t.packets;
  return total;
}

std::uint64_t Fabric::crossed_credits() const {
  std::uint64_t total = 0;
  for (const ShardTraffic& t : crossings_) total += t.credits;
  return total;
}

OutputPort& Fabric::output_port_at(topo::DeviceId dev, std::int32_t port) {
  core::EventHandler* handler = handlers_[static_cast<std::size_t>(dev)];
  IBSIM_ASSERT(handler != nullptr, "unknown device");
  if (topo_->kind(dev) == topo::DeviceKind::Switch) {
    return static_cast<SwitchDevice*>(handler)->output(port);
  }
  IBSIM_ASSERT(port == 0, "HCAs have a single port");
  return static_cast<Hca*>(handler)->out();
}

void Fabric::start(core::Scheduler& sched) {
  if (shard_scheds_.empty()) {
    for (auto& h : hcas_) h->start(sched);
    return;
  }
  // Sharded: every HCA's first-injection poll belongs on its own shard's
  // queue. The caller's scheduler only runs global (fabric-agnostic)
  // events.
  for (auto& h : hcas_) h->start(sched_for(h->device_id()));
}

void Fabric::attach_telemetry(telemetry::Telemetry& telemetry) {
  IBSIM_ASSERT(telemetry_ == nullptr, "telemetry is attached once");
  telemetry_ = &telemetry;
  telemetry::CounterRegistry& reg = telemetry.registry();
  static_assert(std::tuple_size_v<decltype(instruments_)> == kFabricInstruments.size());
  for (std::size_t i = 0; i < kFabricInstruments.size(); ++i) {
    instruments_[i] = i < kFirstGauge ? reg.counter(kFabricInstruments[i])
                                      : reg.gauge(kFabricInstruments[i]);
  }
  ccm_->publish(reg);
  if (telemetry.detailed()) {
    for (auto& sw : switches_) sw->register_detailed(reg);
    for (auto& h : hcas_) h->register_detailed(reg);
  }
  telemetry::Tracer* tracer = telemetry.tracer();
  // Track names exist only for the trace exporter; counter-only runs
  // skip the O(devices) string construction entirely.
  if (tracer == nullptr) return;
  for (auto& sw : switches_) {
    telemetry.set_track_name(sw->device_id(), "switch " + std::to_string(sw->device_id()));
    sw->set_tracer(tracer);
  }
  for (auto& h : hcas_) {
    telemetry.set_track_name(h->device_id(), "hca " + std::to_string(h->device_id()) +
                                                 " (node " + std::to_string(h->node()) + ")");
    h->set_tracer(tracer);
  }
}

void Fabric::refresh_gauges() {
  if (telemetry_ == nullptr) return;
  telemetry::CounterRegistry& reg = telemetry_->registry();
  std::int64_t marked = 0;
  std::int64_t stalls = 0;
  std::int64_t stall_ps = 0;
  std::int64_t grants = 0;
  std::int64_t queued = 0;
  for (const auto& sw : switches_) {
    marked += static_cast<std::int64_t>(sw->fecn_marked());
    grants += static_cast<std::int64_t>(sw->arb_grants());
    const PortVlBank& bank = sw->bank();
    for (std::int32_t p = 0; p < sw->n_ports(); ++p) {
      const OutputPort& op = sw->output(p);
      stalls += static_cast<std::int64_t>(op.stalls);
      stall_ps += op.stall_ps;
      if (!op.connected) continue;
      for (std::int32_t v = 0; v < bank.n_vls(); ++v) {
        queued += bank.cc(p, static_cast<ib::Vl>(v)).queued_bytes();
      }
    }
    sw->publish(reg);
  }
  std::int64_t cnps = 0;
  std::int64_t becns = 0;
  std::int64_t throttles = 0;
  std::int64_t active_flows = 0;
  std::int64_t ccti_sum = 0;
  for (const auto& h : hcas_) {
    const cc::CaCcAgent& agent = h->cc_agent();
    cnps += static_cast<std::int64_t>(agent.cnps_sent());
    becns += static_cast<std::int64_t>(agent.becn_received());
    throttles += static_cast<std::int64_t>(agent.throttle_events());
    active_flows += agent.active_flow_count();
    ccti_sum += agent.ccti_sum();
    h->publish(reg);
  }
  const std::array<std::int64_t, kFabricInstruments.size()> values = {
      marked, cnps, becns, throttles, stalls, stall_ps, grants, queued, active_flows, ccti_sum};
  for (std::size_t i = 0; i < values.size(); ++i) reg.set(instruments_[i], values[i]);
}

void Fabric::set_link_rate(topo::DeviceId dev, std::int32_t port, double gbps) {
  IBSIM_ASSERT(gbps > 0.0, "link rate must be positive");
  OutputPort& op = output_port_at(dev, port);
  IBSIM_ASSERT(op.connected, "cannot scale an uncabled port");
  // Keep the HCA injection bottleneck: pacing never exceeds the wire.
  op.wire_gbps = gbps;
  if (op.pace_gbps > gbps) op.pace_gbps = gbps;
}

std::uint64_t Fabric::total_fecn_marked() const {
  std::uint64_t total = 0;
  for (const auto& sw : switches_) total += sw->fecn_marked();
  return total;
}

std::uint64_t Fabric::total_becn_received() const {
  std::uint64_t total = 0;
  for (const auto& h : hcas_) total += h->cc_agent().becn_received();
  return total;
}

std::uint64_t Fabric::total_cnps_sent() const {
  std::uint64_t total = 0;
  for (const auto& h : hcas_) total += h->cc_agent().cnps_sent();
  return total;
}

std::int64_t Fabric::total_injected_bytes() const {
  std::int64_t total = 0;
  for (const auto& h : hcas_) total += h->injected_bytes();
  return total;
}

std::int64_t Fabric::total_delivered_bytes() const {
  std::int64_t total = 0;
  for (const auto& h : hcas_) total += h->delivered_bytes();
  return total;
}

std::uint64_t Fabric::total_delivered_packets() const {
  std::uint64_t total = 0;
  for (const auto& h : hcas_) total += h->delivered_packets();
  return total;
}

}  // namespace ibsim::fabric
