#include "fabric/fabric.hpp"

#include "fabric/events.hpp"

namespace ibsim::fabric {

std::string FabricParams::validate() const {
  if (wire_gbps <= 0 || hca_inject_gbps <= 0 || hca_drain_gbps <= 0)
    return "link rates must be positive";
  if (hca_inject_gbps > wire_gbps) return "injection pacing cannot exceed the wire rate";
  if (n_vls < 1 || n_vls > 15) return "n_vls must be in [1, 15]";
  if (switch_ibuf_data_bytes < ib::kMtuBytes || hca_ibuf_data_bytes < ib::kMtuBytes)
    return "data VL buffers must hold at least one MTU packet";
  if (cnp_on_own_vl && n_vls > 1 &&
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
  coal_.resize(static_cast<std::size_t>(n_shards_));

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
      const topo::PortRef self{sw->device_id(), p};
      const topo::PortRef peer = topo.peer(self);
      if (!peer.valid()) continue;
      wire_output(sw->output(p), sw->bank(), p, self, peer, /*from_hca=*/false);
    }
  }
  for (auto& h : hcas_) {
    const topo::PortRef self{h->device_id(), 0};
    const topo::PortRef peer = topo.peer(self);
    IBSIM_ASSERT(peer.valid(), "HCA must be cabled");
    wire_output(h->out_, h->bank(), 0, self, peer, /*from_hca=*/true);
  }
}

void Fabric::wire_output(OutputPort& op, PortVlBank& bank, std::int32_t port,
                         topo::PortRef self, topo::PortRef peer, bool from_hca) {
  const std::int32_t n_vls = params_.n_vls;
  op.peer_dev = peer.device;
  op.peer_port = peer.port;
  op.peer_is_hca = topo_->kind(peer.device) == topo::DeviceKind::Hca;
  op.connected = true;
  op.wire_gbps = params_.wire_gbps;
  op.pace_gbps = from_hca ? params_.hca_inject_gbps : params_.wire_gbps;
  op.prop_delay = params_.link_delay;
  op.rx_pipeline_delay = op.peer_is_hca ? params_.hca_rx_delay : params_.switch_delay;
  op.vlarb = VlArbiter::make_default(n_vls, params_.cnp_vl());

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
  (void)self;
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
    // The upstream port's pending_credit accumulator belongs to the
    // other shard, so no coalescing — the drain schedules a plain
    // self-contained credit event.
    mail_[static_cast<std::size_t>(shard) * static_cast<std::size_t>(n_shards_) +
          static_cast<std::size_t>(shard_of(upstream.device))]
        .credits.push_back({at, upstream.device, upstream.port, vl, bytes});
    ++crossings_[static_cast<std::size_t>(shard)].credits;
    return;
  }
  core::EventHandler* target = handlers_[static_cast<std::size_t>(upstream.device)];
  CoalesceCandidate& coal = coal_[static_cast<std::size_t>(shard)];
  if (params_.fast_path) {
    OutputPort& op = output_port_at(upstream.device, upstream.port);
    std::int32_t& pending = port_bank_at(upstream.device).pending_credit(upstream.port, vl);
    if (coal.dev == upstream.device && coal.port == upstream.port && coal.vl == vl &&
        coal.at == at && pending > 0 && !sched.watch_hit() && !op.idle(at)) {
      // Same destination, same refund instant, deferred event still in
      // flight, and nothing else scheduled at `at` since it was created:
      // ride the existing event. Burn the slot this event would have
      // taken so downstream sequence numbers are unchanged.
      //
      // The `!op.idle(at)` leg makes the merge invisible: the reference
      // path refunds in two steps and arbitrates after each, so a grant
      // (or FECN-threshold read) at `at` between the halves would see
      // only the first refund. A port busy strictly past `at` cannot
      // grant there in either mode (busy_until never moves backwards),
      // so folding the second refund into the first changes nothing any
      // event at `at` can observe.
      pending += bytes;
      (void)sched.reserve_seq();
      return;
    }
    if (pending == 0) {
      // Open a fresh deferred return and make it the merge candidate.
      pending = bytes;
      (void)sched.schedule_at(at, target, kEvCreditUpdate, pack_credit_deferred(vl),
                              static_cast<std::uint64_t>(upstream.port));
      coal = {upstream.device, upstream.port, vl, at};
      sched.arm_watch(at);
      return;
    }
    // A deferred event for this (port, vl) is outstanding at another
    // timestamp: fall through to a plain self-contained event rather
    // than risk double-draining the accumulator. Costs one event — the
    // fast path's failure mode is always less coalescing, never a
    // behavioural difference.
  }
  sched.schedule_at(at, target, kEvCreditUpdate, pack_credit(vl, bytes),
                    static_cast<std::uint64_t>(upstream.port));
}

void Fabric::send_packet(core::Scheduler& sched, topo::DeviceId from_dev, core::Time arrive,
                         topo::DeviceId to_dev, std::int32_t to_port, ib::PacketHandle h) {
  const std::int32_t src = shard_of(from_dev);
  const std::int32_t dst = shard_of(to_dev);
  if (src == dst) {
    sched.schedule_at(arrive, handlers_[static_cast<std::size_t>(to_dev)], kEvPacketArrive, h,
                      static_cast<std::uint64_t>(to_port));
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
                        pack_credit(m.vl, m.bytes), static_cast<std::uint64_t>(m.port));
      sched.note_external_event();
    }
    mb.credits.clear();
    for (const PacketMsg& m : mb.packets) {
      const ib::PacketHandle h = arena.allocate();
      ib::Packet& pkt = arena.get(h);
      pkt = m.pkt;  // keeps the source-assigned packet id (trace-only)
      pkt.next = ib::kNullPacket;
      sched.schedule_at(m.at, handlers_[static_cast<std::size_t>(m.dst_dev)], kEvPacketArrive, h,
                        static_cast<std::uint64_t>(m.dst_port));
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
  if (topo_->kind(dev) == topo::DeviceKind::Switch) {
    return static_cast<SwitchDevice*>(handler)->output(port);
  }
  IBSIM_ASSERT(port == 0, "HCAs have a single port");
  return static_cast<Hca*>(handler)->out();
}

PortVlBank& Fabric::port_bank_at(topo::DeviceId dev) {
  core::EventHandler* handler = handlers_[static_cast<std::size_t>(dev)];
  if (topo_->kind(dev) == topo::DeviceKind::Switch) {
    return static_cast<SwitchDevice*>(handler)->bank();
  }
  return static_cast<Hca*>(handler)->bank();
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

void Fabric::attach_telemetry(telemetry::Telemetry* telemetry) {
  telemetry_ = telemetry;
  FabricCounters counters;  // all handles invalid when detaching
  if (telemetry_ != nullptr) {
    telemetry::CounterRegistry& reg = telemetry_->registry();
    counters.fecn_marked = reg.counter("fabric.fecn_marked");
    counters.becn_sent = reg.counter("fabric.becn_sent");
    counters.becn_delivered = reg.counter("fabric.becn_delivered");
    counters.throttle_events = reg.counter("fabric.throttle_events");
    counters.credit_stalls = reg.counter("fabric.credit_stalls");
    counters.credit_stall_ps = reg.counter("fabric.credit_stall_ps");
    counters.arb_grants = reg.counter("fabric.arb_grants");
    g_queued_bytes_ = reg.gauge("fabric.queued_bytes");
    g_active_cc_flows_ = reg.gauge("fabric.active_cc_flows");
    g_ccti_sum_ = reg.gauge("fabric.ccti_sum");
    ccm_->publish(reg);
    // Track names exist only for the trace exporter; counter-only runs
    // skip the O(devices) string construction entirely.
    if (telemetry_->tracer() != nullptr) {
      for (const auto& sw : switches_) {
        telemetry_->set_track_name(sw->device_id(),
                                   "switch " + std::to_string(sw->device_id()));
      }
      for (const auto& h : hcas_) {
        telemetry_->set_track_name(h->device_id(), "hca " + std::to_string(h->device_id()) +
                                                       " (node " + std::to_string(h->node()) +
                                                       ")");
      }
    }
  }
  for (auto& sw : switches_) sw->attach_telemetry(telemetry_, counters);
  for (auto& h : hcas_) h->attach_telemetry(telemetry_, counters);
}

void Fabric::refresh_gauges() {
  if (telemetry_ == nullptr) return;
  telemetry::CounterRegistry& reg = telemetry_->registry();
  reg.set(g_queued_bytes_, total_queued_bytes());
  reg.set(g_active_cc_flows_, total_active_cc_flows());
  reg.set(g_ccti_sum_, total_ccti_sum());
}

void Fabric::set_link_rate(topo::DeviceId dev, std::int32_t port, double gbps) {
  IBSIM_ASSERT(gbps > 0.0, "link rate must be positive");
  core::EventHandler* handler = handlers_[static_cast<std::size_t>(dev)];
  IBSIM_ASSERT(handler != nullptr, "unknown device");
  OutputPort* op = nullptr;
  if (topo_->kind(dev) == topo::DeviceKind::Switch) {
    op = &static_cast<SwitchDevice*>(handler)->output(port);
  } else {
    IBSIM_ASSERT(port == 0, "HCAs have a single port");
    op = &static_cast<Hca*>(handler)->out();
  }
  IBSIM_ASSERT(op->connected, "cannot scale an uncabled port");
  // Keep the HCA injection bottleneck: pacing never exceeds the wire.
  op->wire_gbps = gbps;
  if (op->pace_gbps > gbps) op->pace_gbps = gbps;
}

std::uint64_t Fabric::total_fecn_marked() const {
  std::uint64_t total = 0;
  for (const auto& sw : switches_) total += sw->fecn_marked();
  return total;
}

std::int64_t Fabric::total_queued_bytes() const {
  std::int64_t total = 0;
  for (const auto& sw : switches_) {
    const PortVlBank& bank = sw->bank();
    for (std::int32_t p = 0; p < sw->n_ports(); ++p) {
      if (!sw->output(p).connected) continue;
      for (std::int32_t v = 0; v < bank.n_vls(); ++v) {
        total += bank.cc(p, static_cast<ib::Vl>(v)).queued_bytes();
      }
    }
  }
  return total;
}

std::int32_t Fabric::total_active_cc_flows() const {
  std::int32_t total = 0;
  for (const auto& h : hcas_) total += h->cc_agent().active_flow_count();
  return total;
}

std::int64_t Fabric::total_ccti_sum() const {
  std::int64_t total = 0;
  for (const auto& h : hcas_) total += h->cc_agent().ccti_sum();
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
