#include "fabric/hca.hpp"

#include <string>

#include "fabric/events.hpp"
#include "fabric/fabric.hpp"

namespace ibsim::fabric {

Hca::Hca(Fabric* fabric, topo::DeviceId dev, ib::NodeId node, std::int32_t n_nodes,
         const cc::CcManager& ccm)
    : fabric_(fabric), dev_(dev), node_(node), fast_path_(fabric->params().fast_path),
      arena_(&fabric->arena_for(dev)), home_sched_(&fabric->sched_for(dev)) {
  const FabricParams& p = fabric_->params();
  drain_gbps_ = p.hca_drain_gbps;
  rx_.resize(static_cast<std::size_t>(p.n_vls));
  bank_.init(/*n_ports=*/1, p.n_vls, /*with_cc=*/false);
  // The CC agent's IRD timers must tick on this HCA's shard scheduler.
  cc_agent_ = std::make_unique<cc::CaCcAgent>(node, n_nodes, ccm.params(),
                                              ccm.enabled() ? &ccm.cct() : nullptr,
                                              home_sched_, this, ccm.algo());
}

void Hca::start(core::Scheduler& sched) { try_inject(sched); }

void Hca::on_event(core::Scheduler& sched, const core::Event& ev) {
  switch (ev.kind) {
    case kEvPacketArrive:
      receive(sched, static_cast<ib::PacketHandle>(ev.a));
      break;
    case kEvLinkFree:
      if (fast_path_) {
        // Same live-wakeup discipline as the switch: a superseded
        // wakeup would only run try_inject against a busy port, so it
        // is dropped instead.
        if (out_.wake != WakeState::kScheduled || ev.seq != out_.wake_seq) break;
        out_.wake = WakeState::kNone;
      }
      try_inject(sched);
      break;
    case kEvCreditUpdate: {
      const ib::Vl vl = credit_vl(ev.a);
      if (credit_is_deferred(ev.a)) {
        std::int32_t& pending = bank_.pending_credit(0, vl);
        bank_.credit(0, vl).refund(pending);
        pending = 0;
      } else {
        bank_.credit(0, vl).refund(credit_bytes(ev.a));
      }
      // While the port is pacing out a packet, try_inject could not
      // grant; and an elided wakeup implies nothing is waiting to go
      // out (credits never create work), so skip the attempt.
      if (fast_path_ && !out_.idle(sched.now())) break;
      try_inject(sched);
      break;
    }
    case kEvSinkFree:
      finish_drain(sched);
      break;
    case kEvRetryInject:
      if (ev.at >= retry_at_) retry_at_ = core::kTimeNever;
      try_inject(sched);
      break;
    default:
      IBSIM_ASSERT(false, "HCA received an unknown event kind");
  }
}

void Hca::send_cnp(ib::NodeId to, ib::NodeId flow_dst) {
  ib::PacketArena& arena = *arena_;
  const ib::PacketHandle h = arena.allocate();
  ib::Packet& cnp = arena.get(h);
  cnp.src = node_;
  cnp.dst = to;
  cnp.bytes = ib::kCnpBytes;
  cnp.vl = fabric_->params().cnp_vl();
  cnp.is_cnp = true;
  cnp.becn = true;
  cnp.flow_dst = flow_dst;
  const ib::Vl cnp_vl = cnp.vl;
  cnp_queue_.push_back(arena, h);
  if (registry_ != nullptr) {
    registry_->inc(counters_.becn_sent);
    if (tracer_ != nullptr) {
      tracer_->record(telemetry::Category::kCc, telemetry::EventKind::kBecnSent,
                      home_sched_->now(), dev_, /*port=*/0, cnp_vl,
                      /*value=*/to, /*aux=*/flow_dst);
    }
  }
  try_inject(*home_sched_);
}

void Hca::attach_telemetry(telemetry::Telemetry* telemetry, const FabricCounters& counters) {
  counters_ = counters;
  if (telemetry == nullptr) {
    tracer_ = nullptr;
    registry_ = nullptr;
    cc_agent_->set_telemetry({});
    return;
  }
  tracer_ = telemetry->tracer();
  registry_ = &telemetry->registry();

  cc::CaCcTelemetry hooks;
  hooks.tracer = tracer_;
  hooks.registry = registry_;
  hooks.trace_dev = dev_;
  hooks.throttle_events = counters_.throttle_events;
  hooks.becn_delivered = counters_.becn_delivered;
  if (telemetry->detailed()) {
    hooks.ccti_gauge =
        registry_->gauge("hca." + std::to_string(node_) + ".cc.ccti");
  }
  cc_agent_->set_telemetry(hooks);
}

void Hca::try_inject(core::Scheduler& sched) {
  const core::Time now = sched.now();
  if (fast_path_ && out_.wake == WakeState::kElided) {
    if (now < out_.busy_until ||
        (now == out_.busy_until && out_.wake_seq > sched.current_seq())) {
      // New work surfaced (a CNP, a nudge) while the port's wakeup was
      // elided and its slot is still ahead: materialize it so injection
      // resumes exactly where the slow path's eager event would have.
      sched.schedule_at_reserved(out_.busy_until, out_.wake_seq, this, kEvLinkFree, 0, 0);
      out_.wake = WakeState::kScheduled;
      if (now < out_.busy_until) return;
    } else {
      // Slot passed. The elided wakeup was a guaranteed no-op — it was
      // only elided with no CNPs queued, no staged packet and no source
      // to poll — so, as on the switch, it is simply forgotten
      // (DESIGN.md §11).
      out_.wake = WakeState::kNone;
    }
  }
  if (!out_.idle(now)) return;  // the pending LinkFree event will re-enter

  ib::PacketArena& arena = *arena_;

  // Congestion notifications go out ahead of data ("as soon as
  // possible", section II.2): their VL has strict priority and a
  // separate credit pool.
  if (!cnp_queue_.empty()) {
    const ib::Packet& cnp = arena.get(cnp_queue_.front());
    if (bank_.credit(0, cnp.vl).can_send(cnp.bytes)) {
      grant(sched, cnp_queue_.pop_front(arena));
      return;
    }
    // CNP blocked on its VL credits; data below may still proceed.
  }

  if (staged_ == ib::kNullPacket && source_ != nullptr) {
    TrafficSource::Poll res = source_->poll(now);
    staged_ = res.pkt;
    if (staged_ == ib::kNullPacket) {
      maybe_schedule_retry(sched, res.retry_at);
      return;
    }
    IBSIM_ASSERT(arena.get(staged_).src == node_, "source produced a packet for another node");
  }
  if (staged_ == ib::kNullPacket) return;
  const ib::Packet& staged = arena.get(staged_);
  if (!bank_.credit(0, staged.vl).can_send(staged.bytes)) return;  // wait for credits

  const ib::PacketHandle h = staged_;
  staged_ = ib::kNullPacket;
  grant(sched, h);
}

void Hca::grant(core::Scheduler& sched, ib::PacketHandle h) {
  const core::Time now = sched.now();
  ib::Packet& pkt = arena_->get(h);
  bank_.credit(0, pkt.vl).consume(pkt.bytes);
  // Pacing below wire speed models the PCIe injection bottleneck: the
  // port stays "busy" for the paced interval even though the wire
  // serializes faster.
  out_.busy_until = now + out_.pace_time(pkt.bytes);
  pkt.injected_at = now;
  injected_bytes_ += pkt.bytes;
  ++injected_packets_;

  // Hoisted before the send: a cross-shard send_packet releases `h`.
  // (HCA uplinks are always shard-local by the partition invariant, but
  // the rule is cheap and uniform.)
  const bool is_cnp = pkt.is_cnp;
  const ib::NodeId pkt_dst = pkt.dst;
  const std::int32_t pkt_bytes = pkt.bytes;

  core::Time arrive = now + out_.prop_delay + out_.rx_pipeline_delay;
  if (!fabric_->params().cut_through) arrive += out_.ser_time(pkt_bytes);
  fabric_->send_packet(sched, dev_, arrive, out_.peer_dev, out_.peer_port, h);
  if (!fast_path_) {
    sched.schedule_at(out_.busy_until, this, kEvLinkFree, 0, 0);
  } else if (!cnp_queue_.empty() || staged_ != ib::kNullPacket || source_ != nullptr) {
    // More to send — or a source whose poll() must run at the wakeup
    // (polling mutates generator state, so it cannot be deferred):
    // schedule eagerly, slow-path style.
    out_.wake = WakeState::kScheduled;
    out_.wake_seq = sched.schedule_at(out_.busy_until, this, kEvLinkFree, 0, 0);
  } else {
    // Source-less node (pure receiver answering with CNPs) with nothing
    // queued: elide the wakeup, burning its sequence slot.
    out_.wake = WakeState::kElided;
    out_.wake_seq = sched.reserve_seq();
  }

  if (!is_cnp) {
    // The injection-rate delay for this flow's next packet starts when
    // this one finishes.
    cc_agent_->on_data_granted(pkt_dst, pkt_bytes, out_.busy_until);
  }
}

void Hca::maybe_schedule_retry(core::Scheduler& sched, core::Time at) {
  if (at == core::kTimeNever) return;
  if (at <= sched.now()) at = sched.now() + 1;
  if (retry_at_ <= at) return;  // an earlier (or equal) retry is pending
  retry_at_ = at;
  sched.schedule_at(at, this, kEvRetryInject, 0, 0);
}

void Hca::receive(core::Scheduler& sched, ib::PacketHandle h) {
  ib::PacketArena& arena = *arena_;
  const ib::Vl vl = arena.get(h).vl;
  rx_[vl].push_back(arena, h);
  rx_active_vls_ |= static_cast<std::uint16_t>(1u << vl);
  try_drain(sched);
}

void Hca::try_drain(core::Scheduler& sched) {
  if (draining_ != ib::kNullPacket) return;
  if (rx_active_vls_ == 0) return;
  // CNP VL first so BECNs reach the CC agent with minimum delay, then
  // the data VL — the lane rule of the switch's grant_one.
  const ib::Vl cnp_vl = fabric_->params().cnp_vl();
  const ib::Vl vl = (rx_active_vls_ & (1u << cnp_vl)) != 0 ? cnp_vl : ib::kDataVl;
  ib::PacketArena& arena = *arena_;
  ib::PacketQueue* queue = &rx_[vl];
  draining_ = queue->pop_front(arena);
  if (queue->empty()) rx_active_vls_ &= static_cast<std::uint16_t>(~(1u << vl));
  const core::Time done =
      sched.now() + core::transmit_time(arena.get(draining_).bytes, drain_gbps_);
  sched.schedule_at(done, this, kEvSinkFree, 0, 0);
}

void Hca::finish_drain(core::Scheduler& sched) {
  const ib::PacketHandle h = draining_;
  IBSIM_ASSERT(h != ib::kNullPacket, "sink-free event without a draining packet");
  draining_ = ib::kNullPacket;
  const core::Time now = sched.now();
  // Copy the packet out of the arena before running the callbacks below:
  // on_fecn can send a CNP and the observer can nudge a workload rank,
  // both of which allocate — and an allocation may grow the arena,
  // invalidating any reference into it.
  const ib::Packet pkt = arena_->get(h);

  // The packet has left the HCA input buffer: flow-control credits go
  // back to the last switch.
  fabric_->schedule_credit_return(sched, dev_, 0, pkt.vl, pkt.bytes, now);

  if (pkt.is_cnp) {
    cc_agent_->on_becn(pkt.flow_dst, now);
  } else {
    delivered_bytes_ += pkt.bytes;
    ++delivered_packets_;
    if (pkt.fecn) {
      ++fecn_delivered_;
      cc_agent_->on_fecn(pkt.src);
    }
    if (observer_ != nullptr) observer_->on_delivered(node_, pkt, now);
  }
  arena_->release(h);
  try_drain(sched);
}

}  // namespace ibsim::fabric
