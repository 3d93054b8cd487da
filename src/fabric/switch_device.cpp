#include "fabric/switch_device.hpp"

#include <bit>
#include <limits>
#include <string>

#include "fabric/events.hpp"
#include "fabric/fabric.hpp"

namespace ibsim::fabric {

SwitchDevice::SwitchDevice(Fabric* fabric, topo::DeviceId dev, std::int32_t n_ports)
    : fabric_(fabric),
      dev_(dev),
      n_ports_(n_ports),
      fabric_vls_(fabric->params().n_vls),
      cnp_vl_(fabric->params().cnp_vl()),
      arena_(&fabric->arena_for(dev)),
      lft_row_(fabric->routing().lft_row(dev)) {
  static_assert(topo::kMaxSwitchPorts <= std::numeric_limits<std::uint64_t>::digits,
                "one busy-mask bit per input port");
  IBSIM_ASSERT(n_ports <= topo::kMaxSwitchPorts,
               "switch radix limited to kMaxSwitchPorts by the arbitration bitmask");
  outputs_.resize(static_cast<std::size_t>(n_ports));
  bank_.init(n_ports, fabric_vls_, /*with_cc=*/true);
  voqs_.assign(static_cast<std::size_t>(n_ports) * static_cast<std::size_t>(fabric_vls_) *
                   static_cast<std::size_t>(n_ports),
               ib::PacketQueue{});
  vl_bytes_.assign(
      static_cast<std::size_t>(n_ports) * static_cast<std::size_t>(fabric_vls_), 0);
  busy_mask_.assign(
      static_cast<std::size_t>(n_ports) * static_cast<std::size_t>(fabric_vls_), 0);
  active_vls_.assign(static_cast<std::size_t>(n_ports), 0);
}

void SwitchDevice::on_event(core::Scheduler& sched, const core::Event& ev) {
  switch (ev.kind) {
    case kEvPacketArrive:
      receive(sched, static_cast<ib::PacketHandle>(ev.a), static_cast<std::int32_t>(ev.b));
      break;
    case kEvLinkFree: {
      // Only the live wakeup acts; a superseded one (the port granted
      // again at the same timestamp before this fired) is dropped: its
      // try_send would meet a busy port and change nothing.
      auto& op = outputs_[static_cast<std::size_t>(ev.b)];
      if (op.wake != WakeState::kScheduled || ev.seq != op.wake_seq) break;
      op.wake = WakeState::kNone;
      try_send(sched, static_cast<std::int32_t>(ev.b));
      break;
    }
    case kEvCreditUpdate: {
      const auto port = static_cast<std::int32_t>(ev.b);
      bank_.credit(port, credit_vl(ev.a)).refund(credit_bytes(ev.a));
      // While the port is serializing, try_send could not grant anyway
      // (and a deferred wakeup can only be outstanding for a workless
      // port — see DESIGN.md §11), so skip the arbitration attempt.
      if (!outputs_[static_cast<std::size_t>(port)].idle(sched.now())) break;
      try_send(sched, port);
      break;
    }
    default:
      IBSIM_ASSERT(false, "switch received an unknown event kind");
  }
}

void SwitchDevice::receive(core::Scheduler& sched, ib::PacketHandle h, std::int32_t in_port) {
  ib::PacketArena& arena = *arena_;
  const ib::Packet& pkt = arena.get(h);
  const std::int32_t out = lft_row_[pkt.dst];
  IBSIM_ASSERT(out >= 0 && out < n_ports_, "LFT has no route to destination");
  const ib::Vl vl = pkt.vl;
  const std::int32_t bytes = pkt.bytes;
  busy_mask(out, vl) |= 1ull << in_port;
  active_vls(out) |= static_cast<std::uint16_t>(1u << vl);
  voqs_[voq_slot(in_port, out, vl)].push_back(arena, h);
  vl_bytes_[static_cast<std::size_t>(in_port) * static_cast<std::size_t>(fabric_vls_) +
            static_cast<std::size_t>(vl)] += bytes;
  cc::SwitchPortCc& det = bank_.cc(out, vl);
  if (det.on_enqueue(bytes) && tracer_ != nullptr) {
    tracer_->record(telemetry::Category::kQueues, telemetry::EventKind::kCongestionEnter,
                    sched.now(), dev_, out, vl, det.queued_bytes());
  }
  try_send(sched, out);
}

void SwitchDevice::try_send(core::Scheduler& sched, std::int32_t out_port) {
  auto& op = outputs_[static_cast<std::size_t>(out_port)];
  if (op.wake == WakeState::kElided) {
    const core::Time now = sched.now();
    if (now < op.busy_until ||
        (now == op.busy_until && op.wake_seq > sched.current_seq())) {
      // The elided wakeup's (at, seq) slot is still ahead of the event
      // being dispatched: materialize it into its reserved slot so the
      // arbitration it would have run happens exactly where an eager
      // kEvLinkFree would have run it.
      sched.schedule_at_reserved(op.busy_until, op.wake_seq, this, kEvLinkFree, 0,
                                 static_cast<std::uint16_t>(out_port));
      op.wake = WakeState::kScheduled;
      if (now < op.busy_until) return;  // still serializing; nothing can grant yet
    } else {
      // The slot has passed. While elided the port had no queued work
      // (work arrival materializes above), so the skipped event's
      // try_send found nothing to grant and changed nothing: forget it
      // (DESIGN.md §11).
      op.wake = WakeState::kNone;
    }
  }
  if (grant_one(sched, out_port)) {
    if (active_vls(out_port) != 0) {
      // Work still queued behind this grant: the wakeup will do real
      // arbitration, so schedule it eagerly.
      op.wake = WakeState::kScheduled;
      op.wake_seq = sched.schedule_at(op.busy_until, this, kEvLinkFree, 0,
                                      static_cast<std::uint16_t>(out_port));
    } else {
      // Output drained: elide the wakeup but burn its sequence slot, so
      // every later event keeps the (at, seq) tie order the goldens and
      // transcripts were captured under.
      op.wake = WakeState::kElided;
      op.wake_seq = sched.reserve_seq();
    }
  }
}

bool SwitchDevice::grant_one(core::Scheduler& sched, std::int32_t out_port) {
  auto& op = outputs_[static_cast<std::size_t>(out_port)];
  const core::Time now = sched.now();
  if (!op.idle(now)) return false;

  // Lane choice: the CNP lane when it has queued work and credits, else
  // the data lane — CNPs go out ahead of data "as quickly as possible"
  // (paper section II.2), the rule Hca::try_inject applies. Then
  // round-robin over the inputs of the chosen lane.
  const std::uint16_t vl_work = active_vls(out_port);
  const auto ready = [&](ib::Vl lane) {
    return (vl_work & (1u << lane)) != 0 && bank_.credit(out_port, lane).available() > 0;
  };
  const ib::Vl vl = ready(cnp_vl_) ? cnp_vl_ : ib::kDataVl;
  if (!ready(vl)) {
    note_blocked(out_port, now);
    return false;
  }
  CreditTracker& credits = bank_.credit(out_port, vl);
  ib::PacketArena& arena = *arena_;
  // The n_ports VoQs feeding (out_port, vl) — contiguous by layout.
  ib::PacketQueue* const lane = &voqs_[voq_slot(0, out_port, vl)];

  // Next busy input at or after the round-robin pointer, wrapping.
  std::int32_t& rr_next = bank_.rr_next(out_port, vl);
  const std::uint64_t mask = busy_mask(out_port, vl);
  const std::uint64_t from_start = mask & (~0ull << rr_next);
  std::int32_t chosen =
      std::countr_zero(from_start != 0 ? from_start : mask);
  if (!credits.can_send(arena.get(lane[chosen].front()).bytes)) {
    // Head too large for the remaining credits; rare (mixed packet sizes
    // on one VL) — fall back to scanning the other busy inputs.
    chosen = -1;
    std::uint64_t rest = mask;
    while (rest != 0) {
      const std::int32_t in = std::countr_zero(rest);
      rest &= rest - 1;
      if (!lane[in].empty() && credits.can_send(arena.get(lane[in].front()).bytes)) {
        chosen = in;
        break;
      }
    }
    if (chosen < 0) {
      note_blocked(out_port, now);
      return false;  // the next credit update retries
    }
  }
  // Branch instead of %: n_ports is not a power of two, so the modulo
  // compiles to an integer division on this per-grant path.
  rr_next = chosen + 1 == n_ports_ ? 0 : chosen + 1;

  const ib::PacketHandle h = lane[chosen].pop_front(arena);
  ib::Packet& pkt = arena.get(h);
  vl_bytes_[static_cast<std::size_t>(chosen) * static_cast<std::size_t>(fabric_vls_) +
            static_cast<std::size_t>(vl)] -= pkt.bytes;
  IBSIM_ASSERT(input_vl_bytes(chosen, vl) >= 0, "input buffer occupancy underflow");
  if (lane[chosen].empty()) {
    std::uint64_t& mask_ref = busy_mask(out_port, vl);
    mask_ref &= ~(1ull << chosen);
    if (mask_ref == 0)
      active_vls(out_port) &= static_cast<std::uint16_t>(~(1u << vl));
  }
  const bool exited = bank_.cc(out_port, vl).on_dequeue(pkt.bytes);
  credits.consume(pkt.bytes);

  // FECN marking: the packet is forwarded through this Port VL; the
  // detector applies the threshold / root-vs-victim / Packet_Size /
  // Marking_Rate rules (paper section II.1).
  const bool fecn_now = bank_.cc(out_port, vl).decide_fecn(credits.available(), pkt.bytes);
  if (fecn_now) pkt.fecn = true;

  const core::Time pace = op.pace_time(pkt.bytes);
  op.busy_until = now + pace;
  ++grants_;
  if (op.stall_since != core::kTimeNever) end_stall(out_port, now);
  if (tracer_ != nullptr) trace_grant(now, out_port, vl, pkt, exited, fecn_now, pace);

  // Hoisted before the send: when the link to op.peer_dev is a shard
  // cut, send_packet copies the packet into a mailbox and releases `h`,
  // so `pkt` must not be read afterwards.
  const std::int32_t pkt_bytes = pkt.bytes;
  const core::Time ser = op.ser_time(pkt_bytes);

  // Head of the packet reaches the peer's input stage after link
  // propagation plus the receiver pipeline (cut-through); add the full
  // serialization time when running store-and-forward.
  core::Time arrive = now + op.prop_delay + op.rx_pipeline_delay;
  if (!fabric_->params().cut_through) arrive += ser;
  fabric_->send_packet(sched, dev_, arrive, op.peer_dev, op.peer_port, h);

  // The packet's tail leaves our input buffer one serialization later;
  // that is when the upstream sender's credits come back.
  fabric_->schedule_credit_return(sched, dev_, chosen, vl, pkt_bytes, now + ser);
  return true;
}

std::uint64_t SwitchDevice::fecn_marked() const {
  std::uint64_t total = 0;
  for (std::int32_t p = 0; p < n_ports_; ++p) {
    for (std::int32_t v = 0; v < fabric_vls_; ++v) {
      total += bank_.cc(p, static_cast<ib::Vl>(v)).marked();
    }
  }
  return total;
}

void SwitchDevice::register_detailed(telemetry::CounterRegistry& registry) {
  // The names are built from a per-switch prefix so registering a
  // 648-node fabric allocates one prefix per switch, not one temporary
  // chain per instrument.
  detail_.clear();
  detail_.reserve(static_cast<std::size_t>(n_ports_) *
                  static_cast<std::size_t>(2 * fabric_vls_ + 1));
  const std::string sw_prefix = "switch." + std::to_string(dev_);
  for (std::int32_t p = 0; p < n_ports_; ++p) {
    const std::string port_str = std::to_string(p);
    const std::string base = sw_prefix + ".port." + port_str;
    for (std::int32_t v = 0; v < fabric_vls_; ++v) {
      detail_.push_back(registry.gauge(base + ".vl" + std::to_string(v) + ".queue_bytes"));
    }
    detail_.push_back(registry.counter(base + ".credit_stall_ps"));
    const std::string in_base = sw_prefix + ".in." + port_str + ".vl";
    for (std::int32_t v = 0; v < fabric_vls_; ++v) {
      detail_.push_back(registry.gauge(in_base + std::to_string(v) + ".buf_bytes"));
    }
  }
}

void SwitchDevice::publish(telemetry::CounterRegistry& registry) const {
  if (detail_.empty()) return;
  auto h = detail_.begin();
  for (std::int32_t p = 0; p < n_ports_; ++p) {
    for (std::int32_t v = 0; v < fabric_vls_; ++v) {
      registry.set(*h++, bank_.cc(p, static_cast<ib::Vl>(v)).queued_bytes());
    }
    registry.set(*h++, output(p).stall_ps);
    for (std::int32_t v = 0; v < fabric_vls_; ++v) {
      registry.set(*h++, input_vl_bytes(p, static_cast<ib::Vl>(v)));
    }
  }
}

void SwitchDevice::end_stall(std::int32_t out, core::Time now) {
  auto& op = outputs_[static_cast<std::size_t>(out)];
  const core::Time stalled = now - op.stall_since;
  op.stall_since = core::kTimeNever;
  ++op.stalls;
  op.stall_ps += stalled;
  if (tracer_ != nullptr) {
    tracer_->record(telemetry::Category::kCredits, telemetry::EventKind::kCreditStallEnd, now,
                    dev_, out, /*vl=*/-1, stalled);
  }
}

void SwitchDevice::trace_grant(core::Time now, std::int32_t out, ib::Vl vl,
                               const ib::Packet& pkt, bool exited_congestion, bool fecn_set,
                               core::Time pace) {
  const cc::SwitchPortCc& det = bank_.cc(out, vl);
  if (fecn_set) {
    tracer_->record(telemetry::Category::kCc, telemetry::EventKind::kFecnMark, now, dev_, out,
                    vl, det.queued_bytes());
  }
  if (exited_congestion) {
    tracer_->record(telemetry::Category::kQueues, telemetry::EventKind::kCongestionExit, now,
                    dev_, out, vl, det.queued_bytes());
  }
  tracer_->record(telemetry::Category::kArb, telemetry::EventKind::kArbGrant, now, dev_, out,
                  vl, pkt.bytes, static_cast<std::int32_t>(pace));
}

void SwitchDevice::note_blocked(std::int32_t out, core::Time now) {
  auto& op = outputs_[static_cast<std::size_t>(out)];
  if (op.stall_since != core::kTimeNever) return;  // stall already open
  // Blocked-with-no-work is just an idle port, not a credit stall. One
  // word test instead of scanning every VL's VoQ bitmask.
  if (active_vls(out) == 0) return;
  op.stall_since = now;
  if (tracer_ != nullptr) {
    tracer_->record(telemetry::Category::kCredits, telemetry::EventKind::kCreditStallStart, now,
                    dev_, out, /*vl=*/-1, 0);
  }
}

}  // namespace ibsim::fabric
