#include "traffic/generator.hpp"

#include <cmath>
#include <cstddef>

#include "core/assert.hpp"

namespace ibsim::traffic {

BNodeGenerator::BNodeGenerator(ib::NodeId self, std::int32_t n_nodes,
                               const BNodeParams& params, const HotspotProvider* hotspot,
                               const cc::FlowGate* gate, ib::PacketArena* arena, core::Rng rng)
    : self_(self),
      params_(params),
      hotspot_(hotspot),
      gate_(gate),
      arena_(arena),
      rng_(rng),
      uniform_(self, n_nodes) {
  IBSIM_ASSERT(params_.p >= 0.0 && params_.p <= 1.0, "p must be a fraction in [0, 1]");
  IBSIM_ASSERT(params_.p == 0.0 || hotspot_ != nullptr,
               "a generator with p > 0 needs a hotspot provider");
  streams_[0].share = params_.p;
  streams_[0].to_hotspot = true;
  streams_[1].share = 1.0 - params_.p;
  streams_[1].to_hotspot = false;
  // The deferred set is bounded by kMaxDeferred: reserving it here keeps
  // the poll path allocation-free for the lifetime of the generator.
  for (Stream& s : streams_) s.deferred.reserve(kMaxDeferred);
}

core::Time BNodeGenerator::stream_ready_at(Stream& stream, core::Time now) {
  if (stream.share <= 0.0) return core::kTimeNever;

  // Budget: cumulative bytes must never exceed share x capacity x t.
  const double budget_rate = stream.share * params_.capacity_gbps;  // Gb/s
  const auto needed = static_cast<double>(stream.sent_bytes + params_.packet_bytes);
  const double budget_ps = std::ceil(needed * 8000.0 / budget_rate);
  // A share so small that the budget time lies past core::Time's range
  // (about 1e308 ps at p_percent = 1e-300) never opens: converting it
  // would be undefined.
  if (budget_ps >= 0x1p63) return core::kTimeNever;
  const auto budget_ready = static_cast<core::Time>(budget_ps);
  if (budget_ready > now) return budget_ready;  // budget gates regardless of flow

  const auto gate_ready = [&](ib::NodeId dst) {
    return gate_ != nullptr ? gate_->flow_ready_at(dst) : 0;
  };

  // A started message continues regardless of later throttling (the IRD
  // applies between packets via gate_ready of its flow).
  if (stream.pending.packets > 0) {
    const core::Time flow_ready = gate_ready(stream.pending.dst);
    return flow_ready > now ? flow_ready : now;
  }

  // Resume a parked message whose flow has recovered, oldest first.
  for (std::size_t i = 0; i < stream.deferred.size(); ++i) {
    if (gate_ready(stream.deferred[i].dst) <= now) {
      stream.pending = stream.deferred[i];
      stream.deferred.erase(stream.deferred.begin() + static_cast<std::ptrdiff_t>(i));
      return now;
    }
  }

  // Open new messages; a throttled uniform draw is parked instead of
  // blocking the stream (per-QP queueing), bounded per poll and in total
  // to keep the deferred set small. The hotspot stream has a single
  // destination, so when its flow is throttled the stream simply waits.
  for (int attempt = 0; attempt < 4; ++attempt) {
    ib::NodeId dst = stream.to_hotspot ? hotspot_->current_hotspot() : uniform_.draw(rng_);
    // A node drawn as its own hotspot redirects that message uniformly
    // rather than sending to itself.
    if (dst == self_) dst = uniform_.draw(rng_);
    const core::Time flow_ready = gate_ready(dst);
    if (flow_ready <= now) {
      stream.pending = Message{dst, params_.message_bytes / params_.packet_bytes,
                               stream.msg_seq++};
      return now;
    }
    if (stream.to_hotspot) return flow_ready;
    if (stream.deferred.size() >= kMaxDeferred) break;
    stream.deferred.push_back(
        Message{dst, params_.message_bytes / params_.packet_bytes, stream.msg_seq++});
  }

  // Everything parked: come back when the earliest flow recovers.
  core::Time earliest = core::kTimeNever;
  for (const Message& msg : stream.deferred) {
    const core::Time t = gate_ready(msg.dst);
    if (t < earliest) earliest = t;
  }
  return earliest > now ? earliest : now;
}

ib::PacketHandle BNodeGenerator::emit(Stream& stream, core::Time now) {
  IBSIM_ASSERT(stream.pending.packets > 0, "emitting without an open message");
  const ib::PacketHandle h = arena_->allocate();
  ib::Packet& pkt = arena_->get(h);
  pkt.src = self_;
  pkt.dst = stream.pending.dst;
  pkt.bytes = params_.packet_bytes;
  pkt.vl = ib::kDataVl;
  pkt.hotspot_stream = stream.to_hotspot;
  pkt.msg_seq = stream.pending.seq;
  pkt.injected_at = now;
  stream.sent_bytes += pkt.bytes;
  --stream.pending.packets;
  return h;
}

fabric::TrafficSource::Poll BNodeGenerator::poll(core::Time now) {
  core::Time ready[2];
  for (int s = 0; s < 2; ++s) ready[s] = stream_ready_at(streams_[s], now);

  const bool r0 = ready[0] <= now;
  const bool r1 = ready[1] <= now;
  if (r0 || r1) {
    int pick;
    if (r0 && r1) {
      // Deficit order: the stream further behind its share goes first.
      const double d0 = static_cast<double>(streams_[0].sent_bytes) / streams_[0].share;
      const double d1 = static_cast<double>(streams_[1].sent_bytes) / streams_[1].share;
      pick = d0 <= d1 ? 0 : 1;
    } else {
      pick = r0 ? 0 : 1;
    }
    return Poll{emit(streams_[pick], now), core::kTimeNever};
  }
  return Poll{ib::kNullPacket, ready[0] < ready[1] ? ready[0] : ready[1]};
}

}  // namespace ibsim::traffic
