#include "workload/engine.hpp"

#include <algorithm>

#include "cc/ca_cc.hpp"
#include "core/assert.hpp"
#include "ib/packet.hpp"

namespace ibsim::workload {

WorkloadEngine::WorkloadEngine(WorkloadSpec spec, const Options& options, core::Rng rng)
    : spec_(std::move(spec)), options_(options), rng_(rng) {
  const std::string invalid = spec_.validate();
  IBSIM_ASSERT(invalid.empty(), "invalid workload spec");
  const auto n_ops = spec_.ops.size();
  run_.resize(n_ops);
  dependents_.resize(n_ops);
  ranks_.resize(static_cast<std::size_t>(spec_.ranks));
  rank_nodes_.reserve(static_cast<std::size_t>(spec_.ranks));
  for (std::int32_t r = 0; r < spec_.ranks; ++r)
    rank_nodes_.push_back(static_cast<ib::NodeId>(r));
  gate_.assign(static_cast<std::size_t>(spec_.ranks), nullptr);
  phase_remaining_.assign(static_cast<std::size_t>(spec_.phase_count()), 0);
  phase_last_.assign(phase_remaining_.size(), core::kTimeNever);
  rank_remaining_.assign(static_cast<std::size_t>(spec_.ranks), 0);
  rank_last_.assign(rank_remaining_.size(), core::kTimeNever);
  // Reserve every per-rank ready queue to the number of ops that rank
  // sends and the nudge scratch to the rank count: the injection path
  // then never reallocates, whatever order dependencies resolve in.
  wake_.reserve(static_cast<std::size_t>(spec_.ranks));
  {
    std::vector<std::int32_t> src_ops(static_cast<std::size_t>(spec_.ranks), 0);
    for (const WorkloadOp& op : spec_.ops) ++src_ops[static_cast<std::size_t>(op.src_rank)];
    for (std::int32_t r = 0; r < spec_.ranks; ++r)
      ranks_[static_cast<std::size_t>(r)].queue.reserve(
          static_cast<std::size_t>(src_ops[static_cast<std::size_t>(r)]));
  }
  for (std::size_t i = 0; i < n_ops; ++i) {
    const WorkloadOp& op = spec_.ops[i];
    run_[i].deps_left = static_cast<std::int32_t>(op.deps.size());
    for (const std::int32_t d : op.deps)
      dependents_[static_cast<std::size_t>(d)].push_back(static_cast<std::int32_t>(i));
    ++phase_remaining_[static_cast<std::size_t>(op.phase)];
    ++rank_remaining_[static_cast<std::size_t>(op.src_rank)];
    ++rank_remaining_[static_cast<std::size_t>(op.dst_rank)];
    if (run_[i].deps_left == 0) {
      run_[i].ready_at = op.compute;  // eligible from t = 0 plus its compute
      ranks_[static_cast<std::size_t>(op.src_rank)].queue.push_back(
          static_cast<std::int32_t>(i));
    }
  }
  // Ranks with no ops at all are finished before the run starts.
  for (std::size_t r = 0; r < rank_remaining_.size(); ++r)
    if (rank_remaining_[r] == 0) rank_last_[r] = 0;
}

WorkloadEngine::~WorkloadEngine() = default;

void WorkloadEngine::install(fabric::Fabric& fabric) {
  IBSIM_ASSERT(spec_.ranks <= fabric.node_count(),
               "workload has more ranks than the fabric has end nodes");
  fabric_ = &fabric;
  arena_ = &fabric.arena();
  const bool cc_on = fabric.cc_manager().enabled();
  sources_.reserve(static_cast<std::size_t>(spec_.ranks));
  for (std::int32_t r = 0; r < spec_.ranks; ++r) {
    fabric::Hca& hca = fabric.hca(rank_nodes_[static_cast<std::size_t>(r)]);
    if (cc_on) gate_[static_cast<std::size_t>(r)] = &hca.cc_agent();
    sources_.push_back(std::make_unique<RankSource>(this, r));
    hca.attach_source(sources_.back().get());
  }
  if (options_.background_uniform && spec_.ranks < fabric.node_count()) {
    traffic::BNodeParams params;
    params.p = 0.0;  // pure uniform victims, no hotspot stream
    params.capacity_gbps = options_.background_gbps;
    for (ib::NodeId node = spec_.ranks; node < fabric.node_count(); ++node) {
      fabric::Hca& hca = fabric.hca(node);
      background_.push_back(std::make_unique<traffic::BNodeGenerator>(
          node, fabric.node_count(), params, nullptr,
          cc_on ? &hca.cc_agent() : nullptr, arena_, rng_.fork("workload_bg", node)));
      hca.attach_source(background_.back().get());
    }
  }
  // Application completions resolve at the rank nodes' sinks.
  for (const ib::NodeId node : rank_nodes_) fabric.hca(node).attach_observer(this);
}

fabric::TrafficSource::Poll WorkloadEngine::poll_rank(std::int32_t rank, core::Time now) {
  RankState& state = ranks_[static_cast<std::size_t>(rank)];
  fabric::TrafficSource::Poll result;
  core::Time earliest = core::kTimeNever;
  for (std::size_t qi = 0; qi < state.queue.size(); ++qi) {
    const std::int32_t op_id = state.queue[qi];
    OpRun& run = run_[static_cast<std::size_t>(op_id)];
    const WorkloadOp& op = spec_.ops[static_cast<std::size_t>(op_id)];
    core::Time at = run.ready_at;
    const cc::FlowGate* gate = gate_[static_cast<std::size_t>(rank)];
    if (at <= now && gate != nullptr) {
      // A CC-throttled op must not head-of-line block the rank's other
      // ready ops (per-QP queueing) — skip it and try the next one.
      const core::Time gated = gate->flow_ready_at(rank_nodes_[static_cast<std::size_t>(op.dst_rank)]);
      if (gated > at) at = gated;
    }
    if (at > now) {
      earliest = std::min(earliest, at);
      continue;
    }
    const ib::PacketHandle h = arena_->allocate();
    ib::Packet& pkt = arena_->get(h);
    const std::int64_t remaining = op.bytes - run.injected;
    pkt.src = rank_nodes_[static_cast<std::size_t>(rank)];
    pkt.dst = rank_nodes_[static_cast<std::size_t>(op.dst_rank)];
    pkt.bytes = static_cast<std::int32_t>(std::min<std::int64_t>(remaining, ib::kMtuBytes));
    pkt.vl = ib::kDataVl;
    pkt.app = true;
    pkt.msg_seq = static_cast<std::uint32_t>(op_id);
    pkt.injected_at = now;
    run.injected += pkt.bytes;
    if (run.injected == op.bytes)
      state.queue.erase(state.queue.begin() + static_cast<std::ptrdiff_t>(qi));
    result.pkt = h;
    return result;
  }
  result.retry_at = earliest;
  return result;
}

void WorkloadEngine::on_delivered(ib::NodeId node, const ib::Packet& pkt, core::Time now) {
  if (!pkt.app) return;  // background traffic to a rank node
  const auto op_id = static_cast<std::size_t>(pkt.msg_seq);
  IBSIM_ASSERT(op_id < spec_.ops.size(), "app packet with unknown op id");
  IBSIM_ASSERT(node == rank_nodes_[static_cast<std::size_t>(spec_.ops[op_id].dst_rank)],
               "app packet drained at the wrong node");
  OpRun& run = run_[op_id];
  run.delivered += pkt.bytes;
  if (run.delivered == spec_.ops[op_id].bytes) complete_op(static_cast<std::int32_t>(op_id), now);
}

void WorkloadEngine::complete_op(std::int32_t op_id, core::Time now) {
  OpRun& run = run_[static_cast<std::size_t>(op_id)];
  const WorkloadOp& op = spec_.ops[static_cast<std::size_t>(op_id)];
  run.completed_at = now;
  ++messages_completed_;
  bytes_completed_ += op.bytes;
  last_completion_ = now;  // deliveries arrive in time order
  if (--phase_remaining_[static_cast<std::size_t>(op.phase)] == 0)
    phase_last_[static_cast<std::size_t>(op.phase)] = now;
  for (const std::int32_t r : {op.src_rank, op.dst_rank})
    if (--rank_remaining_[static_cast<std::size_t>(r)] == 0)
      rank_last_[static_cast<std::size_t>(r)] = now;
  // Resolve dependents in op-id order; collect the ranks that gained
  // work and nudge each exactly once, in rank order — keeps the event
  // sequence a pure function of the spec.
  wake_.clear();
  for (const std::int32_t d : dependents_[static_cast<std::size_t>(op_id)]) {
    OpRun& dep_run = run_[static_cast<std::size_t>(d)];
    if (--dep_run.deps_left > 0) continue;
    const WorkloadOp& dep = spec_.ops[static_cast<std::size_t>(d)];
    dep_run.ready_at = now + dep.compute;
    ranks_[static_cast<std::size_t>(dep.src_rank)].queue.push_back(d);
    wake_.push_back(dep.src_rank);
  }
  std::sort(wake_.begin(), wake_.end());
  wake_.erase(std::unique(wake_.begin(), wake_.end()), wake_.end());
  for (const std::int32_t r : wake_)
    fabric_->hca(rank_nodes_[static_cast<std::size_t>(r)]).nudge(fabric_->sched());
}

WorkloadProgress WorkloadEngine::progress() const {
  WorkloadProgress out;
  out.messages_total = spec_.ops.size();
  out.messages_completed = messages_completed_;
  out.bytes_completed = bytes_completed_;
  out.complete = messages_completed_ == spec_.ops.size();
  if (out.complete) out.makespan = spec_.ops.empty() ? 0 : last_completion_;
  out.rank_finish = rank_last_;
  out.phase_finish = phase_last_;
  return out;
}

}  // namespace ibsim::workload
