#include "sim/simulation.hpp"

#include <algorithm>

#include "ccalg/registry.hpp"
#include "core/assert.hpp"
#include "core/log.hpp"
#include "sim/experiment.hpp"
#include "telemetry/chrome_trace.hpp"
#include "telemetry/trace.hpp"
#include "workload/engine.hpp"
#include "workload/registry.hpp"

namespace ibsim::sim {

namespace {
workload::WorkloadSpec resolve_workload_spec(const SimConfig& config) {
  const WorkloadSettings& w = config.workload;
  if (w.name == "file") {
    workload::WorkloadSpec spec;
    const std::string err = workload::load_workload_file(w.file, &spec);
    IBSIM_ASSERT(err.empty(), "workload file failed to load");
    IBSIM_ASSERT(spec.ranks <= config.node_count(),
                 "workload file needs more ranks than the fabric has end nodes");
    return spec;
  }
  IBSIM_ASSERT(workload::WorkloadRegistry::instance().contains(w.name),
               "unknown workload (see WorkloadRegistry::names)");
  workload::WorkloadParams params;
  params.ranks = w.ranks > 0 ? w.ranks : config.node_count();
  IBSIM_ASSERT(params.ranks <= config.node_count(),
               "workload has more ranks than the fabric has end nodes");
  params.message_bytes = w.message_bytes;
  params.iterations = w.iterations;
  params.compute = w.compute;
  return workload::WorkloadRegistry::instance().build(w.name, params);
}
}  // namespace

Simulation::Simulation(const SimConfig& config) : Simulation(config, build_snapshot(config)) {}

Simulation::Simulation(const SimConfig& config,
                       std::shared_ptr<const RoutingSnapshot> snapshot)
    : config_(config), snapshot_(std::move(snapshot)) {
  IBSIM_ASSERT(snapshot_ != nullptr && snapshot_->topology != nullptr,
               "Simulation needs a complete snapshot");
  IBSIM_ASSERT(snapshot_->topology->topo.node_count() == config_.node_count(),
               "snapshot does not match the config's topology");
  const topo::Topology& topo = snapshot_->topology->topo;
  // CCT entries must cover the CCTI limit; IRD delays reference the
  // injection capacity so the linear table yields rate = cap / (1+i).
  const std::size_t cct_entries = static_cast<std::size_t>(config.cc.ccti_limit) + 1;
  ccm_ = std::make_unique<cc::CcManager>(config.cc, cct_entries < 128 ? 128 : cct_entries,
                                         config.fabric.hca_inject_gbps);
  IBSIM_ASSERT(ccalg::CcAlgorithmRegistry::instance().contains(config.cc_algo),
               "unknown cc_algo (see CcAlgorithmRegistry::names)");
  ccm_->set_algo(config.cc_algo);
  const fabric::Fabric::ShardLayout* layout = prepare_shards(topo);
  if (layout != nullptr) {
    fabric_ = std::make_unique<fabric::Fabric>(topo, snapshot_->tables, config_.fabric, *ccm_,
                                               *layout);
    engine_ = std::make_unique<ShardEngine>(
        fabric_.get(), &sched_, shard_layout_.scheds, shard_lookahead(config_.fabric),
        std::min(resolve_threads(config_.threads), shard_plan_.n_shards));
  } else {
    fabric_ = std::make_unique<fabric::Fabric>(topo, snapshot_->tables, config_.fabric, *ccm_,
                                               sched_);
  }

  core::Rng rng(config.seed);
  if (config_.workload.active()) {
    // The workload engine replaces the synthetic scenario: rank nodes
    // inject dependency-gated application messages, the remaining nodes
    // send uniform background traffic. Rank nodes are classed as
    // "hotspot" so non_hotspot_rcv_gbps is the victim-flow throughput.
    workload::WorkloadEngine::Options wopts;
    wopts.background_uniform = config_.workload.background_uniform;
    wopts.background_gbps = config_.scenario.capacity_gbps;
    workload_ = std::make_unique<workload::WorkloadEngine>(
        resolve_workload_spec(config_), wopts, rng.fork("workload", 0));
    workload_->install(*fabric_);
    hotspot_nodes_ = workload_->rank_nodes();
  } else {
    scenario_ = std::make_unique<traffic::Scenario>(topo.node_count(), config.scenario, rng);
    hotspot_nodes_ = scenario_->schedule().hotspots();
    scenario_->install(*fabric_, sched_);
  }

  const TelemetrySettings& ts = config_.telemetry;
  if (ts.active()) {
    telemetry::TelemetryOptions options;
    options.detailed = ts.detailed;
    options.ring_capacity =
        ts.trace_ring_capacity > 0 ? static_cast<std::size_t>(ts.trace_ring_capacity) : 1;
    if (ts.tracing()) {
      const bool ok = telemetry::parse_categories(ts.trace_categories,
                                                  &options.trace_categories);
      IBSIM_ASSERT(ok, "unknown trace category (expected cc, credits, queues, arb)");
    }
    telemetry_ = std::make_unique<telemetry::Telemetry>(options);
    // Devices keep their own counts and only refresh_gauges, on this
    // thread, writes the registry, so sharded fabrics attach too; the
    // tracer, the one per-event probe, stays serial-only (prepare_shards).
    fabric_->attach_telemetry(*telemetry_);
    telemetry::CounterRegistry& reg = telemetry_->registry();
    g_rcv_hotspot_ = reg.gauge("sink.rcv_bytes.hotspot");
    g_rcv_non_hotspot_ = reg.gauge("sink.rcv_bytes.non_hotspot");
    reg.set(reg.gauge("sink.hotspot_nodes"), static_cast<std::int64_t>(hotspot_nodes_.size()));
    if (!ts.counters_csv.empty()) {
      sampler_ = std::make_unique<telemetry::CounterSampler>(
          &reg, ts.sample_interval, ts.counters_csv, [this](core::Time) { refresh_gauges(); });
    }
  }
}

const fabric::Fabric::ShardLayout* Simulation::prepare_shards(const topo::Topology& topo) {
  const std::int32_t want = config_.shards;
  if (want <= 1) return nullptr;
  // Features that hook deeply into per-event execution run serial; the
  // fallback is logged so a sweep never silently loses its speedup.
  const char* fallback = nullptr;
  if (config_.workload.active()) {
    fallback = "workload runs need the serial engine";
  } else if (config_.telemetry.writes_files()) {
    fallback = "trace/CSV telemetry needs the serial engine";
  } else if (shard_lookahead(config_.fabric) < 1) {
    fallback = "fabric delays leave no cross-shard lookahead";
  }
  if (fallback != nullptr) {
    IBSIM_LOG(core::LogLevel::Warn, 0, "shards=%d requested: %s; running serial",
              want, fallback);
    return nullptr;
  }
  shard_plan_ = topo::make_shard_plan(topo, want);
  if (shard_plan_.n_shards <= 1) return nullptr;
  for (std::int32_t s = 0; s < shard_plan_.n_shards; ++s) {
    shard_scheds_.push_back(std::make_unique<core::Scheduler>());
    shard_layout_.scheds.push_back(shard_scheds_.back().get());
  }
  shard_layout_.shard_of_device = &shard_plan_.shard_of_device;
  return &shard_layout_;
}

Simulation::~Simulation() = default;

SimResult Simulation::run() {
  IBSIM_ASSERT(!ran_, "Simulation::run may only be called once");
  ran_ = true;
  IBSIM_LOG(core::LogLevel::Info, sched_.now(), "starting: %s", config_.describe().c_str());

  fabric_->start(sched_);
  if (sampler_ != nullptr && !sampler_->install(sched_)) {
    IBSIM_LOG(core::LogLevel::Warn, sched_.now(), "cannot open counters CSV '%s'",
              config_.telemetry.counters_csv.c_str());
  }
  const auto run_until = [this](core::Time t) {
    if (engine_ != nullptr) {
      engine_->run_until(t);  // returns once every shard worker has joined
    } else {
      sched_.run_until(t);
    }
  };
  run_until(config_.warmup);
  // The measurement window opens at the configured warmup, which is
  // what snapshot_at's rate denominators use, not at sched_.now(): the
  // scheduler clock rests on the last *executed* event, and the fabric
  // fast path elides bookkeeping events, so a last-event-based window
  // would make rate denominators depend on the event-chain mode and
  // break the fast/slow bit-identity guarantee.
  fabric_->reset_latency();
  window_base_.resize(static_cast<std::size_t>(fabric_->node_count()));
  for (ib::NodeId node = 0; node < fabric_->node_count(); ++node) {
    window_base_[static_cast<std::size_t>(node)] = fabric_->hca(node).delivered_bytes();
  }
  run_until(config_.sim_time);

  if (sampler_ != nullptr) sampler_->close();
  if (telemetry_ != nullptr && config_.telemetry.tracing()) {
    if (!telemetry::write_chrome_trace(config_.telemetry.trace_path, *telemetry_)) {
      IBSIM_LOG(core::LogLevel::Warn, sched_.now(), "cannot write trace '%s'",
                config_.telemetry.trace_path.c_str());
    }
  }

  const SimResult result = snapshot_at(config_.sim_time);
  IBSIM_LOG(core::LogLevel::Info, sched_.now(),
            "done: total %.1f Gb/s, non-hotspot %.3f Gb/s, hotspot %.3f Gb/s, "
            "%llu FECN marks, %llu events",
            result.total_throughput_gbps, result.non_hotspot_rcv_gbps,
            result.hotspot_rcv_gbps, static_cast<unsigned long long>(result.fecn_marked),
            static_cast<unsigned long long>(result.events_executed));
  return result;
}

void Simulation::refresh_gauges() const {
  fabric_->refresh_gauges();
  // Lifetime sink bytes, never reset at warmup: the difference of two
  // samples is the interval's receive volume on either side of it.
  std::int64_t hotspot = 0;
  for (const ib::NodeId node : hotspot_nodes_) hotspot += fabric_->hca(node).delivered_bytes();
  telemetry::CounterRegistry& reg = telemetry_->registry();
  reg.set(g_rcv_hotspot_, hotspot);
  reg.set(g_rcv_non_hotspot_, fabric_->total_delivered_bytes() - hotspot);
}

SimResult Simulation::snapshot_at(core::Time now) const {
  SimResult r;
  // Receive rates: each node's sink bytes since the window opened, read
  // from its HCA. Sums run in node order, so every double is the same
  // whatever order hotspot_nodes_ lists the class in.
  const std::size_t n_nodes = window_base_.size();
  std::vector<bool> hotspot(n_nodes, false);
  for (const ib::NodeId node : hotspot_nodes_) hotspot[static_cast<std::size_t>(node)] = true;
  std::vector<double> non_hotspot_rates;
  non_hotspot_rates.reserve(n_nodes);
  double hotspot_sum = 0.0;
  double non_hotspot_sum = 0.0;
  for (std::size_t i = 0; i < n_nodes; ++i) {
    const std::int64_t bytes =
        fabric_->hca(static_cast<ib::NodeId>(i)).delivered_bytes() - window_base_[i];
    const double gbps = core::rate_gbps(bytes, now - config_.warmup);
    r.delivered_bytes += bytes;
    r.total_throughput_gbps += gbps;
    if (hotspot[i]) {
      hotspot_sum += gbps;
    } else {
      non_hotspot_sum += gbps;
      non_hotspot_rates.push_back(gbps);
    }
  }
  if (!hotspot_nodes_.empty()) {
    r.hotspot_rcv_gbps = hotspot_sum / static_cast<double>(hotspot_nodes_.size());
  }
  if (!non_hotspot_rates.empty()) {
    r.non_hotspot_rcv_gbps = non_hotspot_sum / static_cast<double>(non_hotspot_rates.size());
  }
  r.all_rcv_gbps = r.total_throughput_gbps / static_cast<double>(n_nodes);
  r.jain_non_hotspot = core::jain_fairness(non_hotspot_rates);
  if (const core::Histogram latency = fabric_->latency_us(); latency.total() > 0) {
    r.median_latency_us = latency.quantile(0.50);
    r.p99_latency_us = latency.quantile(0.99);
  }
  r.fecn_marked = fabric_->total_fecn_marked();
  r.cnps_sent = fabric_->total_cnps_sent();
  r.becn_received = fabric_->total_becn_received();
  if (engine_ != nullptr) {
    r.events_executed = engine_->total_executed();
    r.events_by_kind = engine_->total_executed_by_kind();
  } else {
    r.events_executed = sched_.executed();
    r.events_by_kind = sched_.executed_by_kind();
  }
  r.delivered_packets = fabric_->total_delivered_packets();
  if (workload_ != nullptr) {
    const workload::WorkloadProgress p = workload_->progress();
    r.workload.ran = true;
    r.workload.completed = p.complete;
    r.workload.makespan = p.makespan;
    r.workload.rank_finish = p.rank_finish;
    r.workload.phase_finish = p.phase_finish;
    r.workload.messages_completed = p.messages_completed;
    r.workload.messages_total = p.messages_total;
  }
  if (telemetry_ != nullptr) {
    refresh_gauges();  // observability state only, never simulated state
    telemetry::CounterRegistry& reg = telemetry_->registry();
    static constexpr const char* kKindGauges[core::Scheduler::kKindSlots] = {
        "sched.events.other0",       "sched.events.packet_arrive",
        "sched.events.link_free",    "sched.events.credit_update",
        "sched.events.sink_free",    "sched.events.retry_inject",
        "sched.events.other"};
    for (std::size_t k = 0; k < core::Scheduler::kKindSlots; ++k) {
      reg.set(reg.gauge(kKindGauges[k]), static_cast<std::int64_t>(r.events_by_kind[k]));
    }
    if (engine_ != nullptr) {
      reg.set(reg.gauge("sched.shard.count"),
              static_cast<std::int64_t>(shard_plan_.n_shards));
      reg.set(reg.gauge("sched.shard.cut_links"),
              static_cast<std::int64_t>(shard_plan_.cut_links));
      reg.set(reg.gauge("sched.shard.windows"),
              static_cast<std::int64_t>(engine_->stats().windows));
      reg.set(reg.gauge("sched.shard.crossed_packets"),
              static_cast<std::int64_t>(fabric_->crossed_packets()));
      reg.set(reg.gauge("sched.shard.crossed_credits"),
              static_cast<std::int64_t>(fabric_->crossed_credits()));
      reg.set(reg.gauge("sched.shard.absorbed_events"),
              static_cast<std::int64_t>(engine_->total_absorbed()));
    }
    if (r.workload.ran) {
      reg.set(reg.gauge("workload.messages_completed"),
              static_cast<std::int64_t>(r.workload.messages_completed));
      reg.set(reg.gauge("workload.messages_total"),
              static_cast<std::int64_t>(r.workload.messages_total));
      reg.set(reg.gauge("workload.makespan_us"),
              r.workload.completed
                  ? static_cast<std::int64_t>(r.workload.makespan / core::kMicrosecond)
                  : -1);
    }
    for (auto& [name, value] : telemetry_->registry().snapshot()) {
      r.counters.emplace(std::move(name), value);
    }
  }
  return r;
}

SimResult run_sim(const SimConfig& config) {
  Simulation sim(config);
  return sim.run();
}

}  // namespace ibsim::sim
