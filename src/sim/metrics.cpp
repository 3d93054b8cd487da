#include "sim/metrics.hpp"

#include "core/assert.hpp"

namespace ibsim::sim {

MetricsCollector::MetricsCollector(std::int32_t n_nodes, double latency_hist_max_us)
    : rx_(static_cast<std::size_t>(n_nodes)),
      hotspot_(static_cast<std::size_t>(n_nodes), false),
      latency_us_(0.0, latency_hist_max_us, 256) {}

void MetricsCollector::on_delivered(ib::NodeId node, const ib::Packet& pkt, core::Time now) {
  rx_[static_cast<std::size_t>(node)].add(pkt.bytes);
  delivered_bytes_ += pkt.bytes;
  latency_us_.add(static_cast<double>(now - pkt.injected_at) /
                  static_cast<double>(core::kMicrosecond));
}

void MetricsCollector::reset_window(core::Time now) {
  window_start_ = now;
  for (auto& counter : rx_) counter.reset(now);
  latency_us_.reset();
  delivered_bytes_ = 0;
}

void MetricsCollector::absorb(const MetricsCollector& other) {
  IBSIM_ASSERT(rx_.size() == other.rx_.size(), "collectors must cover the same nodes");
  IBSIM_ASSERT(window_start_ == other.window_start_,
               "collectors must share a measurement window");
  // Each shard collector only sees deliveries to its own shard's nodes,
  // so the per-node sums never double count.
  for (std::size_t i = 0; i < rx_.size(); ++i) rx_[i].absorb(other.rx_[i]);
  latency_us_.absorb(other.latency_us_);
  delivered_bytes_ += other.delivered_bytes_;
}

void MetricsCollector::set_hotspots(const std::vector<ib::NodeId>& hotspots) {
  std::fill(hotspot_.begin(), hotspot_.end(), false);
  for (const ib::NodeId hs : hotspots) hotspot_[static_cast<std::size_t>(hs)] = true;
  n_hotspots_ = static_cast<std::int32_t>(hotspots.size());
}

double MetricsCollector::node_gbps(ib::NodeId node, core::Time now) const {
  return rx_[static_cast<std::size_t>(node)].gbps(now);
}

double MetricsCollector::avg_hotspot_gbps(core::Time now) const {
  if (n_hotspots_ == 0) return 0.0;
  double sum = 0.0;
  for (std::size_t i = 0; i < rx_.size(); ++i) {
    if (hotspot_[i]) sum += rx_[i].gbps(now);
  }
  return sum / static_cast<double>(n_hotspots_);
}

double MetricsCollector::avg_non_hotspot_gbps(core::Time now) const {
  const auto n = static_cast<std::int32_t>(rx_.size()) - n_hotspots_;
  if (n <= 0) return 0.0;
  double sum = 0.0;
  for (std::size_t i = 0; i < rx_.size(); ++i) {
    if (!hotspot_[i]) sum += rx_[i].gbps(now);
  }
  return sum / static_cast<double>(n);
}

double MetricsCollector::avg_all_gbps(core::Time now) const {
  if (rx_.empty()) return 0.0;
  return total_throughput_gbps(now) / static_cast<double>(rx_.size());
}

double MetricsCollector::total_throughput_gbps(core::Time now) const {
  double sum = 0.0;
  for (const auto& counter : rx_) sum += counter.gbps(now);
  return sum;
}

double MetricsCollector::jain_non_hotspot(core::Time now) const {
  std::vector<double> rates;
  rates.reserve(rx_.size());
  for (std::size_t i = 0; i < rx_.size(); ++i) {
    if (!hotspot_[i]) rates.push_back(rx_[i].gbps(now));
  }
  return core::jain_fairness(rates);
}

}  // namespace ibsim::sim
