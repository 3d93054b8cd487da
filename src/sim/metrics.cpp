#include "sim/metrics.hpp"

namespace ibsim::sim {

LatencyCollector::LatencyCollector(double latency_hist_max_us)
    : latency_us_(0.0, latency_hist_max_us, 256) {}

void LatencyCollector::on_delivered(ib::NodeId, const ib::Packet& pkt, core::Time now) {
  latency_us_.add(static_cast<double>(now - pkt.injected_at) /
                  static_cast<double>(core::kMicrosecond));
}

void LatencyCollector::reset() { latency_us_.reset(); }

void LatencyCollector::absorb(const LatencyCollector& other) {
  latency_us_.absorb(other.latency_us_);
}

}  // namespace ibsim::sim
