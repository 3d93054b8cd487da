#include "sim/metrics.hpp"

#include <gtest/gtest.h>

#include "ib/packet.hpp"

namespace ibsim::sim {
namespace {

ib::Packet make_packet(ib::NodeId src, std::int32_t bytes, core::Time injected) {
  ib::Packet pkt;
  pkt.src = src;
  pkt.bytes = bytes;
  pkt.injected_at = injected;
  return pkt;
}

TEST(Metrics, PerNodeRates) {
  MetricsCollector m(4, 1000.0);
  m.reset_window(0);
  const std::int64_t bytes = core::capacity_bytes(5.0, core::kMillisecond);
  ib::Packet pkt = make_packet(1, static_cast<std::int32_t>(bytes), 0);
  m.on_delivered(2, pkt, 100);
  EXPECT_NEAR(m.node_gbps(2, core::kMillisecond), 5.0, 0.01);
  EXPECT_EQ(m.node_gbps(0, core::kMillisecond), 0.0);
}

TEST(Metrics, HotspotAggregation) {
  MetricsCollector m(4, 1000.0);
  m.set_hotspots({0});
  m.reset_window(0);
  ib::Packet pkt = make_packet(3, 1000, 0);
  m.on_delivered(0, pkt, 10);  // hotspot
  m.on_delivered(1, pkt, 10);
  m.on_delivered(2, pkt, 10);
  const core::Time now = core::kMicrosecond;
  const double one_node = core::rate_gbps(1000, now);
  EXPECT_NEAR(m.avg_hotspot_gbps(now), one_node, 1e-9);
  EXPECT_NEAR(m.avg_non_hotspot_gbps(now), 2.0 * one_node / 3.0, 1e-9);
  EXPECT_NEAR(m.avg_all_gbps(now), 3.0 * one_node / 4.0, 1e-9);
  EXPECT_NEAR(m.total_throughput_gbps(now), 3.0 * one_node, 1e-9);
}

TEST(Metrics, NoHotspotsConfigured) {
  MetricsCollector m(2, 1000.0);
  m.reset_window(0);
  EXPECT_EQ(m.avg_hotspot_gbps(100), 0.0);
  ib::Packet pkt = make_packet(0, 500, 0);
  m.on_delivered(1, pkt, 10);
  EXPECT_GT(m.avg_non_hotspot_gbps(core::kMicrosecond), 0.0);
}

TEST(Metrics, ResetWindowDiscardsHistory) {
  MetricsCollector m(2, 1000.0);
  m.reset_window(0);
  ib::Packet pkt = make_packet(0, 99999, 0);
  m.on_delivered(1, pkt, 10);
  m.reset_window(core::kMicrosecond);
  EXPECT_EQ(m.delivered_bytes(), 0);
  EXPECT_EQ(m.node_gbps(1, 2 * core::kMicrosecond), 0.0);
  EXPECT_EQ(m.latency_us().total(), 0u);
}

TEST(Metrics, LatencyHistogramInMicroseconds) {
  MetricsCollector m(2, 1000.0);
  m.reset_window(0);
  ib::Packet pkt = make_packet(0, 100, 0);
  m.on_delivered(1, pkt, 5 * core::kMicrosecond);
  EXPECT_EQ(m.latency_us().total(), 1u);
  EXPECT_NEAR(m.latency_us().quantile(0.5), 5.0, 4.0);
}

TEST(Metrics, JainFairnessOverNonHotspots) {
  MetricsCollector m(3, 1000.0);
  m.set_hotspots({0});
  m.reset_window(0);
  ib::Packet pkt = make_packet(0, 1000, 0);
  // Equal delivery to both non-hotspots: perfectly fair.
  m.on_delivered(1, pkt, 10);
  m.on_delivered(2, pkt, 10);
  EXPECT_NEAR(m.jain_non_hotspot(core::kMicrosecond), 1.0, 1e-12);
  // Skew it.
  m.on_delivered(1, pkt, 20);
  m.on_delivered(1, pkt, 30);
  EXPECT_LT(m.jain_non_hotspot(core::kMicrosecond), 1.0);
}

TEST(Metrics, CountsPacketsAndBytes) {
  MetricsCollector m(2, 1000.0);
  m.reset_window(0);
  ib::Packet pkt = make_packet(0, 2048, 0);
  m.on_delivered(1, pkt, 10);
  m.on_delivered(1, pkt, 20);
  EXPECT_EQ(m.delivered_bytes(), 4096);
  EXPECT_EQ(m.latency_us().total(), 2u);
}

TEST(Metrics, SetHotspotsReplacesPrevious) {
  MetricsCollector m(4, 1000.0);
  m.set_hotspots({0, 1});
  m.set_hotspots({2});
  m.reset_window(0);
  ib::Packet pkt = make_packet(0, 1000, 0);
  m.on_delivered(0, pkt, 10);
  // Node 0 is no longer a hotspot.
  EXPECT_EQ(m.avg_hotspot_gbps(core::kMicrosecond), 0.0);
  EXPECT_GT(m.avg_non_hotspot_gbps(core::kMicrosecond), 0.0);
}

}  // namespace
}  // namespace ibsim::sim
