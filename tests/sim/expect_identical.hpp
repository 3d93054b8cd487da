#pragma once

// Field-for-field SimResult equality for the tests that prove two ways
// of running one config (a shared or a private snapshot, any worker
// count, a repeat run) give one answer. EXPECT_EQ on every field, with
// no tolerance: doubles must match to the bit.

#include <gtest/gtest.h>

#include <string>

#include "sim/simulation.hpp"

namespace ibsim::sim {

inline void expect_identical(const SimResult& a, const SimResult& b, const std::string& what) {
  EXPECT_EQ(a.hotspot_rcv_gbps, b.hotspot_rcv_gbps) << what;
  EXPECT_EQ(a.non_hotspot_rcv_gbps, b.non_hotspot_rcv_gbps) << what;
  EXPECT_EQ(a.all_rcv_gbps, b.all_rcv_gbps) << what;
  EXPECT_EQ(a.total_throughput_gbps, b.total_throughput_gbps) << what;
  EXPECT_EQ(a.jain_non_hotspot, b.jain_non_hotspot) << what;
  EXPECT_EQ(a.median_latency_us, b.median_latency_us) << what;
  EXPECT_EQ(a.p99_latency_us, b.p99_latency_us) << what;
  EXPECT_EQ(a.fecn_marked, b.fecn_marked) << what;
  EXPECT_EQ(a.cnps_sent, b.cnps_sent) << what;
  EXPECT_EQ(a.becn_received, b.becn_received) << what;
  EXPECT_EQ(a.delivered_bytes, b.delivered_bytes) << what;
  EXPECT_EQ(a.events_executed, b.events_executed) << what;
  EXPECT_EQ(a.events_by_kind, b.events_by_kind) << what;
  EXPECT_EQ(a.delivered_packets, b.delivered_packets) << what;
  EXPECT_EQ(a.counters, b.counters) << what;
  EXPECT_EQ(a.workload.ran, b.workload.ran) << what;
  EXPECT_EQ(a.workload.completed, b.workload.completed) << what;
  EXPECT_EQ(a.workload.makespan, b.workload.makespan) << what;
  EXPECT_EQ(a.workload.rank_finish, b.workload.rank_finish) << what;
  EXPECT_EQ(a.workload.phase_finish, b.workload.phase_finish) << what;
  EXPECT_EQ(a.workload.messages_completed, b.workload.messages_completed) << what;
  EXPECT_EQ(a.workload.messages_total, b.workload.messages_total) << what;
}

}  // namespace ibsim::sim
