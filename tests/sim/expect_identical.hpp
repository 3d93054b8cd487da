#pragma once

// Field-for-field SimResult equality for the tests that prove two ways
// of running one config (a shared or a private snapshot, any worker
// count, a repeat run, a store round trip) give one answer. No
// tolerance anywhere: doubles are compared bit for bit, so -0.0 differs
// from 0.0 and a NaN equals only the same NaN.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>

#include "sim/simulation.hpp"

namespace ibsim::sim {

inline void expect_same_bits(double a, double b, const char* field, const std::string& what) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a), std::bit_cast<std::uint64_t>(b))
      << what << ": " << field << " " << a << " vs " << b;
}

inline void expect_identical(const SimResult& a, const SimResult& b, const std::string& what) {
  expect_same_bits(a.hotspot_rcv_gbps, b.hotspot_rcv_gbps, "hotspot_rcv_gbps", what);
  expect_same_bits(a.non_hotspot_rcv_gbps, b.non_hotspot_rcv_gbps, "non_hotspot_rcv_gbps", what);
  expect_same_bits(a.all_rcv_gbps, b.all_rcv_gbps, "all_rcv_gbps", what);
  expect_same_bits(a.total_throughput_gbps, b.total_throughput_gbps, "total_throughput_gbps",
                   what);
  expect_same_bits(a.jain_non_hotspot, b.jain_non_hotspot, "jain_non_hotspot", what);
  expect_same_bits(a.median_latency_us, b.median_latency_us, "median_latency_us", what);
  expect_same_bits(a.p99_latency_us, b.p99_latency_us, "p99_latency_us", what);
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
