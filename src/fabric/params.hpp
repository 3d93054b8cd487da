#pragma once

#include <cstdint>
#include <string>

#include "core/time.hpp"
#include "ib/types.hpp"

namespace ibsim::fabric {

/// Physical and architectural parameters of the fabric, calibrated so the
/// model reproduces the end-node rates of the hardware the paper's
/// simulator was tuned against (Mellanox MTS3600 switches, PCIe v1.1
/// HCAs, 4x DDR links):
///
///  * links signal at 20 Gb/s; after 8b/10b encoding the data rate is
///    16 Gb/s — `wire_gbps`;
///  * an HCA cannot inject faster than 13.5 Gb/s (PCIe v1.1 protocol
///    overhead; paper section V-A footnote) — `hca_inject_gbps`;
///  * an HCA sinks at most 13.6 Gb/s, "approximately 0.1 Gb/s higher
///    than the injection rate" — `hca_drain_gbps`.
struct FabricParams {
  double wire_gbps = 16.0;
  double hca_inject_gbps = 13.5;
  double hca_drain_gbps = 13.6;

  /// Cable propagation plus SerDes latency per link.
  core::Time link_delay = 30 * core::kNanosecond;
  /// Switch ingress pipeline (routing decision, VoQ insertion).
  core::Time switch_delay = 200 * core::kNanosecond;
  /// HCA receive pipeline before a packet reaches the sink queue.
  core::Time hca_rx_delay = 300 * core::kNanosecond;
  /// Processing latency of a credit update at the sender, added on top of
  /// the link propagation of the flow-control packet.
  core::Time credit_delay = 50 * core::kNanosecond;

  /// Number of virtual lanes: 2 (the default) puts CNPs on VL1, so the
  /// CC feedback loop has credits independent of the congestion it
  /// reports on; 1 makes CNPs share VL0 with data. Data always rides
  /// VL0, and a CNP lane is served ahead of it.
  std::int32_t n_vls = ib::kDefaultVlCount;

  /// Input buffering per switch port for the data VL (the credit pool a
  /// sender sees). 32 KiB = 16 MTU packets.
  std::int64_t switch_ibuf_data_bytes = 32 * 1024;
  /// Input buffering per switch port for the CNP VL.
  std::int64_t switch_ibuf_cnp_bytes = 4 * 1024;
  /// Input buffering at an HCA (between last switch and the sink).
  std::int64_t hca_ibuf_data_bytes = 16 * 1024;
  std::int64_t hca_ibuf_cnp_bytes = 4 * 1024;

  /// Virtual cut-through (packets eligible for forwarding at header
  /// arrival) versus store-and-forward.
  bool cut_through = true;

  [[nodiscard]] ib::Vl cnp_vl() const { return n_vls > 1 ? ib::kCnpVl : ib::kDataVl; }

  /// Credit pool capacity of one VL of one input buffer. VL0 gets the
  /// data pool even when CNPs share it.
  [[nodiscard]] std::int64_t vl_capacity(ib::Vl vl, bool hca) const {
    if (vl == ib::kDataVl) return hca ? hca_ibuf_data_bytes : switch_ibuf_data_bytes;
    return hca ? hca_ibuf_cnp_bytes : switch_ibuf_cnp_bytes;
  }

  /// Sanity-check against obviously broken setups. Returns an error
  /// string or empty.
  [[nodiscard]] std::string validate() const;
};

/// Why the data-path rate `gbps`, set by config key `name`, is unusable,
/// or "" if it is finite, positive and fast enough that an MTU's
/// transmit time fits core::Time.
[[nodiscard]] std::string check_rate(const char* name, double gbps);

}  // namespace ibsim::fabric
