#pragma once

#include <cstdint>
#include <vector>

#include "cc/switch_cc.hpp"
#include "core/assert.hpp"
#include "fabric/credits.hpp"
#include "ib/types.hpp"

namespace ibsim::fabric {

/// Structure-of-arrays bank of the per-(output port, VL) hot state of one
/// device: flow-control credit balances, the arbitration round-robin
/// cursors and (on switches) the congestion detectors. Each quantity is a
/// flat, stride-indexed contiguous array with slot = port * n_vls + vl,
/// extending the LFT flattening to the fabric data plane: the grant loop
/// reads credits and CC state from dense arrays instead of chasing one
/// heap vector per OutputPort.
///
/// Behaviour stays in the owning device; the bank is plain state. HCAs
/// initialise with `with_cc = false` — an HCA never detects congestion,
/// so its bank carries no detector array.
class PortVlBank {
 public:
  void init(std::int32_t n_ports, std::int32_t n_vls, bool with_cc) {
    IBSIM_ASSERT(n_ports > 0 && n_vls > 0, "port/VL bank needs positive dimensions");
    n_ports_ = n_ports;
    n_vls_ = n_vls;
    const std::size_t n = static_cast<std::size_t>(n_ports) * static_cast<std::size_t>(n_vls);
    credits_.assign(n, CreditTracker{});
    rr_next_.assign(n, 0);
    cc_.assign(with_cc ? n : 0, cc::SwitchPortCc{});
  }

  [[nodiscard]] CreditTracker& credit(std::int32_t port, ib::Vl vl) {
    return credits_[slot(port, vl)];
  }
  [[nodiscard]] const CreditTracker& credit(std::int32_t port, ib::Vl vl) const {
    return credits_[slot(port, vl)];
  }

  /// Next input port the round-robin arbitration considers for this port VL.
  [[nodiscard]] std::int32_t& rr_next(std::int32_t port, ib::Vl vl) {
    return rr_next_[slot(port, vl)];
  }

  [[nodiscard]] cc::SwitchPortCc& cc(std::int32_t port, ib::Vl vl) {
    return cc_[slot(port, vl)];
  }
  [[nodiscard]] const cc::SwitchPortCc& cc(std::int32_t port, ib::Vl vl) const {
    return cc_[slot(port, vl)];
  }

  [[nodiscard]] std::int32_t n_ports() const { return n_ports_; }
  [[nodiscard]] std::int32_t n_vls() const { return n_vls_; }

 private:
  [[nodiscard]] std::size_t slot(std::int32_t port, ib::Vl vl) const {
    IBSIM_ASSERT(port >= 0 && port < n_ports_ && vl < n_vls_, "port/VL index out of range");
    return static_cast<std::size_t>(port) * static_cast<std::size_t>(n_vls_) +
           static_cast<std::size_t>(vl);
  }

  std::int32_t n_ports_ = 0;
  std::int32_t n_vls_ = 0;
  std::vector<CreditTracker> credits_;
  std::vector<std::int32_t> rr_next_;
  std::vector<cc::SwitchPortCc> cc_;
};

}  // namespace ibsim::fabric
