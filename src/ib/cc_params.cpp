#include "ib/cc_params.hpp"

#include <cmath>

namespace ibsim::ib {

std::string CcParams::validate() const {
  if (threshold_weight > 15) return "threshold_weight must be in [0, 15]";
  if (ccti_limit > 16383) return "ccti_limit exceeds the CCT index space";
  if (ccti_min > ccti_limit) return "ccti_min must not exceed ccti_limit";
  if (ccti_increase == 0 && enabled) return "ccti_increase of 0 makes BECNs no-ops";
  if (ccti_timer == 0 && enabled) return "ccti_timer of 0 would never recover";
  // The table is filled whether or not CC is enabled.
  if (cct_fill == CctFill::Geometric && !(std::isfinite(cct_base) && cct_base > 1.0)) {
    return "cct_base must be a finite number above 1 for the geometric cct_fill";
  }
  return {};
}

CcParams CcParams::paper_table1() {
  CcParams p;
  p.enabled = true;
  p.threshold_weight = 15;
  p.marking_rate = 0;
  p.packet_size = 0;
  p.ccti_increase = 1;
  p.ccti_limit = 127;
  p.ccti_min = 0;
  p.ccti_timer = 150;
  return p;
}

CcParams CcParams::disabled() {
  CcParams p;
  p.enabled = false;
  return p;
}

}  // namespace ibsim::ib
