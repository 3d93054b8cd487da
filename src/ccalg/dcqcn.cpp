#include "ccalg/dcqcn.hpp"

#include <limits>

#include "core/assert.hpp"

namespace ibsim::ccalg {

Dcqcn::Dcqcn(const CcAlgoContext& ctx) : RateBasedAlgorithm(ctx, kMinRate) {}

std::unique_ptr<CcAlgorithm> Dcqcn::make(const CcAlgoContext& ctx) {
  return std::make_unique<Dcqcn>(ctx);
}

void Dcqcn::react(RateFlow& f) {
  f.alpha = (1.0 - kG) * f.alpha + kG;
  f.target = f.rate;
  f.rate = f.rate * (1.0 - f.alpha / 2.0);
  f.stage = 0;
}

bool Dcqcn::recover(RateFlow& f) {
  f.alpha *= 1.0 - kAlphaDecay;
  // The target reaches 1 within 25 stages and the rate kDoneThreshold
  // about 10 later, so the 16-bit count never wraps.
  IBSIM_ASSERT(f.stage < std::numeric_limits<std::uint16_t>::max(), "DCQCN stage overflow");
  ++f.stage;
  if (f.stage > kFastStages) {
    const std::uint32_t additive_stage = f.stage - kFastStages;
    f.target += additive_stage > kHyperAfter ? kHai : kAi;
    if (f.target > 1.0) f.target = 1.0;
  }
  f.rate = (f.rate + f.target) / 2.0;
  return f.rate >= kDoneThreshold && f.target >= 1.0;
}

}  // namespace ibsim::ccalg
