#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "ccalg/cc_algorithm.hpp"
#include "ccalg/flow_table.hpp"

namespace ibsim::ccalg {

/// The IBA 1.2.1 annex-A10 reference reaction point (paper section
/// II.2), extracted verbatim from the original CaCcAgent: a per-flow
/// CCT index (CCTI) bumped by `CCTI_Increase` per BECN and clamped to
/// `CCTI_Limit`, an injection-rate delay looked up in the Congestion
/// Control Table, and a `CCTI_Timer` chain that decrements every
/// throttled flow's CCTI by one per expiry down to `CCTI_Min`.
///
/// This is the default algorithm and the behaviour baseline: with
/// `cc_algo = iba_a10` a simulation must be bit-identical to the
/// pre-extraction tree (guarded by the ccalg equivalence tests).
class IbaA10 final : public CcAlgorithm {
 public:
  explicit IbaA10(const CcAlgoContext& ctx);

  [[nodiscard]] static std::unique_ptr<CcAlgorithm> make(const CcAlgoContext& ctx);

  [[nodiscard]] const char* name() const override { return "iba_a10"; }

  core::Time on_send(std::int32_t flow, std::int32_t bytes, core::Time end) override;
  [[nodiscard]] core::Time ready_at(std::int32_t flow) const override;
  [[nodiscard]] core::Time injection_delay(std::int32_t flow,
                                           std::int32_t bytes) const override;

  BecnOutcome on_becn(std::int32_t flow, core::Time now) override;

  [[nodiscard]] core::Time timer_delay() const override;
  std::int64_t on_timer(core::Time now, std::vector<std::int32_t>* ended) override;

  [[nodiscard]] std::int32_t active_flow_count() const override {
    return static_cast<std::int32_t>(active_flows_.size());
  }
  [[nodiscard]] std::int64_t severity_sum() const override { return ccti_total_; }
  [[nodiscard]] std::uint16_t ccti(std::int32_t flow) const override;
  [[nodiscard]] double rate_fraction(std::int32_t flow) const override;

 private:
  struct FlowCc {
    core::Time ready_at = 0;
    std::int32_t flow = -1;  ///< FlowTable's key
    std::uint16_t ccti = 0;
    bool active = false;  ///< listed in active_flows_
  };
  static_assert(sizeof(FlowCc) == 16, "the key must fill FlowCc's padding");

  ib::CcParams params_;
  const ib::CongestionControlTable* cct_;

  /// Per-destination state (QP level) of the flows used so far; in
  /// SL-level mode the agent maps every destination to flow 0.
  FlowTable<FlowCc> flows_;
  /// Flows with CCTI > 0 — the only ones the timer must visit.
  std::vector<std::int32_t> active_flows_;
  std::int64_t ccti_total_ = 0;  ///< sum of CCTIs over active_flows_
};

}  // namespace ibsim::ccalg
