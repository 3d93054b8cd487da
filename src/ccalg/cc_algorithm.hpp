#pragma once

#include <cstdint>
#include <vector>

#include "core/time.hpp"
#include "ib/cc_params.hpp"
#include "ib/cct.hpp"

namespace ibsim::ccalg {

/// Construction-time context for a reaction-point algorithm instance.
/// One instance serves one channel-adapter port and keeps per-flow state
/// only for the flows the port uses (see FlowTable). Flow ids are the
/// agent's: the destination NodeId, or 0 for every destination in
/// SL-level mode, where the whole port shares one flow.
struct CcAlgoContext {
  ib::CcParams params;
  /// The port's Congestion Control Table. Required by `iba_a10`; the
  /// rate-based algorithms only borrow its reference rate.
  const ib::CongestionControlTable* cct = nullptr;
  /// Injection rate (Gb/s) that rate fractions and inter-packet delays
  /// are computed against when no CCT is attached.
  double ref_gbps = 13.5;

  [[nodiscard]] double reference_gbps() const {
    return cct != nullptr ? cct->ref_gbps() : ref_gbps;
  }
};

/// What a BECN did to the flow it hit — the agent turns this into
/// telemetry (throttle-start events, severity gauges) without knowing
/// the algorithm's internals.
struct BecnOutcome {
  /// The flow entered the throttled set with this BECN.
  bool newly_throttled = false;
  /// Aggregate severity after the reaction (see severity_sum()).
  std::int64_t severity = 0;
};

/// A congestion-control reaction-point policy: everything the channel
/// adapter does between "a BECN arrived" and "the next packet of this
/// flow may inject at time T". One instance per CA port, owning its own
/// per-flow state; all calls arrive from the single simulation thread in
/// event order, and implementations must be deterministic functions of
/// that call sequence (no wall clock, no unseeded randomness).
///
/// The surrounding CaCcAgent keeps the FECN turnaround, the recovery
/// timer event, counters and telemetry — an algorithm only decides how
/// flows are throttled and how they recover:
///
///  * on_send      — a data packet of `flow` finished injection at `end`;
///                   record and return the flow's next-ready time.
///  * on_becn      — a BECN for `flow` arrived; tighten the throttle.
///  * on_timer     — one recovery-timer expiry; relax throttles, report
///                   flows that fully recovered.
///  * injection_delay — the gap the current throttle state would insert
///                   after a packet of `bytes` (introspection; on_send is
///                   the mutating path).
class CcAlgorithm {
 public:
  virtual ~CcAlgorithm() = default;

  /// Registry key this instance was created under ("iba_a10", ...).
  [[nodiscard]] virtual const char* name() const = 0;

  // --- source side ---------------------------------------------------------
  /// A packet of `bytes` of `flow` finishes injection at `end`: apply the
  /// flow's current injection-rate delay and return its next-ready time.
  virtual core::Time on_send(std::int32_t flow, std::int32_t bytes, core::Time end) = 0;

  /// Earliest time `flow` may inject its next packet (0 = immediately).
  [[nodiscard]] virtual core::Time ready_at(std::int32_t flow) const = 0;

  /// The inter-packet gap the current throttle state inserts after a
  /// packet of `bytes` of `flow` (0 when unthrottled).
  [[nodiscard]] virtual core::Time injection_delay(std::int32_t flow,
                                                   std::int32_t bytes) const = 0;

  // --- BECN reaction -------------------------------------------------------
  virtual BecnOutcome on_becn(std::int32_t flow, core::Time now) = 0;

  // --- recovery timer ------------------------------------------------------
  /// Delay until the next recovery-timer expiry, or 0 when no timer is
  /// needed (no flow is throttled). Consulted by the agent every time it
  /// considers arming the timer.
  [[nodiscard]] virtual core::Time timer_delay() const = 0;

  /// One timer expiry: advance every throttled flow's recovery. Flows
  /// that left the throttled set are appended to `ended` when it is
  /// non-null (trace support; passing null must not change behaviour).
  /// Returns the aggregate severity after the sweep.
  virtual std::int64_t on_timer(core::Time now, std::vector<std::int32_t>* ended) = 0;

  // --- destination side ----------------------------------------------------
  /// Whether a FECN-marked delivery should be answered with a CNP. The
  /// `none` passthrough returns false — the reaction point is dark.
  [[nodiscard]] virtual bool cnp_on_fecn() const { return true; }

  // --- introspection -------------------------------------------------------
  /// Flows currently throttled (the set the recovery timer visits).
  [[nodiscard]] virtual std::int32_t active_flow_count() const = 0;

  /// Aggregate throttle severity, maintained incrementally so sampling is
  /// O(1). For `iba_a10` this is the CCTI mass (sum of CCTIs over
  /// throttled flows); rate-based algorithms report the rate deficit
  /// sum(round(1024 * (1 - rate))) so the same gauge stays meaningful.
  [[nodiscard]] virtual std::int64_t severity_sum() const = 0;

  /// The flow's CCT index, for algorithms that have one (0 otherwise).
  [[nodiscard]] virtual std::uint16_t ccti(std::int32_t flow) const {
    (void)flow;
    return 0;
  }

  /// The relative injection rate (0..1] the flow is currently granted.
  [[nodiscard]] virtual double rate_fraction(std::int32_t flow) const = 0;
};

}  // namespace ibsim::ccalg
