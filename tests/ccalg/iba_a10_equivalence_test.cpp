// A/B guard for the CcAlgorithm extraction: `LegacyCaCcAgent` below is a
// verbatim copy of the pre-refactor cc::CaCcAgent state machine (CCTI
// bump/clamp, swap-remove active list, timer chain, FECN turnaround,
// telemetry stripped). Both agents are driven in lockstep through
// scripted and randomized BECN/grant/timer sequences shaped like the
// paper's three scenario kinds, and every observable must match after
// every step. A divergence here means `iba_a10` is no longer the
// annex-A10 machine this simulator was validated with.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "cc/ca_cc.hpp"
#include "core/rng.hpp"
#include "core/scheduler.hpp"
#include "ib/cc_params.hpp"
#include "ib/cct.hpp"
#include "ib/types.hpp"

namespace ibsim::cc {
namespace {

constexpr std::uint32_t kLegacyTimerEvent = 0xCC01;

class CountingCnpSender : public CnpSender {
 public:
  void send_cnp(ib::NodeId to, ib::NodeId flow_dst) override {
    ++count;
    last_to = to;
    last_flow_dst = flow_dst;
  }
  int count = 0;
  ib::NodeId last_to = -1;
  ib::NodeId last_flow_dst = -1;
};

/// The CA CC agent exactly as it existed before the ccalg extraction.
class LegacyCaCcAgent final : public core::EventHandler {
 public:
  LegacyCaCcAgent(ib::NodeId self, std::int32_t n_nodes, const ib::CcParams& params,
                  const ib::CongestionControlTable* cct, core::Scheduler* sched,
                  CnpSender* cnp_sender)
      : self_(self),
        params_(params),
        cct_(cct),
        sched_(sched),
        cnp_sender_(cnp_sender),
        flows_(params.sl_level ? 1 : static_cast<std::size_t>(n_nodes)) {}

  [[nodiscard]] core::Time flow_ready_at(ib::NodeId dst) const {
    if (!params_.enabled) return 0;
    return flow(dst).ready_at;
  }

  void on_data_granted(ib::NodeId dst, std::int32_t bytes, core::Time end) {
    if (!params_.enabled) return;
    FlowCc& f = flow(dst);
    if (f.ccti == 0) {
      f.ready_at = end;
      return;
    }
    f.ready_at = end + cct_->ird_delay(f.ccti, bytes);
  }

  void on_becn(ib::NodeId flow_dst, core::Time now) {
    if (!params_.enabled) return;
    ++becn_received_;
    FlowCc& f = flow(flow_dst);
    const bool newly_throttled = f.ccti == 0 && f.active_idx < 0;
    if (newly_throttled) {
      f.active_idx = static_cast<std::int32_t>(active_flows_.size());
      active_flows_.push_back(params_.sl_level ? 0 : flow_dst);
    }
    const std::uint16_t before = f.ccti;
    f.ccti = static_cast<std::uint16_t>(
        std::min<std::uint32_t>(f.ccti + params_.ccti_increase, params_.ccti_limit));
    ccti_total_ += f.ccti - before;
    arm_timer(now);
  }

  void on_fecn(ib::NodeId src) {
    if (!params_.enabled) return;
    ++cnps_sent_;
    cnp_sender_->send_cnp(src, self_);
  }

  void on_event(core::Scheduler& sched, const core::Event& ev) override {
    ASSERT_EQ(ev.kind, kLegacyTimerEvent);
    ++timer_expirations_;
    timer_armed_ = false;
    for (std::size_t i = 0; i < active_flows_.size();) {
      const std::int32_t dst = active_flows_[i];
      FlowCc& f = flows_[static_cast<std::size_t>(dst)];
      if (f.ccti > params_.ccti_min) {
        --f.ccti;
        --ccti_total_;
      }
      if (f.ccti == 0) {
        f.active_idx = -1;
        active_flows_[i] = active_flows_.back();
        active_flows_.pop_back();
        if (i < active_flows_.size()) {
          flows_[static_cast<std::size_t>(active_flows_[i])].active_idx =
              static_cast<std::int32_t>(i);
        }
      } else {
        ++i;
      }
    }
    arm_timer(sched.now());
  }

  [[nodiscard]] std::uint16_t ccti(ib::NodeId dst) const { return flow(dst).ccti; }
  [[nodiscard]] std::uint64_t becn_received() const { return becn_received_; }
  [[nodiscard]] std::uint64_t cnps_sent() const { return cnps_sent_; }
  [[nodiscard]] std::uint64_t timer_expirations() const { return timer_expirations_; }
  [[nodiscard]] std::int32_t active_flow_count() const {
    return static_cast<std::int32_t>(active_flows_.size());
  }
  [[nodiscard]] std::int64_t ccti_sum() const { return ccti_total_; }
  [[nodiscard]] bool timer_armed() const { return timer_armed_; }

 private:
  struct FlowCc {
    std::uint16_t ccti = 0;
    std::int32_t active_idx = -1;
    core::Time ready_at = 0;
  };

  void arm_timer(core::Time now) {
    if (timer_armed_ || active_flows_.empty()) return;
    timer_armed_ = true;
    sched_->schedule_at(now + params_.timer_interval(), this, kLegacyTimerEvent);
  }
  FlowCc& flow(ib::NodeId dst) {
    return flows_[params_.sl_level ? 0 : static_cast<std::size_t>(dst)];
  }
  [[nodiscard]] const FlowCc& flow(ib::NodeId dst) const {
    return flows_[params_.sl_level ? 0 : static_cast<std::size_t>(dst)];
  }

  ib::NodeId self_;
  ib::CcParams params_;
  const ib::CongestionControlTable* cct_;
  core::Scheduler* sched_;
  CnpSender* cnp_sender_;
  std::vector<FlowCc> flows_;
  std::vector<std::int32_t> active_flows_;
  std::int64_t ccti_total_ = 0;
  bool timer_armed_ = false;
  std::uint64_t becn_received_ = 0;
  std::uint64_t cnps_sent_ = 0;
  std::uint64_t timer_expirations_ = 0;
};

/// Drives a legacy and a refactored agent (each on its own scheduler, so
/// timer events fire independently) through the same op sequence and
/// checks every observable after every op. On small fabrics every
/// destination is compared after every op; on wide ones (more than
/// kFullSweepNodes) each op compares every destination touched so far
/// — untouched flows must read idle, which the full sweep every
/// kFullSweepPeriod ops and at every drain checks.
class Lockstep {
 public:
  static constexpr std::int32_t kFullSweepNodes = 64;
  static constexpr int kFullSweepPeriod = 256;

  Lockstep(const ib::CcParams& params, std::int32_t n_nodes)
      : n_nodes_(n_nodes),
        cct_(128, 13.5),
        touched_mark_(static_cast<std::size_t>(n_nodes), false),
        legacy_(nullptr),
        agent_(nullptr) {
    cct_.populate_geometric(1.05);
    legacy_ = std::make_unique<LegacyCaCcAgent>(0, n_nodes, params, &cct_, &legacy_sched_,
                                                &legacy_sender_);
    agent_ = std::make_unique<CaCcAgent>(0, n_nodes, params, &cct_, &agent_sched_,
                                         &agent_sender_, "iba_a10");
  }

  void advance_to(core::Time t) {
    legacy_sched_.run_until(t);
    agent_sched_.run_until(t);
    compare(t);
  }

  void drain(core::Time t) {
    advance_to(t);
    compare_range(t, 0, n_nodes_);
  }

  void becn(ib::NodeId dst, core::Time now) {
    touch(dst);
    legacy_->on_becn(dst, now);
    agent_->on_becn(dst, now);
    compare(now);
  }

  void grant(ib::NodeId dst, std::int32_t bytes, core::Time end) {
    touch(dst);
    legacy_->on_data_granted(dst, bytes, end);
    agent_->on_data_granted(dst, bytes, end);
    compare(end);
  }

  [[nodiscard]] std::size_t touched_count() const { return touched_.size(); }

  void fecn(ib::NodeId src) {
    legacy_->on_fecn(src);
    agent_->on_fecn(src);
    ASSERT_EQ(legacy_sender_.count, agent_sender_.count);
    ASSERT_EQ(legacy_sender_.last_to, agent_sender_.last_to);
  }

  void compare(core::Time at) {
    ASSERT_EQ(legacy_->active_flow_count(), agent_->active_flow_count()) << "t=" << at;
    ASSERT_EQ(legacy_->ccti_sum(), agent_->ccti_sum()) << "t=" << at;
    ASSERT_EQ(legacy_->timer_armed(), agent_->timer_armed()) << "t=" << at;
    ASSERT_EQ(legacy_->timer_expirations(), agent_->timer_expirations()) << "t=" << at;
    ASSERT_EQ(legacy_->becn_received(), agent_->becn_received()) << "t=" << at;
    ASSERT_EQ(legacy_->cnps_sent(), agent_->cnps_sent()) << "t=" << at;
    ASSERT_EQ(legacy_sched_.pending(), agent_sched_.pending()) << "t=" << at;
    if (n_nodes_ <= kFullSweepNodes || ++ops_ % kFullSweepPeriod == 0) {
      compare_range(at, 0, n_nodes_);
      return;
    }
    for (const ib::NodeId d : touched_) compare_range(at, d, d + 1);
  }

  void compare_range(core::Time at, ib::NodeId begin, ib::NodeId end) {
    for (ib::NodeId d = begin; d < end; ++d) {
      ASSERT_EQ(legacy_->ccti(d), agent_->ccti(d)) << "t=" << at << " dst=" << d;
      ASSERT_EQ(legacy_->flow_ready_at(d), agent_->flow_ready_at(d))
          << "t=" << at << " dst=" << d;
    }
  }

  void touch(ib::NodeId dst) {
    if (touched_mark_[static_cast<std::size_t>(dst)]) return;
    touched_mark_[static_cast<std::size_t>(dst)] = true;
    touched_.push_back(dst);
  }

  std::int32_t n_nodes_;
  ib::CongestionControlTable cct_;
  std::vector<bool> touched_mark_;
  std::vector<ib::NodeId> touched_;
  int ops_ = 0;
  core::Scheduler legacy_sched_;
  core::Scheduler agent_sched_;
  CountingCnpSender legacy_sender_;
  CountingCnpSender agent_sender_;
  std::unique_ptr<LegacyCaCcAgent> legacy_;
  std::unique_ptr<CaCcAgent> agent_;
};

ib::CcParams quick_params() {
  ib::CcParams p = ib::CcParams::paper_table1();
  p.ccti_increase = 4;
  p.ccti_timer = 38;
  return p;
}

/// Random drive shaped like one of the paper's scenario kinds: a set of
/// hot destinations attracting a `hot_bias` share of the BECNs, hotspots
/// optionally moving to new destinations at a fixed period. Destinations
/// come from a pool of `pool` distinct nodes spread over the whole range
/// (0 = every node), so a wide fabric can be driven through a few
/// hundred flows the way one HCA of a large fabric talks to a few of its
/// peers.
void random_drive(Lockstep& ab, std::uint64_t seed, double hot_bias, int n_hotspots,
                  core::Time hotspot_period, int pool = 0, int n_ops = 3000) {
  core::Rng rng(seed);
  const core::Time step = 2 * core::kMicrosecond;
  std::vector<ib::NodeId> dests;
  if (pool == 0) {
    for (ib::NodeId d = 0; d < ab.n_nodes_; ++d) dests.push_back(d);
  } else {
    std::vector<bool> taken(static_cast<std::size_t>(ab.n_nodes_), false);
    while (static_cast<int>(dests.size()) < pool) {
      const auto d = static_cast<ib::NodeId>(
          rng.next_below(static_cast<std::uint64_t>(ab.n_nodes_)));
      if (taken[static_cast<std::size_t>(d)]) continue;
      taken[static_cast<std::size_t>(d)] = true;
      dests.push_back(d);
    }
  }
  const auto any_dest = [&] { return dests[rng.next_below(dests.size())]; };
  std::vector<ib::NodeId> hot;
  for (int h = 0; h < n_hotspots; ++h) hot.push_back(any_dest());
  core::Time now = 0;
  core::Time next_move = hotspot_period;
  for (int op = 0; op < n_ops; ++op) {
    now += static_cast<core::Time>(rng.next_below(step));
    if (hotspot_period > 0 && now >= next_move) {
      next_move += hotspot_period;
      for (ib::NodeId& h : hot) h = any_dest();
    }
    ab.advance_to(now);
    const ib::NodeId dst = rng.chance(hot_bias) ? hot[rng.next_below(hot.size())] : any_dest();
    switch (rng.next_below(4)) {
      case 0:
        ab.becn(dst, now);
        break;
      case 1:
      case 2:
        ab.grant(dst, static_cast<std::int32_t>(256 + rng.next_below(ib::kMtuBytes - 256)),
                 now);
        break;
      default:
        ab.fecn(dst);
        break;
    }
  }
  // Drain both timer chains completely.
  ab.drain(now + 1000 * core::kMillisecond);
}

TEST(IbaA10Equivalence, ScriptedBecnTimerInterleaving) {
  Lockstep ab(quick_params(), 8);
  const core::Time ti = quick_params().timer_interval();
  ab.becn(3, 0);
  ab.becn(3, 100);
  ab.becn(5, 200);
  ab.grant(3, ib::kMtuBytes, 300);
  ab.advance_to(ti + 1);           // one timer expiry
  ab.becn(5, ti + 50);
  ab.grant(5, 512, ti + 60);
  ab.advance_to(3 * ti);           // more expiries
  ab.becn(1, 3 * ti + 5);
  ab.advance_to(100 * ti);         // full recovery, chain stops
  ASSERT_EQ(ab.agent_->active_flow_count(), 0);
}

TEST(IbaA10Equivalence, ClampAtLimitMatches) {
  ib::CcParams p = quick_params();
  p.ccti_limit = 12;
  Lockstep ab(p, 4);
  for (int i = 0; i < 40; ++i) ab.becn(1, i * 10);
  ASSERT_EQ(ab.agent_->ccti(1), 12);
  ab.advance_to(1000 * core::kMillisecond);
}

TEST(IbaA10Equivalence, CctiMinFloorMatches) {
  ib::CcParams p = quick_params();
  p.ccti_min = 3;
  Lockstep ab(p, 4);
  for (int i = 0; i < 10; ++i) ab.becn(2, i);
  ab.advance_to(1000 * core::kMillisecond);
  ASSERT_EQ(ab.agent_->ccti(2), 3);
  ASSERT_EQ(ab.agent_->active_flow_count(), 1);  // floored flow stays active
}

TEST(IbaA10Equivalence, SlLevelMatches) {
  ib::CcParams p = quick_params();
  p.sl_level = true;
  Lockstep ab(p, 8);
  ab.becn(1, 0);
  ab.becn(6, 10);
  ab.grant(4, ib::kMtuBytes, 20);
  ab.advance_to(1000 * core::kMillisecond);
}

// The three randomized drives mirror the paper's taxonomy: static silent
// trees (few fixed hotspots), a windy forest (diffuse victims, p=0.5
// bias), and moving hotspots (targets shift every period).
TEST(IbaA10Equivalence, RandomizedSilentForestDrive) {
  Lockstep ab(quick_params(), 12);
  random_drive(ab, /*seed=*/42, /*hot_bias=*/0.8, /*n_hotspots=*/2,
               /*hotspot_period=*/0);
}

TEST(IbaA10Equivalence, RandomizedWindyForestDrive) {
  Lockstep ab(quick_params(), 12);
  random_drive(ab, /*seed=*/7, /*hot_bias=*/0.5, /*n_hotspots=*/4,
               /*hotspot_period=*/0);
}

TEST(IbaA10Equivalence, RandomizedMovingHotspotDrive) {
  Lockstep ab(quick_params(), 12);
  random_drive(ab, /*seed=*/11, /*hot_bias=*/0.7, /*n_hotspots=*/2,
               /*hotspot_period=*/200 * core::kMicrosecond);
}

// One HCA of a wide fabric: 4096 destinations, of which a few hundred
// ever see traffic. The agent's flow table grows from empty through
// several doublings while the dense legacy table holds all 4096 flows.
TEST(IbaA10Equivalence, RandomizedWideFabricDrive) {
  Lockstep ab(quick_params(), 4096);
  random_drive(ab, /*seed=*/2024, /*hot_bias=*/0.3, /*n_hotspots=*/8,
               /*hotspot_period=*/300 * core::kMicrosecond, /*pool=*/400,
               /*n_ops=*/8000);
  EXPECT_GE(ab.touched_count(), 300u);
  EXPECT_LE(ab.touched_count(), 400u);
}

// SL-level CC: every destination shares one flow, so BECNs to any
// destination throttle all of them and grants overwrite one ready time.
TEST(IbaA10Equivalence, RandomizedSlLevelDrive) {
  ib::CcParams p = quick_params();
  p.sl_level = true;
  Lockstep ab(p, 12);
  random_drive(ab, /*seed=*/5, /*hot_bias=*/0.6, /*n_hotspots=*/3,
               /*hotspot_period=*/150 * core::kMicrosecond);
}

TEST(IbaA10Equivalence, RandomizedWideSlLevelDrive) {
  ib::CcParams p = quick_params();
  p.sl_level = true;
  Lockstep ab(p, 4096);
  random_drive(ab, /*seed=*/99, /*hot_bias=*/0.5, /*n_hotspots=*/4,
               /*hotspot_period=*/0, /*pool=*/300);
}

}  // namespace
}  // namespace ibsim::cc
