#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "ccalg/registry.hpp"
#include "core/time.hpp"
#include "ib/cc_params.hpp"
#include "ib/cct.hpp"
#include "ib/types.hpp"

namespace ibsim::ccalg {
namespace {

class AlgorithmsTest : public ::testing::Test {
 protected:
  AlgorithmsTest() : cct_(128, 13.5) { cct_.populate_linear(); }

  std::unique_ptr<CcAlgorithm> make(const std::string& name) {
    CcAlgoContext ctx;
    ctx.params = ib::CcParams::paper_table1();
    ctx.cct = &cct_;
    return CcAlgorithmRegistry::instance().create(name, ctx);
  }

  /// Drain one flow back to full rate; returns timer expiries used.
  int recover_fully(CcAlgorithm& algo, int max_ticks = 10000) {
    int ticks = 0;
    while (algo.active_flow_count() > 0 && ticks < max_ticks) {
      algo.on_timer(0, nullptr);
      ++ticks;
    }
    return ticks;
  }

  ib::CongestionControlTable cct_;
};

// --- iba_a10 ---------------------------------------------------------------

TEST_F(AlgorithmsTest, IbaA10BecnBumpsCctiAndSeverity) {
  auto algo = make("iba_a10");
  const BecnOutcome first = algo->on_becn(2, 0);
  EXPECT_TRUE(first.newly_throttled);
  EXPECT_EQ(first.severity, 1);
  EXPECT_EQ(algo->ccti(2), 1);
  const BecnOutcome second = algo->on_becn(2, 0);
  EXPECT_FALSE(second.newly_throttled);
  EXPECT_EQ(second.severity, 2);
  EXPECT_EQ(algo->active_flow_count(), 1);
  EXPECT_DOUBLE_EQ(algo->rate_fraction(2), cct_.rate_fraction(2));
}

TEST_F(AlgorithmsTest, IbaA10TimerDecrementsAndReportsEnded) {
  auto algo = make("iba_a10");
  algo->on_becn(1, 0);
  algo->on_becn(3, 0);
  std::vector<std::int32_t> ended;
  const std::int64_t severity = algo->on_timer(0, &ended);
  EXPECT_EQ(severity, 0);
  EXPECT_EQ(algo->active_flow_count(), 0);
  ASSERT_EQ(ended.size(), 2u);
  EXPECT_EQ(algo->timer_delay(), 0);
}

TEST_F(AlgorithmsTest, IbaA10SendAppliesIrdOfCurrentCcti) {
  auto algo = make("iba_a10");
  algo->on_becn(0, 0);
  const core::Time end = 5 * core::kMicrosecond;
  const core::Time ready = algo->on_send(0, ib::kMtuBytes, end);
  EXPECT_EQ(ready, end + cct_.ird_delay(1, ib::kMtuBytes));
  EXPECT_EQ(algo->ready_at(0), ready);
}

// --- dcqcn -----------------------------------------------------------------

TEST_F(AlgorithmsTest, DcqcnBecnCutsRateMultiplicatively) {
  auto algo = make("dcqcn");
  EXPECT_DOUBLE_EQ(algo->rate_fraction(0), 1.0);
  const BecnOutcome out = algo->on_becn(0, 0);
  EXPECT_TRUE(out.newly_throttled);
  EXPECT_GT(out.severity, 0);
  const double after_one = algo->rate_fraction(0);
  EXPECT_LT(after_one, 1.0);
  // Repeated marks keep compounding (alpha grows, rate shrinks).
  for (int i = 0; i < 10; ++i) algo->on_becn(0, 0);
  EXPECT_LT(algo->rate_fraction(0), after_one);
  EXPECT_GT(algo->rate_fraction(0), 0.0);
}

TEST_F(AlgorithmsTest, DcqcnThrottledFlowDelaysInjection) {
  auto algo = make("dcqcn");
  algo->on_becn(1, 0);
  EXPECT_GT(algo->injection_delay(1, ib::kMtuBytes), 0);
  EXPECT_EQ(algo->injection_delay(0, ib::kMtuBytes), 0);  // other flow untouched
  const core::Time end = 1000000;
  EXPECT_GT(algo->on_send(1, ib::kMtuBytes, end), end);
}

TEST_F(AlgorithmsTest, DcqcnTimerRecoversToFullRate) {
  auto algo = make("dcqcn");
  for (int i = 0; i < 5; ++i) algo->on_becn(2, 0);
  EXPECT_EQ(algo->active_flow_count(), 1);
  const int ticks = recover_fully(*algo);
  EXPECT_LT(ticks, 200) << "recovery must converge";
  EXPECT_DOUBLE_EQ(algo->rate_fraction(2), 1.0);
  EXPECT_EQ(algo->severity_sum(), 0);
  EXPECT_EQ(algo->injection_delay(2, ib::kMtuBytes), 0);
}

TEST_F(AlgorithmsTest, DcqcnFastRecoveryMovesHalfwayToTarget) {
  auto algo = make("dcqcn");
  algo->on_becn(0, 0);
  const double cut = algo->rate_fraction(0);
  algo->on_timer(0, nullptr);
  const double recovered = algo->rate_fraction(0);
  // One fast-recovery stage closes at least a third of the gap to the
  // pre-cut target (exactly half, minus the alpha-decay interplay).
  EXPECT_GT(recovered, cut);
  EXPECT_LT(recovered, 1.0);
}

// --- aimd ------------------------------------------------------------------

TEST_F(AlgorithmsTest, AimdHalvesOnBecn) {
  auto algo = make("aimd");
  algo->on_becn(0, 0);
  EXPECT_DOUBLE_EQ(algo->rate_fraction(0), 0.5);
  algo->on_becn(0, 0);
  EXPECT_DOUBLE_EQ(algo->rate_fraction(0), 0.25);
}

TEST_F(AlgorithmsTest, AimdRateNeverBelowFloor) {
  auto algo = make("aimd");
  for (int i = 0; i < 64; ++i) algo->on_becn(0, 0);
  EXPECT_GT(algo->rate_fraction(0), 0.0);
}

TEST_F(AlgorithmsTest, AimdRecoversAdditively) {
  auto algo = make("aimd");
  algo->on_becn(3, 0);
  const double halved = algo->rate_fraction(3);
  std::vector<std::int32_t> ended;
  algo->on_timer(0, &ended);
  EXPECT_NEAR(algo->rate_fraction(3), halved + 1.0 / 32.0, 1e-12);
  EXPECT_TRUE(ended.empty());
  const int ticks = recover_fully(*algo);
  EXPECT_EQ(ticks, 15);  // 0.5 -> 1.0 in 1/32 steps
  EXPECT_DOUBLE_EQ(algo->rate_fraction(3), 1.0);
}

// --- none ------------------------------------------------------------------

TEST_F(AlgorithmsTest, NoneIsCompletelyInert) {
  auto algo = make("none");
  EXPECT_FALSE(algo->cnp_on_fecn());
  const BecnOutcome out = algo->on_becn(0, 0);
  EXPECT_FALSE(out.newly_throttled);
  EXPECT_EQ(out.severity, 0);
  EXPECT_EQ(algo->active_flow_count(), 0);
  EXPECT_EQ(algo->timer_delay(), 0);
  EXPECT_EQ(algo->on_send(0, ib::kMtuBytes, 777), 777);
  EXPECT_EQ(algo->ready_at(0), 0);
  EXPECT_DOUBLE_EQ(algo->rate_fraction(0), 1.0);
}

// --- shared contracts ------------------------------------------------------

TEST_F(AlgorithmsTest, ReactiveAlgorithmsNeedTimerOnlyWhenThrottled) {
  for (const char* name : {"iba_a10", "dcqcn", "aimd"}) {
    auto algo = make(name);
    EXPECT_EQ(algo->timer_delay(), 0) << name;
    algo->on_becn(0, 0);
    EXPECT_EQ(algo->timer_delay(), ib::CcParams::paper_table1().timer_interval()) << name;
    recover_fully(*algo);
    EXPECT_EQ(algo->timer_delay(), 0) << name;
  }
}

TEST_F(AlgorithmsTest, ReactiveAlgorithmsAnswerFecn) {
  for (const char* name : {"iba_a10", "dcqcn", "aimd"}) {
    EXPECT_TRUE(make(name)->cnp_on_fecn()) << name;
  }
}

TEST_F(AlgorithmsTest, NullEndedListNeverChangesBehaviour) {
  for (const char* name : {"iba_a10", "dcqcn", "aimd"}) {
    auto with_list = make(name);
    auto without = make(name);
    for (int i = 0; i < 3; ++i) {
      with_list->on_becn(1, 0);
      without->on_becn(1, 0);
    }
    std::vector<std::int32_t> ended;
    for (int t = 0; t < 50; ++t) {
      const std::int64_t a = with_list->on_timer(0, &ended);
      const std::int64_t b = without->on_timer(0, nullptr);
      EXPECT_EQ(a, b) << name << " tick " << t;
    }
    EXPECT_EQ(with_list->active_flow_count(), without->active_flow_count()) << name;
  }
}

}  // namespace
}  // namespace ibsim::ccalg
