#include "telemetry/sampler.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "core/scheduler.hpp"
#include "core/time.hpp"
#include "telemetry/counters.hpp"

namespace ibsim::telemetry {
namespace {

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

class SamplerTest : public ::testing::Test {
 protected:
  void TearDown() override { std::remove(path_.c_str()); }
  // One file per case: ctest runs each case as its own process, in
  // parallel under -j, so a shared name lets one case's TearDown
  // delete another's output.
  std::string path_ = ::testing::TempDir() + "/sampler_test_" +
                      ::testing::UnitTest::GetInstance()->current_test_info()->name() +
                      ".csv";
};

TEST_F(SamplerTest, WritesHeaderAndOneRowPerInterval) {
  CounterRegistry reg;
  const auto c = reg.counter("fabric.fecn_marked");
  const auto g = reg.gauge("fabric.queued_bytes");

  core::Scheduler sched;
  CounterSampler sampler(&reg, 10 * core::kMicrosecond, path_);
  ASSERT_TRUE(sampler.install(sched));

  reg.set(c, 5);
  reg.set(g, 123);
  sched.run_until(35 * core::kMicrosecond);  // samples at 10, 20, 30 us
  sampler.close();

  EXPECT_EQ(sampler.rows_written(), 3u);
  const auto lines = read_lines(path_);
  ASSERT_EQ(lines.size(), 4u);
  EXPECT_EQ(lines[0], "t_us,fabric.fecn_marked,fabric.queued_bytes");
  EXPECT_EQ(lines[1], "10.000,5,123");
}

TEST_F(SamplerTest, RefreshHookRunsBeforeEachRow) {
  CounterRegistry reg;
  const auto g = reg.gauge("pulled");

  core::Scheduler sched;
  std::int64_t pulls = 0;
  CounterSampler sampler(&reg, 10 * core::kMicrosecond, path_,
                         [&](core::Time) { reg.set(g, ++pulls); });
  ASSERT_TRUE(sampler.install(sched));
  sched.run_until(25 * core::kMicrosecond);
  sampler.close();

  EXPECT_EQ(pulls, 2);
  const auto lines = read_lines(path_);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[1], "10.000,1");
  EXPECT_EQ(lines[2], "20.000,2");
}

TEST_F(SamplerTest, ColumnsFrozenAtInstall) {
  CounterRegistry reg;
  (void)reg.counter("early");

  core::Scheduler sched;
  CounterSampler sampler(&reg, 10 * core::kMicrosecond, path_);
  ASSERT_TRUE(sampler.install(sched));
  (void)reg.counter("late");  // after install: not a column
  sched.run_until(15 * core::kMicrosecond);
  sampler.close();

  const auto lines = read_lines(path_);
  ASSERT_GE(lines.size(), 2u);
  EXPECT_EQ(lines[0], "t_us,early");
  EXPECT_EQ(lines[1].find("late"), std::string::npos);
}

TEST_F(SamplerTest, UnopenableFileReportsFailure) {
  CounterRegistry reg;
  core::Scheduler sched;
  CounterSampler sampler(&reg, core::kMicrosecond, "/nonexistent-dir/out.csv");
  EXPECT_FALSE(sampler.install(sched));
}

}  // namespace
}  // namespace ibsim::telemetry
