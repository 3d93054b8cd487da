#include "analysis/series.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

namespace ibsim::analysis {
namespace {

TEST(Series, AddAndQuery) {
  Series s{"t", {}, {}};
  s.add(0.0, 1.0);
  s.add(10.0, 5.0);
  s.add(20.0, 3.0);
  EXPECT_EQ(s.size(), 3u);
  EXPECT_EQ(s.max_y(), 5.0);
  EXPECT_EQ(s.x_of_max_y(), 10.0);
}

TEST(Series, EmptyQueries) {
  Series s;
  EXPECT_EQ(s.max_y(), 0.0);
  EXPECT_EQ(s.x_of_max_y(), 0.0);
}

TEST(Series, RatioElementwise) {
  Series num{"on", {0, 1, 2}, {10, 20, 30}};
  Series den{"off", {0, 1, 2}, {5, 4, 10}};
  const Series r = ratio_series("imp", num, den);
  EXPECT_EQ(r.name, "imp");
  ASSERT_EQ(r.size(), 3u);
  EXPECT_DOUBLE_EQ(r.y[0], 2.0);
  EXPECT_DOUBLE_EQ(r.y[1], 5.0);
  EXPECT_DOUBLE_EQ(r.y[2], 3.0);
}

TEST(Series, RatioZeroDenominatorIsZero) {
  Series num{"on", {0}, {10}};
  Series den{"off", {0}, {0}};
  EXPECT_EQ(ratio_series("imp", num, den).y[0], 0.0);
}

TEST(SeriesDeath, RatioMismatchedLengthsAbort) {
  Series num{"on", {0, 1}, {1, 2}};
  Series den{"off", {0}, {1}};
  EXPECT_DEATH((void)ratio_series("imp", num, den), "mismatched");
}

TEST(SeriesDeath, RatioMismatchedGridAborts) {
  Series num{"on", {0, 1}, {1, 2}};
  Series den{"off", {0, 2}, {1, 2}};
  EXPECT_DEATH((void)ratio_series("imp", num, den), "grids");
}

TEST(Series, CsvRoundTrip) {
  Series a{"alpha", {1, 2}, {0.5, 1.5}};
  Series b{"beta", {1, 2}, {10, 20}};
  const std::string path = ::testing::TempDir() + "/series_test.csv";
  write_csv(path, "x", {&a, &b});
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(buf.str(), "x,alpha,beta\n1,0.5,10\n2,1.5,20\n");
  std::remove(path.c_str());
}

TEST(Series, PrintDoesNotCrash) {
  Series a{"alpha", {1}, {2}};
  print_series("x", {&a});  // smoke: layout only
}

}  // namespace
}  // namespace ibsim::analysis
