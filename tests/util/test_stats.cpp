#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace cim::util {
namespace {

TEST(Summary, OrderStatistics) {
  std::vector<double> xs = {5, 1, 4, 2, 3};
  const auto s = summarize(xs);
  EXPECT_EQ(s.count, 5u);
  EXPECT_DOUBLE_EQ(s.median, 3.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
}

TEST(Summary, SkewnessSign) {
  // Right-skewed sample has positive skewness.
  std::vector<double> xs = {1, 1, 1, 1, 2, 2, 3, 10};
  EXPECT_GT(summarize(xs).skewness, 0.5);
}

TEST(QuantileSorted, Interpolates) {
  std::vector<double> xs = {0.0, 10.0};
  EXPECT_DOUBLE_EQ(quantile_sorted(xs, 0.5), 5.0);
  EXPECT_DOUBLE_EQ(quantile_sorted(xs, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(quantile_sorted(xs, 1.0), 10.0);
}

TEST(Pearson, PerfectCorrelation) {
  std::vector<double> xs = {1, 2, 3, 4};
  std::vector<double> ys = {2, 4, 6, 8};
  EXPECT_NEAR(pearson(xs, ys), 1.0, 1e-12);
  std::vector<double> yneg = {8, 6, 4, 2};
  EXPECT_NEAR(pearson(xs, yneg), -1.0, 1e-12);
}

TEST(Pearson, DegenerateReturnsZero) {
  std::vector<double> xs = {1, 1, 1};
  std::vector<double> ys = {2, 3, 4};
  EXPECT_EQ(pearson(xs, ys), 0.0);
}

TEST(Errors, MaeAndRmse) {
  std::vector<double> a = {1, 2, 3};
  std::vector<double> b = {2, 2, 5};
  EXPECT_DOUBLE_EQ(mean_abs_error(a, b), 1.0);
  EXPECT_NEAR(rms_error(a, b), std::sqrt(5.0 / 3.0), 1e-12);
}

TEST(Errors, SizeMismatchThrows) {
  std::vector<double> a = {1.0};
  std::vector<double> b = {1.0, 2.0};
  EXPECT_THROW((void)mean_abs_error(a, b), std::invalid_argument);
  EXPECT_THROW((void)rms_error(a, b), std::invalid_argument);
}

}  // namespace
}  // namespace cim::util
