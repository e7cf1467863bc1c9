#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <set>
#include <stdexcept>

namespace cim::util {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a() == b()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformMeanNearHalf) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformIntCoversRangeUniformly) {
  Rng rng(13);
  std::array<int, 7> counts{};
  const int n = 70000;
  for (int i = 0; i < n; ++i) ++counts[rng.uniform_int(7)];
  for (const int c : counts) EXPECT_NEAR(c, n / 7, 600);
}

TEST(Rng, NormalMomentsMatch) {
  Rng rng(17);
  double sum = 0.0, sumsq = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal(2.0, 3.0);
    sum += x;
    sumsq += x * x;
  }
  const double mean = sum / n;
  const double var = sumsq / n - mean * mean;
  EXPECT_NEAR(mean, 2.0, 0.05);
  EXPECT_NEAR(var, 9.0, 0.3);
}

TEST(Rng, LognormalIsPositive) {
  Rng rng(19);
  for (int i = 0; i < 1000; ++i) EXPECT_GT(rng.lognormal(0.0, 0.5), 0.0);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(23);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i)
    if (rng.bernoulli(0.3)) ++hits;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, BernoulliDegenerateProbabilities) {
  Rng rng(29);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

// Geometric(p) counts failures before the first success: P(0) = p,
// mean (1-p)/p, variance (1-p)/p^2. Both bands are 4-sigma binomial /
// CLT intervals for the draw count used (fixed seeds).
TEST(Rng, GeometricMatchesDistribution) {
  for (const double p : {0.2, 1e-3}) {
    Rng rng(31);
    const int n = 200000;
    int zeros = 0;
    double sum = 0.0;
    for (int i = 0; i < n; ++i) {
      const auto k = rng.geometric(p);
      if (k == 0) ++zeros;
      sum += static_cast<double>(k);
    }
    const double p0_sigma = std::sqrt(p * (1.0 - p) / n);
    EXPECT_NEAR(static_cast<double>(zeros) / n, p, 4.0 * p0_sigma) << p;
    const double mean = (1.0 - p) / p;
    const double mean_sigma = std::sqrt((1.0 - p) / (p * p) / n);
    EXPECT_NEAR(sum / n, mean, 4.0 * mean_sigma) << p;
  }
}

TEST(Rng, GeometricCertainSuccessIsZeroWithoutDrawing) {
  Rng a(37), b(37);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(a.geometric(1.0), 0u);
    EXPECT_EQ(a.geometric(1.5), 0u);
  }
  EXPECT_EQ(a(), b());  // no generator state consumed
}

TEST(Rng, GeometricGapClampsInsteadOfOverflowing) {
  const double u_max = std::nextafter(1.0, 0.0);  // largest uniform() value
  // p = 1e-12 at u -> 1: log(2^-53) / -1e-12 ~ 3.7e13, finite and exact.
  const auto k = Rng::geometric_gap(u_max, 1e-12);
  EXPECT_GT(k, 3.6e13);
  EXPECT_LT(k, 3.8e13);
  // Ratios past 2^62 (or +inf for a subnormal p) clamp to 2^62.
  const std::uint64_t clamp = std::uint64_t{1} << 62;
  EXPECT_EQ(Rng::geometric_gap(0.5, 1e-300), clamp);
  EXPECT_EQ(Rng::geometric_gap(u_max, 5e-324), clamp);
  EXPECT_EQ(Rng::geometric_gap(0.0, 0.5), 0u);
  Rng rng(41);
  for (int i = 0; i < 100; ++i) EXPECT_LE(rng.geometric(1e-300), clamp);
}

TEST(Rng, GeometricRejectsNonPositiveAndNaN) {
  Rng rng(43);
  EXPECT_THROW(rng.geometric(0.0), std::invalid_argument);
  EXPECT_THROW(rng.geometric(-0.1), std::invalid_argument);
  EXPECT_THROW(rng.geometric(std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
}

TEST(Rng, PermutationIsAPermutation) {
  Rng rng(31);
  const auto p = rng.permutation(100);
  std::set<std::size_t> seen(p.begin(), p.end());
  EXPECT_EQ(seen.size(), 100u);
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), 99u);
}

TEST(Rng, PermutationEmptyAndSingle) {
  Rng rng(37);
  EXPECT_TRUE(rng.permutation(0).empty());
  const auto p = rng.permutation(1);
  ASSERT_EQ(p.size(), 1u);
  EXPECT_EQ(p[0], 0u);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a(41);
  Rng child = a.split();
  // The child's output should differ from the parent's next outputs.
  int same = 0;
  for (int i = 0; i < 50; ++i)
    if (a() == child()) ++same;
  EXPECT_LT(same, 2);
}

}  // namespace
}  // namespace cim::util
