// Equivalence tests for the ziggurat normal sampler (`ctest -L rng`): the
// shipped tables against their defining recurrence, and the sampled
// distribution against the standard normal (KS, tail frequencies, moments),
// lognormal moments, and seed determinism down to the bit.
#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numbers>
#include <vector>

namespace cim::util {
namespace {

using detail::kZigF;
using detail::kZigR;
using detail::kZigX;

double phi_cdf(double x) { return 0.5 * std::erfc(-x / std::numbers::sqrt2); }

// Two-sided tail probability P(|Z| > k).
double two_sided_tail(double k) { return std::erfc(k / std::numbers::sqrt2); }

// Distance in units in the last place of `want`.
double ulps(double got, double want) {
  if (got == want) return 0.0;
  const double ulp =
      std::nextafter(std::fabs(want), std::numeric_limits<double>::infinity()) -
      std::fabs(want);
  return std::fabs(got - want) / ulp;
}

TEST(ZigguratTables, RegenerateFromRecurrence) {
  using ld = long double;
  const auto f = [](ld x) { return std::exp(ld{-0.5} * x * x); };
  const ld r = kZigR;
  const ld v = r * f(r) + std::sqrt(std::numbers::pi_v<ld> / 2) *
                              std::erfc(r / std::numbers::sqrt2_v<ld>);
  std::array<ld, 257> x{};
  x[0] = v / f(r);
  x[1] = r;
  for (int i = 1; i < 255; ++i)
    x[i + 1] = std::sqrt(-2 * std::log(v / x[i] + f(x[i])));
  x[256] = 0;
  // The recurrence amplifies rounding towards the top layers, so a double-only
  // long double (some ABIs) needs a looser bound than x87/quad precision.
  const double tol = std::numeric_limits<ld>::digits >= 64 ? 1.0 : 512.0;
  for (int i = 0; i <= 256; ++i) {
    EXPECT_LE(ulps(kZigX[i], static_cast<double>(x[i])), tol)
        << "x[" << i << "]";
    EXPECT_LE(ulps(kZigF[i], static_cast<double>(f(x[i]))), tol)
        << "f[" << i << "]";
  }
  // Strictly decreasing widths, and every layer (the top one included, which
  // closes the recurrence at x = 0) has the common area V.
  for (int i = 0; i < 256; ++i) EXPECT_GT(kZigX[i], kZigX[i + 1]) << i;
  EXPECT_EQ(kZigX[256], 0.0);
  EXPECT_EQ(kZigF[256], 1.0);
  for (int i = 1; i < 256; ++i) {
    const ld area = ld{kZigX[i]} * (ld{kZigF[i + 1]} - ld{kZigF[i]});
    EXPECT_NEAR(static_cast<double>(area / v), 1.0, 1e-12) << "layer " << i;
  }
  EXPECT_NEAR(static_cast<double>(ld{kZigX[0]} * ld{kZigF[1]} / v), 1.0, 1e-15);
}

TEST(NormalEquivalence, KolmogorovSmirnovAgainstPhi) {
  Rng rng(1);
  const std::size_t n = 200000;
  std::vector<double> xs(n);
  for (double& x : xs) x = rng.normal();
  std::sort(xs.begin(), xs.end());
  double d = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double c = phi_cdf(xs[i]);
    d = std::max({d, c - static_cast<double>(i) / n,
                  static_cast<double>(i + 1) / n - c});
  }
  // Asymptotic KS critical value at alpha = 0.001: 1.9495 / sqrt(n).
  EXPECT_LT(d, 1.9495 / std::sqrt(static_cast<double>(n)));
}

// One pass of 2e7 draws: the tail counts beyond 3, 4 and 5 sigma (the last
// two come only from the tail branch beyond R = 3.654), the shape of that
// branch, and the first four moments.
class NormalLargeSample : public ::testing::Test {
 protected:
  static constexpr std::size_t kN = 20000000;
  static void SetUpTestSuite() {
    Rng rng(2);
    for (std::size_t i = 0; i < kN; ++i) {
      const double x = rng.normal();
      const double ax = std::fabs(x);
      if (ax > kZigR) tail_.push_back(ax);
      for (int k = 0; k < 3; ++k) {
        if (ax > 3.0 + k) {
          ++beyond_[k];
          if (x > 0) ++beyond_pos_[k];
        }
      }
      const double x2 = x * x;
      m1_ += x;
      m2_ += x2;
      m3_ += x2 * x;
      m4_ += x2 * x2;
    }
  }
  static inline std::vector<double> tail_;  ///< |x| of draws beyond R
  static inline std::array<std::size_t, 3> beyond_{};
  static inline std::array<std::size_t, 3> beyond_pos_{};
  static inline double m1_ = 0, m2_ = 0, m3_ = 0, m4_ = 0;
};

TEST_F(NormalLargeSample, TailFrequenciesMatchPhi) {
  for (int k = 0; k < 3; ++k) {
    const double p = two_sided_tail(3.0 + k);
    const double mean = kN * p;
    const double sd = std::sqrt(kN * p * (1 - p));
    // 5 binomial standard deviations: per-check false-alarm rate < 1e-5 for
    // the 3 and 4 sigma counts (~54000 and ~1270 expected); the 5 sigma
    // count (~11.5) is Poisson-like and the bound [0, 28.4] still holds
    // with probability > 0.9999.
    EXPECT_NEAR(static_cast<double>(beyond_[k]), mean, 5 * sd)
        << "beyond " << 3 + k << " sigma";
    // The positive side holds half of each tail.
    const double half_sd = std::sqrt(beyond_[k] * 0.25);
    EXPECT_NEAR(static_cast<double>(beyond_pos_[k]), beyond_[k] / 2.0,
                5 * half_sd + 0.5)
        << "sign balance beyond " << 3 + k << " sigma";
  }
  // The tail branch is reached: some draws beyond R.
  EXPECT_GT(beyond_[1], 0u);
}

TEST_F(NormalLargeSample, TailBeyondRMatchesConditionalPhi) {
  // KS of the ~5000 draws beyond R against P(|Z| <= a | |Z| > R): the tail
  // branch's shape, which the counts above test only at 4 and 5 sigma.
  std::vector<double> t = tail_;
  ASSERT_GT(t.size(), 4000u);
  std::sort(t.begin(), t.end());
  const double q_r = two_sided_tail(kZigR);
  const double n = static_cast<double>(t.size());
  double d = 0.0;
  for (std::size_t i = 0; i < t.size(); ++i) {
    const double c = 1.0 - two_sided_tail(t[i]) / q_r;
    d = std::max({d, c - static_cast<double>(i) / n,
                  static_cast<double>(i + 1) / n - c});
  }
  EXPECT_LT(d, 1.9495 / std::sqrt(n));
}

TEST_F(NormalLargeSample, MomentsUpToTheFourthMatch) {
  const double n = kN;
  const double mean = m1_ / n;
  const double var = m2_ / n;
  // 5 standard errors of each sample moment under N(0, 1):
  // mean 1/sqrt(n), E[x^2] sqrt(2/n), E[x^3] sqrt(15/n), E[x^4] sqrt(96/n).
  EXPECT_NEAR(mean, 0.0, 5 / std::sqrt(n));
  EXPECT_NEAR(var, 1.0, 5 * std::sqrt(2 / n));
  EXPECT_NEAR(m3_ / n, 0.0, 5 * std::sqrt(15 / n));
  EXPECT_NEAR(m4_ / n, 3.0, 5 * std::sqrt(96 / n));
}

TEST(NormalEquivalence, ScaledNormalIsMeanPlusStddevTimesStandard) {
  Rng a(9), b(9);
  for (int i = 0; i < 1000; ++i)
    EXPECT_EQ(a.normal(2.5, 0.25), 2.5 + 0.25 * b.normal());
}

TEST(NormalEquivalence, LognormalMomentsMatch) {
  Rng rng(3);
  const double mu = 0.1, sigma = 0.5;
  const std::size_t n = 1000000;
  double s = 0, s2 = 0, l = 0, l2 = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double y = rng.lognormal(mu, sigma);
    ASSERT_GT(y, 0.0);
    s += y;
    s2 += y * y;
    l += std::log(y);
    l2 += std::log(y) * std::log(y);
  }
  const double dn = static_cast<double>(n);
  const double want_mean = std::exp(mu + sigma * sigma / 2);
  const double want_var =
      (std::exp(sigma * sigma) - 1) * std::exp(2 * mu + sigma * sigma);
  const double mean = s / dn;
  EXPECT_NEAR(mean, want_mean, 5 * std::sqrt(want_var / dn));
  // Variance of the sample second moment: E[y^4] - E[y^2]^2.
  const double m2 = std::exp(2 * mu + 2 * sigma * sigma);
  const double m4 = std::exp(4 * mu + 8 * sigma * sigma);
  EXPECT_NEAR(s2 / dn, m2, 5 * std::sqrt((m4 - m2 * m2) / dn));
  EXPECT_NEAR(l / dn, mu, 5 * sigma / std::sqrt(dn));
  EXPECT_NEAR(l2 / dn - (l / dn) * (l / dn), sigma * sigma,
              5 * sigma * sigma * std::sqrt(2 / dn));
}

TEST(NormalEquivalence, SameSeedSameBits) {
  static_assert(sizeof(Rng) == 4 * sizeof(std::uint64_t),
                "Rng state is the four xoshiro256++ words, nothing cached");
  Rng a(42), b(42);
  for (int i = 0; i < 100000; ++i)
    ASSERT_EQ(std::bit_cast<std::uint64_t>(a.normal()),
              std::bit_cast<std::uint64_t>(b.normal()))
        << "draw " << i;
  // A copy taken mid-stream continues the same stream: normal() keeps no
  // state beyond the generator words.
  (void)a.uniform();
  Rng c = a;
  for (int i = 0; i < 1000; ++i) ASSERT_EQ(a.normal(), c.normal());
  // Pinned stream: the first draws of seed 1 (all on the table-only fast
  // path, so they are the same on every IEEE-754 platform).
  Rng d(1);
  const std::array<std::uint64_t, 6> want = {
      0xbfe053f0e4dbe370ULL, 0xbfe76f3d0e629800ULL, 0x3fdeb637b0d91f7aULL,
      0xbfddd98692509f08ULL, 0x3fde943385bc4790ULL, 0xbff9f307f4d99d59ULL};
  for (std::size_t i = 0; i < want.size(); ++i)
    EXPECT_EQ(std::bit_cast<std::uint64_t>(d.normal()), want[i])
        << "draw " << i;
}

}  // namespace
}  // namespace cim::util
