#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "obs/dataset.hpp"

namespace cim::util {

double quantile_sorted(std::span<const double> sorted, double q) {
  if (sorted.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

Summary summarize(std::span<const double> xs) {
  Summary s;
  s.count = xs.size();
  if (xs.empty()) return s;

  obs::StreamStat rs;
  for (double x : xs) rs.add(x);
  s.mean = rs.mean;
  s.stddev = rs.stddev();
  s.min = rs.min;
  s.max = rs.max;

  std::vector<double> sorted(xs.begin(), xs.end());
  std::sort(sorted.begin(), sorted.end());
  s.p25 = quantile_sorted(sorted, 0.25);
  s.median = quantile_sorted(sorted, 0.50);
  s.p75 = quantile_sorted(sorted, 0.75);

  if (s.stddev > 0.0 && xs.size() > 2) {
    double m3 = 0.0;
    double m4 = 0.0;
    for (double x : xs) {
      const double z = (x - s.mean) / s.stddev;
      m3 += z * z * z;
      m4 += z * z * z * z;
    }
    const double n = static_cast<double>(xs.size());
    s.skewness = m3 / n;
    s.kurtosis = m4 / n - 3.0;
  }
  return s;
}

double pearson(std::span<const double> xs, std::span<const double> ys) {
  if (xs.size() != ys.size() || xs.size() < 2) return 0.0;
  obs::StreamStat sx, sy;
  for (double x : xs) sx.add(x);
  for (double y : ys) sy.add(y);
  if (sx.stddev() == 0.0 || sy.stddev() == 0.0) return 0.0;
  double cov = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    cov += (xs[i] - sx.mean) * (ys[i] - sy.mean);
  }
  cov /= static_cast<double>(xs.size() - 1);
  return cov / (sx.stddev() * sy.stddev());
}

double mean_abs_error(std::span<const double> a, std::span<const double> b) {
  if (a.size() != b.size()) throw std::invalid_argument("mean_abs_error: size mismatch");
  if (a.empty()) return 0.0;
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) acc += std::abs(a[i] - b[i]);
  return acc / static_cast<double>(a.size());
}

double rms_error(std::span<const double> a, std::span<const double> b) {
  if (a.size() != b.size()) throw std::invalid_argument("rms_error: size mismatch");
  if (a.empty()) return 0.0;
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    acc += d * d;
  }
  return std::sqrt(acc / static_cast<double>(a.size()));
}

}  // namespace cim::util
