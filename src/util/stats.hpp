/// \file stats.hpp
/// \brief Batch statistics used by the benchmark reporters. The streaming
///        accumulator is obs::StreamStat (obs/dataset.hpp).
#pragma once

#include <cstddef>
#include <span>

namespace cim::util {

/// Batch summary of a sample: moments plus order statistics.
struct Summary {
  std::size_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double p25 = 0.0;
  double median = 0.0;
  double p75 = 0.0;
  double max = 0.0;
  /// Skewness (third standardized moment); 0 for degenerate samples.
  double skewness = 0.0;
  /// Excess kurtosis; 0 for degenerate samples.
  double kurtosis = 0.0;
};

/// Computes a full summary of `xs` (copies for the quantile sort).
Summary summarize(std::span<const double> xs);

/// Linear interpolation quantile of a *sorted* sample, q in [0,1].
double quantile_sorted(std::span<const double> sorted, double q);

/// Pearson correlation coefficient; 0 if either side is degenerate.
double pearson(std::span<const double> xs, std::span<const double> ys);

/// Mean absolute error between two equally sized vectors.
double mean_abs_error(std::span<const double> a, std::span<const double> b);

/// Root mean square error between two equally sized vectors.
double rms_error(std::span<const double> a, std::span<const double> b);

}  // namespace cim::util
