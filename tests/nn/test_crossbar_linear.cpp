#include "nn/crossbar_linear.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "obs/dataset.hpp"

namespace cim::nn {
namespace {

CrossbarLinearConfig quiet_cfg() {
  CrossbarLinearConfig cfg;
  cfg.array.seed = 33;
  cfg.array.model_ir_drop = false;
  cfg.program_verify = true;
  return cfg;
}

TEST(CrossbarLinear, ReproducesSmallAffineMap) {
  util::Matrix w = {{0.5, -0.25}, {-1.0, 1.0}};
  const std::vector<double> bias = {0.1, -0.1};
  CrossbarLinear layer(w, bias, quiet_cfg());
  layer.set_x_max(1.0);

  const std::vector<double> x = {1.0, 0.5};
  // Average to suppress read noise.
  std::vector<double> mean(2, 0.0);
  const int reps = 64;
  for (int k = 0; k < reps; ++k) {
    const auto y = layer.forward(x);
    for (std::size_t i = 0; i < 2; ++i) mean[i] += y[i] / reps;
  }
  EXPECT_NEAR(mean[0], 0.5 - 0.125 + 0.1, 0.08);
  EXPECT_NEAR(mean[1], -1.0 + 0.5 - 0.1, 0.08);
}

TEST(CrossbarLinear, DimensionsExposed) {
  util::Matrix w(3, 5);
  w(0, 0) = 1.0;
  CrossbarLinear layer(w, {}, quiet_cfg());
  EXPECT_EQ(layer.in_dim(), 5u);
  EXPECT_EQ(layer.out_dim(), 3u);
}

TEST(CrossbarLinear, BiasSizeMismatchThrows) {
  util::Matrix w(2, 2, 1.0);
  const std::vector<double> bad_bias = {1.0};
  EXPECT_THROW(CrossbarLinear(w, bad_bias, quiet_cfg()), std::invalid_argument);
}

TEST(CrossbarLinear, InputDimMismatchThrows) {
  util::Matrix w(2, 3, 1.0);
  CrossbarLinear layer(w, {}, quiet_cfg());
  std::vector<double> bad(2, 0.5);
  EXPECT_THROW((void)layer.forward(bad), std::invalid_argument);
}

TEST(CrossbarLinear, AdcQuantizationAddsBoundedError) {
  util::Rng wrng(3);
  util::Matrix w(4, 16);
  for (auto& v : w.flat()) v = wrng.normal(0.0, 1.0);

  auto cfg_hi = quiet_cfg();
  cfg_hi.use_adc = true;
  cfg_hi.adc_bits = 10;
  auto cfg_lo = quiet_cfg();
  cfg_lo.use_adc = true;
  cfg_lo.adc_bits = 3;

  CrossbarLinear hi(w, {}, cfg_hi), lo(w, {}, cfg_lo);
  CrossbarLinear ref(w, {}, quiet_cfg());

  std::vector<double> x(16, 0.5);
  obs::StreamStat err_hi, err_lo;
  for (int k = 0; k < 32; ++k) {
    const auto yr = ref.forward(x);
    const auto yh = hi.forward(x);
    const auto yl = lo.forward(x);
    for (std::size_t i = 0; i < 4; ++i) {
      err_hi.add(std::abs(yh[i] - yr[i]));
      err_lo.add(std::abs(yl[i] - yr[i]));
    }
  }
  // Section II.E: quantization error increases as resolution drops.
  EXPECT_GT(err_lo.mean, err_hi.mean);
}

TEST(CrossbarLinear, YieldFaultsDegradeOutputs) {
  util::Rng wrng(5);
  util::Matrix w(8, 32);
  for (auto& v : w.flat()) v = wrng.normal(0.0, 1.0);

  CrossbarLinear clean(w, {}, quiet_cfg());
  CrossbarLinear faulty(w, {}, quiet_cfg());
  util::Rng frng(7);
  faulty.apply_yield(0.7, frng);

  std::vector<double> x(32, 0.8);
  obs::StreamStat err_clean, err_faulty;
  for (int k = 0; k < 16; ++k) {
    const auto oracle = w.matvec(x);
    const auto yc = clean.forward(x);
    const auto yf = faulty.forward(x);
    for (std::size_t i = 0; i < 8; ++i) {
      err_clean.add(std::abs(yc[i] - oracle[i]));
      err_faulty.add(std::abs(yf[i] - oracle[i]));
    }
  }
  EXPECT_GT(err_faulty.mean, 2.0 * err_clean.mean);
}

TEST(CrossbarLinear, EnergyAccumulatesAcrossForwards) {
  util::Matrix w(2, 2, 1.0);
  CrossbarLinear layer(w, {}, quiet_cfg());
  const double e0 = layer.energy_pj();
  std::vector<double> x(2, 1.0);
  (void)layer.forward(x);
  EXPECT_GT(layer.energy_pj(), e0);
}

TEST(CrossbarLinear, XMaxValidation) {
  util::Matrix w(1, 1, 1.0);
  CrossbarLinear layer(w, {}, quiet_cfg());
  EXPECT_THROW(layer.set_x_max(0.0), std::invalid_argument);
  layer.set_x_max(2.0);
  EXPECT_DOUBLE_EQ(layer.x_max(), 2.0);
}

}  // namespace
}  // namespace cim::nn
