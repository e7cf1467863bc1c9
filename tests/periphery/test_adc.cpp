#include "periphery/adc.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

namespace cim::periphery {
namespace {

TEST(Adc, QuantizeDequantizeRoundTrip) {
  Adc adc({.bits = 8, .full_scale_ua = 1000.0});
  for (double x = 0.0; x <= 1000.0; x += 37.0) {
    const double back = adc.dequantize(adc.quantize(x));
    EXPECT_NEAR(back, x, adc.lsb_ua());
  }
}

TEST(Adc, QuantizeMatchesLroundIncludingHalfwayEdges) {
  // quantize() rounds without libm; it must pick the code std::lround
  // picks on the clipped, scaled current — at exact halves, one ulp either
  // side of them, and at both ends of the range.
  for (const int bits : {1, 4, 8, 14}) {
    const Adc adc({.bits = bits, .full_scale_ua = 100.0});
    const double fs = adc.config().full_scale_ua;
    const double mc = static_cast<double>(adc.max_code());
    const auto expected = [&](double x) {
      const double scaled = std::clamp(x, 0.0, fs) / fs * mc;
      return static_cast<std::uint32_t>(std::lround(scaled));
    };
    std::vector<double> xs = {-1.0, -0.0, 0.0, fs, fs * 2.0,
                              std::nextafter(fs, 0.0)};
    for (double code = 0.0; code < mc; code += mc > 64.0 ? mc / 61.0 : 1.0) {
      const double half = (std::floor(code) + 0.5) / mc * fs;
      xs.insert(xs.end(), {half, std::nextafter(half, 0.0),
                           std::nextafter(half, fs), code / mc * fs});
    }
    for (const double x : xs)
      ASSERT_EQ(adc.quantize(x), expected(x)) << "bits=" << bits << " x=" << x;
  }
  const Adc adc({.bits = 8});
  EXPECT_EQ(adc.quantize(std::nan("")), 0u);
}

TEST(Adc, ClipsOutsideRange) {
  Adc adc({.bits = 4, .full_scale_ua = 100.0});
  EXPECT_EQ(adc.quantize(-5.0), 0u);
  EXPECT_EQ(adc.quantize(500.0), adc.max_code());
}

TEST(Adc, MaxCodeMatchesBits) {
  EXPECT_EQ(Adc({.bits = 1}).max_code(), 1u);
  EXPECT_EQ(Adc({.bits = 8}).max_code(), 255u);
  EXPECT_EQ(Adc({.bits = 12}).max_code(), 4095u);
}

TEST(Adc, LsbShrinksWithResolution) {
  Adc a4({.bits = 4, .full_scale_ua = 100.0});
  Adc a8({.bits = 8, .full_scale_ua = 100.0});
  EXPECT_GT(a4.lsb_ua(), 15.0 * a8.lsb_ua());
  EXPECT_DOUBLE_EQ(a8.max_quantization_error_ua(), 0.5 * a8.lsb_ua());
}

class AdcBitsSweep : public ::testing::TestWithParam<int> {};

TEST_P(AdcBitsSweep, QuantizationErrorBounded) {
  const int bits = GetParam();
  Adc adc({.bits = bits, .full_scale_ua = 512.0});
  for (double x = 0.0; x < 512.0; x += 11.3) {
    const double err = std::abs(adc.dequantize(adc.quantize(x)) - x);
    EXPECT_LE(err, adc.max_quantization_error_ua() * 1.0001);
  }
}

TEST_P(AdcBitsSweep, CostGrowsWithResolution) {
  const int bits = GetParam();
  if (bits >= 14) return;
  Adc lo({.bits = bits});
  Adc hi({.bits = bits + 1});
  EXPECT_GT(hi.area_um2(), lo.area_um2());
  EXPECT_GT(hi.power_mw(), lo.power_mw());
}

INSTANTIATE_TEST_SUITE_P(Resolutions, AdcBitsSweep,
                         ::testing::Values(2, 4, 6, 8, 10, 12));

TEST(Adc, IsaacReferencePoint) {
  // The cost model is anchored at ISAAC's 8-bit 1.28 GS/s SAR ADC.
  Adc adc({.bits = 8, .kind = AdcKind::kSar, .sample_rate_gsps = 1.28});
  EXPECT_NEAR(adc.area_um2(), 1200.0, 1.0);
  EXPECT_NEAR(adc.power_mw(), 2.0, 0.01);
}

TEST(Adc, AreaDoublesPerBit) {
  // "area/power increases drastically as we [add levels]" (Section II.E).
  Adc a({.bits = 6});
  Adc b({.bits = 8});
  EXPECT_NEAR(b.area_um2() / a.area_um2(), 4.0, 0.01);
}

TEST(Adc, FlashCostsMoreButConvertsFaster) {
  Adc sar({.bits = 8, .kind = AdcKind::kSar});
  Adc flash({.bits = 8, .kind = AdcKind::kFlash});
  EXPECT_GT(flash.area_um2(), sar.area_um2());
  EXPECT_GT(flash.power_mw(), sar.power_mw());
  EXPECT_LE(flash.latency_ns(), sar.latency_ns());
}

TEST(Adc, EnergyPerSampleConsistent) {
  Adc adc({.bits = 8, .sample_rate_gsps = 2.0});
  EXPECT_NEAR(adc.energy_per_sample_pj(), adc.power_mw() / 2.0, 1e-9);
}

TEST(Adc, InvalidConfigThrows) {
  EXPECT_THROW(Adc({.bits = 0}), std::invalid_argument);
  EXPECT_THROW(Adc({.bits = 15}), std::invalid_argument);
  EXPECT_THROW(Adc({.bits = 8, .sample_rate_gsps = 0.0}), std::invalid_argument);
  EXPECT_THROW(Adc({.bits = 8, .full_scale_ua = -1.0}), std::invalid_argument);
}

}  // namespace
}  // namespace cim::periphery
