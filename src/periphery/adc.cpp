#include "periphery/adc.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace cim::periphery {
namespace {
// ISAAC design point: 8-bit SAR, 1.28 GS/s, ~0.0012 mm^2, ~2 mW.
constexpr double kRefBits = 8.0;
constexpr double kRefAreaUm2 = 1200.0;
constexpr double kRefPowerMw = 2.0;
constexpr double kRefRateGsps = 1.28;
}  // namespace

Adc::Adc(AdcConfig cfg) : cfg_(cfg) {
  if (cfg_.bits < 1 || cfg_.bits > 14)
    throw std::invalid_argument("Adc: bits in [1,14]");
  if (cfg_.sample_rate_gsps <= 0.0 || cfg_.full_scale_ua <= 0.0)
    throw std::invalid_argument("Adc: positive rate and full scale required");
}

bool Adc::clips(double current_ua) const {
  return current_ua < 0.0 || current_ua > cfg_.full_scale_ua;
}

double Adc::dequantize(std::uint32_t code) const {
  const std::uint32_t c = std::min(code, max_code());
  return static_cast<double>(c) / static_cast<double>(max_code()) *
         cfg_.full_scale_ua;
}

double Adc::lsb_ua() const {
  return cfg_.full_scale_ua / static_cast<double>(max_code());
}

double Adc::area_um2() const {
  // SAR: capacitive DAC array doubles per bit -> area ~ 2^bits.
  // Flash: 2^bits comparators plus resistor ladder -> steeper constant.
  const double scale = std::pow(2.0, cfg_.bits - kRefBits);
  const double style = (cfg_.kind == AdcKind::kFlash) ? 2.5 : 1.0;
  return kRefAreaUm2 * scale * style;
}

double Adc::power_mw() const {
  const double scale = std::pow(2.0, cfg_.bits - kRefBits);
  const double rate = cfg_.sample_rate_gsps / kRefRateGsps;
  const double style = (cfg_.kind == AdcKind::kFlash) ? 3.0 : 1.0;
  return kRefPowerMw * scale * rate * style;
}

double Adc::latency_ns() const {
  if (cfg_.kind == AdcKind::kFlash) return 1.0 / cfg_.sample_rate_gsps;
  // SAR resolves one bit per internal cycle; at the reference resolution one
  // conversion fits exactly in one sample period, and latency scales
  // linearly with resolution from there.
  return (static_cast<double>(cfg_.bits) / kRefBits) / cfg_.sample_rate_gsps;
}

double Adc::energy_per_sample_pj() const {
  // P[mW] * t[ns] = pJ ; one conversion occupies 1/rate ns of the pipeline.
  return power_mw() / cfg_.sample_rate_gsps;
}

}  // namespace cim::periphery
