#include "core/cim_tile.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "obs/health.hpp"
#include "obs/obs.hpp"
#include "periphery/dac.hpp"

namespace cim::core {

namespace {
crossbar::CrossbarConfig make_array_cfg(const CimTileConfig& cfg, bool minus) {
  auto a = cfg.array;
  a.rows = cfg.tile.rows;
  a.cols = cfg.tile.cols;
  a.tech = cfg.tile.tech;
  a.levels = std::min(1 << cfg.weight_bits,
                      device::technology_params(cfg.tile.tech).max_levels);
  a.verified_writes = true;
  a.seed = cfg.seed ^ (minus ? 0x9e3779b9ULL : 0ULL);
  return a;
}
}  // namespace

CimTile::CimTile(CimTileConfig cfg)
    : cfg_(cfg),
      plus_(std::make_unique<crossbar::Crossbar>(make_array_cfg(cfg, false))),
      minus_(std::make_unique<crossbar::Crossbar>(make_array_cfg(cfg, true))),
      adc_(periphery::AdcConfig{
          .bits = cfg.tile.adc_bits,
          .kind = cfg.tile.adc_kind,
          .sample_rate_gsps = 1.28,
          .full_scale_ua = plus_->tech().v_read * plus_->tech().g_on_us() *
                           static_cast<double>(cfg.tile.rows)}),
      weights_(cfg.tile.cols, cfg.tile.rows) {}

std::size_t CimTile::rows() const { return cfg_.tile.rows; }
std::size_t CimTile::cols() const { return cfg_.tile.cols; }

obs::HealthMonitor& CimTile::health_monitor() {
  if (health_ == nullptr)
    health_ = obs::HealthRegistry::global().monitor(
        obs::next_health_name("tile"), 1, cols());
  return *health_;
}

void CimTile::program_weights(const util::Matrix& w_int) {
  if (w_int.rows() != cols() || w_int.cols() != rows())
    throw std::invalid_argument("program_weights: shape must be (out x in)");
  weights_ = w_int;

  const auto& sch = plus_->scheme();
  const int max_level = sch.levels() - 1;
  util::Matrix g_plus(rows(), cols(), sch.g_min_us());
  util::Matrix g_minus(rows(), cols(), sch.g_min_us());
  for (std::size_t o = 0; o < cols(); ++o) {
    for (std::size_t i = 0; i < rows(); ++i) {
      const auto w = static_cast<long>(w_int(o, i));
      const int level =
          std::clamp(static_cast<int>(std::labs(w)), 0, max_level);
      const double g = sch.level_conductance_us(level);
      if (w >= 0)
        g_plus(i, o) = g;
      else
        g_minus(i, o) = g;
    }
  }
  plus_->program_conductances(g_plus);
  minus_->program_conductances(g_minus);
}

double CimTile::decode_level_sum(double current_ua,
                                 double active_inputs) const {
  const auto& tech = plus_->tech();
  const auto& sch = plus_->scheme();
  return (current_ua / tech.v_read - active_inputs * sch.g_min_us()) /
         sch.step_us();
}

std::vector<long> CimTile::vmm_int(std::span<const std::uint32_t> inputs,
                                   int input_bits,
                                   crossbar::FidelityTier tier) {
  if (inputs.size() != rows())
    throw std::invalid_argument("vmm_int: input size != rows");
  if (input_bits < 1 || input_bits > 16)
    throw std::invalid_argument("vmm_int: input_bits in [1,16]");
  CIM_OBS_SPAN_NAMED(span, "tile.vmm_int", obs::Component::kDigital);

  const auto& tech = plus_->tech();
  const double v = tech.v_read;
  const periphery::Dac dac({.bits = cfg_.tile.dac_bits});

  std::vector<double> acc(cols(), 0.0);
  std::vector<double> volts(rows());

  const double adc_conversions_per_cycle =
      2.0 * std::ceil(static_cast<double>(cols()) /
                      static_cast<double>(cfg_.tile.adcs));

  for (int b = 0; b < input_bits; ++b) {
    double active = 0.0;
    for (std::size_t r = 0; r < rows(); ++r) {
      const bool on = (inputs[r] >> b) & 1u;
      volts[r] = on ? v : 0.0;
      if (on) active += 1.0;
    }

    const double e_before =
        plus_->stats().energy_pj + minus_->stats().energy_pj;
    auto i_plus = plus_->vmm(volts, tier);
    auto i_minus = minus_->vmm(volts, tier);
    const double e_array =
        plus_->stats().energy_pj + minus_->stats().energy_pj - e_before;

    const bool health = obs::health_enabled();
    for (std::size_t c = 0; c < cols(); ++c) {
      const double ip = adc_.dequantize(adc_.quantize(i_plus[c]));
      const double im = adc_.dequantize(adc_.quantize(i_minus[c]));
      if (health) {
        // Two conversions per column per bit cycle (differential pair);
        // clipping means the bitline current fell outside full scale.
        auto& h = health_monitor();
        h.record_adc_sample(c, adc_.clips(i_plus[c]));
        h.record_adc_sample(c, adc_.clips(i_minus[c]));
      }
      const double sum =
          decode_level_sum(ip, active) - decode_level_sum(im, active);
      acc[c] += std::ldexp(sum, b);
    }

    // Cost accounting for the cycle.
    const double t_cycle =
        tech.t_read_ns + (adc_conversions_per_cycle / 2.0) * adc_.latency_ns();
    const double e_adc =
        adc_conversions_per_cycle * adc_.energy_per_sample_pj();
    const double e_dac =
        2.0 * static_cast<double>(rows()) * dac.energy_per_conversion_pj();
    const double e_dig = 0.2 * tech.t_read_ns;  // shift&add power * window

    stats_.time_ns += t_cycle;
    stats_.energy_pj += e_array + e_adc + e_dac + e_dig;
    stats_.array_energy_pj += e_array;
    stats_.adc_energy_pj += e_adc;
    stats_.dac_energy_pj += e_dac;
    stats_.digital_energy_pj += e_dig;
    ++stats_.cycles;
    if (obs::enabled()) {
      // Periphery attribution per bit-serial cycle; the crossbars already
      // attributed e_array to kArray inside charge().
      const double t_adc = (adc_conversions_per_cycle / 2.0) * adc_.latency_ns();
      obs::attribute(obs::Component::kAdc, t_adc, e_adc);
      obs::attribute(obs::Component::kDac, 0.0, e_dac);
      obs::attribute(obs::Component::kDigital, 0.0, e_dig);
      span.add_sim_time_ns(t_cycle);
      span.add_energy_pj(e_array + e_adc + e_dac + e_dig);
    }
  }

  ++stats_.vmm_ops;
  std::vector<long> y(cols());
  for (std::size_t c = 0; c < cols(); ++c)
    y[c] = std::lround(acc[c]);
  return y;
}

double CimTile::vmm_latency_ns(int input_bits) const {
  // Mirrors the per-cycle accounting in vmm_int(): one wordline read plus
  // ceil(cols/adcs) conversion slots (the differential pair's two
  // conversions per column share a slot across the two arrays).
  const double adc_conversions_per_cycle =
      2.0 * std::ceil(static_cast<double>(cols()) /
                      static_cast<double>(cfg_.tile.adcs));
  const double t_cycle = plus_->tech().t_read_ns +
                         (adc_conversions_per_cycle / 2.0) * adc_.latency_ns();
  return static_cast<double>(input_bits) * t_cycle;
}

std::vector<long> CimTile::ideal_vmm_int(
    std::span<const std::uint32_t> inputs) const {
  if (inputs.size() != rows())
    throw std::invalid_argument("ideal_vmm_int: input size != rows");
  std::vector<long> y(cols(), 0);
  for (std::size_t o = 0; o < cols(); ++o) {
    long acc = 0;
    for (std::size_t i = 0; i < rows(); ++i)
      acc += static_cast<long>(weights_(o, i)) *
             static_cast<long>(inputs[i]);
    y[o] = acc;
  }
  return y;
}

void CimTile::apply_faults(const fault::FaultMap& plus,
                           const fault::FaultMap& minus) {
  plus_->apply_faults(plus);
  minus_->apply_faults(minus);
}

double CimTile::area_um2() const {
  auto blocks = periphery::tile_breakdown(cfg_.tile);
  double total = periphery::total_cost(blocks).area_um2;
  // Differential pair: the crossbar block exists twice.
  for (const auto& b : blocks)
    if (b.name == "crossbar") total += b.area_um2;
  return total;
}

}  // namespace cim::core
