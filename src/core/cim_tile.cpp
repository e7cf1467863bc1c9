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
      weights_(cfg.tile.cols, cfg.tile.rows),
      volts_(cfg.tile.rows),
      i_plus_(cfg.tile.cols),
      i_minus_(cfg.tile.cols),
      acc_(cfg.tile.cols) {
  const auto& tech = plus_->tech();
  adc_level_.resize(std::size_t{adc_.max_code()} + 1);
  for (std::uint32_t code = 0; code <= adc_.max_code(); ++code)
    adc_level_[code] = adc_.dequantize(code) / tech.v_read;
  // Two conversions per column per cycle (differential pair), sharing
  // ceil(cols/adcs) slots across the two arrays.
  const double adc_conversions_per_cycle =
      2.0 * std::ceil(static_cast<double>(cols()) /
                      static_cast<double>(cfg_.tile.adcs));
  t_adc_ns_ = (adc_conversions_per_cycle / 2.0) * adc_.latency_ns();
  t_cycle_ns_ = tech.t_read_ns + t_adc_ns_;
  e_adc_pj_ = adc_conversions_per_cycle * adc_.energy_per_sample_pj();
  const periphery::Dac dac({.bits = cfg_.tile.dac_bits});
  e_dac_pj_ = 2.0 * static_cast<double>(rows()) *
              dac.energy_per_conversion_pj();
  e_dig_pj_ = 0.2 * tech.t_read_ns;  // shift&add power * window
}

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

std::vector<long> CimTile::vmm_int(std::span<const std::uint32_t> inputs,
                                   int input_bits,
                                   crossbar::FidelityTier tier) {
  if (inputs.size() != rows())
    throw std::invalid_argument("vmm_int: input size != rows");
  if (input_bits < 1 || input_bits > 16)
    throw std::invalid_argument("vmm_int: input_bits in [1,16]");
  CIM_OBS_SPAN_NAMED(span, "tile.vmm_int", obs::Component::kDigital);

  const double v = plus_->tech().v_read;
  const auto& sch = plus_->scheme();
  const double g_min = sch.g_min_us();
  const double step = sch.step_us();
  std::fill(acc_.begin(), acc_.end(), 0.0);

  double weight = 1.0;  // 2^b: scaling by it is exact, like std::ldexp
  for (int b = 0; b < input_bits; ++b, weight *= 2.0) {
    double active = 0.0;
    for (std::size_t r = 0; r < rows(); ++r) {
      const bool on = (inputs[r] >> b) & 1u;
      volts_[r] = on ? v : 0.0;
      if (on) active += 1.0;
    }

    const double e_before =
        plus_->stats().energy_pj + minus_->stats().energy_pj;
    plus_->vmm(volts_, i_plus_, tier);
    minus_->vmm(volts_, i_minus_, tier);
    const double e_array =
        plus_->stats().energy_pj + minus_->stats().energy_pj - e_before;

    if (obs::health_enabled()) {
      // Two conversions per column per bit cycle (differential pair);
      // clipping means the bitline current fell outside full scale.
      auto& h = health_monitor();
      for (std::size_t c = 0; c < cols(); ++c) {
        h.record_adc_sample(c, adc_.clips(i_plus_[c]));
        h.record_adc_sample(c, adc_.clips(i_minus_[c]));
      }
    }
    // Decode each converted current to a weight-level sum:
    // (I / v_read - active * g_min) / step, with I / v_read read from the
    // per-code table.
    const double offset = active * g_min;
    for (std::size_t c = 0; c < cols(); ++c) {
      const double lp = adc_level_[adc_.quantize(i_plus_[c])];
      const double lm = adc_level_[adc_.quantize(i_minus_[c])];
      const double sum = (lp - offset) / step - (lm - offset) / step;
      acc_[c] += sum * weight;
    }

    // Cost accounting for the cycle.
    stats_.time_ns += t_cycle_ns_;
    stats_.energy_pj += e_array + e_adc_pj_ + e_dac_pj_ + e_dig_pj_;
    stats_.array_energy_pj += e_array;
    stats_.adc_energy_pj += e_adc_pj_;
    stats_.dac_energy_pj += e_dac_pj_;
    stats_.digital_energy_pj += e_dig_pj_;
    ++stats_.cycles;
    if (obs::enabled()) {
      // Periphery attribution per bit-serial cycle; the crossbars already
      // attributed e_array to kArray inside charge().
      obs::attribute(obs::Component::kAdc, t_adc_ns_, e_adc_pj_);
      obs::attribute(obs::Component::kDac, 0.0, e_dac_pj_);
      obs::attribute(obs::Component::kDigital, 0.0, e_dig_pj_);
      span.add_sim_time_ns(t_cycle_ns_);
      span.add_energy_pj(e_array + e_adc_pj_ + e_dac_pj_ + e_dig_pj_);
    }
  }

  ++stats_.vmm_ops;
  std::vector<long> y(cols());
  for (std::size_t c = 0; c < cols(); ++c)
    y[c] = std::lround(acc_[c]);
  return y;
}

double CimTile::vmm_latency_ns(int input_bits) const {
  // The per-cycle time vmm_int() charges: one wordline read plus
  // ceil(cols/adcs) conversion slots (the differential pair's two
  // conversions per column share a slot across the two arrays).
  return static_cast<double>(input_bits) * t_cycle_ns_;
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
