#include "memtest/power_monitor.hpp"

#include <algorithm>
#include <cmath>

#include "obs/dataset.hpp"

namespace cim::memtest {

MonitorRun run_monitored_workload(crossbar::Crossbar& xbar,
                                  const MonitorConfig& cfg, util::Rng& rng,
                                  const fault::FaultMap* inject,
                                  std::size_t inject_at_cycle) {
  MonitorRun run;
  run.power_mw.reserve(cfg.cycles);
  util::CusumDetector detector(cfg.cusum);

  const double v = xbar.tech().v_read;

  // Fixed periodic input schedule (see MonitorConfig::workload_period).
  const std::size_t period = std::max<std::size_t>(1, cfg.workload_period);
  std::vector<std::vector<double>> schedule(period,
                                            std::vector<double>(xbar.rows()));
  for (auto& volts : schedule)
    for (double& vr : volts) vr = rng.bernoulli(cfg.input_density) ? v : 0.0;

  // The monitor first calibrates the per-phase power baseline over a few
  // periods, then applies CUSUM to the seasonally adjusted residuals —
  // otherwise the workload's own periodic variation buries the fault shift.
  const std::size_t calib_cycles = 4 * period;
  run.calibration_cycles = calib_cycles;
  std::vector<double> phase_sum(period, 0.0);
  std::vector<std::size_t> phase_n(period, 0);
  run.residual_mw.reserve(cfg.cycles);

  for (std::size_t cycle = 0; cycle < cfg.cycles; ++cycle) {
    if (inject && cycle == inject_at_cycle) xbar.apply_faults(*inject);

    const std::size_t phase = cycle % period;
    (void)xbar.vmm(schedule[phase]);

    // Dynamic power of the cycle: array energy over the read window, as
    // seen through the (noisy) power sensor.
    const double power_true =
        xbar.last_op_energy_pj() / xbar.tech().t_read_ns;  // pJ/ns = mW
    const double power =
        power_true * (1.0 + rng.normal(0.0, cfg.sensor_noise_frac));
    run.power_mw.push_back(power);

    if (cycle < calib_cycles) {
      phase_sum[phase] += power;
      ++phase_n[phase];
      continue;
    }
    const double baseline =
        phase_n[phase] ? phase_sum[phase] / static_cast<double>(phase_n[phase])
                       : power;
    const double residual = power - baseline;
    run.residual_mw.push_back(residual);
    if (detector.update(residual) && !run.alarm_cycle)
      run.alarm_cycle = calib_cycles + *detector.alarm_index();
  }

  if (const auto cp = util::locate_mean_shift(run.residual_mw))
    run.located_changepoint = calib_cycles + *cp;
  return run;
}

std::vector<double> PowerFeatures::to_vector() const {
  return {post_mean, post_stddev, post_max, delta_mean, delta_stddev,
          relative_shift};
}

PowerFeatures extract_features(const std::vector<double>& power,
                               std::size_t changepoint) {
  PowerFeatures f;
  if (power.empty()) return f;
  changepoint = std::min(changepoint, power.size() - 1);

  obs::StreamStat pre, post;
  for (std::size_t i = 0; i < power.size(); ++i)
    (i < changepoint ? pre : post).add(power[i]);
  if (post.count() == 0) return f;

  f.post_mean = post.mean;
  f.post_stddev = post.stddev();
  f.post_max = post.max;
  f.delta_mean = post.mean - pre.mean;
  f.delta_stddev = post.stddev() - pre.stddev();
  const double noise = pre.stddev();
  f.relative_shift = noise > 0.0 ? f.delta_mean / noise : 0.0;
  return f;
}

void FaultRateEstimator::train(const std::vector<Example>& examples,
                               double lambda) {
  std::vector<double> features;
  std::vector<double> targets;
  features.reserve(examples.size() * PowerFeatures::dim());
  targets.reserve(examples.size());
  for (const auto& ex : examples) {
    const auto row = ex.features.to_vector();
    features.insert(features.end(), row.begin(), row.end());
    targets.push_back(ex.fault_fraction);
  }
  reg_ = util::RidgeRegression(lambda);
  reg_.fit(features, targets, PowerFeatures::dim());
}

double FaultRateEstimator::estimate(const PowerFeatures& features) const {
  const auto row = features.to_vector();
  return std::clamp(reg_.predict(row), 0.0, 1.0);
}

double FaultRateEstimator::r2(const std::vector<Example>& examples) const {
  std::vector<double> features;
  std::vector<double> targets;
  for (const auto& ex : examples) {
    const auto row = ex.features.to_vector();
    features.insert(features.end(), row.begin(), row.end());
    targets.push_back(ex.fault_fraction);
  }
  return reg_.r2(features, targets);
}

std::vector<FaultRateEstimator::Example>
FaultRateEstimator::generate_training_data(
    const crossbar::CrossbarConfig& array_cfg, const MonitorConfig& mon_cfg,
    std::size_t examples, util::Rng& rng, const fault::FaultMix& mix) {
  std::vector<Example> out;
  out.reserve(examples);
  const std::size_t inject_at = mon_cfg.cycles / 2;

  for (std::size_t e = 0; e < examples; ++e) {
    auto cfg = array_cfg;
    cfg.seed = rng();
    crossbar::Crossbar xbar(cfg);

    // A random data pattern so the power baseline varies across examples.
    util::Matrix levels(cfg.rows, cfg.cols);
    for (double& v : levels.flat())
      v = static_cast<double>(rng.uniform_int(
          static_cast<std::uint64_t>(xbar.scheme().levels())));
    xbar.program_levels(levels);

    const double fraction = rng.uniform(0.005, 0.25);
    const auto n_faults = static_cast<std::size_t>(
        fraction * static_cast<double>(cfg.rows * cfg.cols));
    const auto map = fault::FaultMap::with_fault_count(
        cfg.rows, cfg.cols, std::max<std::size_t>(1, n_faults), mix, rng);

    auto run = run_monitored_workload(xbar, mon_cfg, rng, &map, inject_at);

    // Features come from the seasonally adjusted residuals, around the
    // located (or known) changepoint.
    const std::size_t cp_cycles = run.located_changepoint.value_or(inject_at);
    const std::size_t cp_res =
        cp_cycles > run.calibration_cycles ? cp_cycles - run.calibration_cycles
                                           : 0;
    Example ex;
    ex.features = extract_features(run.residual_mw, cp_res);
    ex.fault_fraction = map.faulty_cell_fraction();
    out.push_back(ex);
  }
  return out;
}

}  // namespace cim::memtest
