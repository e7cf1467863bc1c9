#include "crossbar/crossbar.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "obs/health.hpp"
#include "obs/obs.hpp"
#include "util/kernels.hpp"
#include "util/perf_counters.hpp"
#include "util/thread_pool.hpp"

namespace cim::crossbar {

namespace {

/// Process-wide registry mirrors of the per-instance CrossbarStats event
/// counts. Resolved once (function-local static), bumped only when
/// telemetry is enabled so the disabled hot path stays one branch.
struct ObsCounters {
  obs::Counter& vmm_ops = obs::Registry::global().counter("crossbar.vmm_ops");
  obs::Counter& bit_reads =
      obs::Registry::global().counter("crossbar.bit_reads");
  obs::Counter& bit_writes =
      obs::Registry::global().counter("crossbar.bit_writes");
  obs::Counter& analog_writes =
      obs::Registry::global().counter("crossbar.analog_writes");
  obs::Counter& logic_ops =
      obs::Registry::global().counter("crossbar.logic_ops");
  // Per-fidelity-tier VMM counts (tier 0 = vmm_ops minus the two below).
  obs::Counter& vmm_fast_ops =
      obs::Registry::global().counter("crossbar.vmm_fast_ops");
  obs::Counter& vmm_ideal_ops =
      obs::Registry::global().counter("crossbar.vmm_ideal_ops");
};

ObsCounters& obs_counters() {
  static ObsCounters counters;
  return counters;
}

}  // namespace

Crossbar::Crossbar(CrossbarConfig cfg)
    : cfg_(cfg),
      tech_(cfg.tech_override ? *cfg.tech_override
                              : device::technology_params(cfg.tech)),
      rng_(cfg.seed),
      faults_(std::max<std::size_t>(1, cfg.rows), std::max<std::size_t>(1, cfg.cols)) {
  if (cfg_.rows == 0 || cfg_.cols == 0)
    throw std::invalid_argument("Crossbar: empty array");
  cells_.reserve(cfg_.rows * cfg_.cols);
  for (std::size_t i = 0; i < cfg_.rows * cfg_.cols; ++i)
    cells_.emplace_back(tech_, cfg_.levels, rng_);
  dirty_words_per_row_ = (cfg_.cols + 63) / 64;
  dirty_bits_.assign(cfg_.rows * dirty_words_per_row_, 0);
}

void Crossbar::apply_faults(const fault::FaultMap& map) {
  constexpr double kWriteDisturbScale = 1e3;
  if (map.rows() != cfg_.rows || map.cols() != cfg_.cols)
    throw std::invalid_argument("apply_faults: fault map size mismatch");
  invalidate_conductance_cache();
  faults_ = map;
  for (std::size_t r = 0; r < cfg_.rows; ++r) {
    for (std::size_t c = 0; c < cfg_.cols; ++c) {
      const auto fd = map.cell_fault(r, c);
      if (!fd) continue;
      auto& cl = cell(r, c);
      switch (fd->kind) {
        case fault::FaultKind::kStuckAtZero:
          cl.force_stuck(device::StuckMode::kStuckAtZero);
          break;
        case fault::FaultKind::kStuckAtOne:
        case fault::FaultKind::kOverForming:
        case fault::FaultKind::kEnduranceWearout:
          cl.force_stuck(device::StuckMode::kStuckAtOne);
          break;
        case fault::FaultKind::kTransitionUp:
          cl.force_transition_faults({.up_fails = true, .down_fails = false});
          break;
        case fault::FaultKind::kTransitionDown:
          cl.force_transition_faults({.up_fails = false, .down_fails = true});
          break;
        case fault::FaultKind::kWriteVariation:
          cl.force_write_sigma_scale(fd->severity);
          break;
        case fault::FaultKind::kReadDisturb:
          // Faulty cell is orders of magnitude more disturb-prone.
          cl.force_disturb_scales(/*read=*/1e4, /*write=*/1.0);
          break;
        case fault::FaultKind::kWriteDisturb:
          cl.force_disturb_scales(/*read=*/1.0, /*write=*/kWriteDisturbScale);
          max_write_disturb_scale_ =
              std::max(max_write_disturb_scale_, kWriteDisturbScale);
          break;
        default:
          break;  // array-level faults handled at addressing time
      }
    }
  }
}

obs::HealthMonitor& Crossbar::health_monitor() {
  if (health_ == nullptr) {
    if (health_name_.empty()) health_name_ = obs::next_health_name("crossbar");
    health_ = obs::HealthRegistry::global().monitor(health_name_, cfg_.rows,
                                                    cfg_.cols);
  }
  return *health_;
}

void Crossbar::record_health_write(std::size_t r, std::size_t c,
                                   const device::WriteResult& res,
                                   bool was_stuck) {
  auto& h = health_monitor();
  const auto& cl = cell(r, c);
  // One wear unit per programming pulse — matches cell.write_count() exactly.
  h.record_write(r, c, static_cast<std::uint64_t>(res.attempts));
  h.record_program(r, c, cl.target_conductance_us(), cl.true_conductance_us());
  if (!was_stuck && cl.stuck() != device::StuckMode::kNone)
    h.record_wearout(r, c);
}

std::size_t Crossbar::effective_row(std::size_t r) const {
  for (const auto& fd : faults_.decoder_faults())
    if (fd.row == r) return fd.aux_row;
  return r;
}

bool Crossbar::bit_of(const device::ReRamCell& cl) const {
  const double mid = 0.5 * (tech_.g_on_us() + tech_.g_off_us());
  return cl.true_conductance_us() >= mid;
}

double Crossbar::charge(double time_ns, double energy_pj) {
  stats_.time_ns += time_ns;
  stats_.energy_pj += energy_pj;
  last_op_energy_pj_ = energy_pj;
  // Single accounting choke point: everything charged to a crossbar is
  // array-side cost (periphery is attributed by the tile/system layers).
  if (obs::enabled())
    obs::attribute(obs::Component::kArray, time_ns, energy_pj);
  return energy_pj;
}

void Crossbar::after_write(std::size_t r, std::size_t c, bool value_is_one) {
  const bool health = obs::health_enabled();
  // Coupling faults: an up-transition on the aggressor forces the victim to 1
  // (CFid-style idempotent coupling — the bridge conducts the SET pulse).
  if (value_is_one) {
    for (const auto& fd : faults_.coupling_faults()) {
      if (fd.row == r && fd.col == c) {
        auto& victim = cell(fd.aux_row, fd.aux_col);
        victim.force_conductance(tech_.g_on_us());
        mark_cell_dirty(fd.aux_row, fd.aux_col);
        if (health)
          health_monitor().record_disturb(fd.aux_row, fd.aux_col,
                                          victim.true_conductance_us());
      }
    }
  }
  if (tech_.write_disturb_prob <= 0.0) return;
  // Half-select disturb on the written row's and column's neighbours,
  // skip-sampled: geometric gaps at p_max (the largest per-cell rate in the
  // array) pick the candidates, and each candidate is kept with probability
  // p_cell / p_max, so every neighbour is disturbed with exactly its own
  // probability at O(1 + hits) cost per write. Candidate k of a line maps
  // around the written cell, which is never a candidate. Only the cells
  // whose conductance actually moved go on the dirty list.
  const double p_max =
      std::min(1.0, tech_.write_disturb_prob * max_write_disturb_scale_);
  const auto candidate = [&](std::size_t rr, std::size_t cc) {
    auto& cl = cell(rr, cc);
    const double p = cl.write_disturb_prob();
    if (p < p_max && !rng_.bernoulli(p / p_max)) return;
    if (!cl.disturb_step()) return;
    mark_cell_dirty(rr, cc);
    if (health)
      health_monitor().record_disturb(rr, cc, cl.true_conductance_us());
  };
  for (std::uint64_t k = rng_.geometric(p_max); k + 1 < cfg_.cols;
       k += 1 + rng_.geometric(p_max))
    candidate(r, k < c ? k : k + 1);
  for (std::uint64_t k = rng_.geometric(p_max); k + 1 < cfg_.rows;
       k += 1 + rng_.geometric(p_max))
    candidate(k < r ? k : k + 1, c);
}

void Crossbar::write_bit(std::size_t row, std::size_t col, bool value) {
  if (row >= cfg_.rows || col >= cfg_.cols)
    throw std::out_of_range("write_bit: out of range");
  const std::size_t er = effective_row(row);
  mark_cell_dirty(er, col);
  auto& cl = cell(er, col);
  const bool was_stuck = cl.stuck() != device::StuckMode::kNone;
  const int level = value ? cl.scheme().levels() - 1 : 0;
  const auto res = cl.write_level(level, rng_, cfg_.verified_writes);
  ++stats_.bit_writes;
  if (obs::enabled()) obs_counters().bit_writes.add(1);
  if (obs::health_enabled()) record_health_write(er, col, res, was_stuck);
  charge(res.time_ns, res.energy_pj);
  after_write(er, col, value);
}

bool Crossbar::read_bit(std::size_t row, std::size_t col) {
  if (row >= cfg_.rows || col >= cfg_.cols)
    throw std::out_of_range("read_bit: out of range");
  const std::size_t er = effective_row(row);
  auto& cl = cell(er, col);
  // Reads can disturb (drift towards LRS): dirty-mark only when they did.
  const double g_before = cl.true_conductance_us();
  const double g = cl.read_conductance_us(rng_);
  if (cl.true_conductance_us() != g_before) {
    mark_cell_dirty(er, col);
    if (obs::health_enabled())
      health_monitor().record_disturb(er, col, cl.true_conductance_us());
  }
  ++stats_.bit_reads;
  if (obs::enabled()) obs_counters().bit_reads.add(1);
  // Read energy: V_read^2 * G * t_read ; pJ = V^2[V] * G[uS] * t[ns] * 1e-3
  const double e = tech_.v_read * tech_.v_read * g * tech_.t_read_ns * 1e-3 +
                   tech_.e_read_pj;
  charge(tech_.t_read_ns, e);
  const double mid = 0.5 * (tech_.g_on_us() + tech_.g_off_us());
  return g >= mid;
}

device::WriteResult Crossbar::program_cell_impl(std::size_t row,
                                                std::size_t col, double g_us) {
  auto& cl = cell(row, col);
  const bool was_stuck = cl.stuck() != device::StuckMode::kNone;
  const auto res = cl.write_conductance(g_us, rng_, cfg_.verified_writes);
  ++stats_.analog_writes;
  if (obs::enabled()) obs_counters().analog_writes.add(1);
  if (obs::health_enabled()) record_health_write(row, col, res, was_stuck);
  charge(res.time_ns, res.energy_pj);
  const double mid = 0.5 * (tech_.g_on_us() + tech_.g_off_us());
  after_write(row, col, g_us >= mid);
  return res;
}

device::WriteResult Crossbar::program_cell(std::size_t row, std::size_t col,
                                           double g_us) {
  if (row >= cfg_.rows || col >= cfg_.cols)
    throw std::out_of_range("program_cell: out of range");
  mark_cell_dirty(row, col);
  return program_cell_impl(row, col, g_us);
}

void Crossbar::program_conductances(const util::Matrix& g_us) {
  if (g_us.rows() != cfg_.rows || g_us.cols() != cfg_.cols)
    throw std::invalid_argument("program_conductances: shape mismatch");
  CIM_OBS_SPAN("crossbar.program", obs::Component::kArray);
  // Bulk write: one whole-array invalidation instead of rows*cols per-cell
  // dirty marks (which would only spill into the same rebuild anyway).
  invalidate_conductance_cache();
  for (std::size_t r = 0; r < cfg_.rows; ++r)
    for (std::size_t c = 0; c < cfg_.cols; ++c)
      program_cell_impl(r, c, g_us(r, c));
}

void Crossbar::program_levels(const util::Matrix& levels) {
  if (levels.rows() != cfg_.rows || levels.cols() != cfg_.cols)
    throw std::invalid_argument("program_levels: shape mismatch");
  CIM_OBS_SPAN("crossbar.program", obs::Component::kArray);
  const auto& sch = scheme();
  invalidate_conductance_cache();
  for (std::size_t r = 0; r < cfg_.rows; ++r)
    for (std::size_t c = 0; c < cfg_.cols; ++c) {
      const int lvl = static_cast<int>(levels(r, c));
      program_cell_impl(r, c, sch.level_conductance_us(lvl));
    }
}

double Crossbar::read_conductance(std::size_t row, std::size_t col) {
  if (row >= cfg_.rows || col >= cfg_.cols)
    throw std::out_of_range("read_conductance: out of range");
  auto& cl = cell(row, col);
  const double g_before = cl.true_conductance_us();  // reads can disturb
  const double g = cl.read_conductance_us(rng_);
  if (cl.true_conductance_us() != g_before) {
    mark_cell_dirty(row, col);
    if (obs::health_enabled())
      health_monitor().record_disturb(row, col, cl.true_conductance_us());
  }
  ++stats_.bit_reads;
  if (obs::enabled()) obs_counters().bit_reads.add(1);
  charge(tech_.t_read_ns,
         tech_.v_read * tech_.v_read * g * tech_.t_read_ns * 1e-3 + tech_.e_read_pj);
  return g;
}

double Crossbar::true_conductance(std::size_t row, std::size_t col) const {
  if (row >= cfg_.rows || col >= cfg_.cols)
    throw std::out_of_range("true_conductance: out of range");
  return cell(row, col).true_conductance_us();
}

double Crossbar::effective_conductance(std::size_t r, std::size_t c,
                                       double g_us) const {
  if (!cfg_.model_ir_drop || g_us <= 0.0) return g_us;
  // First-order IR-drop: the cell sees the wordline segment resistance up to
  // its column plus the bitline segment resistance down to the sense node in
  // series, so G_eff = 1 / (1/G + R_wire_total).
  const double segments =
      static_cast<double>(c + 1) + static_cast<double>(cfg_.rows - r);
  const double r_wire_kohm = cfg_.wire_resistance_ohm * segments * 1e-6;
  return 1.0 / (1.0 / g_us + r_wire_kohm * 1e-3);
}

void Crossbar::mark_cell_dirty(std::size_t r, std::size_t c) {
  if (g_all_dirty_ || !g_cache_built_ || !cfg_.incremental_cache) {
    g_all_dirty_ = true;  // a rebuild is already pending (or forced)
    return;
  }
  auto& word = dirty_bits_[r * dirty_words_per_row_ + (c >> 6)];
  const std::uint64_t bit = std::uint64_t{1} << (c & 63);
  if ((word & bit) != 0) return;
  if (dirty_cells_.size() >= dirty_spill_threshold()) {
    invalidate_conductance_cache();  // spill: delta no longer pays off
    return;
  }
  word |= bit;
  dirty_cells_.push_back(static_cast<std::uint32_t>(r * cfg_.cols + c));
}

void Crossbar::ensure_conductance_cache() {
  if (g_cache_built_ && !g_all_dirty_) {
    if (!dirty_cells_.empty()) apply_dirty_cells();
    return;
  }
  rebuild_conductance_cache();
}

void Crossbar::rebuild_conductance_cache() {
  CIM_OBS_SPAN("crossbar.cache.rebuild", obs::Component::kDigital);
  g_true_cache_.resize(cells_.size());
  g_eff_cache_.resize(cells_.size());
  g_ideal_cache_.resize(cells_.size());
  g_eff_sq_colsum_.assign(cfg_.cols, 0.0);
  g_eff_rowsum_.assign(cfg_.rows, 0.0);
  g_ideal_rowsum_.assign(cfg_.rows, 0.0);
  g_true_sum_ = 0.0;
  const auto& sch = scheme();
  std::size_t idx = 0;
  for (std::size_t r = 0; r < cfg_.rows; ++r) {
    for (std::size_t c = 0; c < cfg_.cols; ++c, ++idx) {
      const double g = cells_[idx].true_conductance_us();
      g_true_cache_[idx] = g;
      const double ge = effective_conductance(r, c, g);
      g_eff_cache_[idx] = ge;
      g_true_sum_ += g;
      const double gi = sch.level_conductance_us(cells_[idx].target_level());
      g_ideal_cache_[idx] = gi;
      g_eff_sq_colsum_[c] += ge * ge;
      g_eff_rowsum_[r] += ge;
      g_ideal_rowsum_[r] += gi;
    }
  }
  g_eff_col_std_.resize(cfg_.cols);
  for (std::size_t c = 0; c < cfg_.cols; ++c)
    g_eff_col_std_[c] = std::sqrt(g_eff_sq_colsum_[c]);
  g_cache_built_ = true;
  g_all_dirty_ = false;
  dirty_cells_.clear();
  std::fill(dirty_bits_.begin(), dirty_bits_.end(), 0);
  ++stats_.cache_full_rebuilds;
  util::perf::cache_full_rebuilds.fetch_add(1, std::memory_order_relaxed);
}

void Crossbar::apply_dirty_cells() {
  CIM_OBS_SPAN("crossbar.cache.delta", obs::Component::kDigital);
  const auto& sch = scheme();
  for (const std::uint32_t idx : dirty_cells_) {
    const std::size_t r = idx / cfg_.cols;
    const std::size_t c = idx % cfg_.cols;
    const double g = cells_[idx].true_conductance_us();
    if (!cfg_.passive_array) g_true_sum_ += g - g_true_cache_[idx];
    g_true_cache_[idx] = g;
    const double ge_old = g_eff_cache_[idx];
    const double ge = effective_conductance(r, c, g);
    g_eff_cache_[idx] = ge;
    g_ideal_cache_[idx] = sch.level_conductance_us(cells_[idx].target_level());
    // Tier-1 noise table: cheap +=delta repair. The column sums may drift
    // by ulps from a cold rebuild (different accumulation order); tier-1
    // noise is validated with tolerances, never bitwise.
    g_eff_sq_colsum_[c] += ge * ge - ge_old * ge_old;
    dirty_bits_[r * dirty_words_per_row_ + (c >> 6)] &=
        ~(std::uint64_t{1} << (c & 63));
  }
  // The distinct rows (or columns) of the dirty cells, ascending.
  const auto touched = [this](bool rows) -> const std::vector<std::uint32_t>& {
    touched_.clear();
    for (const std::uint32_t idx : dirty_cells_)
      touched_.push_back(static_cast<std::uint32_t>(
          rows ? idx / cfg_.cols : idx % cfg_.cols));
    std::sort(touched_.begin(), touched_.end());
    touched_.erase(std::unique(touched_.begin(), touched_.end()),
                   touched_.end());
    return touched_;
  };
  // Row sums carry every tier's array energy, so they stay bitwise-equal
  // to a rebuild: each touched row is re-summed in column order.
  for (const std::uint32_t r : touched(/*rows=*/true)) {
    const double* ge = g_eff_cache_.data() + r * cfg_.cols;
    const double* gi = g_ideal_cache_.data() + r * cfg_.cols;
    double se = 0.0, si = 0.0;
    for (std::size_t c = 0; c < cfg_.cols; ++c) {
      se += ge[c];
      si += gi[c];
    }
    g_eff_rowsum_[r] = se;
    g_ideal_rowsum_[r] = si;
  }
  // Refresh the touched columns' cached stds; the clamp guards against a
  // colsum drifting epsilon-negative through cancellation.
  for (const std::uint32_t c : touched(/*rows=*/false))
    g_eff_col_std_[c] = std::sqrt(std::max(0.0, g_eff_sq_colsum_[c]));
  stats_.cache_dirty_cells += dirty_cells_.size();
  dirty_cells_.clear();
  if (cfg_.passive_array) {
    // The sneak background observes g_true_sum_, so keep it bitwise-equal
    // to a rebuild: re-accumulate the (already repaired) flat cache in the
    // same index order the rebuild sums in.
    g_true_sum_ = 0.0;
    for (const double g : g_true_cache_) g_true_sum_ += g;
  }
  ++stats_.cache_delta_updates;
  util::perf::cache_delta_updates.fetch_add(1, std::memory_order_relaxed);
}

double Crossbar::sneak_background_per_col(
    std::span<const double> v_rows) const {
  // Passive 0T1R arrays: half-selected cells leak a sneak background whose
  // magnitude scales with the mean conductance of the unselected matrix.
  const double g_mean = g_true_sum_ / static_cast<double>(cells_.size());
  double v_mean = 0.0;
  for (double v : v_rows) v_mean += std::abs(v);
  v_mean /= static_cast<double>(v_rows.size());
  // One effective 3-cell series path per unselected row.
  return v_mean * (g_mean / 3.0) * 0.1 * static_cast<double>(cfg_.rows - 1);
}

void Crossbar::apply_read_disturb(util::Rng& rng) {
  // Read disturb: expected number of disturbed cells this cycle.
  if (tech_.read_disturb_prob <= 0.0) return;
  const double expected =
      tech_.read_disturb_prob * static_cast<double>(cells_.size());
  std::size_t hits = static_cast<std::size_t>(expected);
  if (rng.bernoulli(expected - static_cast<double>(hits))) ++hits;
  for (std::size_t k = 0; k < hits; ++k) {
    const std::size_t idx = rng.uniform_int(cells_.size());
    auto& cl = cells_[idx];
    if (!cl.disturb_step()) continue;
    mark_cell_dirty(idx / cfg_.cols, idx % cfg_.cols);
    if (obs::health_enabled())
      health_monitor().record_disturb(idx / cfg_.cols, idx % cfg_.cols,
                                      cl.true_conductance_us());
  }
}

std::vector<double> Crossbar::vmm(std::span<const double> v_rows,
                                  FidelityTier tier) {
  std::vector<double> currents(cfg_.cols, 0.0);
  vmm(v_rows, currents, tier);
  return currents;
}

double Crossbar::vmm_energy_from_rowsums(
    std::span<const double> v_rows, const std::vector<double>& rowsum) const {
  // Every tier charges sum_{r,c} |v_r * (v_r * g)| * t * 1e-3. With g >= 0
  // the inner |.| is v_r^2 * g, so the double sum collapses onto the exact
  // per-row conductance sums: no per-cell energy term, and the same bits
  // on every kernel table and after any history of cache deltas.
  double e = 0.0;
  for (std::size_t r = 0; r < cfg_.rows; ++r)
    e += v_rows[r] * v_rows[r] * rowsum[r];
  return e * tech_.t_read_ns * 1e-3;
}

double Crossbar::calibrated_scale_and_energy(std::span<const double> v_rows,
                                             double& energy) const {
  // One pass over rows serves both tier-1 closed forms. Noise: tier-0
  // column variance is sum_r (noise_frac * v_r * g_eff[r][c])^2; the
  // mean-field calibration factorises it as (mean_r v_r^2) * sum_r g^2 —
  // exact when |v_r| is uniform across rows (the bit-sliced DAC encodings
  // the tile layer feeds are exactly that), within the documented budget
  // otherwise. Per-column std = scale * g_eff_col_std_[c]. Energy: same
  // accumulation order as vmm_energy_from_rowsums, so the collapse onto
  // the cached row sums stays bit-identical to the unfused helper.
  double v_sq_sum = 0.0;
  double e = 0.0;
  for (std::size_t r = 0; r < cfg_.rows; ++r) {
    const double vv = v_rows[r] * v_rows[r];
    v_sq_sum += vv;
    e += vv * g_eff_rowsum_[r];
  }
  energy = e * tech_.t_read_ns * 1e-3;
  return tech_.read_noise_frac *
         std::sqrt(v_sq_sum / static_cast<double>(cfg_.rows));
}

void Crossbar::vmm_calibrated(std::span<const double> v_rows,
                              std::span<double> currents) {
  CIM_OBS_SPAN_NAMED(span, "crossbar.vmm.fast", obs::Component::kArray);
  ensure_conductance_cache();
  util::kernels::vmm(v_rows.data(), g_eff_cache_.data(), cfg_.rows, cfg_.cols,
                     currents.data(), nullptr, 0.0);
  if (cfg_.passive_array) {
    const double sneak_per_col = sneak_background_per_col(v_rows);
    for (double& i : currents) i += sneak_per_col;
  }
  double energy = 0.0;
  const double scale = calibrated_scale_and_energy(v_rows, energy);
  if (scale > 0.0) {
    // One serial generator advance keys the whole draw; each column's
    // noise is then a pure counter hash against the cached column std,
    // with no sqrt and no generator state per column.
    const std::uint64_t key = rng_();
    for (std::size_t c = 0; c < cfg_.cols; ++c)
      currents[c] +=
          scale * g_eff_col_std_[c] * util::Rng::normal_hash(key, c);
  }
  ++stats_.vmm_ops;
  charge(tech_.t_read_ns, energy);
  if (obs::enabled()) {
    obs_counters().vmm_ops.add(1);
    obs_counters().vmm_fast_ops.add(1);
    span.add_sim_time_ns(tech_.t_read_ns);
    span.add_energy_pj(energy);
  }
}

void Crossbar::vmm_ideal(std::span<const double> v_rows,
                         std::span<double> currents) {
  CIM_OBS_SPAN_NAMED(span, "crossbar.vmm.ideal", obs::Component::kArray);
  ensure_conductance_cache();
  util::kernels::vmm(v_rows.data(), g_ideal_cache_.data(), cfg_.rows,
                     cfg_.cols, currents.data(), nullptr, 0.0);
  const double energy = vmm_energy_from_rowsums(v_rows, g_ideal_rowsum_);
  ++stats_.vmm_ops;
  charge(tech_.t_read_ns, energy);
  if (obs::enabled()) {
    obs_counters().vmm_ops.add(1);
    obs_counters().vmm_ideal_ops.add(1);
    span.add_sim_time_ns(tech_.t_read_ns);
    span.add_energy_pj(energy);
  }
}

void Crossbar::vmm(std::span<const double> v_rows, std::span<double> currents,
                   FidelityTier tier) {
  if (v_rows.size() != cfg_.rows)
    throw std::invalid_argument("vmm: input size != rows");
  if (currents.size() != cfg_.cols)
    throw std::invalid_argument("vmm: output size != cols");
  if (tier == FidelityTier::kCalibrated) return vmm_calibrated(v_rows, currents);
  if (tier == FidelityTier::kIdeal) return vmm_ideal(v_rows, currents);
  CIM_OBS_SPAN_NAMED(span, "crossbar.vmm", obs::Component::kArray);
  ensure_conductance_cache();
  vmm_noise_scratch_.resize(cfg_.cols);
  util::kernels::vmm(v_rows.data(), g_eff_cache_.data(), cfg_.rows, cfg_.cols,
                     currents.data(), vmm_noise_scratch_.data(),
                     tech_.read_noise_frac);
  const double energy = vmm_energy_from_rowsums(v_rows, g_eff_rowsum_);

  if (cfg_.passive_array) {
    const double sneak_per_col = sneak_background_per_col(v_rows);
    for (double& i : currents) i += sneak_per_col;
    if (obs::health_enabled()) {
      auto& h = health_monitor();
      for (std::size_t c = 0; c < cfg_.cols; ++c)
        h.record_sneak_current(c, sneak_per_col);
    }
  }

  // Aggregate read noise per column.
  for (std::size_t c = 0; c < cfg_.cols; ++c)
    currents[c] += rng_.normal(0.0, std::sqrt(vmm_noise_scratch_[c]));

  apply_read_disturb(rng_);

  ++stats_.vmm_ops;
  charge(tech_.t_read_ns, energy);
  if (obs::enabled()) {
    obs_counters().vmm_ops.add(1);
    span.add_sim_time_ns(tech_.t_read_ns);
    span.add_energy_pj(energy);
  }
}

void Crossbar::vmm_batch(const util::Matrix& v_batch, util::Matrix& out,
                         util::ThreadPool* pool, FidelityTier tier) {
  if (v_batch.cols() != cfg_.rows)
    throw std::invalid_argument("vmm_batch: input width != rows");
  const std::size_t batch = v_batch.rows();
  if (out.rows() != batch || out.cols() != cfg_.cols)
    out = util::Matrix(batch, cfg_.cols);
  if (batch == 0) return;
  auto& pool_ref = pool != nullptr ? *pool : util::ThreadPool::global();
  if (tier == FidelityTier::kCalibrated)
    return vmm_batch_calibrated(v_batch, out, pool_ref);
  if (tier == FidelityTier::kIdeal)
    return vmm_batch_ideal(v_batch, out, pool_ref);
  CIM_OBS_SPAN_NAMED(span, "crossbar.vmm_batch", obs::Component::kArray);
  ensure_conductance_cache();

  // One serial draw ties the whole batch into the array's RNG sequence;
  // every per-sample stream derives from it by counter splitting, so the
  // fan-out below is bit-identical for any pool size.
  const std::uint64_t master = rng_();
  batch_energy_scratch_.assign(batch, 0.0);
  auto& sample_energy = batch_energy_scratch_;

  // Attach the monitor before the fan-out: the lazy attach mutates health_,
  // which must not happen concurrently from pool lanes.
  obs::HealthMonitor* hm = cfg_.passive_array && obs::health_enabled()
                               ? &health_monitor()
                               : nullptr;

  auto& p = pool != nullptr ? *pool : util::ThreadPool::global();
  p.parallel_for(0, batch, [&](std::size_t s) {
    const auto v_rows = v_batch.row(s);
    auto currents = out.row(s);
    thread_local std::vector<double> noise_var;
    noise_var.resize(cfg_.cols);
    util::kernels::vmm(v_rows.data(), g_eff_cache_.data(), cfg_.rows,
                       cfg_.cols, currents.data(), noise_var.data(),
                       tech_.read_noise_frac);
    if (cfg_.passive_array) {
      const double sneak_per_col = sneak_background_per_col(v_rows);
      for (double& i : currents) i += sneak_per_col;
      // Relaxed-atomic accumulators tolerate the pool's concurrent lanes.
      if (hm != nullptr)
        for (std::size_t c = 0; c < cfg_.cols; ++c)
          hm->record_sneak_current(c, sneak_per_col);
    }
    util::Rng srng = util::Rng::stream(master, 2 * s);
    for (std::size_t c = 0; c < cfg_.cols; ++c)
      currents[c] += srng.normal(0.0, std::sqrt(noise_var[c]));
    sample_energy[s] = vmm_energy_from_rowsums(v_rows, g_eff_rowsum_);
  });

  // Serial epilogue in sample order: stats, then the read disturb each
  // sample accumulated (applied post-batch; see header contract).
  for (std::size_t s = 0; s < batch; ++s) {
    ++stats_.vmm_ops;
    charge(tech_.t_read_ns, sample_energy[s]);
  }
  if (obs::enabled()) {
    obs_counters().vmm_ops.add(batch);
    double batch_energy = 0.0;
    for (const double e : sample_energy) batch_energy += e;
    span.add_sim_time_ns(tech_.t_read_ns * static_cast<double>(batch));
    span.add_energy_pj(batch_energy);
  }
  if (tech_.read_disturb_prob > 0.0) {
    for (std::size_t s = 0; s < batch; ++s) {
      util::Rng drng = util::Rng::stream(master, 2 * s + 1);
      apply_read_disturb(drng);
    }
  }
}

void Crossbar::vmm_batch_calibrated(const util::Matrix& v_batch,
                                    util::Matrix& out,
                                    util::ThreadPool& pool) {
  const std::size_t batch = v_batch.rows();
  CIM_OBS_SPAN_NAMED(span, "crossbar.vmm_batch.fast", obs::Component::kArray);
  ensure_conductance_cache();
  // Same counter-split determinism contract as tier 0: one serial master
  // draw, per-sample noise streams — bit-identical for any pool size. No
  // disturb streams (tier 1 skips read disturb).
  const std::uint64_t master = rng_();
  batch_energy_scratch_.assign(batch, 0.0);
  auto& sample_energy = batch_energy_scratch_;
  pool.parallel_for(0, batch, [&](std::size_t s) {
    const auto v_rows = v_batch.row(s);
    auto currents = out.row(s);
    util::kernels::vmm(v_rows.data(), g_eff_cache_.data(), cfg_.rows,
                       cfg_.cols, currents.data(), nullptr, 0.0);
    if (cfg_.passive_array) {
      const double sneak_per_col = sneak_background_per_col(v_rows);
      for (double& i : currents) i += sneak_per_col;
    }
    double energy = 0.0;
    const double scale = calibrated_scale_and_energy(v_rows, energy);
    if (scale > 0.0) {
      // Counter-split per sample, counter-hashed per column: pure
      // functions of (master, s, c), so the fan-out stays bit-identical
      // for any pool size without paying a generator per column.
      const std::uint64_t key = util::Rng::stream_seed(master, s);
      for (std::size_t c = 0; c < cfg_.cols; ++c)
        currents[c] +=
            scale * g_eff_col_std_[c] * util::Rng::normal_hash(key, c);
    }
    sample_energy[s] = energy;
  });
  for (std::size_t s = 0; s < batch; ++s) {
    ++stats_.vmm_ops;
    charge(tech_.t_read_ns, sample_energy[s]);
  }
  if (obs::enabled()) {
    obs_counters().vmm_ops.add(batch);
    obs_counters().vmm_fast_ops.add(batch);
    double batch_energy = 0.0;
    for (const double e : sample_energy) batch_energy += e;
    span.add_sim_time_ns(tech_.t_read_ns * static_cast<double>(batch));
    span.add_energy_pj(batch_energy);
  }
}

void Crossbar::vmm_batch_ideal(const util::Matrix& v_batch, util::Matrix& out,
                               util::ThreadPool& pool) {
  const std::size_t batch = v_batch.rows();
  CIM_OBS_SPAN_NAMED(span, "crossbar.vmm_batch.ideal",
                     obs::Component::kArray);
  ensure_conductance_cache();
  // No RNG at all: tier 2 does not advance the array's stream.
  batch_energy_scratch_.assign(batch, 0.0);
  auto& sample_energy = batch_energy_scratch_;
  pool.parallel_for(0, batch, [&](std::size_t s) {
    const auto v_rows = v_batch.row(s);
    auto currents = out.row(s);
    util::kernels::vmm(v_rows.data(), g_ideal_cache_.data(), cfg_.rows,
                       cfg_.cols, currents.data(), nullptr, 0.0);
    sample_energy[s] = vmm_energy_from_rowsums(v_rows, g_ideal_rowsum_);
  });
  for (std::size_t s = 0; s < batch; ++s) {
    ++stats_.vmm_ops;
    charge(tech_.t_read_ns, sample_energy[s]);
  }
  if (obs::enabled()) {
    obs_counters().vmm_ops.add(batch);
    obs_counters().vmm_ideal_ops.add(batch);
    double batch_energy = 0.0;
    for (const double e : sample_energy) batch_energy += e;
    span.add_sim_time_ns(tech_.t_read_ns * static_cast<double>(batch));
    span.add_energy_pj(batch_energy);
  }
}

std::vector<std::vector<double>> Crossbar::vmm_batch(
    std::span<const std::vector<double>> inputs, util::ThreadPool* pool,
    FidelityTier tier) {
  util::Matrix v_batch(inputs.size(), cfg_.rows);
  for (std::size_t s = 0; s < inputs.size(); ++s) {
    if (inputs[s].size() != cfg_.rows)
      throw std::invalid_argument("vmm_batch: input size != rows");
    std::copy(inputs[s].begin(), inputs[s].end(), v_batch.row(s).begin());
  }
  util::Matrix out;
  vmm_batch(v_batch, out, pool, tier);
  std::vector<std::vector<double>> results(inputs.size());
  for (std::size_t s = 0; s < inputs.size(); ++s) {
    const auto row = out.row(s);
    results[s].assign(row.begin(), row.end());
  }
  return results;
}

std::vector<double> Crossbar::ideal_vmm(std::span<const double> v_rows) const {
  if (v_rows.size() != cfg_.rows)
    throw std::invalid_argument("ideal_vmm: input size != rows");
  std::vector<double> currents(cfg_.cols, 0.0);
  const auto& sch = scheme();
  for (std::size_t r = 0; r < cfg_.rows; ++r) {
    const double v = v_rows[r];
    if (v == 0.0) continue;
    for (std::size_t c = 0; c < cfg_.cols; ++c) {
      currents[c] += v * sch.level_conductance_us(cell(r, c).target_level());
    }
  }
  return currents;
}

namespace {
bool in_window(std::size_t a, std::size_t b, std::size_t window) {
  const std::size_t d = a > b ? a - b : b - a;
  return d <= window;
}
}  // namespace

double Crossbar::ideal_current_with_sneak(std::size_t row, std::size_t col,
                                          std::size_t window) const {
  if (row >= cfg_.rows || col >= cfg_.cols)
    throw std::out_of_range("ideal_current_with_sneak: out of range");
  const auto& sch = scheme();
  const double v = tech_.v_read;
  auto target_g = [&](std::size_t r, std::size_t c) {
    return sch.level_conductance_us(cell(r, c).target_level());
  };
  double i = v * target_g(row, col);
  for (std::size_t r2 = 0; r2 < cfg_.rows; ++r2) {
    if (r2 == row || !in_window(r2, row, window)) continue;
    for (std::size_t c2 = 0; c2 < cfg_.cols; ++c2) {
      if (c2 == col || !in_window(c2, col, window)) continue;
      const double g1 = target_g(row, c2);
      const double g2 = target_g(r2, c2);
      const double g3 = target_g(r2, col);
      if (g1 <= 0.0 || g2 <= 0.0 || g3 <= 0.0) continue;
      i += v / (1.0 / g1 + 1.0 / g2 + 1.0 / g3);
    }
  }
  return i;
}

double Crossbar::read_current_with_sneak(std::size_t row, std::size_t col,
                                         std::size_t window) {
  if (row >= cfg_.rows || col >= cfg_.cols)
    throw std::out_of_range("read_current_with_sneak: out of range");
  ensure_conductance_cache();  // hoists the per-cell conductance lookups
  const double* g = g_true_cache_.data();
  const std::size_t cols = cfg_.cols;
  const double v = tech_.v_read;
  double i = v * g[row * cols + col];
  // Every (r', c') with r' != row, c' != col closes a 3-cell series loop
  // (row,c') -> (r',c') -> (r',col); its series conductance adds to the
  // measured current. This is the region-of-detection mechanism the
  // sneak-path test of Kannan et al. exploits; the biasing scheme limits
  // the loops to a window around the target.
  const std::size_t r_lo = window >= row ? 0 : row - window;
  const std::size_t r_hi = std::min(cfg_.rows, window >= cfg_.rows - row
                                                   ? cfg_.rows
                                                   : row + window + 1);
  const std::size_t c_lo = window >= col ? 0 : col - window;
  const std::size_t c_hi =
      std::min(cols, window >= cols - col ? cols : col + window + 1);
  for (std::size_t r2 = r_lo; r2 < r_hi; ++r2) {
    if (r2 == row) continue;
    const double* g_r2 = g + r2 * cols;
    const double g3 = g_r2[col];
    if (g3 <= 0.0) continue;
    const double inv_g3 = 1.0 / g3;
    const double* g_row = g + row * cols;
    for (std::size_t c2 = c_lo; c2 < c_hi; ++c2) {
      if (c2 == col) continue;
      const double g1 = g_row[c2];
      const double g2 = g_r2[c2];
      if (g1 <= 0.0 || g2 <= 0.0) continue;
      i += v / (1.0 / g1 + 1.0 / g2 + inv_g3);
    }
  }
  ++stats_.bit_reads;
  charge(tech_.t_read_ns, v * i * tech_.t_read_ns * 1e-3);
  // The excess over the direct-path current is exactly the sneak-loop
  // contribution — the spatial error signal the health monitor tracks.
  if (obs::health_enabled())
    health_monitor().record_sneak_current(col, i - v * g[row * cols + col]);
  // Measurement noise on the summed current.
  return i + rng_.normal(0.0, tech_.read_noise_frac * i);
}

// --- stateful logic ---------------------------------------------------------

void Crossbar::imply(std::size_t dest_row, std::size_t dest_col,
                     std::size_t src_row, std::size_t src_col) {
  if (dest_row >= cfg_.rows || dest_col >= cfg_.cols || src_row >= cfg_.rows ||
      src_col >= cfg_.cols)
    throw std::out_of_range("imply: out of range");
  auto& dest = cell(dest_row, dest_col);
  const bool p = bit_of(dest);
  const bool q = bit_of(cell(src_row, src_col));
  const bool next = !p || q;  // p -> q
  ++stats_.logic_ops;
  if (obs::enabled()) obs_counters().logic_ops.add(1);
  if (next != p) {
    mark_cell_dirty(dest_row, dest_col);
    const bool was_stuck = dest.stuck() != device::StuckMode::kNone;
    const auto res =
        dest.write_level(next ? dest.scheme().levels() - 1 : 0, rng_, false);
    if (obs::health_enabled())
      record_health_write(dest_row, dest_col, res, was_stuck);
    charge(res.time_ns, res.energy_pj);
  } else {
    // Conditional write that does not fire still costs the pulse window.
    charge(tech_.t_write_ns, 0.1 * tech_.e_write_pj);
  }
}

void Crossbar::set_false(std::size_t row, std::size_t col) {
  if (row >= cfg_.rows || col >= cfg_.cols)
    throw std::out_of_range("set_false: out of range");
  mark_cell_dirty(row, col);
  auto& cl = cell(row, col);
  const bool was_stuck = cl.stuck() != device::StuckMode::kNone;
  const auto res = cl.write_level(0, rng_, false);
  ++stats_.logic_ops;
  if (obs::enabled()) obs_counters().logic_ops.add(1);
  if (obs::health_enabled()) record_health_write(row, col, res, was_stuck);
  charge(res.time_ns, res.energy_pj);
}

void Crossbar::magic_not(std::size_t row, std::size_t in_col,
                         std::size_t out_col) {
  const std::size_t in[] = {in_col};
  magic_nor(row, in, out_col);
}

void Crossbar::magic_nor(std::size_t row, std::span<const std::size_t> in_cols,
                         std::size_t out_col) {
  if (row >= cfg_.rows || out_col >= cfg_.cols)
    throw std::out_of_range("magic_nor: out of range");
  if (in_cols.empty()) throw std::invalid_argument("magic_nor: no inputs");
  bool any_one = false;
  for (std::size_t c : in_cols) {
    if (c >= cfg_.cols) throw std::out_of_range("magic_nor: input out of range");
    any_one = any_one || bit_of(cell(row, c));
  }
  auto& out = cell(row, out_col);
  ++stats_.logic_ops;
  if (obs::enabled()) obs_counters().logic_ops.add(1);
  // MAGIC: the pre-SET output is conditionally RESET when any input is LRS.
  if (any_one) {
    mark_cell_dirty(row, out_col);
    const bool was_stuck = out.stuck() != device::StuckMode::kNone;
    const auto res = out.write_level(0, rng_, false);
    if (obs::health_enabled())
      record_health_write(row, out_col, res, was_stuck);
    charge(res.time_ns, res.energy_pj);
  } else {
    charge(tech_.t_write_ns, 0.1 * tech_.e_write_pj);
  }
}

void Crossbar::majority_write(std::size_t row, std::size_t col, bool v_wl,
                              bool v_bl) {
  if (row >= cfg_.rows || col >= cfg_.cols)
    throw std::out_of_range("majority_write: out of range");
  auto& cl = cell(row, col);
  const bool s = bit_of(cl);
  const bool b = !v_bl;
  const int votes = static_cast<int>(s) + static_cast<int>(v_wl) +
                    static_cast<int>(b);
  const bool next = votes >= 2;  // MAJ3(S, V_wl, !V_bl)
  ++stats_.logic_ops;
  if (obs::enabled()) obs_counters().logic_ops.add(1);
  if (next != s) {
    mark_cell_dirty(row, col);
    const bool was_stuck = cl.stuck() != device::StuckMode::kNone;
    const auto res =
        cl.write_level(next ? cl.scheme().levels() - 1 : 0, rng_, false);
    if (obs::health_enabled()) record_health_write(row, col, res, was_stuck);
    charge(res.time_ns, res.energy_pj);
  } else {
    charge(tech_.t_write_ns, 0.1 * tech_.e_write_pj);
  }
}

double Crossbar::wordline_sense(std::size_t row,
                                const std::vector<bool>& bitline_mask) {
  if (row >= cfg_.rows) throw std::out_of_range("wordline_sense: row");
  if (bitline_mask.size() != cfg_.cols)
    throw std::invalid_argument("wordline_sense: mask size != cols");
  const std::size_t er = effective_row(row);
  const double v = tech_.v_read;
  double i = 0.0;
  double noise_var = 0.0;
  for (std::size_t c = 0; c < cfg_.cols; ++c) {
    if (!bitline_mask[c]) continue;
    const double g = cell(er, c).true_conductance_us();
    const double ic = v * effective_conductance(er, c, g);
    i += ic;
    const double cell_noise = tech_.read_noise_frac * ic;
    noise_var += cell_noise * cell_noise;
  }
  ++stats_.bit_reads;
  charge(tech_.t_read_ns, v * i * tech_.t_read_ns * 1e-3 + tech_.e_read_pj);
  return i + rng_.normal(0.0, std::sqrt(noise_var));
}

bool Crossbar::scout_read(std::size_t r1, std::size_t r2, std::size_t col,
                          ScoutOp op) {
  if (r1 >= cfg_.rows || r2 >= cfg_.rows || col >= cfg_.cols)
    throw std::out_of_range("scout_read: out of range");
  const double v = tech_.v_read;
  const std::size_t er1 = effective_row(r1);
  const std::size_t er2 = effective_row(r2);
  auto& c1 = cell(er1, col);
  auto& c2 = cell(er2, col);
  // Scouting reads can disturb: dirty-mark the cells that actually moved.
  const double g1_before = c1.true_conductance_us();
  const double g1 = c1.read_conductance_us(rng_);
  if (c1.true_conductance_us() != g1_before) {
    mark_cell_dirty(er1, col);
    if (obs::health_enabled())
      health_monitor().record_disturb(er1, col, c1.true_conductance_us());
  }
  const double g2_before = c2.true_conductance_us();
  const double g2 = c2.read_conductance_us(rng_);
  if (c2.true_conductance_us() != g2_before) {
    mark_cell_dirty(er2, col);
    if (obs::health_enabled())
      health_monitor().record_disturb(er2, col, c2.true_conductance_us());
  }
  const double i = v * (g1 + g2);
  stats_.bit_reads += 2;
  ++stats_.logic_ops;
  if (obs::enabled()) obs_counters().logic_ops.add(1);
  charge(tech_.t_read_ns, v * i * tech_.t_read_ns * 1e-3 + 2 * tech_.e_read_pj);

  // References sit between the three distinguishable current levels,
  // accounting for the HRS leakage floor (critical for low on/off-ratio
  // technologies such as STT-MRAM).
  const double i00 = 2.0 * v * tech_.g_off_us();
  const double i01 = v * (tech_.g_off_us() + tech_.g_on_us());
  const double i11 = 2.0 * v * tech_.g_on_us();
  const double ref_or = 0.5 * (i00 + i01);
  const double ref_and = 0.5 * (i01 + i11);
  switch (op) {
    case ScoutOp::kOr: return i > ref_or;
    case ScoutOp::kAnd: return i > ref_and;
    case ScoutOp::kXor: return i > ref_or && i < ref_and;
  }
  return false;
}

}  // namespace cim::crossbar
