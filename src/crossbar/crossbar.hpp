/// \file crossbar.hpp
/// \brief ReRAM crossbar array simulator (Section II.B.2, Fig. 4a).
///
/// The crossbar is the storage *and* compute fabric of a CIM core:
///
///   - **Analog VMM**: applying a voltage vector V to the wordlines produces
///     per-bitline currents I_c = sum_r V_r * G(r,c) — n MAC operations in
///     O(1) time (Fig. 4a). Non-idealities modelled: programming variation,
///     read noise, read disturb, wire IR-drop, and (for passive 0T1R arrays)
///     sneak-path currents.
///   - **Digital bit storage** with the RAM-style fault behaviours of
///     Section III (address-decoder aliasing, coupling, stuck-at cells) —
///     the substrate the March-test engine runs against.
///   - **Stateful logic** (Section IV.A): material implication (IMPLY),
///     MAGIC NOR/NOT, ReVAMP-style majority write, and Scouting-logic reads,
///     which the technology mappers of the EDA module target.
///
/// All operations account time (ns) and energy (pJ) into CrossbarStats; the
/// per-operation dynamic energy feeds the on-line power monitor of
/// Section III.C / Fig. 7.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>


#include "crossbar/fidelity.hpp"
#include "device/reram_cell.hpp"
#include "device/technology.hpp"
#include "fault/fault_map.hpp"
#include "util/matrix.hpp"
#include "util/rng.hpp"

namespace cim::util {
class ThreadPool;
}
namespace cim::obs {
class HealthMonitor;
}

namespace cim::crossbar {

/// Static configuration of one crossbar array.
struct CrossbarConfig {
  std::size_t rows = 64;
  std::size_t cols = 64;
  device::Technology tech = device::Technology::kReRamHfOx;
  int levels = 16;                 ///< programmable conductance levels
  bool model_ir_drop = true;       ///< first-order wire-resistance attenuation
  double wire_resistance_ohm = 2.0;///< per wire segment (Ohm)
  bool passive_array = false;      ///< 0T1R: VMM reads suffer sneak paths
  bool verified_writes = false;    ///< program-and-verify on analog writes
  /// Dirty-tracked conductance-cache maintenance: mutating ops record the
  /// touched cells and the next VMM repairs the caches in O(|dirty|) instead
  /// of rebuilding O(rows*cols). Outputs are bit-identical either way; set
  /// to false to force the legacy whole-cache rebuild (the baseline the
  /// write/read-interleave bench and the coherence tests compare against).
  bool incremental_cache = true;
  std::uint64_t seed = 42;         ///< RNG stream for all stochastic behaviour
  /// When set, overrides the preset parameters of `tech` — used by
  /// reliability experiments that sweep endurance, noise or disturb rates.
  std::optional<device::TechnologyParams> tech_override;
};

/// Operation counters and cost accumulation.
struct CrossbarStats {
  std::uint64_t bit_reads = 0;
  std::uint64_t bit_writes = 0;
  std::uint64_t analog_writes = 0;
  std::uint64_t vmm_ops = 0;
  std::uint64_t logic_ops = 0;
  double time_ns = 0.0;
  double energy_pj = 0.0;
  // Conductance-cache maintenance (see "Crossbar state caches and dirty
  // tracking" in DESIGN.md): benches use these to prove a write/VMM
  // interleave took the O(|dirty|) path instead of O(rows*cols) rebuilds.
  std::uint64_t cache_full_rebuilds = 0;  ///< whole-array cache rebuilds
  std::uint64_t cache_delta_updates = 0;  ///< dirty-list delta repairs
  std::uint64_t cache_dirty_cells = 0;    ///< cells repaired across all deltas
};

/// Scouting-logic read operations (Xie et al., ISVLSI'17).
enum class ScoutOp { kOr, kAnd, kXor };

/// Physical array geometry (rows x cols) — the footprint query compiled
/// micro-op programs are checked against by the EDA static verifier.
struct Geometry {
  std::size_t rows = 0;
  std::size_t cols = 0;

  bool contains(std::size_t row, std::size_t col) const {
    return row < rows && col < cols;
  }
  std::size_t cell_count() const { return rows * cols; }
};

/// A ReRAM crossbar array with configurable non-idealities.
class Crossbar {
 public:
  explicit Crossbar(CrossbarConfig cfg);

  std::size_t rows() const { return cfg_.rows; }
  std::size_t cols() const { return cfg_.cols; }
  Geometry geometry() const { return {cfg_.rows, cfg_.cols}; }
  const CrossbarConfig& config() const { return cfg_; }
  const device::TechnologyParams& tech() const { return tech_; }
  const device::LevelScheme& scheme() const { return cells_.front().scheme(); }

  /// Injects a fault map: cell faults are pushed into the cells, array-level
  /// faults (decoder aliasing, coupling) are kept and honoured by every
  /// subsequent addressed operation.
  void apply_faults(const fault::FaultMap& map);

  /// Currently applied fault map (empty map if none was applied).
  const fault::FaultMap& faults() const { return faults_; }

  // --- digital bit interface (logic 1 = LRS = top level) -------------------

  /// Writes one bit through the (possibly faulty) row decoder; triggers
  /// coupling faults and neighbour write-disturb.
  void write_bit(std::size_t row, std::size_t col, bool value);

  /// Reads one bit (threshold at mid conductance) through the row decoder.
  bool read_bit(std::size_t row, std::size_t col);

  // --- analog interface -----------------------------------------------------

  /// Programs one cell to an analog conductance target (uS).
  device::WriteResult program_cell(std::size_t row, std::size_t col, double g_us);

  /// Programs the whole array from a matrix of conductances (uS).
  void program_conductances(const util::Matrix& g_us);

  /// Programs the whole array from a matrix of integer levels.
  void program_levels(const util::Matrix& levels);

  /// Noisy single-cell conductance read (uS).
  double read_conductance(std::size_t row, std::size_t col);

  /// True (noiseless) conductance — test oracle only.
  double true_conductance(std::size_t row, std::size_t col) const;

  /// Analog vector-matrix multiply: applies `v_rows` volts on the wordlines
  /// and returns the bitline currents in uA. At the default tier
  /// (FidelityTier::kFull) models IR-drop, read noise, read disturb and
  /// (for passive arrays) sneak-path background current; the cheaper tiers
  /// trade model fidelity for throughput (see fidelity.hpp).
  std::vector<double> vmm(std::span<const double> v_rows,
                          FidelityTier tier = FidelityTier::kFull);

  /// Allocation-free variant: writes the bitline currents into `currents`
  /// (size cols). The steady-state hot path — all scratch lives in member
  /// buffers, so interleaved write/VMM loops never touch the allocator.
  void vmm(std::span<const double> v_rows, std::span<double> currents,
           FidelityTier tier = FidelityTier::kFull);

  /// Batched analog VMM: row b of `v_batch` is one input vector; result b
  /// lands in row b of `out` (resized only on shape change, so the storage
  /// is reused across batches). Samples fan out across `pool` (the global
  /// pool when null); each sample's noise stream is derived by
  /// counter-based RNG splitting from one serial draw, so the output is
  /// bit-identical for any thread count — including 1.
  ///
  /// Semantics vs. calling vmm() in a loop: the effective-conductance
  /// matrix is computed once for the whole batch and read disturb
  /// accumulated by the batch is applied after all samples (pipelined-read
  /// semantics: every sample of a batch sees the same array state). Stats
  /// accounting matches `batch` sequential vmm() calls.
  ///
  /// Cheaper tiers skip the per-sample disturb streams (kCalibrated) or the
  /// RNG entirely (kIdeal) — see fidelity.hpp.
  void vmm_batch(const util::Matrix& v_batch, util::Matrix& out,
                 util::ThreadPool* pool = nullptr,
                 FidelityTier tier = FidelityTier::kFull);

  /// Convenience overload over a span of input vectors.
  std::vector<std::vector<double>> vmm_batch(
      std::span<const std::vector<double>> inputs,
      util::ThreadPool* pool = nullptr,
      FidelityTier tier = FidelityTier::kFull);

  /// Ideal VMM on the *target* conductances — the mathematical oracle.
  std::vector<double> ideal_vmm(std::span<const double> v_rows) const;

  /// Single-cell read current including 3-cell sneak-path contributions
  /// (the mechanism exploited by the sneak-path test of Section III.B).
  /// `window` restricts the contributing loops to cells within that many
  /// rows/columns of the target (biasing scheme of the parallel test);
  /// SIZE_MAX means the whole array.
  double read_current_with_sneak(std::size_t row, std::size_t col,
                                 std::size_t window = SIZE_MAX);

  /// Oracle counterpart of read_current_with_sneak: same loop sum evaluated
  /// on the *target* (programmed) conductances, noiseless and free.
  double ideal_current_with_sneak(std::size_t row, std::size_t col,
                                  std::size_t window = SIZE_MAX) const;

  // --- stateful logic (Section IV.A) ---------------------------------------

  /// Material implication, result into dest: S_dest <- S_dest -> S_src
  /// (paper's convention: NS_p = S_p -> S_q).
  void imply(std::size_t dest_row, std::size_t dest_col, std::size_t src_row,
             std::size_t src_col);

  /// Unconditional RESET to logic 0 (the FALSE operation completing the
  /// {IMPLY, FALSE} universal set).
  void set_false(std::size_t row, std::size_t col);

  /// MAGIC NOT within a row: out <- NOT in. Precondition: out cell holds 1.
  void magic_not(std::size_t row, std::size_t in_col, std::size_t out_col);

  /// MAGIC k-input NOR within a row. Precondition: out cell holds 1; the
  /// operation conditionally RESETs it. Input states are unchanged.
  void magic_nor(std::size_t row, std::span<const std::size_t> in_cols,
                 std::size_t out_col);

  /// ReVAMP majority write: S <- MAJ3(S, v_wl, NOT v_bl).
  void majority_write(std::size_t row, std::size_t col, bool v_wl, bool v_bl);

  /// Wordline current sense with selective bitline activation: applies the
  /// read voltage on the bitlines whose mask bit is set and senses the
  /// summed current of `row` (uA). The primitive behind ESOP cube
  /// evaluation [69]: a row of cube-mask cells conducts iff some stored-1
  /// cell sees an active bitline.
  double wordline_sense(std::size_t row, const std::vector<bool>& bitline_mask);

  /// Scouting-logic read of two cells in one column: senses the summed
  /// current of rows r1, r2 against the op's reference(s).
  bool scout_read(std::size_t r1, std::size_t r2, std::size_t col, ScoutOp op);

  // --- accounting ------------------------------------------------------------

  const CrossbarStats& stats() const { return stats_; }
  void reset_stats() { stats_ = CrossbarStats{}; }

  /// Energy (pJ) consumed by the most recent operation — the signal tapped by
  /// the on-line power monitor.
  double last_op_energy_pj() const { return last_op_energy_pj_; }

  util::Rng& rng() { return rng_; }

  // --- device-health observability -----------------------------------------

  /// Registry name this array's health monitor uses. Must be called before
  /// the first health event (default: an auto-assigned "crossbar.<n>").
  void set_health_name(std::string name) { health_name_ = std::move(name); }

  /// The spatial health monitor attached to this array, lazily registered
  /// in obs::HealthRegistry on first use. Hot paths only reach it behind
  /// `obs::health_enabled()`; calling this directly (tests, exporters)
  /// attaches it regardless of mode.
  obs::HealthMonitor& health_monitor();

 private:
  device::ReRamCell& cell(std::size_t r, std::size_t c) {
    return cells_[r * cfg_.cols + c];
  }
  const device::ReRamCell& cell(std::size_t r, std::size_t c) const {
    return cells_[r * cfg_.cols + c];
  }

  /// Row actually selected by the decoder (honours address-decoder faults).
  std::size_t effective_row(std::size_t r) const;

  /// Shared body of program_cell and the bulk programming loops: performs
  /// the write + accounting + side effects but leaves cache dirty-marking
  /// to the caller (bulk programming marks the whole array once).
  device::WriteResult program_cell_impl(std::size_t row, std::size_t col,
                                        double g_us);

  /// Post-write side effects: coupling-fault victims and neighbour disturb.
  void after_write(std::size_t r, std::size_t c, bool value_is_one);

  /// Health bookkeeping for one completed write on (r, c): wear (pulses),
  /// drift baseline reset, and the in-field wear-out transition. Callers
  /// gate on obs::health_enabled().
  void record_health_write(std::size_t r, std::size_t c,
                           const device::WriteResult& res, bool was_stuck);

  /// IR-drop-attenuated effective conductance of a cell during VMM.
  double effective_conductance(std::size_t r, std::size_t c, double g_us) const;

  bool bit_of(const device::ReRamCell& cell) const;
  double charge(double time_ns, double energy_pj);

  /// Brings the cached true/effective conductance matrices up to date.
  /// Every operation that can change a stored conductance (writes, fault
  /// injection, disturb, drift-prone reads) must either mark the exact
  /// cells it touched via mark_cell_dirty() or declare the whole array
  /// stale via invalidate_conductance_cache(). With `incremental_cache`
  /// on, a pending dirty list is repaired in O(|dirty|); the repaired
  /// caches are bitwise-equal to a full rebuild (effective conductance is
  /// a pure per-cell function, and g_true_sum_ is re-accumulated in
  /// rebuild order whenever it is observable, i.e. for passive arrays).
  void ensure_conductance_cache();

  /// Whole-array invalidation: the next ensure_conductance_cache() does a
  /// full O(rows*cols) rebuild. Used by bulk mutations (fault injection,
  /// array-wide programming) and as the dirty-list spill target.
  void invalidate_conductance_cache() {
    g_all_dirty_ = true;
    dirty_cells_.clear();
  }

  /// Records one mutated cell for the next delta repair; spills to
  /// invalidate_conductance_cache() once the list stops paying off.
  void mark_cell_dirty(std::size_t r, std::size_t c);

  /// Dirty-list length at which delta bookkeeping loses to a rebuild.
  std::size_t dirty_spill_threshold() const {
    return std::max<std::size_t>(32, cells_.size() / 8);
  }

  void rebuild_conductance_cache();  ///< full O(rows*cols) rebuild
  void apply_dirty_cells();  ///< O(|dirty| + touched rows * cols) repair

  /// Tier-1/2 serial VMM bodies (dispatched from vmm()). Both assume a
  /// valid conductance cache.
  void vmm_calibrated(std::span<const double> v_rows,
                      std::span<double> currents);
  void vmm_ideal(std::span<const double> v_rows, std::span<double> currents);

  /// VMM array energy (pJ) from the per-row conductance sums:
  /// sum_r v_r^2 * rowsum[r] * t_read * 1e-3 — the per-cell formula
  /// sum_{r,c} |v_r * v_r * g| * t_read * 1e-3 collapsed, which is exact
  /// because conductances are non-negative. Every tier charges this, so
  /// array energy is table-independent and tiers 0 and 1 agree bitwise.
  double vmm_energy_from_rowsums(std::span<const double> v_rows,
                                 const std::vector<double>& rowsum) const;

  /// Tier-1 fused input pass: returns the calibrated noise scale factor
  /// (mean-field over rows; exact when |v| is uniform — per-column std is
  /// scale * g_eff_col_std_[c]) and writes the closed-form VMM energy from
  /// the cached row sums into `energy`, both from one loop over v_rows.
  double calibrated_scale_and_energy(std::span<const double> v_rows,
                                     double& energy) const;

  /// Tier-dependent batch fan-out bodies (dispatched from vmm_batch()).
  void vmm_batch_calibrated(const util::Matrix& v_batch, util::Matrix& out,
                            util::ThreadPool& pool);
  void vmm_batch_ideal(const util::Matrix& v_batch, util::Matrix& out,
                       util::ThreadPool& pool);

  /// Sneak background current per column of a passive 0T1R array (from the
  /// cached conductance sum; requires a valid cache).
  double sneak_background_per_col(std::span<const double> v_rows) const;

  /// Expected-count read-disturb events for one VMM cycle, drawn from `rng`.
  /// Each hit applies ReRamCell::disturb_step(), so hard-stuck cells and
  /// cells already at g_on do not move and are not dirty-marked.
  void apply_read_disturb(util::Rng& rng);

  CrossbarConfig cfg_;
  device::TechnologyParams tech_;
  util::Rng rng_;
  std::vector<device::ReRamCell> cells_;
  fault::FaultMap faults_;
  CrossbarStats stats_;
  double last_op_energy_pj_ = 0.0;

  // Device-health observability (see health_monitor()).
  std::shared_ptr<obs::HealthMonitor> health_;
  std::string health_name_;

  // Hot-path caches (see ensure_conductance_cache).
  std::vector<double> g_true_cache_;   ///< stored conductances, flat row-major
  std::vector<double> g_eff_cache_;    ///< IR-drop-attenuated counterparts
  double g_true_sum_ = 0.0;            ///< sum of g_true (sneak background)
  // Fidelity-tier calibration tables, maintained alongside the conductance
  // caches (rebuild + delta repair): target conductances for tier 2, the
  // per-column sums tier 1 derives its noise from, and the per-row sums
  // every tier derives its array energy from.
  std::vector<double> g_ideal_cache_;    ///< target conductances, flat
  std::vector<double> g_eff_sq_colsum_;  ///< per-column sum of g_eff^2
  std::vector<double> g_eff_col_std_;    ///< sqrt(g_eff_sq_colsum_), cached
  std::vector<double> g_eff_rowsum_;     ///< per-row sum of g_eff (exact)
  std::vector<double> g_ideal_rowsum_;   ///< per-row sum of g_ideal (exact)
  bool g_cache_built_ = false;         ///< caches populated at least once
  bool g_all_dirty_ = true;            ///< full rebuild pending

  // Dirty tracking (incremental_cache): flat cell indices pending repair,
  // deduplicated by a per-row bitset (dirty_words_per_row_ words per row).
  std::vector<std::uint32_t> dirty_cells_;
  std::vector<std::uint64_t> dirty_bits_;
  std::size_t dirty_words_per_row_ = 0;
  std::vector<std::uint32_t> touched_;  ///< delta repair: rows, then cols

  std::vector<double> vmm_noise_scratch_;  ///< per-call noise-variance buffer
  std::vector<double> batch_energy_scratch_;  ///< per-sample energy (vmm_batch)
  /// Largest write-disturb scale any cell carries (monotone: raised by
  /// apply_faults, never lowered); sets the skip-sampling rate in
  /// after_write so every cell's rate is thinned down from it.
  double max_write_disturb_scale_ = 1.0;
};

}  // namespace cim::crossbar
