#include "eda/verify/wear_cost.hpp"

#include <algorithm>
#include <limits>
#include <optional>
#include <ostream>
#include <sstream>

#include "eda/truth_table.hpp"
#include "obs/obs.hpp"
#include "util/record_io.hpp"

namespace cim::eda::verify {
namespace {

// --- cost accumulator mirroring Crossbar::charge -----------------------------

struct CostAcc {
  const device::TechnologyParams& tech;
  CostEstimate est;

  explicit CostAcc(const device::TechnologyParams& t) : tech(t) {}

  /// Unconditional programming pulse: write_bit / set_false / MAGIC SET.
  void write() {
    est.time_ns += tech.t_write_ns;
    est.energy_pj_min += tech.e_write_pj;
    est.energy_pj_max += tech.e_write_pj;
    est.energy_pj_exp += tech.e_write_pj;
    ++est.write_slots;
  }

  /// Conditional logic op: fires with probability `p_fire`, else costs the
  /// 0.1 * e_write no-fire pulse window.
  void conditional(double p_fire) {
    est.time_ns += tech.t_write_ns;
    est.energy_pj_min += 0.1 * tech.e_write_pj;
    est.energy_pj_max += tech.e_write_pj;
    est.energy_pj_exp +=
        p_fire * tech.e_write_pj + (1.0 - p_fire) * 0.1 * tech.e_write_pj;
    ++est.write_slots;
    ++est.conditional_ops;
  }

  /// Charged read_bit of a cell holding 1 with probability `p1`.
  void sensed_read(double p1) {
    auto e = [&](double g_us) {
      return tech.v_read * tech.v_read * g_us * tech.t_read_ns * 1e-3 +
             tech.e_read_pj;
    };
    est.time_ns += tech.t_read_ns;
    est.energy_pj_min += e(tech.g_off_us());
    est.energy_pj_max += e(tech.g_on_us());
    est.energy_pj_exp +=
        e(p1 * tech.g_on_us() + (1.0 - p1) * tech.g_off_us());
    ++est.sensed_reads;
  }
};

// --- value domains -----------------------------------------------------------

/// Exact domain: each cell's resident value as a truth table over the
/// program inputs; probabilities are minterm counts.
class TtDomain {
 public:
  using V = TruthTable;
  explicit TtDomain(std::size_t vars) : vars_(static_cast<int>(vars)) {}
  V constant(bool b) const { return TruthTable::constant(b, vars_); }
  V input(std::size_t i) const {
    return TruthTable::var(static_cast<int>(i), vars_);
  }
  static V not_(const V& a) { return ~a; }
  static V or_(const V& a, const V& b) { return a | b; }
  static V and_(const V& a, const V& b) { return a & b; }
  static V maj(const V& a, const V& b, const V& c) {
    return TruthTable::maj(a, b, c);
  }
  double p(const V& a) const {
    return static_cast<double>(a.count_ones()) /
           static_cast<double>(std::uint64_t{1} << vars_);
  }

 private:
  int vars_;
};

/// Approximate domain for wide programs: per-cell P(cell = 1) under an
/// independence assumption.
class ProbDomain {
 public:
  using V = double;
  explicit ProbDomain(std::size_t) {}
  V constant(bool b) const { return b ? 1.0 : 0.0; }
  V input(std::size_t) const { return 0.5; }
  static V not_(V a) { return 1.0 - a; }
  static V or_(V a, V b) { return 1.0 - (1.0 - a) * (1.0 - b); }
  static V and_(V a, V b) { return a * b; }
  static V maj(V a, V b, V c) { return a * b + a * c + b * c - 2 * a * b * c; }
  double p(V a) const { return a; }
};

// --- per-family walkers ------------------------------------------------------

/// What one walk of a program yields: the cost it charges, the value
/// resident in every output tap, and whether the crossbar executor (on an
/// array sized exactly to the footprint) would have run it to the end.
template <typename V>
struct Walk {
  CostEstimate cost;
  std::vector<V> outputs;
  bool faithful = true;
};

template <typename D>
Walk<typename D::V> walk_imply(const ImplyProgram& prog,
                               const device::TechnologyParams& tech) {
  D dom(prog.num_inputs);
  const std::size_t n = prog.num_cells;
  std::vector<typename D::V> val(n, dom.constant(false));
  CostAcc acc(tech);
  Walk<typename D::V> walk;
  walk.faithful = prog.num_inputs <= n;
  for (std::size_t i = 0; i < std::min(prog.num_inputs, n); ++i) {
    val[i] = dom.input(i);
    acc.write();  // executor launch: write_bit per input
  }
  for (const auto& ins : prog.instrs) {
    if (ins.kind == ImplyInstr::Kind::kFalse) {
      acc.write();
      if (ins.dest < n)
        val[ins.dest] = dom.constant(false);
      else
        walk.faithful = false;
      continue;
    }
    if (ins.dest >= n || ins.src >= n) {  // oob: the linters report it;
      acc.conditional(0.5);               // keep the pulse-window cost
      walk.faithful = false;
      continue;
    }
    // dest' = dest -> src; switches unless dest = src = 1.
    const auto fire = D::not_(D::and_(val[ins.dest], val[ins.src]));
    acc.conditional(dom.p(fire));
    val[ins.dest] = D::or_(D::not_(val[ins.dest]), val[ins.src]);
  }
  for (const auto c : prog.output_cells) {
    acc.sensed_read(c < n ? dom.p(val[c]) : 0.0);
    walk.faithful = walk.faithful && c < n;
    walk.outputs.push_back(c < n ? val[c] : dom.constant(false));
  }
  walk.cost = acc.est;
  return walk;
}

template <typename D>
Walk<typename D::V> walk_magic(const MagicProgram& prog,
                               const device::TechnologyParams& tech) {
  D dom(prog.num_inputs);
  const std::size_t n = prog.num_cells;
  std::vector<typename D::V> val(n, dom.constant(false));
  CostAcc acc(tech);
  Walk<typename D::V> walk;
  walk.faithful = prog.num_inputs <= n;
  for (std::size_t i = 0; i < std::min(prog.num_inputs, n); ++i) {
    val[i] = dom.input(i);
    acc.write();
  }
  for (const auto& ins : prog.instrs) {
    if (ins.kind == MagicInstr::Kind::kSet) {
      acc.write();
      if (ins.out_cell < n)
        val[ins.out_cell] = dom.constant(true);
      else
        walk.faithful = false;
      continue;
    }
    // NOR conditionally RESETs: fires iff any input holds 1, else the
    // output keeps its value (the preceding SET makes that a 1).
    auto any = dom.constant(false);
    for (const auto c : ins.in_cells) {
      if (c < n)
        any = D::or_(any, val[c]);
      else
        walk.faithful = false;
    }
    acc.conditional(dom.p(any));
    if (ins.out_cell < n)
      val[ins.out_cell] = D::and_(val[ins.out_cell], D::not_(any));
    if (ins.out_cell >= n || ins.in_cells.empty()) walk.faithful = false;
  }
  for (std::size_t k = 0; k < prog.output_cells.size(); ++k) {
    if (k < prog.output_is_const.size() && prog.output_is_const[k]) {
      walk.faithful = walk.faithful && k < prog.const_values.size();
      walk.outputs.push_back(dom.constant(k < prog.const_values.size() &&
                                          prog.const_values[k]));
      continue;
    }
    const std::size_t c = prog.output_cells[k];
    acc.sensed_read(c < n ? dom.p(val[c]) : 0.0);
    walk.faithful = walk.faithful && c < n;
    walk.outputs.push_back(c < n ? val[c] : dom.constant(false));
  }
  walk.cost = acc.est;
  return walk;
}

template <typename D>
Walk<typename D::V> walk_revamp(const RevampProgram& prog,
                                const device::TechnologyParams& tech) {
  D dom(prog.num_inputs);
  const std::size_t W = prog.wordlines;
  const std::size_t B = prog.bitlines;
  std::vector<typename D::V> val(W * B, dom.constant(false));
  std::vector<std::optional<std::vector<typename D::V>>> dmr(W);
  CostAcc acc(tech);
  Walk<typename D::V> walk;

  auto resolve = [&](const RevampOperand& op) -> typename D::V {
    typename D::V v = dom.constant(false);
    switch (op.src) {
      case RevampOperand::Src::kConst0: v = dom.constant(false); break;
      case RevampOperand::Src::kConst1: v = dom.constant(true); break;
      case RevampOperand::Src::kInput:
        v = op.input_index < prog.num_inputs ? dom.input(op.input_index)
                                             : dom.constant(false);
        break;
      case RevampOperand::Src::kDmr:
        if (op.dmr_row < W && dmr[op.dmr_row] && op.dmr_col < B)
          v = (*dmr[op.dmr_row])[op.dmr_col];
        else
          walk.faithful = false;  // the executor throws: not latched
        break;
    }
    return op.complemented ? D::not_(v) : v;
  };

  for (const auto& ins : prog.instrs) {
    if (ins.wordline >= W) {  // oob: the linter reports it
      walk.faithful = false;
      continue;
    }
    if (ins.kind == RevampInstruction::Kind::kRead) {
      std::vector<typename D::V> word;
      word.reserve(B);
      for (std::size_t c = 0; c < B; ++c) {
        acc.sensed_read(dom.p(val[ins.wordline * B + c]));
        word.push_back(val[ins.wordline * B + c]);
      }
      dmr[ins.wordline] = std::move(word);
      continue;
    }
    const auto w = resolve(ins.wl);
    for (std::size_t c = 0; c < ins.columns.size(); ++c) {
      if (!ins.columns[c]) continue;
      if (c >= B) {
        walk.faithful = false;
        break;
      }
      const auto b = resolve(*ins.columns[c]);  // v_bl; the cell sees !v_bl
      auto& s = val[ins.wordline * B + c];
      const auto nb = D::not_(b);
      // NS = MAJ3(S, w, !b) switches iff w == !b and w != S: disjoint cases
      // (w=1, b=0, S=0) and (w=0, b=1, S=1).
      const auto fire = D::or_(D::and_(D::and_(w, nb), D::not_(s)),
                               D::and_(D::and_(D::not_(w), b), s));
      acc.conditional(dom.p(fire));
      s = D::maj(s, w, nb);
    }
  }
  // Output taps resolve from DMR/PIR/constants — nothing charged.
  for (const auto& o : prog.outputs) walk.outputs.push_back(resolve(o));
  walk.cost = acc.est;
  return walk;
}

template <typename WalkFn, typename ProbWalkFn>
CostEstimate dispatch(std::size_t num_inputs, WalkFn&& exact,
                      ProbWalkFn&& approx) {
  if (num_inputs <= kExactCostInputCap) {
    auto est = exact().cost;
    est.exact_expectation = true;
    return est;
  }
  return approx().cost;
}

/// The exact walk's output taps, or nullopt when the run is not faithful.
template <typename Prog, typename WalkFn>
std::optional<std::vector<TruthTable>> evaluate_with(const Prog& prog,
                                                     WalkFn&& walk) {
  // The cost the walk charges is discarded; any technology serves.
  auto w = walk(prog, device::technology_params(device::Technology::kSttMram));
  if (!w.faithful) return std::nullopt;
  return std::move(w.outputs);
}

}  // namespace

CostEstimate estimate_cost(const ImplyProgram& prog,
                           const device::TechnologyParams& tech) {
  return dispatch(
      prog.num_inputs, [&] { return walk_imply<TtDomain>(prog, tech); },
      [&] { return walk_imply<ProbDomain>(prog, tech); });
}

CostEstimate estimate_cost(const MagicProgram& prog,
                           const device::TechnologyParams& tech) {
  return dispatch(
      prog.num_inputs, [&] { return walk_magic<TtDomain>(prog, tech); },
      [&] { return walk_magic<ProbDomain>(prog, tech); });
}

CostEstimate estimate_cost(const RevampProgram& prog,
                           const device::TechnologyParams& tech) {
  return dispatch(
      prog.num_inputs, [&] { return walk_revamp<TtDomain>(prog, tech); },
      [&] { return walk_revamp<ProbDomain>(prog, tech); });
}

std::optional<std::vector<TruthTable>> evaluate(const ImplyProgram& prog) {
  return evaluate_with(prog, walk_imply<TtDomain>);
}

std::optional<std::vector<TruthTable>> evaluate(const MagicProgram& prog) {
  return evaluate_with(prog, walk_magic<TtDomain>);
}

std::optional<std::vector<TruthTable>> evaluate(const RevampProgram& prog) {
  return evaluate_with(prog, walk_revamp<TtDomain>);
}

void certify_cost(const CostEstimate& cost, const CostBudget& budget,
                  VerifyReport& rep) {
  if (budget.time_ns > 0.0 && cost.time_ns > budget.time_ns) {
    std::ostringstream os;
    os << "static latency " << cost.time_ns << " ns exceeds the budget of "
       << budget.time_ns << " ns";
    rep.diagnostics.push_back(
        {Severity::kError, Rule::kCostBudget, kNoInstr, kNoCell, os.str()});
  }
  if (budget.energy_pj > 0.0 && cost.energy_pj_max > budget.energy_pj) {
    std::ostringstream os;
    os << "static worst-case energy " << cost.energy_pj_max
       << " pJ exceeds the budget of " << budget.energy_pj << " pJ";
    rep.diagnostics.push_back(
        {Severity::kError, Rule::kCostBudget, kNoInstr, kNoCell, os.str()});
  }
}

WearCertificate certify_wear(const ProgramAccess& access,
                             const VerifyOptions& opts,
                             std::uint64_t planned_evaluations,
                             VerifyReport& rep) {
  WearCertificate cert;
  cert.max_writes_per_run = access.max_write_bound();
  cert.total_writes_per_run = access.total_writes;
  cert.endurance_mean = device::technology_params(opts.tech).endurance_mean;
  cert.certified_evaluations =
      cert.max_writes_per_run == 0
          ? std::numeric_limits<std::uint64_t>::max()
          : static_cast<std::uint64_t>(
                cert.endurance_mean /
                static_cast<double>(cert.max_writes_per_run));
  if (planned_evaluations == 0) return cert;

  constexpr std::size_t kMaxPerCellDiags = 4;
  std::size_t offending = 0;
  for (std::size_t cell = 0; cell < access.write_bound.size(); ++cell) {
    const double lifetime = static_cast<double>(access.write_bound[cell]) *
                            static_cast<double>(planned_evaluations);
    if (lifetime <= cert.endurance_mean) continue;
    if (++offending <= kMaxPerCellDiags) {
      std::ostringstream os;
      os << "cell r" << cell / access.cols << ",c" << cell % access.cols
         << ": " << access.write_bound[cell] << " writes/run x "
         << planned_evaluations << " planned runs = " << lifetime
         << " exceeds the mean endurance of " << cert.endurance_mean;
      rep.diagnostics.push_back(
          {Severity::kError, Rule::kWearBudget, kNoInstr, cell, os.str()});
    }
  }
  if (offending > kMaxPerCellDiags) {
    std::ostringstream os;
    os << (offending - kMaxPerCellDiags)
       << " further cells exceed the endurance budget (suppressed)";
    rep.diagnostics.push_back(
        {Severity::kError, Rule::kWearBudget, kNoInstr, kNoCell, os.str()});
  }
  return cert;
}

// --- cim-health-heatmap-v1 export --------------------------------------------

namespace {

using util::record_io::json_escape;

void json_zeros(std::ostream& os, std::size_t n) {
  os << "[";
  for (std::size_t i = 0; i < n; ++i) os << (i == 0 ? "0" : ",0");
  os << "]";
}

template <typename T>
void json_counts(std::ostream& os, const std::vector<T>& v) {
  os << "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i != 0) os << ",";
    os << static_cast<std::uint64_t>(v[i]);
  }
  os << "]";
}

}  // namespace

void write_static_wear_json(std::ostream& os,
                            const std::vector<StaticWearEntry>& entries) {
  const obs::BuildInfo info = obs::build_info();
  os << "{\"meta\":{\"git_sha\":\"" << json_escape(info.git_sha)
     << "\",\"build_type\":\"" << json_escape(info.build_type)
     << "\",\"schema\":\"cim-health-heatmap-v1\"},\"arrays\":[";
  bool first = true;
  for (const auto& e : entries) {
    if (e.access == nullptr) continue;
    const auto& a = *e.access;
    if (!first) os << ",";
    first = false;
    os << "{\"name\":\"" << json_escape(e.name) << '"';
    os << ",\"rows\":" << a.rows << ",\"cols\":" << a.cols;
    os << ",\"wear\":";
    json_counts(os, a.write_bound);
    // Disturbs, drift, wear-out and sneak currents are runtime phenomena —
    // the static certificate has no statement about them.
    os << ",\"disturbs\":";
    json_zeros(os, a.write_bound.size());
    os << ",\"drift_us\":";
    json_zeros(os, a.write_bound.size());
    os << ",\"worn\":";
    json_zeros(os, a.write_bound.size());
    os << ",\"adc_samples\":";
    json_counts(os, a.sensed_cols);
    os << ",\"adc_clips\":";
    json_zeros(os, a.cols);
    os << ",\"sneak_ua\":";
    json_zeros(os, a.cols);
    std::size_t adc_total = 0;
    for (const auto s : a.sensed_cols) adc_total += s;
    os << ",\"summary\":{";
    os << "\"total_writes\":" << a.total_writes;
    os << ",\"total_disturbs\":0";
    os << ",\"max_wear\":" << a.max_write_bound();
    os << ",\"worn_cells\":0";
    os << ",\"total_adc_samples\":" << adc_total;
    os << ",\"total_adc_clips\":0";
    os << ",\"mean_abs_drift_us\":0";
    os << ",\"max_abs_drift_us\":0";
    os << ",\"total_sneak_ua\":0";
    os << "}}";
  }
  os << "]}\n";
}

}  // namespace cim::eda::verify
