/// \file flow.hpp
/// \brief The end-to-end EDA flow of Fig. 8: technology-independent
///        synthesis -> technology-dependent optimization -> technology
///        mapping, for each of the three ReRAM logic families of
///        Section IV.A (IMPLY, Majority/ReVAMP, MAGIC).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "eda/bench_circuits.hpp"
#include "eda/netlist.hpp"
#include "eda/verify/diagnostics.hpp"
#include "eda/verify/wear_cost.hpp"
#include "util/table.hpp"

namespace cim::eda {

/// The mapping targets (stateful logic families).
enum class LogicFamily { kImply, kMajority, kMagic };
std::string_view logic_family_name(LogicFamily family);
std::vector<LogicFamily> all_logic_families();

/// Result of mapping one circuit to one family.
struct FlowReport {
  std::string circuit;
  LogicFamily family = LogicFamily::kImply;
  // Synthesis statistics.
  std::size_t aig_nodes = 0;
  std::size_t aig_depth = 0;
  std::size_t mig_nodes = 0;
  std::size_t mig_depth = 0;
  std::size_t esop_cubes = 0;   ///< single-output circuits only (else 0)
  std::size_t bdd_nodes = 0;    ///< single-output circuits only (else 0)
  // Mapping metrics.
  std::size_t devices = 0;      ///< area (cells)
  std::size_t delay = 0;        ///< steps
  double area_delay_product = 0.0;
  /// The compiled program (for Majority: the assembled ReVAMP stream)
  /// evaluates to the specification's truth tables on every input.
  bool verified = false;
  // Static verification (the `cim-lint` pass pipeline; see
  // eda/verify/pass.hpp). Diagnostics aggregate the family linter plus the
  // wear and cost certification passes.
  bool lint_clean = true;       ///< no static-analysis errors
  std::size_t lint_errors = 0;
  std::size_t lint_warnings = 0;
  std::size_t max_writes_per_cell = 0;
  std::vector<verify::Diagnostic> lint_diagnostics;
  // Static wear certificate (eda/verify/wear_cost.hpp): per-cell write
  // bounds with the executor's input-launch writes included.
  std::size_t static_max_writes_per_cell = 0;
  std::uint64_t certified_evaluations = 0;  ///< endurance / worst-cell bound
  // Static cost estimate for one program execution. Time is exact (the
  // micro-op schedule is data-blind); energy carries a hard [min, max]
  // bracket and a uniform-input expectation (exact up to
  // verify::kExactCostInputCap inputs).
  double static_time_ns = 0.0;
  double static_energy_pj_min = 0.0;
  double static_energy_pj_exp = 0.0;
  double static_energy_pj_max = 0.0;
  bool static_cost_exact = false;
  // Cross-tile hazard section (eda/verify/hazard.hpp): run_suite schedules
  // every compiled program of the suite across a shared tile pool and
  // attributes findings back to the reports.
  bool hazard_clean = true;
  std::size_t hazard_findings = 0;
};

/// Options for the flow.
struct FlowOptions {
  bool reuse_cells = true;   ///< area-constrained mapping for IMPLY/MAGIC
  bool verify = true;        ///< check every program against its spec
  bool lint = true;          ///< run the static pass pipeline per program
  /// Planned lifetime evaluations for the wear-budget gate (0: report the
  /// certificate without gating).
  std::uint64_t planned_evaluations = 0;
  /// Per-execution cost budget for the cost-budget gate (0-dimensions are
  /// unconstrained).
  verify::CostBudget cost_budget{};
};

/// Runs the full flow for one circuit and one family.
FlowReport run_flow(const std::string& name, const Netlist& circuit,
                    LogicFamily family, const FlowOptions& opts = {});

/// Runs every family over every circuit of a suite.
std::vector<FlowReport> run_suite(const std::vector<BenchmarkCircuit>& suite,
                                  const FlowOptions& opts = {});

/// Renders the `cim-lint` summary over a batch of flow reports.
util::Table lint_summary(const std::vector<FlowReport>& reports);

}  // namespace cim::eda
