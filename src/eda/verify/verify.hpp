/// \file verify.hpp
/// \brief Static micro-op program verifier (`cim::eda::verify`) — proves
///        hazard-freedom of compiled IMPLY / MAGIC / ReVAMP programs without
///        executing them on a crossbar (Section IV / Fig. 8 tooling).
///
/// The functional `FlowReport::verified` bit walks a program once with
/// every cell held as a truth table over the inputs (`evaluate`,
/// wear_cost.hpp); that catches functional bugs but says nothing about
/// *why* a mapping is wrong. The static verifier instead walks the
/// instruction stream once with an abstract cell-state lattice
/// (cell_state.hpp) and per-family dataflow rules:
///
///   - use-before-init      reading a cell no micro-op ever initialized
///   - write-after-write    MAGIC NOR driving a cell that was not re-SET
///   - dead-cell-read       liveness: reading a recycled/stale cell, or
///                          overwriting a cell whose source node still has
///                          live fanouts (the verifier re-derives fanout
///                          death points from the source IR, independently
///                          of the CONTRA-style allocator it checks)
///   - oob-cell             indices outside the program footprint or the
///                          target crossbar geometry
///   - endurance-budget     per-cell write counts vs. the device endurance
///   - output-unreachable   an output tap not dominated by a defining write
///   - dmr-not-latched      ReVAMP operand reading an unlatched/stale DMR row
///
/// Each analysis is linear in program size and reports structured
/// `Diagnostic`s (diagnostics.hpp) with stable rule ids — the contract the
/// `ctest -L lint` gate and the `cim-lint` summary table are built on.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "crossbar/crossbar.hpp"
#include "eda/aig.hpp"
#include "eda/imply_mapper.hpp"
#include "eda/magic_mapper.hpp"
#include "eda/netlist.hpp"
#include "eda/revamp_isa.hpp"
#include "eda/verify/diagnostics.hpp"
#include "util/table.hpp"

namespace cim::eda::verify {

/// Options shared by the per-family analyses.
struct VerifyOptions {
  /// When set, program footprints are additionally checked against this
  /// physical crossbar geometry (rows x cols).
  std::optional<crossbar::Geometry> geometry;

  /// Maximum tolerated writes into a single cell per program execution.
  /// 0 selects the device endurance budget: technology_params(tech)
  /// .endurance_mean writes — generous for one run, but the accounting (and
  /// `VerifyReport::max_writes_per_cell`) lets a system integrator divide
  /// the device budget by the planned evaluation count.
  std::size_t endurance_budget = 0;

  /// Technology whose endurance backs the default budget.
  device::Technology tech = device::Technology::kSttMram;

  /// Resolved per-run write budget.
  std::size_t resolved_endurance_budget() const;
};

/// Statically verifies a compiled IMPLY program. When `source` is non-null
/// the liveness analysis re-derives AIG fanout death points and checks the
/// allocator's cell recycling against them (dead-cell-read rule); without a
/// source only program-local rules run.
VerifyReport lint_imply(const ImplyProgram& prog, const Aig* source = nullptr,
                        const VerifyOptions& opts = {});

/// Statically verifies a compiled single-row MAGIC program against its
/// NOR-only source netlist (pass nullptr for program-local rules only).
VerifyReport lint_magic(const MagicProgram& prog,
                        const Netlist* source = nullptr,
                        const VerifyOptions& opts = {});

/// Statically verifies a ReVAMP instruction stream: geometry, DMR latch
/// discipline, per-cell initialization and output reachability.
VerifyReport lint_revamp(const RevampProgram& prog,
                         const VerifyOptions& opts = {});

/// One row of the `cim-lint` summary.
struct LintEntry {
  std::string name;    ///< circuit (or program) name
  std::string family;  ///< logic family / program kind
  VerifyReport report;
};

/// Renders the `cim-lint` style summary table (one row per entry: errors,
/// warnings, worst per-cell write count, clean verdict).
util::Table lint_table(const std::vector<LintEntry>& entries);

}  // namespace cim::eda::verify
