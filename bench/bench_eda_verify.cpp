/// \file bench_eda_verify.cpp
/// \brief `cim-lint` over the whole bench suite — runs the static micro-op
///        program verifier (eda/verify) across every benchmark circuit, all
///        three logic families (IMPLY, Majority/ReVAMP, MAGIC) and both
///        allocator modes (naive vs. CONTRA-style cell reuse), reporting the
///        per-program diagnostic counts, worst per-cell write pressure and a
///        clean/NO verdict per row.
///
/// Contrast with bench_fig8_eda_flow: that run proves functional correctness
/// by symbolic evaluation over every input assignment; this one proves
/// hazard-freedom with a single linear pass per program.
#include <cstdio>
#include <iostream>

#include "bench_common.hpp"
#include "eda/aig.hpp"
#include "eda/flow.hpp"
#include "eda/imply_mapper.hpp"
#include "eda/magic_mapper.hpp"
#include "eda/majority_mapper.hpp"
#include "eda/mig.hpp"
#include "eda/revamp_isa.hpp"
#include "eda/verify/pass.hpp"
#include "eda/verify/verify.hpp"
#include "util/table.hpp"

using namespace cim;

int main() {
  bench::WallTimer total;
  const auto suite = eda::standard_suite();

  // --- cim-lint across suite x family x allocator mode ------------------------
  std::size_t total_errors = 0;
  std::size_t total_warnings = 0;
  std::size_t programs = 0;
  for (const bool reuse : {false, true}) {
    std::vector<eda::verify::LintEntry> entries;
    for (const auto& bc : suite) {
      const eda::Aig aig = eda::Aig::from_netlist(bc.netlist);
      {
        const auto prog = eda::compile_imply(aig, reuse);
        entries.push_back(
            {bc.name, "IMPLY", eda::verify::lint_imply(prog, &aig)});
      }
      {
        const eda::Mig mig = eda::Mig::from_aig(aig);
        const auto sched = eda::schedule_revamp(mig);
        entries.push_back({bc.name, "Majority",
                           eda::verify::lint_revamp(
                               eda::assemble_revamp(mig, sched))});
      }
      {
        const auto nor = aig.to_netlist().to_nor_only();
        const auto prog = eda::compile_magic(nor, reuse);
        entries.push_back(
            {bc.name, "MAGIC", eda::verify::lint_magic(prog, &nor)});
      }
    }
    auto t = eda::verify::lint_table(entries);
    t.set_title(std::string("cim-lint — ") +
                (reuse ? "area-constrained (cell reuse)" : "naive allocation"));
    t.print(std::cout);
    for (const auto& e : entries) {
      total_errors += e.report.errors();
      total_warnings += e.report.warnings();
      ++programs;
    }
  }

  // --- geometry pressure: footprint vs. a fixed 64x64 crossbar ----------------
  {
    util::Table t({"circuit", "family", "cells", "fits 64x64", "max W/cell"});
    t.set_title("Footprint check against a 64x64 crossbar tile");
    eda::verify::VerifyOptions opts;
    opts.geometry = crossbar::Geometry{64, 64};
    for (const auto& bc : suite) {
      const eda::Aig aig = eda::Aig::from_netlist(bc.netlist);
      const auto iprog = eda::compile_imply(aig, true);
      const auto irep = eda::verify::lint_imply(iprog, &aig, opts);
      t.add_row({bc.name, "IMPLY", std::to_string(iprog.num_cells),
                 irep.count(eda::verify::Rule::kOobCell) == 0 ? "yes" : "NO",
                 std::to_string(irep.max_writes_per_cell)});
      const auto nor = aig.to_netlist().to_nor_only();
      const auto mprog = eda::compile_magic(nor, true);
      const auto mrep = eda::verify::lint_magic(mprog, &nor, opts);
      t.add_row({bc.name, "MAGIC", std::to_string(mprog.num_cells),
                 mrep.count(eda::verify::Rule::kOobCell) == 0 ? "yes" : "NO",
                 std::to_string(mrep.max_writes_per_cell)});
    }
    t.print(std::cout);
  }

  // --- static pass pipeline timings + cross-tile hazard gate ------------------
  // One shared PassManager accumulates per-pass wall time across the whole
  // suite x 3 families; the suite-level run re-checks the cross-tile hazard
  // analyzer (round-robin tile pool) stays finding-free on mapper output.
  double pass_lint_ms = 0.0;
  double pass_wear_ms = 0.0;
  double pass_cost_ms = 0.0;
  std::size_t hazard_findings = 0;
  {
    auto pm = eda::verify::PassManager::standard();
    for (const auto& bc : suite) {
      const eda::Aig aig = eda::Aig::from_netlist(bc.netlist);
      const auto iprog = eda::compile_imply(aig, true);
      eda::verify::ProgramUnit iu;
      iu.name = bc.name + "/IMPLY";
      iu.imply = &iprog;
      iu.aig = &aig;
      pm.run(iu);
      const auto nor = aig.to_netlist().to_nor_only();
      const auto mprog = eda::compile_magic(nor, true);
      eda::verify::ProgramUnit mu;
      mu.name = bc.name + "/MAGIC";
      mu.magic = &mprog;
      mu.netlist = &nor;
      pm.run(mu);
      const eda::Mig mig = eda::Mig::from_aig(aig);
      const auto rprog = eda::assemble_revamp(mig, eda::schedule_revamp(mig));
      eda::verify::ProgramUnit ru;
      ru.name = bc.name + "/Majority";
      ru.revamp = &rprog;
      pm.run(ru);
    }
    util::Table t({"pass", "runs", "wall ms"});
    t.set_title("Static pass pipeline timings (suite x 3 families)");
    for (const auto& pt : pm.timings()) {
      char ms[32];
      std::snprintf(ms, sizeof(ms), "%.3f", pt.wall_ms);
      t.add_row({pt.name, std::to_string(pt.runs), ms});
      if (pt.name == "family-lint") pass_lint_ms = pt.wall_ms;
      if (pt.name == "wear-certify") pass_wear_ms = pt.wall_ms;
      if (pt.name == "cost-certify") pass_cost_ms = pt.wall_ms;
    }
    t.print(std::cout);
    const auto reports = eda::run_suite(
        suite, {.reuse_cells = true, .verify = false, .lint = true});
    for (const auto& r : reports) hazard_findings += r.hazard_findings;
    std::cout << "cross-tile hazard gate: "
              << (hazard_findings == 0 ? "clean" : "FINDINGS") << " ("
              << hazard_findings << " finding(s) across " << reports.size()
              << " scheduled programs)\n";
  }

  // --- the flow-integrated view: lint + functional verify side by side --------
  {
    util::Table t({"circuit", "family", "lint", "verify"});
    t.set_title("Static lint vs. functional verify (flow integration)");
    for (const auto& bc : suite) {
      for (const auto family : eda::all_logic_families()) {
        const auto rep = eda::run_flow(bc.name, bc.netlist, family,
                                       {.reuse_cells = true, .verify = true,
                                        .lint = true});
        t.add_row({bc.name, std::string(eda::logic_family_name(family)),
                   rep.lint_clean ? "clean" : "DIRTY",
                   rep.verified ? "pass" : "FAIL"});
      }
    }
    t.print(std::cout);
  }

  std::cout << "cim-lint: " << programs << " programs, " << total_errors
            << " errors, " << total_warnings << " warnings\n"
            << "shape check: every compiled program is statically "
               "hazard-free in both allocator modes;\nstatic lint agrees "
               "with functional verify on every circuit.\n";
  bench::report("bench_eda_verify", total.elapsed_ms(),
                static_cast<double>(programs),
                {{"pass_lint_ms", pass_lint_ms},
                 {"pass_wear_ms", pass_wear_ms},
                 {"pass_cost_ms", pass_cost_ms},
                 {"hazard_findings", static_cast<double>(hazard_findings)}});
  return total_errors == 0 && hazard_findings == 0 ? 0 : 1;
}
