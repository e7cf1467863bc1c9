/// \file sneak_path_test.hpp
/// \brief Sneak-path parallel test (Section III.B, Kannan et al. [46]).
///
/// "Because of the resistive and bidirectional characteristics of ReRAM
/// cells, the current [flows] through both the targeted ReRAM cell and
/// adjacent unintended paths. In this way, when tests are applied to one
/// ReRAM cell, the defect information of the adjacent ReRAM cells in the
/// region of detection can be detected simultaneously."
///
/// The test programs a known background, probes a sparse grid of cells and
/// compares each measured current (target + sneak loops within the biasing
/// window) against the fault-free reference. A deviating ROD is rewritten
/// and probed again; a deviation that survives the rewrite flags the probe's
/// region of detection (ROD). Fewer probes than cells -> parallel speedup;
/// resolution is the ROD, not the cell.
#pragma once

#include <cstddef>
#include <vector>

#include "crossbar/crossbar.hpp"
#include "fault/fault_map.hpp"

namespace cim::memtest {

/// Configuration of the sneak-path test.
struct SneakTestConfig {
  std::size_t window = 2;          ///< ROD half-width (biasing window)
  double threshold_frac = 0.08;    ///< relative deviation that flags a ROD
  bool background_checkerboard = true;  ///< background pattern (vs all-LRS)
  /// Probe under both the background and its complement: a stuck cell whose
  /// stuck value matches the first background is invisible to that pass.
  bool complement_pass = true;
};

/// One flagged region of detection.
struct FlaggedRegion {
  std::size_t probe_row = 0;
  std::size_t probe_col = 0;
  double measured_ua = 0.0;
  double reference_ua = 0.0;
};

/// Result of a sneak-path test run.
struct SneakTestResult {
  std::vector<FlaggedRegion> flagged;
  std::size_t probes = 0;       ///< grid probes (re-probes not counted)
  std::size_t retests = 0;      ///< deviating RODs rewritten and re-probed
  std::size_t setup_writes = 0; ///< background writes, rewrites included
  double time_ns = 0.0;
  double energy_pj = 0.0;
};

/// Runs the test: programs the background, probes a stride-`window` grid,
/// flags RODs whose current deviates beyond the threshold before and after
/// one rewrite of the ROD's background.
SneakTestResult run_sneak_path_test(crossbar::Crossbar& xbar,
                                    const SneakTestConfig& cfg = {});

/// Fraction of injected *stuck-at / over-forming* faults lying inside at
/// least one flagged ROD (the fault classes the method targets).
double sneak_coverage(const fault::FaultMap& injected,
                      const SneakTestResult& result, std::size_t window);

}  // namespace cim::memtest
