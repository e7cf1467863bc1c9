#include "memtest/sneak_path_test.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>

namespace cim::memtest {

SneakTestResult run_sneak_path_test(crossbar::Crossbar& xbar,
                                    const SneakTestConfig& cfg) {
  SneakTestResult res;
  const std::size_t rows = xbar.rows();
  const std::size_t cols = xbar.cols();

  const auto stats0 = xbar.stats();

  // One pass: program a background pattern, probe a stride grid such that
  // every cell lies inside some probe's window. A checkerboard keeps sneak
  // loops conductive enough to carry defect information while avoiding the
  // all-LRS worst-case current.
  const std::size_t stride = std::max<std::size_t>(1, 2 * cfg.window + 1);
  auto background = [&](std::size_t r, std::size_t c, bool invert) {
    const bool bit =
        cfg.background_checkerboard ? (((r + c) & 1u) == 0) : true;
    xbar.write_bit(r, c, bit != invert);
    ++res.setup_writes;
  };
  auto deviates = [&](double measured, double reference) {
    return reference > 0.0 &&
           std::abs(measured - reference) / reference > cfg.threshold_frac;
  };
  auto pass = [&](bool invert) {
    for (std::size_t r = 0; r < rows; ++r)
      for (std::size_t c = 0; c < cols; ++c) background(r, c, invert);
    for (std::size_t r = cfg.window; r < rows + cfg.window; r += stride) {
      const std::size_t pr = std::min(r, rows - 1);
      for (std::size_t c = cfg.window; c < cols + cfg.window; c += stride) {
        const std::size_t pc = std::min(c, cols - 1);
        ++res.probes;
        double measured = xbar.read_current_with_sneak(pr, pc, cfg.window);
        const double reference =
            xbar.ideal_current_with_sneak(pr, pc, cfg.window);
        if (!deviates(measured, reference)) continue;
        // The reference assumes every cell holds the background it was
        // written. A fault-free cell can miss it: a later background write
        // half-select-disturbed it, or its programming draw fell in the
        // lognormal tail. Rewriting the ROD reprograms the disturbed cell
        // and draws the spread afresh, while a stuck, over-formed or
        // transition-faulty cell keeps its value, so only a deviation that
        // survives one rewrite flags the ROD.
        ++res.retests;
        const std::size_t r_lo = pr > cfg.window ? pr - cfg.window : 0;
        const std::size_t c_lo = pc > cfg.window ? pc - cfg.window : 0;
        const std::size_t r_hi = std::min(rows, pr + cfg.window + 1);
        const std::size_t c_hi = std::min(cols, pc + cfg.window + 1);
        for (std::size_t rr = r_lo; rr < r_hi; ++rr)
          for (std::size_t cc = c_lo; cc < c_hi; ++cc)
            background(rr, cc, invert);
        measured = xbar.read_current_with_sneak(pr, pc, cfg.window);
        if (deviates(measured, reference))
          res.flagged.push_back({pr, pc, measured, reference});
      }
    }
  };

  pass(false);
  if (cfg.complement_pass) pass(true);

  const auto stats1 = xbar.stats();
  res.time_ns = stats1.time_ns - stats0.time_ns;
  res.energy_pj = stats1.energy_pj - stats0.energy_pj;
  return res;
}

double sneak_coverage(const fault::FaultMap& injected,
                      const SneakTestResult& result, std::size_t window) {
  std::size_t total = 0;
  std::size_t covered = 0;
  for (const auto& fd : injected.all()) {
    const bool targeted = fd.kind == fault::FaultKind::kStuckAtZero ||
                          fd.kind == fault::FaultKind::kStuckAtOne ||
                          fd.kind == fault::FaultKind::kOverForming;
    if (!targeted) continue;
    ++total;
    for (const auto& region : result.flagged) {
      const std::size_t dr = region.probe_row > fd.row
                                 ? region.probe_row - fd.row
                                 : fd.row - region.probe_row;
      const std::size_t dc = region.probe_col > fd.col
                                 ? region.probe_col - fd.col
                                 : fd.col - region.probe_col;
      if (dr <= window && dc <= window) {
        ++covered;
        break;
      }
    }
  }
  if (total == 0) return 1.0;
  return static_cast<double>(covered) / static_cast<double>(total);
}

}  // namespace cim::memtest
