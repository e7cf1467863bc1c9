// Statistical equivalence of skip-sampled half-select write disturb
// (Crossbar::after_write) with the per-neighbour Bernoulli loop it
// replaced, plus the edge cases of the shared disturb_step() rule. Every
// test uses fixed seeds, so each chi-square statistic is a fixed number;
// the bounds are the alpha = 0.001 critical values for the stated degrees
// of freedom.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "crossbar/crossbar.hpp"
#include "device/reram_cell.hpp"
#include "device/technology.hpp"
#include "fault/fault_map.hpp"
#include "util/rng.hpp"

namespace cim::crossbar {
namespace {

using device::ReRamCell;
using device::StuckMode;
using device::TechnologyParams;
using util::Rng;

constexpr std::size_t kN = 64;
constexpr double kP = 1e-2;
// Fresh arrays per stream, each from its own seed; the per-write count
// histogram pools all of them. 6 blocks leave the chi-square test little
// power (a 3% error in the disturb rate fails only ~40% of seed sets) while
// a fair stream still lands past the bound on about 1 seed set in 1000;
// 24 blocks keep alpha = 0.001 and catch that 3% error on every one of 200
// seed sets.
constexpr std::size_t kBlocks = 24;
constexpr std::size_t kWritesPerBlock = 2000;  // keeps cells far from g_on
constexpr double kChi2Df5 = 20.515;            // chi2.ppf(0.999, 5)
constexpr double kChi2Df125 = 179.60;          // chi2.ppf(0.999, 125)

/// Technology with the given write-disturb rate, exact programming (so a
/// write to g_off lands on g_off) and no read disturb.
TechnologyParams disturb_tech(double p) {
  auto tech = device::technology_params(device::Technology::kReRamHfOx);
  tech.write_disturb_prob = p;
  tech.write_sigma_log = 0.0;
  tech.read_disturb_prob = 0.0;
  return tech;
}

Crossbar make_array(double p, std::uint64_t seed, std::size_t n = kN) {
  CrossbarConfig cfg;
  cfg.rows = cfg.cols = n;
  cfg.seed = seed;
  cfg.tech_override = disturb_tech(p);
  return Crossbar(cfg);
}

std::vector<double> snapshot(const Crossbar& x) {
  std::vector<double> g;
  for (std::size_t r = 0; r < x.rows(); ++r)
    for (std::size_t c = 0; c < x.cols(); ++c)
      g.push_back(x.true_conductance(r, c));
  return g;
}

/// Programs (r, c) to g_off and returns the flat indices of the cells on
/// row r and column c that the write disturbed (for the written cell
/// itself: anything above the exact g_off it was just programmed to).
/// Keeps `snap` current for those two lines.
std::vector<std::size_t> write_and_collect(Crossbar& x,
                                           std::vector<double>& snap,
                                           std::size_t r, std::size_t c) {
  const double g_off = x.tech().g_off_us();
  x.program_cell(r, c, g_off);
  std::vector<std::size_t> moved;
  const auto check = [&](std::size_t rr, std::size_t cc) {
    const std::size_t idx = rr * x.cols() + cc;
    const double g = x.true_conductance(rr, cc);
    const double before = (rr == r && cc == c) ? g_off : snap[idx];
    if (g != before) moved.push_back(idx);
    snap[idx] = g;
  };
  for (std::size_t cc = 0; cc < x.cols(); ++cc) check(r, cc);
  for (std::size_t rr = 0; rr < x.rows(); ++rr)
    if (rr != r) check(rr, c);
  return moved;
}

/// Reference model: the per-neighbour Bernoulli loop that skip-sampling
/// replaced — one draw per half-selected, non-stuck neighbour at its own
/// probability, row neighbours first. Returns the number of cells moved.
std::size_t reference_write_disturb(std::vector<ReRamCell>& cells,
                                    std::size_t n, std::size_t r,
                                    std::size_t c, Rng& rng) {
  std::size_t hits = 0;
  const auto visit = [&](ReRamCell& cl) {
    if (cl.stuck() == StuckMode::kNone &&
        rng.bernoulli(cl.write_disturb_prob()) && cl.disturb_step())
      ++hits;
  };
  for (std::size_t cc = 0; cc < n; ++cc)
    if (cc != c) visit(cells[r * n + cc]);
  for (std::size_t rr = 0; rr < n; ++rr)
    if (rr != r) visit(cells[rr * n + c]);
  return hits;
}

double chi_square(const std::vector<double>& observed,
                  const std::vector<double>& expected) {
  double chi2 = 0.0;
  for (std::size_t i = 0; i < observed.size(); ++i) {
    const double d = observed[i] - expected[i];
    chi2 += d * d / expected[i];
  }
  return chi2;
}

/// Expected per-write disturb-count histogram, bins {0, 1, 2, 3, 4, >=5},
/// for `writes` draws of Binomial(neighbours, p).
std::vector<double> binomial_bins(std::size_t neighbours, double p,
                                  std::size_t writes) {
  std::vector<double> bins(6, 0.0);
  double tail = 1.0;
  for (std::size_t k = 0; k < 5; ++k) {
    const double log_pmf =
        std::lgamma(neighbours + 1.0) - std::lgamma(k + 1.0) -
        std::lgamma(neighbours - k + 1.0) + k * std::log(p) +
        (neighbours - k) * std::log1p(-p);
    bins[k] = std::exp(log_pmf);
    tail -= bins[k];
  }
  bins[5] = tail;
  for (auto& b : bins) b *= static_cast<double>(writes);
  return bins;
}

void add_count(std::vector<double>& bins, std::size_t hits) {
  bins[hits < 5 ? hits : 5] += 1.0;
}

/// One write stream through the skip sampler: kBlocks fresh kN x kN arrays
/// at kP, kWritesPerBlock writes each at uniformly random cells.
struct SamplerRun {
  std::vector<double> count_bins = std::vector<double>(6, 0.0);
  /// Hits by offset from the written cell: row offsets 1..kN-1, then
  /// column offsets 1..kN-1.
  std::vector<double> offset_bins = std::vector<double>(2 * (kN - 1), 0.0);
  std::size_t written_cell_hits = 0;
  std::size_t off_line_moves = 0;  ///< cells off the written lines that moved
};

const SamplerRun& sampler_run() {
  static const SamplerRun run = [] {
    SamplerRun out;
    Rng pick(101);
    for (std::size_t b = 0; b < kBlocks; ++b) {
      auto x = make_array(kP, 1000 + b);
      auto snap = snapshot(x);
      for (std::size_t w = 0; w < kWritesPerBlock; ++w) {
        const std::size_t r = pick.uniform_int(kN), c = pick.uniform_int(kN);
        const auto moved = write_and_collect(x, snap, r, c);
        add_count(out.count_bins, moved.size());
        for (const std::size_t idx : moved) {
          const std::size_t rr = idx / kN, cc = idx % kN;
          if (rr == r && cc == c)
            ++out.written_cell_hits;
          else if (rr == r)
            out.offset_bins[(cc + kN - c) % kN - 1] += 1.0;
          else
            out.offset_bins[kN - 1 + (rr + kN - r) % kN - 1] += 1.0;
        }
      }
      // write_and_collect only refreshes the written lines, so any other
      // cell that moved still differs from its block-start snapshot.
      const auto now = snapshot(x);
      for (std::size_t i = 0; i < now.size(); ++i)
        if (now[i] != snap[i]) ++out.off_line_moves;
    }
    return out;
  }();
  return run;
}

TEST(WriteDisturb, PerWriteCountIsBinomialForSamplerAndReference) {
  const std::size_t writes = kBlocks * kWritesPerBlock;
  const auto expected = binomial_bins(2 * (kN - 1), kP, writes);
  EXPECT_LT(chi_square(sampler_run().count_bins, expected), kChi2Df5);

  const auto tech = disturb_tech(kP);
  std::vector<double> ref_bins(6, 0.0);
  Rng pick(101), rng(202);
  for (std::size_t b = 0; b < kBlocks; ++b) {
    std::vector<ReRamCell> cells;
    for (std::size_t i = 0; i < kN * kN; ++i) cells.emplace_back(tech, 16, rng);
    for (std::size_t w = 0; w < kWritesPerBlock; ++w) {
      const std::size_t r = pick.uniform_int(kN), c = pick.uniform_int(kN);
      add_count(ref_bins, reference_write_disturb(cells, kN, r, c, rng));
    }
  }
  EXPECT_LT(chi_square(ref_bins, expected), kChi2Df5);
}

TEST(WriteDisturb, HitPositionsAreUniformOverNeighboursOnly) {
  const auto& run = sampler_run();
  EXPECT_EQ(run.written_cell_hits, 0u);
  EXPECT_EQ(run.off_line_moves, 0u);
  double total = 0.0;
  for (const double h : run.offset_bins) total += h;
  ASSERT_GT(total, 0.0);
  const std::vector<double> expected(run.offset_bins.size(),
                                     total / run.offset_bins.size());
  EXPECT_LT(chi_square(run.offset_bins, expected), kChi2Df125);
}

TEST(WriteDisturb, FaultCellIsThinnedToItsOwnRate) {
  // One write-disturb fault (scale 1e3): p_cell = 0.1 against p = 1e-4 for
  // every other candidate. Writes stay on the fault's row so it is a
  // candidate every time; it is reset to g_off after each hit.
  constexpr double p = 1e-4;
  constexpr std::size_t r0 = 10, c0 = 20, writes = 20000;
  auto x = make_array(p, 7);
  fault::FaultMap map(kN, kN);
  map.add({fault::FaultKind::kWriteDisturb, r0, c0, 0, 0, 1.0});
  x.apply_faults(map);
  auto snap = snapshot(x);
  Rng pick(303);
  std::size_t fault_hits = 0, other_hits = 0;
  for (std::size_t w = 0; w < writes; ++w) {
    std::size_t c = pick.uniform_int(kN - 1);
    if (c >= c0) ++c;
    for (const std::size_t idx : write_and_collect(x, snap, r0, c)) {
      if (idx == r0 * kN + c0)
        ++fault_hits;
      else
        ++other_hits;
    }
    if (snap[r0 * kN + c0] != x.tech().g_off_us())
      (void)write_and_collect(x, snap, r0, c0);
  }
  // 4-sigma binomial bands on both rates; their ratio is ~1e3.
  const double n = static_cast<double>(writes);
  const double fault_rate = fault_hits / n;
  EXPECT_NEAR(fault_rate, 0.1, 4.0 * std::sqrt(0.1 * 0.9 / n));
  const double other_exposures = (2.0 * (kN - 1) - 1.0) * n;
  const double other_rate = other_hits / other_exposures;
  EXPECT_NEAR(other_rate, p, 4.0 * std::sqrt(p / other_exposures));
}

TEST(WriteDisturb, CertainDisturbHitsEveryNeighbourAndNothingElse) {
  constexpr std::size_t n = 16, r = 5, c = 7;
  auto x = make_array(1.0, 9, n);
  const auto before = snapshot(x);
  x.program_cell(r, c, x.tech().g_off_us());
  const double half_step = 0.5 * x.scheme().step_us();
  for (std::size_t rr = 0; rr < n; ++rr)
    for (std::size_t cc = 0; cc < n; ++cc) {
      const double moved = x.true_conductance(rr, cc) - before[rr * n + cc];
      const bool neighbour = (rr == r) != (cc == c);
      EXPECT_NEAR(moved, neighbour ? half_step : 0.0, 1e-9) << rr << "," << cc;
    }
}

TEST(WriteDisturb, FaultScaleReachingOneDisturbsOnEveryWrite) {
  // p * 1e3 = 1: the fault cell is hit by every write on its row while the
  // rest of the array stays at p = 1e-3.
  constexpr std::size_t r0 = 3, c0 = 4;
  auto x = make_array(1e-3, 11);
  fault::FaultMap map(kN, kN);
  map.add({fault::FaultKind::kWriteDisturb, r0, c0, 0, 0, 1.0});
  x.apply_faults(map);
  auto snap = snapshot(x);
  const double g_off = x.tech().g_off_us();
  for (std::size_t c = 0; c < kN; ++c) {
    if (c == c0) continue;
    (void)write_and_collect(x, snap, r0, c);
    EXPECT_GT(x.true_conductance(r0, c0), g_off) << c;
    (void)write_and_collect(x, snap, r0, c0);  // back to g_off
  }
}

TEST(WriteDisturb, StuckCellsNeverMove) {
  constexpr std::size_t n = 16;
  auto x = make_array(1.0, 13, n);
  fault::FaultMap map(n, n);
  map.add({fault::FaultKind::kStuckAtZero, 2, 3, 0, 0, 1.0});
  map.add({fault::FaultKind::kStuckAtOne, 2, 9, 0, 0, 1.0});
  x.apply_faults(map);
  // Every write on row 2 or column 3 makes both stuck cells candidates.
  for (std::size_t i = 0; i < n; ++i) {
    if (i != 3 && i != 9) x.program_cell(2, i, x.tech().g_off_us());
    if (i != 2) x.program_cell(i, 3, x.tech().g_off_us());
  }
  EXPECT_EQ(x.true_conductance(2, 3), x.tech().g_off_us());
  EXPECT_EQ(x.true_conductance(2, 9), x.tech().g_on_us());
  // Certain disturb reached the healthy neighbours.
  EXPECT_GT(x.true_conductance(2, 4), x.tech().g_off_us());
}

TEST(WriteDisturb, ZeroProbabilityConsumesNoRandomness) {
  // A plain (unverified, healthy) analog write draws exactly one normal()
  // for its lognormal spread; with p = 0 the disturb step must add nothing.
  for (const double p : {0.0, 1e-5}) {
    auto x = make_array(p, 15, 8);
    Rng expected = x.rng();
    (void)expected.normal();
    x.program_cell(2, 2, x.tech().g_on_us());
    if (p == 0.0)
      EXPECT_EQ(expected(), x.rng()());
    else  // control: the sampler's gap draws do advance the stream
      EXPECT_NE(expected(), x.rng()());
  }
}

TEST(ReadDisturb, VmmDisturbSkipsStuckCellsAndStopsAtGOn) {
  // Every VMM disturbs ~16 cells of a 4x4 array at the top level: the
  // stuck-at-0 cell must stay at g_off and no cell may pass g_on.
  CrossbarConfig cfg;
  cfg.rows = cfg.cols = 4;
  cfg.seed = 17;
  auto tech = device::technology_params(device::Technology::kReRamHfOx);
  tech.read_disturb_prob = 1.0;
  cfg.tech_override = tech;
  Crossbar x(cfg);
  util::Matrix levels(4, 4);
  for (auto& v : levels.flat()) v = 15.0;
  x.program_levels(levels);
  fault::FaultMap map(4, 4);
  map.add({fault::FaultKind::kStuckAtZero, 1, 2, 0, 0, 1.0});
  x.apply_faults(map);
  const std::vector<double> v(4, 0.1);
  for (int i = 0; i < 20; ++i) (void)x.vmm(v);
  EXPECT_EQ(x.true_conductance(1, 2), tech.g_off_us());
  for (std::size_t r = 0; r < 4; ++r)
    for (std::size_t c = 0; c < 4; ++c)
      EXPECT_LE(x.true_conductance(r, c), tech.g_on_us()) << r << "," << c;
}

}  // namespace
}  // namespace cim::crossbar
