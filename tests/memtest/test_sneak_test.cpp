#include "memtest/sneak_path_test.hpp"

#include <gtest/gtest.h>

#include <cstdint>

#include "device/technology.hpp"
#include "memtest/march.hpp"
#include "util/rng.hpp"

namespace cim::memtest {
namespace {

crossbar::CrossbarConfig cfg16() {
  crossbar::CrossbarConfig cfg;
  cfg.rows = 16;
  cfg.cols = 16;
  cfg.tech = device::Technology::kReRamHfOx;
  cfg.levels = 2;
  cfg.model_ir_drop = false;
  cfg.verified_writes = true;
  cfg.seed = 11;
  return cfg;
}

TEST(SneakTest, CleanArrayRaisesNoFlags) {
  // Stated over 64 arrays: a fault-free array raises no flag. Write spread
  // and the test's own half-select disturbs do push single probes past the
  // threshold (~9% of arrays before the ROD rewrite), but none survives the
  // rewrite; over 10000 arrays 8 still flag once, each an LRS edge probe
  // whose cells drew the low lognormal tail on both writes.
  constexpr std::uint64_t kArrays = 64;
  for (std::uint64_t a = 0; a < kArrays; ++a) {
    auto cfg = cfg16();
    cfg.seed = 11 + a;
    crossbar::Crossbar xbar(cfg);
    const auto res = run_sneak_path_test(xbar);
    EXPECT_TRUE(res.flagged.empty()) << "seed " << cfg.seed;
    EXPECT_GT(res.probes, 0u);
  }
}

TEST(SneakTest, BackgroundWriteDisturbIsRewrittenNotFlagged) {
  // At ten times the preset half-select disturb rate the background writes
  // disturb cells inside several RODs. Each deviating ROD is rewritten and
  // re-probed, so a fault-free array still raises no flag.
  constexpr std::uint64_t kArrays = 64;
  std::size_t retests = 0;
  for (std::uint64_t a = 0; a < kArrays; ++a) {
    auto cfg = cfg16();
    cfg.seed = 11 + a;
    auto tech = device::technology_params(cfg.tech);
    tech.write_disturb_prob *= 10.0;
    cfg.tech_override = tech;
    crossbar::Crossbar xbar(cfg);
    const auto res = run_sneak_path_test(xbar);
    EXPECT_TRUE(res.flagged.empty()) << "seed " << cfg.seed;
    retests += res.retests;
  }
  EXPECT_GT(retests, 0u);
}

TEST(SneakTest, ProbeCountFarBelowCellCount) {
  crossbar::Crossbar xbar(cfg16());
  const auto res = run_sneak_path_test(xbar, {.window = 2});
  // Parallelism claim: probes tile the array at stride (2w+1); both
  // background passes together still probe far fewer points than cells.
  EXPECT_LE(res.probes, 32u);  // vs 256 cells
}

TEST(SneakTest, DetectsStuckFaultInsideRegion) {
  crossbar::Crossbar xbar(cfg16());
  fault::FaultMap map(16, 16);
  map.add({fault::FaultKind::kStuckAtOne, 7, 7, 0, 0, 1.0});
  map.add({fault::FaultKind::kStuckAtZero, 2, 12, 0, 0, 1.0});
  xbar.apply_faults(map);
  const SneakTestConfig cfg{.window = 2, .threshold_frac = 0.04,
                            .background_checkerboard = true};
  const auto res = run_sneak_path_test(xbar, cfg);
  EXPECT_FALSE(res.flagged.empty());
  EXPECT_GT(sneak_coverage(map, res, cfg.window), 0.49);
}

TEST(SneakTest, CoverageOfDenseStuckFaults) {
  crossbar::Crossbar xbar(cfg16());
  util::Rng rng(3);
  const auto map = fault::FaultMap::with_fault_count(
      16, 16, 20, fault::FaultMix::stuck_at_only(), rng);
  xbar.apply_faults(map);
  const SneakTestConfig cfg{.window = 2, .threshold_frac = 0.04,
                            .background_checkerboard = true};
  const auto res = run_sneak_path_test(xbar, cfg);
  EXPECT_GT(sneak_coverage(map, res, cfg.window), 0.6);
}

TEST(SneakTest, FasterThanMarchPerRun) {
  // The sneak-path test trades resolution for time: far fewer operations
  // than March C* on the same array.
  crossbar::Crossbar xa(cfg16());
  const auto sneak = run_sneak_path_test(xa, {.window = 2});
  crossbar::Crossbar xb(cfg16());
  const auto march = run_march(xb, march_cstar());
  EXPECT_LT(sneak.probes, march.total_ops / 10);
}

TEST(SneakTest, IgnoresSoftFaultsInCoverageMetric) {
  fault::FaultMap map(16, 16);
  map.add({fault::FaultKind::kWriteVariation, 1, 1, 0, 0, 3.0});
  SneakTestResult res;  // nothing flagged
  EXPECT_DOUBLE_EQ(sneak_coverage(map, res, 2), 1.0);  // no targeted faults
}

TEST(SneakTest, TightThresholdFlagsMore) {
  crossbar::Crossbar a(cfg16()), b(cfg16());
  fault::FaultMap map(16, 16);
  for (std::size_t k = 0; k < 6; ++k)
    map.add({fault::FaultKind::kStuckAtOne, 2 * k, 2 * k, 0, 0, 1.0});
  a.apply_faults(map);
  b.apply_faults(map);
  const auto strict = run_sneak_path_test(a, {.window = 2, .threshold_frac = 0.02});
  const auto loose = run_sneak_path_test(b, {.window = 2, .threshold_frac = 0.3});
  EXPECT_GE(strict.flagged.size(), loose.flagged.size());
}

}  // namespace
}  // namespace cim::memtest
