#include "memtest/ecc_memory.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

namespace cim::memtest {
namespace {

crossbar::CrossbarConfig healthy_cfg(std::uint64_t seed) {
  crossbar::CrossbarConfig cfg;
  cfg.tech = device::Technology::kSttMram;  // effectively infinite endurance
  cfg.seed = seed;
  return cfg;
}

TEST(EccMemory, RoundTripCleanArray) {
  EccMemory mem(8, healthy_cfg(3));
  util::Rng rng(5);
  std::vector<std::uint64_t> data(8);
  for (std::size_t w = 0; w < 8; ++w) {
    data[w] = rng();
    mem.write(w, data[w]);
  }
  for (std::size_t w = 0; w < 8; ++w) {
    const auto r = mem.read(w);
    EXPECT_EQ(r.data, data[w]);
    EXPECT_EQ(r.status, EccStatus::kOk);
    EXPECT_TRUE(r.data_correct);
  }
  EXPECT_EQ(mem.counters().silent_corruptions, 0u);
}

TEST(EccMemory, CorrectsSingleStuckBit) {
  EccMemory mem(2, healthy_cfg(7));
  mem.write(0, 0xDEADBEEFCAFEBABEULL);
  // Stuck-at on one data cell of word 0 (bit 5 of the stored value is 1;
  // force it to 0).
  fault::FaultMap map(2, 72);
  map.add({fault::FaultKind::kStuckAtZero, 0, 5, 0, 0, 1.0});
  mem.array_mutable().apply_faults(map);
  const auto r = mem.read(0);
  EXPECT_EQ(r.data, 0xDEADBEEFCAFEBABEULL);
  EXPECT_TRUE(r.data_correct);
  EXPECT_TRUE(r.status == EccStatus::kCorrected || r.status == EccStatus::kOk);
}

TEST(EccMemory, DetectsDoubleStuckBits) {
  EccMemory mem(1, healthy_cfg(9));
  // Value with 1s at bits 3 and 7 so SA0 faults actually flip them.
  mem.write(0, 0x88ULL);
  fault::FaultMap map(1, 72);
  map.add({fault::FaultKind::kStuckAtZero, 0, 3, 0, 0, 1.0});
  map.add({fault::FaultKind::kStuckAtZero, 0, 7, 0, 0, 1.0});
  mem.array_mutable().apply_faults(map);
  const auto r = mem.read(0);
  EXPECT_EQ(r.status, EccStatus::kDetectedUncorrectable);
  EXPECT_FALSE(r.data_correct);
}

TEST(EccMemory, BoundsChecked) {
  EccMemory mem(2, healthy_cfg(11));
  EXPECT_THROW(mem.write(2, 0), std::out_of_range);
  EXPECT_THROW((void)mem.read(2), std::out_of_range);
  EXPECT_THROW(EccMemory(0, healthy_cfg(13)), std::invalid_argument);
}

TEST(EccLifetime, WearoutProgressionMatchesPaperStory) {
  // "eventually the number of hard faults will exceed the ECC's correction
  // capability": corrections appear first, uncorrectable words later. The
  // model allows the other order in one run: two cells of one word can wear
  // out in the same cycle, or a stuck cell that matched the data can be
  // joined by a second one (2-3% of seeds). So the story is stated over
  // many lifetimes: every run sees both, nearly all in the paper's order,
  // and the median first uncorrectable cycle comes after the median first
  // correction.
  constexpr std::uint64_t kRuns = 32;
  std::size_t in_order = 0;
  std::vector<std::uint64_t> corr, unc;
  for (std::uint64_t i = 0; i < kRuns; ++i) {
    util::Rng rng = util::Rng::stream(17, i);
    const auto rep = run_ecc_lifetime(/*words=*/16, /*endurance_mean=*/60.0,
                                      /*max_cycles=*/400, rng);
    ASSERT_GT(rep.first_correction_cycle, 0u) << "run " << i;
    ASSERT_GT(rep.first_uncorrectable_cycle, 0u) << "run " << i;
    EXPECT_GT(rep.final_stuck_cell_fraction, 0.0) << "run " << i;
    if (rep.first_correction_cycle <= rep.first_uncorrectable_cycle) ++in_order;
    corr.push_back(rep.first_correction_cycle);
    unc.push_back(rep.first_uncorrectable_cycle);
  }
  EXPECT_GE(in_order * 10, kRuns * 9);  // >= 90%: 29 of 32
  std::sort(corr.begin(), corr.end());
  std::sort(unc.begin(), unc.end());
  EXPECT_LT(corr[kRuns / 2], unc[kRuns / 2]);
}

TEST(EccLifetime, HigherEnduranceLastsLonger) {
  util::Rng rng(19);
  const auto weak = run_ecc_lifetime(8, 40.0, 600, rng);
  const auto strong = run_ecc_lifetime(8, 200.0, 600, rng);
  ASSERT_GT(weak.first_uncorrectable_cycle, 0u);
  // The strong array either fails later or survives the horizon.
  if (strong.first_uncorrectable_cycle != 0) {
    EXPECT_GT(strong.first_uncorrectable_cycle,
              weak.first_uncorrectable_cycle);
  }
}

}  // namespace
}  // namespace cim::memtest
