#include "core/cim_system.hpp"

#include <gtest/gtest.h>

#include "obs/dataset.hpp"
#include "util/rng.hpp"

namespace cim::core {
namespace {

CimSystemConfig sys_cfg(std::size_t tile_rows = 8, std::size_t tile_cols = 8) {
  CimSystemConfig cfg;
  cfg.tile.tile.rows = tile_rows;
  cfg.tile.tile.cols = tile_cols;
  cfg.tile.tile.adc_bits = 10;
  cfg.tile.weight_bits = 4;
  cfg.tile.array.model_ir_drop = false;
  cfg.tile.seed = 3;
  return cfg;
}

util::Matrix random_weights(std::size_t out, std::size_t in,
                            std::uint64_t seed) {
  util::Rng rng(seed);
  util::Matrix w(out, in);
  for (auto& v : w.flat())
    v = static_cast<double>(static_cast<long>(rng.uniform_int(31)) - 15);
  return w;
}

TEST(CimSystem, PartitionsIntoExpectedTileGrid) {
  const auto w = random_weights(20, 20, 3);
  CimSystem sys(w, sys_cfg(8, 8));
  // ceil(20/8) x ceil(20/8) = 3 x 3 tiles.
  EXPECT_EQ(sys.tile_count(), 9u);
  EXPECT_EQ(sys.in_dim(), 20u);
  EXPECT_EQ(sys.out_dim(), 20u);
}

TEST(CimSystem, SingleTileWhenFits) {
  const auto w = random_weights(4, 6, 5);
  CimSystem sys(w, sys_cfg(8, 8));
  EXPECT_EQ(sys.tile_count(), 1u);
}

TEST(CimSystem, IdealOracleExact) {
  const auto w = random_weights(10, 12, 7);
  CimSystem sys(w, sys_cfg(8, 8));
  util::Rng rng(9);
  std::vector<std::uint32_t> x(12);
  for (auto& v : x) v = static_cast<std::uint32_t>(rng.uniform_int(16));
  const auto y = sys.ideal_vmm_int(x);
  for (std::size_t o = 0; o < 10; ++o) {
    long ref = 0;
    for (std::size_t i = 0; i < 12; ++i)
      ref += static_cast<long>(w(o, i)) * static_cast<long>(x[i]);
    EXPECT_EQ(y[o], ref);
  }
}

TEST(CimSystem, PartitionedVmmTracksOracle) {
  const auto w = random_weights(20, 24, 11);
  CimSystem sys(w, sys_cfg(8, 8));
  util::Rng rng(13);
  obs::StreamStat rel_err;
  for (int t = 0; t < 5; ++t) {
    std::vector<std::uint32_t> x(24);
    for (auto& v : x) v = static_cast<std::uint32_t>(rng.uniform_int(16));
    const auto y = sys.vmm_int(x, 4);
    const auto ref = sys.ideal_vmm_int(x);
    for (std::size_t o = 0; o < 20; ++o) {
      const double scale = std::max(32.0, std::abs(double(ref[o])));
      rel_err.add(std::abs(double(y[o] - ref[o])) / scale);
    }
  }
  EXPECT_LT(rel_err.mean, 0.15);
}

TEST(CimSystem, StatsAggregateAcrossTiles) {
  const auto w = random_weights(16, 16, 15);
  CimSystem sys(w, sys_cfg(8, 8));
  std::vector<std::uint32_t> x(16, 5);
  (void)sys.vmm_int(x, 4);
  const auto& s = sys.stats();
  EXPECT_EQ(s.vmm_ops, 1u);
  EXPECT_GT(s.time_ns, 0.0);
  EXPECT_GT(s.energy_pj, 0.0);
  EXPECT_GT(s.movement_energy_pj, 0.0);  // partial sums crossed tiles
  EXPECT_GT(s.area_um2, 0.0);
}

TEST(CimSystem, MoreTilesMoreAreaAndMovement) {
  const auto w = random_weights(16, 16, 17);
  CimSystem coarse(w, sys_cfg(16, 16));
  CimSystem fine(w, sys_cfg(4, 4));
  EXPECT_GT(fine.tile_count(), coarse.tile_count());

  std::vector<std::uint32_t> x(16, 5);
  (void)coarse.vmm_int(x, 4);
  (void)fine.vmm_int(x, 4);
  EXPECT_GT(fine.stats().movement_energy_pj,
            coarse.stats().movement_energy_pj);
}

TEST(CimSystem, ClassifiedAsCimPeriphery) {
  EXPECT_EQ(CimSystem::arch_class(), arch::ArchClass::kCimPeriphery);
}

TEST(CimSystem, Validation) {
  util::Matrix empty;
  EXPECT_THROW(CimSystem(empty, sys_cfg()), std::invalid_argument);
  const auto w = random_weights(4, 4, 19);
  CimSystem sys(w, sys_cfg());
  std::vector<std::uint32_t> bad(3, 0);
  EXPECT_THROW((void)sys.vmm_int(bad, 4), std::invalid_argument);
}

}  // namespace
}  // namespace cim::core
