/// \file test_cache_coherence.cpp
/// \brief Conductance-cache coherence suite (ctest label `cache`).
///
/// The incremental dirty-tracked cache (CrossbarConfig::incremental_cache)
/// promises bit-identical observable behaviour to the legacy whole-cache
/// rebuild. Every mutating operation is driven on two crossbars that differ
/// only in that flag; since the flag never touches the RNG stream, the two
/// arrays hold identical state, and any divergence in a subsequent VMM can
/// only come from a stale or mis-repaired cache.
///
/// Also hosts the perf smoke gate (a single write_bit between two VMMs must
/// take the O(|dirty|) delta path, not a full rebuild), the dirty-list
/// spill check, and the bulk-programming endurance accounting assertion.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "crossbar/crossbar.hpp"
#include "fault/fault_map.hpp"
#include "util/matrix.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace {

using cim::crossbar::Crossbar;
using cim::crossbar::CrossbarConfig;
using cim::crossbar::ScoutOp;
using cim::util::Matrix;
using cim::util::Rng;

constexpr std::size_t kN = 24;

enum class Op {
  kWriteBit,
  kApplyFaults,
  kImply,
  kMagicNor,
  kMajorityWrite,
  kSetFalse,
  kReadDisturb,
  kScoutRead,
  kProgramCell,
  kProgramBulk,
};

struct Case {
  Op op;
  bool passive;
};

std::string case_name(const testing::TestParamInfo<Case>& info) {
  static const char* names[] = {"WriteBit",      "ApplyFaults", "Imply",
                                "MagicNor",      "MajorityWrite", "SetFalse",
                                "ReadDisturb",   "ScoutRead",   "ProgramCell",
                                "ProgramBulk"};
  return std::string(names[static_cast<int>(info.param.op)]) +
         (info.param.passive ? "_Passive" : "_Active");
}

CrossbarConfig base_config(bool incremental, bool passive) {
  CrossbarConfig cfg;
  cfg.rows = cfg.cols = kN;
  cfg.levels = 8;
  cfg.seed = 77;
  cfg.incremental_cache = incremental;
  cfg.passive_array = passive;
  // Crank the disturb rates so drift-prone reads actually mutate cells and
  // the dirty-marking-on-change paths get exercised — but keep the per-VMM
  // expected disturb count (0.05 * 576 ≈ 29 cells) below the dirty-list
  // spill threshold (max(32, 576/8) = 72) so the delta path stays live.
  cim::device::TechnologyParams tech =
      cim::device::technology_params(cfg.tech);
  tech.read_disturb_prob = 0.05;
  tech.write_disturb_prob = 1e-3;
  cfg.tech_override = tech;
  return cfg;
}

/// Config for the cache-mechanics tests: disturb physics off, so every
/// dirty mark is an explicitly requested mutation and the rebuild/delta
/// counters are exactly predictable.
CrossbarConfig maintenance_config(bool incremental) {
  CrossbarConfig cfg;
  cfg.rows = cfg.cols = kN;
  cfg.levels = 8;
  cfg.seed = 77;
  cfg.incremental_cache = incremental;
  cim::device::TechnologyParams tech =
      cim::device::technology_params(cfg.tech);
  tech.read_disturb_prob = 0.0;
  tech.write_disturb_prob = 0.0;
  cfg.tech_override = tech;
  return cfg;
}

Crossbar make_programmed_cfg(const CrossbarConfig& cfg) {
  Crossbar xbar(cfg);
  Rng rng(91);
  Matrix lv(kN, kN);
  for (auto& v : lv.flat()) v = static_cast<double>(rng.uniform_int(8));
  xbar.program_levels(lv);
  return xbar;
}

Crossbar make_programmed(bool incremental, bool passive) {
  return make_programmed_cfg(base_config(incremental, passive));
}

/// Applies the parametrized mutating op to one crossbar. `rng` drives the
/// op operands only (never the crossbar's own stream), so both members of
/// a pair see the same address sequence.
void apply_op(Crossbar& xbar, Op op, Rng& rng) {
  const std::size_t r = rng.uniform_int(kN);
  const std::size_t c = rng.uniform_int(kN);
  switch (op) {
    case Op::kWriteBit:
      xbar.write_bit(r, c, rng.bernoulli(0.5));
      break;
    case Op::kApplyFaults: {
      cim::fault::FaultMap map(kN, kN);
      map.add({cim::fault::FaultKind::kStuckAtZero, r, c, 0, 0, 1.0});
      map.add({cim::fault::FaultKind::kStuckAtOne, (r + 1) % kN, c, 0, 0, 1.0});
      xbar.apply_faults(map);
      break;
    }
    case Op::kImply:
      xbar.imply(r, c, r, (c + 1) % kN);
      break;
    case Op::kMagicNor: {
      const std::size_t ins[] = {(c + 1) % kN, (c + 2) % kN};
      xbar.magic_nor(r, ins, c);
      break;
    }
    case Op::kMajorityWrite:
      xbar.majority_write(r, c, rng.bernoulli(0.5), rng.bernoulli(0.5));
      break;
    case Op::kSetFalse:
      xbar.set_false(r, c);
      break;
    case Op::kReadDisturb:
      // Drift-prone reads: with read_disturb_prob = 0.2, 16 reads disturb
      // ~3 cells per round.
      for (int k = 0; k < 8; ++k) {
        (void)xbar.read_bit(rng.uniform_int(kN), rng.uniform_int(kN));
        (void)xbar.read_conductance(rng.uniform_int(kN), rng.uniform_int(kN));
      }
      break;
    case Op::kScoutRead:
      (void)xbar.scout_read(r, (r + 1) % kN, c, ScoutOp::kOr);
      (void)xbar.scout_read(r, (r + 2) % kN, c, ScoutOp::kAnd);
      break;
    case Op::kProgramCell:
      (void)xbar.program_cell(r, c,
                              xbar.scheme().level_conductance_us(
                                  static_cast<int>(rng.uniform_int(8))));
      break;
    case Op::kProgramBulk: {
      Matrix lv(kN, kN);
      Rng lrng(rng());  // same sub-seed for both crossbars of the pair
      for (auto& v : lv.flat()) v = static_cast<double>(lrng.uniform_int(8));
      xbar.program_levels(lv);
      break;
    }
  }
}

Matrix dense_input(std::uint64_t seed) {
  Rng rng(seed);
  Matrix v(4, kN);
  for (auto& x : v.flat()) x = rng.uniform(0.0, 0.3);
  return v;
}

class CacheCoherence : public testing::TestWithParam<Case> {};

// Every mutating op, interleaved with VMMs: the incremental crossbar's
// outputs must be bitwise-equal to the full-rebuild crossbar's at every
// step — including repeated delta repairs between rebuilds.
TEST_P(CacheCoherence, VmmBitIdenticalToFullRebuild) {
  const auto [op, passive] = GetParam();
  auto incr = make_programmed(/*incremental=*/true, passive);
  auto full = make_programmed(/*incremental=*/false, passive);
  Rng op_rng_a(131), op_rng_b(131);

  std::vector<double> v(kN, 0.2);
  for (int round = 0; round < 4; ++round) {
    apply_op(incr, op, op_rng_a);
    apply_op(full, op, op_rng_b);
    const auto out_incr = incr.vmm(v);
    const auto out_full = full.vmm(v);
    ASSERT_EQ(out_incr.size(), out_full.size());
    for (std::size_t i = 0; i < out_incr.size(); ++i)
      ASSERT_EQ(out_incr[i], out_full[i])
          << "round " << round << " col " << i;
  }
  // Ops that mutate unconditionally must have exercised the delta path
  // (bulk ops legitimately rebuild; conditional ops may not fire a write).
  if (op == Op::kWriteBit || op == Op::kSetFalse || op == Op::kProgramCell) {
    EXPECT_GT(incr.stats().cache_delta_updates, 0u);
  }
}

// Same contract through the batched path (vmm_batch shares the caches).
TEST_P(CacheCoherence, VmmBatchBitIdenticalToFullRebuild) {
  const auto [op, passive] = GetParam();
  auto incr = make_programmed(/*incremental=*/true, passive);
  auto full = make_programmed(/*incremental=*/false, passive);
  Rng op_rng_a(151), op_rng_b(151);
  const auto v = dense_input(157);
  cim::util::ThreadPool pool(2);

  Matrix out_incr, out_full;
  for (int round = 0; round < 3; ++round) {
    apply_op(incr, op, op_rng_a);
    apply_op(full, op, op_rng_b);
    incr.vmm_batch(v, out_incr, &pool);
    full.vmm_batch(v, out_full, &pool);
    const auto fi = out_incr.flat();
    const auto ff = out_full.flat();
    ASSERT_EQ(fi.size(), ff.size());
    for (std::size_t i = 0; i < fi.size(); ++i)
      ASSERT_EQ(fi[i], ff[i]) << "round " << round << " flat " << i;
  }
}

// The sneak-path read current is the other consumer of g_true_cache_.
TEST_P(CacheCoherence, SneakReadBitIdenticalToFullRebuild) {
  const auto [op, passive] = GetParam();
  auto incr = make_programmed(/*incremental=*/true, passive);
  auto full = make_programmed(/*incremental=*/false, passive);
  Rng op_rng_a(173), op_rng_b(173);

  apply_op(incr, op, op_rng_a);
  apply_op(full, op, op_rng_b);
  for (std::size_t k = 0; k < 4; ++k) {
    const double a = incr.read_current_with_sneak(k, k, 4);
    const double b = full.read_current_with_sneak(k, k, 4);
    ASSERT_EQ(a, b) << "target cell (" << k << "," << k << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllMutatingOps, CacheCoherence,
    testing::Values(Case{Op::kWriteBit, false}, Case{Op::kWriteBit, true},
                    Case{Op::kApplyFaults, false},
                    Case{Op::kImply, false}, Case{Op::kMagicNor, false},
                    Case{Op::kMajorityWrite, false},
                    Case{Op::kSetFalse, false}, Case{Op::kSetFalse, true},
                    Case{Op::kReadDisturb, false},
                    Case{Op::kReadDisturb, true},
                    Case{Op::kScoutRead, false},
                    Case{Op::kProgramCell, false},
                    Case{Op::kProgramCell, true},
                    Case{Op::kProgramBulk, false}),
    case_name);

// Perf smoke gate: a single write_bit between two VMMs must be served by a
// delta update, not a second full rebuild. This is the ctest-visible proof
// that the write/VMM interleave hot path stays O(|dirty|).
TEST(CacheMaintenance, SingleWriteBetweenVmmsTakesDeltaPath) {
  auto xbar = make_programmed_cfg(maintenance_config(/*incremental=*/true));
  xbar.reset_stats();
  std::vector<double> v(kN, 0.2);

  (void)xbar.vmm(v);
  EXPECT_EQ(xbar.stats().cache_full_rebuilds, 1u)
      << "first VMM after programming must rebuild once";

  xbar.write_bit(3, 5, true);
  (void)xbar.vmm(v);
  const auto& st = xbar.stats();
  EXPECT_EQ(st.cache_full_rebuilds, 1u)
      << "the write after the first VMM must NOT force a rebuild";
  EXPECT_EQ(st.cache_delta_updates, 1u);
  EXPECT_GE(st.cache_dirty_cells, 1u);
}

// Array energy is a closed form over the per-row conductance sums, which
// delta repair re-sums exactly. So after read-disturb deltas, tier-0 and
// tier-1 VMM energy stay bitwise-equal to an always-rebuild twin, and the
// two tiers charge the same energy for the same state and input.
TEST(CacheMaintenance, VmmEnergyAfterDeltasMatchesRebuildTwin) {
  auto incr = make_programmed(/*incremental=*/true, /*passive=*/false);
  auto full = make_programmed(/*incremental=*/false, /*passive=*/false);
  Rng op_rng_a(191), op_rng_b(191);
  std::vector<double> v(kN);
  for (std::size_t r = 0; r < kN; ++r)
    v[r] = r % 3 == 0 ? 0.0 : 0.05 + 0.01 * static_cast<double>(r);

  using cim::crossbar::FidelityTier;
  for (int round = 0; round < 6; ++round) {
    apply_op(incr, Op::kReadDisturb, op_rng_a);
    apply_op(full, Op::kReadDisturb, op_rng_b);
    // Tier 1 first: it leaves the cells alone, so tier 0 sees the same
    // state (its own read disturb lands after its energy is charged).
    (void)incr.vmm(v, FidelityTier::kCalibrated);
    (void)full.vmm(v, FidelityTier::kCalibrated);
    const double e1 = incr.last_op_energy_pj();
    ASSERT_EQ(e1, full.last_op_energy_pj()) << "tier 1, round " << round;
    (void)incr.vmm(v, FidelityTier::kFull);
    (void)full.vmm(v, FidelityTier::kFull);
    const double e0 = incr.last_op_energy_pj();
    ASSERT_EQ(e0, full.last_op_energy_pj()) << "tier 0, round " << round;
    ASSERT_EQ(e0, e1) << "tier 0 vs tier 1, round " << round;
    ASSERT_GT(e0, 0.0);
  }
  EXPECT_GT(incr.stats().cache_delta_updates, 0u);
  EXPECT_EQ(full.stats().cache_delta_updates, 0u);
}

// Mutating more cells than the spill threshold falls back to one rebuild.
TEST(CacheMaintenance, DirtyListSpillsToFullRebuild) {
  auto xbar = make_programmed_cfg(maintenance_config(/*incremental=*/true));
  xbar.reset_stats();
  std::vector<double> v(kN, 0.2);
  (void)xbar.vmm(v);

  // 24x24 array: threshold is max(32, 576/8) = 72 dirty cells.
  for (std::size_t r = 0; r < kN; ++r)
    for (std::size_t c = 0; c < 4; ++c) xbar.set_false(r, c);
  (void)xbar.vmm(v);
  EXPECT_EQ(xbar.stats().cache_full_rebuilds, 2u);
  EXPECT_EQ(xbar.stats().cache_delta_updates, 0u);
}

// Legacy mode: every mutation forces a rebuild (the pre-incremental cost
// model the bench compares against).
TEST(CacheMaintenance, LegacyModeRebuildsEveryTime) {
  auto xbar = make_programmed_cfg(maintenance_config(/*incremental=*/false));
  xbar.reset_stats();
  std::vector<double> v(kN, 0.2);
  (void)xbar.vmm(v);
  xbar.write_bit(1, 1, true);
  (void)xbar.vmm(v);
  EXPECT_EQ(xbar.stats().cache_full_rebuilds, 2u);
  EXPECT_EQ(xbar.stats().cache_delta_updates, 0u);
}

// Bulk programming batches the cache work into one whole-array update and
// counts each cell write exactly once in the endurance accounting (the
// wear-out model depends on this: double-counting would halve predicted
// lifetime).
TEST(CacheMaintenance, BulkProgrammingCountsEachCellWriteOnce) {
  CrossbarConfig cfg;
  cfg.rows = cfg.cols = kN;
  cfg.levels = 8;
  cfg.seed = 201;
  Crossbar xbar(cfg);
  Rng rng(203);
  Matrix lv(kN, kN);
  for (auto& v : lv.flat()) v = static_cast<double>(rng.uniform_int(8));

  xbar.program_levels(lv);
  EXPECT_EQ(xbar.stats().analog_writes, kN * kN)
      << "bulk programming must account exactly one analog write per cell";

  // Programming via conductances is the other bulk entry point: a second
  // pass must add exactly rows*cols writes again (no per-cell double
  // counting from the batched cache handling).
  Matrix g(kN, kN);
  for (auto& x : g.flat())
    x = xbar.scheme().level_conductance_us(
        static_cast<int>(rng.uniform_int(8)));
  xbar.program_conductances(g);
  EXPECT_EQ(xbar.stats().analog_writes, 2 * kN * kN);

  std::vector<double> v(kN, 0.2);
  xbar.reset_stats();
  (void)xbar.vmm(v);
  EXPECT_EQ(xbar.stats().cache_full_rebuilds, 1u)
      << "bulk programming must collapse to a single cache update";
  EXPECT_EQ(xbar.stats().cache_delta_updates, 0u);
}

}  // namespace
