/// \file bench_march_sneakpath.cpp
/// \brief Regenerates the Section III.B comparison: March C* achieves very
///        high fault coverage but "requires a long test time"; the
///        sneak-path technique "increases test parallelism by testing a
///        group of adjacent ReRAM cells simultaneously" but its test time
///        still grows linearly with array size.
#include <array>
#include <cmath>
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "memtest/march.hpp"
#include "memtest/repair.hpp"
#include "memtest/sneak_path_test.hpp"
#include "obs/dataset.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

using namespace cim;

namespace {

crossbar::CrossbarConfig array_cfg(std::size_t n, std::uint64_t seed) {
  crossbar::CrossbarConfig cfg;
  cfg.rows = cfg.cols = n;
  cfg.tech = device::Technology::kReRamHfOx;
  cfg.levels = 2;
  cfg.model_ir_drop = false;
  cfg.verified_writes = true;
  cfg.seed = seed;
  return cfg;
}

}  // namespace

int main() {
  bench::WallTimer total;
  // --- coverage and cost vs array size for both methods ---------------------
  util::Table t({"array", "faults", "MarchC* cov", "MarchC* ops",
                 "MarchC* time (us)", "sneak cov (SAF)", "sneak probes",
                 "sneak time (us)", "probe/ops ratio"});
  t.set_title("Section III.B — March C* vs sneak-path parallel testing");

  // The (array size, seed) grid is a set of independent Monte-Carlo trials;
  // fan them out across the global pool and aggregate in task order so the
  // table is identical for any CIM_THREADS.
  constexpr std::array<std::size_t, 3> kSizes{16, 32, 64};
  constexpr std::array<std::uint64_t, 3> kSeeds{5, 9, 13};
  struct Trial {
    double march_cov = 0.0, sneak_cov = 0.0;
    std::size_t march_ops = 0, sneak_probes = 0;
    double march_time = 0.0, sneak_time = 0.0;
  };
  std::vector<Trial> trials(kSizes.size() * kSeeds.size());
  util::ThreadPool::global().parallel_for(
      0, trials.size(), [&](std::size_t task) {
        const std::size_t n = kSizes[task / kSeeds.size()];
        const std::uint64_t seed = kSeeds[task % kSeeds.size()];
        util::Rng rng(seed);
        const std::size_t n_faults = std::max<std::size_t>(4, n * n / 64);
        const auto map = fault::FaultMap::with_fault_count(
            n, n, n_faults, fault::FaultMix::stuck_at_only(), rng);

        crossbar::Crossbar xm(array_cfg(n, seed));
        xm.apply_faults(map);
        const auto march = memtest::run_march(xm, memtest::march_cstar());

        crossbar::Crossbar xs(array_cfg(n, seed + 100));
        xs.apply_faults(map);
        const memtest::SneakTestConfig scfg{.window = 2};
        const auto sneak = memtest::run_sneak_path_test(xs, scfg);

        trials[task] = {memtest::fault_coverage(map, march),
                        memtest::sneak_coverage(map, sneak, scfg.window),
                        march.total_ops, sneak.probes, march.time_ns,
                        sneak.time_ns};
      });

  for (std::size_t si = 0; si < kSizes.size(); ++si) {
    const std::size_t n = kSizes[si];
    obs::StreamStat march_cov, sneak_cov_s;
    std::size_t march_ops = 0, sneak_probes = 0;
    double march_time = 0.0, sneak_time = 0.0;
    for (std::size_t sd = 0; sd < kSeeds.size(); ++sd) {
      const auto& tr = trials[si * kSeeds.size() + sd];
      march_cov.add(tr.march_cov);
      sneak_cov_s.add(tr.sneak_cov);
      march_ops = tr.march_ops;
      sneak_probes = tr.sneak_probes;
      march_time = tr.march_time;
      sneak_time = tr.sneak_time;
    }

    t.add_row({std::to_string(n) + "x" + std::to_string(n),
               std::to_string(std::max<std::size_t>(4, n * n / 64)),
               util::Table::num(march_cov.mean, 3),
               std::to_string(march_ops),
               util::Table::num(march_time / 1e3, 1),
               util::Table::num(sneak_cov_s.mean, 3),
               std::to_string(sneak_probes),
               util::Table::num(sneak_time / 1e3, 1),
               util::Table::num(double(sneak_probes) / double(march_ops), 3)});
  }
  t.print(std::cout);

  // --- the three march algorithms side by side -------------------------------
  util::Table t2({"algorithm", "ops/cell", "reads/cell", "coverage (mixed faults)"});
  t2.set_title("March algorithm comparison (32x32, mixed stuck-at/transition)");
  for (const auto& algo : {memtest::march_cstar(), memtest::march_cminus(),
                           memtest::mats_plus()}) {
    obs::StreamStat cov;
    for (std::uint64_t seed : {3ull, 7ull, 11ull}) {
      util::Rng rng(seed);
      fault::FaultMix mix = fault::FaultMix::stuck_at_only();
      mix.transition = 0.3;
      const auto map = fault::FaultMap::with_fault_count(32, 32, 16, mix, rng);
      crossbar::Crossbar xbar(array_cfg(32, seed + 40));
      xbar.apply_faults(map);
      cov.add(memtest::fault_coverage(map, memtest::run_march(xbar, algo)));
    }
    t2.add_row({algo.name, std::to_string(algo.ops_per_cell()),
                std::to_string(algo.reads_per_cell()),
                util::Table::num(cov.mean, 3)});
  }
  t2.print(std::cout);

  // --- test -> localize -> repair -> retest pipeline ---------------------------
  {
    util::Table t3({"injected faults", "spares (r+c)", "repair feasible",
                    "spares used", "retest clean"});
    t3.set_title("Redundancy repair — March-located faults vs spare lines "
                 "(16x16 + spares)");
    for (const std::size_t n_faults : {2u, 5u, 8u, 14u}) {
      util::Rng rng(n_faults * 3 + 1);
      const std::size_t spare = 4;
      memtest::RepairedArray arr(16, 16, spare, spare,
                                 array_cfg(16, n_faults + 70));
      fault::FaultMap map(16 + spare, 16 + spare);
      util::Rng frng(n_faults);
      // Faults only in the main region so coverage is measurable.
      const auto inner = fault::FaultMap::with_fault_count(
          16, 16, n_faults, fault::FaultMix::stuck_at_only(), frng);
      for (const auto& fd : inner.all()) map.add(fd);
      arr.apply_faults(map);

      auto walk = [&]() {
        std::vector<memtest::FaultSite> fails;
        for (std::size_t r = 0; r < 16; ++r)
          for (std::size_t c = 0; c < 16; ++c) {
            arr.write_bit(r, c, false);
            if (arr.read_bit(r, c)) fails.push_back({r, c});
            arr.write_bit(r, c, true);
            if (!arr.read_bit(r, c)) fails.push_back({r, c});
          }
        return fails;
      };

      const auto plan = memtest::allocate_redundancy(walk(), spare, spare);
      bool clean = false;
      if (plan.feasible) {
        arr.install(plan);
        clean = walk().empty();
      }
      t3.add_row({std::to_string(n_faults),
                  std::to_string(spare) + "+" + std::to_string(spare),
                  plan.feasible ? "yes" : "no",
                  std::to_string(plan.spare_rows_used) + "+" +
                      std::to_string(plan.spare_cols_used),
                  plan.feasible ? (clean ? "yes" : "NO") : "-"});
    }
    t3.print(std::cout);
  }

  std::cout << "shape check: March C* coverage ~1.0 at 10N ops; the sneak "
               "test uses ~1-2% of the operations at reduced (SAF-only, "
               "ROD-resolution) coverage; MATS+ is cheaper and weaker; "
               "located faults repair cleanly while spares last.\n";
  bench::report("bench_march_sneakpath", total.elapsed_ms(),
                static_cast<double>(trials.size()));
  return 0;
}
