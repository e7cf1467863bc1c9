/// \file bench_online_testing.cpp
/// \brief Regenerates the Section III.C comparison of on-line methods:
///        the voltage-comparison SAF test [38], X-ABFT checksums [49,50],
///        ECC's BER limit, and the Pause-and-Test overhead that motivates
///        the power-monitoring method of [52].
#include <cmath>
#include <iostream>

#include "bench_common.hpp"
#include "memtest/ecc.hpp"
#include "memtest/march.hpp"
#include "memtest/online_voltage_test.hpp"
#include "memtest/scouting_test.hpp"
#include "memtest/xabft.hpp"
#include "obs/dataset.hpp"
#include "util/table.hpp"

using namespace cim;

int main() {
  bench::WallTimer total;
  // --- voltage-comparison test: recall/precision and cost vs fault count ----
  {
    util::Table t({"injected SAFs", "recall", "precision", "VMM measurements",
                   "cell writes", "time (us)"});
    t.set_title("Voltage-comparison on-line SAF test [38] (16x16, 16 levels)");
    for (const std::size_t n_faults : {2u, 6u, 12u, 24u}) {
      obs::StreamStat recall, precision, meas, writes, time_us;
      for (std::uint64_t seed : {3ull, 7ull, 11ull}) {
        crossbar::CrossbarConfig cfg;
        cfg.rows = cfg.cols = 16;
        cfg.levels = 16;
        cfg.model_ir_drop = false;
        cfg.verified_writes = true;
        cfg.seed = seed;
        crossbar::Crossbar xbar(cfg);

        util::Rng rng(seed);
        const auto map = fault::FaultMap::with_fault_count(
            16, 16, n_faults, fault::FaultMix::stuck_at_only(), rng);
        xbar.apply_faults(map);
        util::Matrix lv(16, 16);
        for (auto& v : lv.flat())
          v = 4.0 + static_cast<double>(rng.uniform_int(8));
        xbar.program_levels(lv);

        const auto res = memtest::run_voltage_comparison_test(xbar);
        const auto q = memtest::voltage_test_quality(map, res);
        recall.add(q.recall);
        precision.add(q.precision);
        meas.add(static_cast<double>(res.vmm_measurements));
        writes.add(static_cast<double>(res.cell_writes));
        time_us.add(res.time_ns / 1e3);
      }
      t.add_row({std::to_string(n_faults), util::Table::num(recall.mean, 3),
                 util::Table::num(precision.mean, 3),
                 util::Table::num(meas.mean, 0),
                 util::Table::num(writes.mean, 0),
                 util::Table::num(time_us.mean, 1)});
    }
    t.print(std::cout);
  }

  // --- X-ABFT: in-line detection + scrub correction --------------------------
  {
    util::Table t({"injected SAFs", "inline detection rate",
                   "scrub located", "soft fixes OK", "hard flagged"});
    t.set_title("X-ABFT checksum protection [49,50] (8x8 level matrices)");
    for (const std::size_t n_faults : {1u, 2u, 4u}) {
      obs::StreamStat detect, located, fixed, hard;
      for (std::uint64_t seed : {5ull, 9ull, 13ull, 17ull}) {
        util::Rng rng(seed);
        util::Matrix lv(8, 8);
        for (auto& v : lv.flat())
          v = 8.0 + static_cast<double>(rng.uniform_int(8));
        crossbar::CrossbarConfig cfg;
        cfg.model_ir_drop = false;
        cfg.seed = seed;
        memtest::XabftProtected prot(lv, cfg);
        const auto map = fault::FaultMap::with_fault_count(
            8, 8, n_faults, fault::FaultMix::stuck_at_only(), rng);
        prot.apply_faults(map);

        // In-line detection over full-row activations.
        std::size_t flagged = 0;
        const std::size_t trials = 8;
        for (std::size_t k = 0; k < trials; ++k) {
          std::vector<double> x(8, 1.0);
          if (!prot.multiply(x).checksum_ok) ++flagged;
        }
        detect.add(static_cast<double>(flagged) / trials);

        const auto rep = prot.scrub();
        std::size_t on_fault = 0, ok = 0, bad = 0;
        for (const auto& fix : rep.corrections) {
          if (map.cell_fault(fix.row, fix.col)) ++on_fault;
          if (fix.reprogram_succeeded)
            ++ok;
          else
            ++bad;
        }
        located.add(static_cast<double>(on_fault) /
                    static_cast<double>(map.cell_fault_count()));
        fixed.add(static_cast<double>(ok));
        hard.add(static_cast<double>(bad));
      }
      t.add_row({std::to_string(n_faults), util::Table::num(detect.mean, 2),
                 util::Table::num(located.mean, 2),
                 util::Table::num(fixed.mean, 1),
                 util::Table::num(hard.mean, 1)});
    }
    t.print(std::cout);
  }

  // --- ECC BER limit -----------------------------------------------------------
  {
    util::Table t({"raw BER", "analytic P(word >1 err)",
                   "simulated wrong-data rate", "verdict"});
    t.set_title("ECC (72,64) SEC-DED — works only below BER ~1e-5 (Section III.C)");
    util::Rng rng(21);
    for (const double ber : {1e-6, 1e-5, 1e-4, 1e-3, 1e-2}) {
      const double analytic = memtest::word_uncorrectable_probability(ber);
      const double sim =
          memtest::simulate_word_failure_rate(ber, 40000, rng);
      t.add_row({util::Table::num(ber, 6), util::Table::num(analytic, 8),
                 util::Table::num(sim, 8),
                 analytic < 1e-5 ? "safe" : "breaks down"});
    }
    t.print(std::cout);
  }

  // --- scouting-logic test [40] ----------------------------------------------
  {
    util::Table t({"pair stride", "checks", "coverage (stuck, tested rows)",
                   "time (us)"});
    t.set_title("Scouting-logic test (Fieback et al. [40]) — 16x16 array");
    for (const std::size_t stride : {1u, 2u, 4u}) {
      obs::StreamStat cov, checks, time_us;
      for (std::uint64_t seed : {3ull, 9ull, 15ull}) {
        crossbar::CrossbarConfig cfg;
        cfg.rows = cfg.cols = 16;
        cfg.levels = 2;
        cfg.model_ir_drop = false;
        cfg.verified_writes = true;
        cfg.seed = seed;
        crossbar::Crossbar xbar(cfg);
        util::Rng rng(seed);
        const auto map = fault::FaultMap::with_fault_count(
            16, 16, 8, fault::FaultMix::stuck_at_only(), rng);
        xbar.apply_faults(map);
        const memtest::ScoutingTestConfig scfg{.pair_stride = stride};
        const auto res = memtest::run_scouting_test(xbar, scfg);
        cov.add(memtest::scouting_coverage(map, res, scfg, 16));
        checks.add(static_cast<double>(res.checks));
        time_us.add(res.time_ns / 1e3);
      }
      t.add_row({std::to_string(stride), util::Table::num(checks.mean, 0),
                 util::Table::num(cov.mean, 3),
                 util::Table::num(time_us.mean, 1)});
    }
    t.print(std::cout);
  }

  // --- Pause-and-Test overhead ---------------------------------------------------
  {
    util::Table t({"test interval (cycles)", "March time/test (us)",
                   "overhead at 1ns/cycle"});
    t.set_title("Pause-and-Test cost — why [52] monitors power instead");
    crossbar::CrossbarConfig cfg;
    cfg.rows = cfg.cols = 64;
    cfg.tech = device::Technology::kSttMram;
    cfg.levels = 2;
    cfg.seed = 27;
    crossbar::Crossbar xbar(cfg);
    const auto march = memtest::run_march(xbar, memtest::march_cstar());
    for (const double interval : {1e4, 1e5, 1e6}) {
      const double overhead = march.time_ns / (interval + march.time_ns);
      t.add_row({util::Table::num(interval, 0),
                 util::Table::num(march.time_ns / 1e3, 1),
                 util::Table::num(100.0 * overhead, 2) + "%"});
    }
    t.print(std::cout);
  }
  std::cout << "shape check: voltage test keeps high recall at growing fault "
               "counts; X-ABFT detects inline and corrects soft errors; ECC "
               "collapses beyond ~1e-4 BER; frequent Pause-and-Test costs "
               "double-digit overhead.\n";
  bench::report("bench_online_testing", total.elapsed_ms(), 42.0);
  return 0;
}
