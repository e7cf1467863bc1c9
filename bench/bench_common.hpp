/// \file bench_common.hpp
/// \brief Shared wall-time/throughput harness for the bench_* binaries.
///
/// Every bench ends by emitting one machine-readable line
///
///   BENCH_JSON {"bench":"<name>","wall_ms":...,"ops":...,"ops_per_s":...,
///               "threads":N,"peak_rss_mb":...,"cache_full_rebuilds":...,
///               "cache_delta_updates":...,"git_sha":"...",
///               "build_type":"...", ...extras}
///
/// so the perf trajectory of each figure bench can be scraped into
/// BENCH_*.json files and tracked across PRs (scripts/collect_bench.sh
/// aggregates them into BENCH_PR<N>.json and validates the schema). `ops`
/// is the bench's natural unit of work (Monte-Carlo trials, VMMs, test
/// operations, ...). The line is produced by the cim::obs exporter
/// (obs::emit_bench_json), which stamps the build metadata and reads the
/// cache counters from the metrics registry; with CIM_OBS enabled it also
/// honours the CIM_OBS_SNAPSHOT_FILE / CIM_OBS_TRACE_FILE exporter hooks,
/// so every bench can dump a full telemetry snapshot or Chrome trace
/// without per-bench wiring.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "obs/obs.hpp"
#include "util/stats.hpp"

namespace cim::bench {

class WallTimer {
 public:
  WallTimer() : start_(Clock::now()) {}

  double elapsed_ms() const {
    return std::chrono::duration<double, std::milli>(Clock::now() - start_)
        .count();
  }

  void restart() { start_ = Clock::now(); }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// Peak resident-set size of this process in MiB.
inline double peak_rss_mb() { return cim::obs::peak_rss_mb(); }

/// Emits the standard BENCH_JSON perf line on stdout. Extra numeric fields
/// can be appended as {"key", value} pairs.
inline void report(const std::string& bench, double wall_ms, double ops,
                   std::initializer_list<std::pair<const char*, double>>
                       extras = {}) {
  cim::obs::emit_bench_json(bench, wall_ms, ops, extras);
}

/// Median and quartiles of the paired differences b - a (ms) of an
/// interleaved A/B timing, plus the median of the A runs alone.
struct PairedDiff {
  double a_median_ms = 0.0;
  double median_ms = 0.0;
  double q1_ms = 0.0;
  double q3_ms = 0.0;
};

/// Times `pairs` (A, B) runs back to back, flipping which side runs first
/// on every pair so drift and warm-up bias fall on both sides equally.
/// `run_a` / `run_b` return the milliseconds of the work they time.
template <class RunA, class RunB>
PairedDiff paired_ab_ms(std::size_t pairs, RunA&& run_a, RunB&& run_b) {
  std::vector<double> a_ms(pairs), diff_ms(pairs);
  for (std::size_t i = 0; i < pairs; ++i) {
    double a = 0.0, b = 0.0;
    if (i % 2 == 0) {
      a = run_a();
      b = run_b();
    } else {
      b = run_b();
      a = run_a();
    }
    a_ms[i] = a;
    diff_ms[i] = b - a;
  }
  std::sort(a_ms.begin(), a_ms.end());
  std::sort(diff_ms.begin(), diff_ms.end());
  PairedDiff d;
  d.a_median_ms = util::quantile_sorted(a_ms, 0.5);
  d.median_ms = util::quantile_sorted(diff_ms, 0.5);
  d.q1_ms = util::quantile_sorted(diff_ms, 0.25);
  d.q3_ms = util::quantile_sorted(diff_ms, 0.75);
  return d;
}

enum class GateVerdict { kPass, kFail, kInconclusive };

inline const char* verdict_name(GateVerdict v) {
  switch (v) {
    case GateVerdict::kPass: return "PASS";
    case GateVerdict::kFail: return "FAIL";
    case GateVerdict::kInconclusive: return "INCONCLUSIVE";
  }
  return "?";
}

/// An amplified disabled-telemetry overhead gate. The B side runs the A
/// workload plus `extra_sites` extra disabled telemetry sites, so the
/// paired difference per extra site is the per-site cost; scaled by the
/// `real_sites` the A workload passes, it is A's overhead fraction. Each
/// fraction below maps one difference statistic (median, Q1, Q3).
struct OverheadGate {
  PairedDiff diff;
  double frac_median = 0.0;
  double frac_q1 = 0.0;
  double frac_q3 = 0.0;
  GateVerdict verdict = GateVerdict::kInconclusive;
};

/// Judges `diff` against `limit` (a fraction of the A run). Inconclusive
/// when Q1..Q3 of the difference does not lie above zero (the runs cannot
/// resolve the extra sites) or straddles the limit; FAIL when even Q1 is
/// at or over the limit; PASS when Q3 is under it.
inline OverheadGate judge_overhead(const PairedDiff& diff, double extra_sites,
                                   double real_sites, double limit) {
  OverheadGate g;
  g.diff = diff;
  const double scale = diff.a_median_ms > 0.0
                           ? real_sites / (extra_sites * diff.a_median_ms)
                           : 0.0;
  g.frac_median = diff.median_ms * scale;
  g.frac_q1 = diff.q1_ms * scale;
  g.frac_q3 = diff.q3_ms * scale;
  if (!(diff.q1_ms > 0.0))
    g.verdict = GateVerdict::kInconclusive;
  else if (g.frac_q1 >= limit)
    g.verdict = GateVerdict::kFail;
  else if (g.frac_q3 < limit)
    g.verdict = GateVerdict::kPass;
  return g;
}

}  // namespace cim::bench
