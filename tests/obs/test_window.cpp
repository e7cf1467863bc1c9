/// Windowed aggregation and SLO tracking: window indexing and ring
/// eviction, exactly-once close callbacks, late-observation accounting,
/// the deterministic merge contract, and the burn-rate / error-budget
/// arithmetic of the SloTracker — all in simulated time, hand-computed.
#include "obs/window.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

namespace cim::obs {
namespace {

TEST(WindowedCounter, BucketsBySimulatedTimeAndClosesInOrder) {
  WindowedCounter wc(100.0, 4);
  std::vector<WindowCount> closed;
  const auto on_close = [&](const WindowCount& w) { closed.push_back(w); };

  wc.add(10.0, 1, on_close);   // window 0
  wc.add(99.0, 2, on_close);   // window 0
  wc.add(150.0, 1, on_close);  // window 1
  wc.add(320.0, 1, on_close);  // window 3
  EXPECT_TRUE(closed.empty());  // ring of 4 still holds windows 0..3

  // Window 4 pushes window 0 off the ring.
  wc.add(420.0, 1, on_close);
  ASSERT_EQ(closed.size(), 1u);
  EXPECT_EQ(closed[0].index, 0u);
  EXPECT_DOUBLE_EQ(closed[0].start_ns, 0.0);
  EXPECT_EQ(closed[0].count, 3u);

  wc.finalize(on_close);
  ASSERT_EQ(closed.size(), 4u);  // 1, 3, 4 close; empty window 2 never opened
  EXPECT_EQ(closed[1].index, 1u);
  EXPECT_EQ(closed[1].count, 1u);
  EXPECT_EQ(closed[2].index, 3u);
  EXPECT_EQ(closed[3].index, 4u);
  EXPECT_EQ(wc.total(), 6u);
  EXPECT_EQ(wc.late_dropped(), 0u);
}

// WindowedCounter and WindowedHistogram share one window ring; the ring
// tests below run over both through this adapter ("record one event at
// t", "events in a closed window").
template <class W>
struct RingUser;

template <>
struct RingUser<WindowedCounter> {
  using Closed = WindowCount;
  static WindowedCounter make(double window_ns, std::size_t ring) {
    return WindowedCounter(window_ns, ring);
  }
  static void record(WindowedCounter& w, double t_ns,
                     const WindowedCounter::CloseFn& on_close = {}) {
    w.add(t_ns, 1, on_close);
  }
  static std::uint64_t events(const WindowCount& w) { return w.count; }
};

template <>
struct RingUser<WindowedHistogram> {
  using Closed = WindowHistogramSnap;
  static constexpr std::array<double, 2> kBounds = {10.0, 100.0};
  static WindowedHistogram make(double window_ns, std::size_t ring) {
    return WindowedHistogram(window_ns, kBounds, ring);
  }
  static void record(WindowedHistogram& w, double t_ns,
                     const WindowedHistogram::CloseFn& on_close = {}) {
    w.observe(t_ns, 50.0, on_close);
  }
  static std::uint64_t events(const WindowHistogramSnap& w) {
    return w.hist.count;
  }
};

template <class W>
void check_late_observations_beyond_ring_are_counted() {
  using U = RingUser<W>;
  W w = U::make(100.0, 2);
  std::vector<typename U::Closed> closed;
  const auto on_close = [&](const typename U::Closed& c) {
    closed.push_back(c);
  };

  U::record(w, 950.0, on_close);  // window 9; ring spans {8, 9}
  U::record(w, 850.0, on_close);  // window 8: still inside the ring
  U::record(w, 50.0, on_close);   // window 0: older than the ring
  EXPECT_EQ(w.late_dropped(), 1u);
  EXPECT_EQ(w.total(), 3u);  // total counts every event, late included

  w.finalize(on_close);
  ASSERT_EQ(closed.size(), 2u);
  EXPECT_EQ(closed[0].index, 8u);
  EXPECT_EQ(closed[1].index, 9u);
  EXPECT_EQ(U::events(closed[0]) + U::events(closed[1]), 2u);
}

TEST(WindowedCounter, LateObservationsBeyondRingAreCountedNotMisfiled) {
  check_late_observations_beyond_ring_are_counted<WindowedCounter>();
}

TEST(WindowedHistogram, LateObservationsBeyondRingAreCountedNotMisfiled) {
  check_late_observations_beyond_ring_are_counted<WindowedHistogram>();
}

template <class W>
void check_negative_and_nan_times_clamp_to_window_zero() {
  using U = RingUser<W>;
  W w = U::make(100.0, 4);
  U::record(w, -50.0);  // clamps to window 0 rather than underflowing
  U::record(w, std::numeric_limits<double>::quiet_NaN());
  std::vector<typename U::Closed> closed;
  w.finalize([&](const typename U::Closed& c) { closed.push_back(c); });
  ASSERT_EQ(closed.size(), 1u);
  EXPECT_EQ(closed[0].index, 0u);
  EXPECT_EQ(U::events(closed[0]), 2u);
}

TEST(WindowedCounter, NegativeAndPreRingTimesClampToWindowZero) {
  check_negative_and_nan_times_clamp_to_window_zero<WindowedCounter>();
}

TEST(WindowedHistogram, NegativeAndPreRingTimesClampToWindowZero) {
  check_negative_and_nan_times_clamp_to_window_zero<WindowedHistogram>();
}

TEST(WindowedCounter, MergeEqualsSingleStream) {
  // Split one event stream across two counters; the merge must reproduce
  // the single-counter window series exactly (the determinism contract).
  const std::array<double, 8> ts = {10, 120, 130, 250, 260, 270, 380, 390};
  WindowedCounter whole(100.0, 8);
  WindowedCounter a(100.0, 8);
  WindowedCounter b(100.0, 8);
  for (std::size_t i = 0; i < ts.size(); ++i) {
    whole.add(ts[i]);
    (i % 2 == 0 ? a : b).add(ts[i]);
  }
  a.merge(b);

  std::vector<WindowCount> expect;
  std::vector<WindowCount> got;
  whole.finalize([&](const WindowCount& w) { expect.push_back(w); });
  a.finalize([&](const WindowCount& w) { got.push_back(w); });
  ASSERT_EQ(got.size(), expect.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].index, expect[i].index);
    EXPECT_EQ(got[i].count, expect[i].count);
  }
  EXPECT_EQ(a.total(), whole.total());
}

template <class W>
void check_rejects_invalid_ring_shape() {
  using U = RingUser<W>;
  EXPECT_THROW(U::make(0.0, 4), std::invalid_argument);
  EXPECT_THROW(U::make(-1.0, 4), std::invalid_argument);
  EXPECT_THROW(U::make(10.0, 0), std::invalid_argument);
  W a = U::make(10.0, 4);
  const W other_width = U::make(20.0, 4);
  const W other_ring = U::make(10.0, 8);
  EXPECT_THROW(a.merge(other_width), std::invalid_argument);
  EXPECT_THROW(a.merge(other_ring), std::invalid_argument);
}

TEST(WindowedCounter, RejectsInvalidShape) {
  check_rejects_invalid_ring_shape<WindowedCounter>();
}

TEST(WindowedHistogram, RejectsInvalidShape) {
  check_rejects_invalid_ring_shape<WindowedHistogram>();
  const std::array<double, 2> unsorted = {100.0, 10.0};
  EXPECT_THROW(WindowedHistogram(10.0, unsorted), std::invalid_argument);
  const std::array<double, 2> other_bounds = {10.0, 50.0};
  WindowedHistogram a(10.0, RingUser<WindowedHistogram>::kBounds);
  const WindowedHistogram b(10.0, other_bounds);
  EXPECT_THROW(a.merge(b), std::invalid_argument);
}

TEST(WindowedHistogram, PerWindowQuantilesAndCounts) {
  const std::array<double, 3> bounds = {10.0, 100.0, 1000.0};
  WindowedHistogram wh(1000.0, bounds, 4);
  std::vector<WindowHistogramSnap> closed;
  const auto on_close =
      [&](const WindowHistogramSnap& s) { closed.push_back(s); };

  // Window 0: latencies well under 100; window 1: all in overflow.
  for (int i = 0; i < 10; ++i) wh.observe(100.0 * i / 10, 50.0, on_close);
  for (int i = 0; i < 10; ++i) wh.observe(1000.0 + i, 5000.0, on_close);
  wh.finalize(on_close);

  ASSERT_EQ(closed.size(), 2u);
  EXPECT_EQ(closed[0].index, 0u);
  EXPECT_EQ(closed[0].hist.count, 10u);
  EXPECT_DOUBLE_EQ(closed[0].hist.sum, 500.0);
  // All mass in the (10, 100] bucket: every quantile lands inside it.
  EXPECT_GT(closed[0].hist.p99(), 10.0);
  EXPECT_LE(closed[0].hist.p99(), 100.0);
  // Overflow-bucket ranks clamp to the largest resolvable bound.
  EXPECT_EQ(closed[1].index, 1u);
  EXPECT_DOUBLE_EQ(closed[1].hist.p50(), 1000.0);
  EXPECT_EQ(wh.total(), 20u);
}

TEST(WindowedHistogram, MergeEqualsSingleStream) {
  const std::array<double, 2> bounds = {10.0, 100.0};
  WindowedHistogram whole(50.0, bounds, 8);
  WindowedHistogram a(50.0, bounds, 8);
  WindowedHistogram b(50.0, bounds, 8);
  const std::array<double, 6> ts = {5, 60, 110, 160, 210, 260};
  const std::array<double, 6> vs = {1, 20, 200, 5, 50, 500};
  for (std::size_t i = 0; i < ts.size(); ++i) {
    whole.observe(ts[i], vs[i]);
    (i < 3 ? a : b).observe(ts[i], vs[i]);
  }
  a.merge(b);

  std::vector<WindowHistogramSnap> expect;
  std::vector<WindowHistogramSnap> got;
  whole.finalize([&](const WindowHistogramSnap& s) { expect.push_back(s); });
  a.finalize([&](const WindowHistogramSnap& s) { got.push_back(s); });
  ASSERT_EQ(got.size(), expect.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].index, expect[i].index);
    EXPECT_EQ(got[i].hist.counts, expect[i].hist.counts);
    EXPECT_DOUBLE_EQ(got[i].hist.sum, expect[i].hist.sum);
  }
}

SloConfig slo_cfg() {
  SloConfig cfg;
  cfg.target_ns = 100.0;
  cfg.objective = 0.9;  // 10% budget: burn = violation_frac / 0.1
  cfg.window_ns = 1000.0;
  cfg.fast_windows = 1;
  cfg.slow_windows = 3;
  cfg.fast_burn_threshold = 5.0;
  cfg.slow_burn_threshold = 2.0;
  return cfg;
}

TEST(SloTracker, BurnRateAndBudgetHandComputed) {
  SloTracker slo(slo_cfg());
  // Window 0: 8 good, 2 bad -> violation 0.2, burn 2.0 (no fast alert).
  for (int i = 0; i < 8; ++i) slo.observe(100.0 * i, 50.0);
  slo.observe(800.0, 200.0);
  slo.record_rejected(900.0);  // rejected counts as bad
  // Window 1: 10 good.
  for (int i = 0; i < 10; ++i) slo.observe(1000.0 + i, 50.0);
  const auto sum = slo.finalize();

  ASSERT_EQ(slo.windows().size(), 2u);
  const SloWindow& w0 = slo.windows()[0];
  EXPECT_EQ(w0.good, 8u);
  EXPECT_EQ(w0.bad, 2u);
  EXPECT_DOUBLE_EQ(w0.burn_rate, 2.0);
  EXPECT_FALSE(w0.fast_alert);  // 2.0 < fast threshold 5.0
  EXPECT_TRUE(w0.slow_alert);   // trailing-3 burn 2.0 >= 2.0

  EXPECT_TRUE(sum.enabled);
  EXPECT_EQ(sum.good, 18u);
  EXPECT_EQ(sum.bad, 2u);
  // budget = bad / ((good + bad) * (1 - objective)) = 2 / (20 * 0.1) = 1.0
  EXPECT_DOUBLE_EQ(sum.budget_consumed, 1.0);
  EXPECT_EQ(sum.fast_alerts, 0u);
  EXPECT_EQ(sum.slow_alerts, 1u);
  EXPECT_TRUE(sum.breached);  // budget fully consumed
}

TEST(SloTracker, FastAlertCountsOnsetsNotWindows) {
  SloTracker slo(slo_cfg());
  // Three consecutive all-bad windows: burn 10 >= 5 in each, but the
  // level-triggered alert fires once at onset, not per window.
  for (int w = 0; w < 3; ++w)
    for (int i = 0; i < 5; ++i) slo.observe(1000.0 * w + i, 500.0);
  // Recovery window, then a second cliff: a second onset.
  for (int i = 0; i < 20; ++i) slo.observe(3000.0 + i, 10.0);
  for (int i = 0; i < 5; ++i) slo.observe(4000.0 + i, 500.0);
  const auto sum = slo.finalize();

  EXPECT_EQ(sum.fast_alerts, 2u);
  EXPECT_TRUE(sum.breached);
  EXPECT_DOUBLE_EQ(sum.first_breach_ns, 0.0);  // first bad window starts at 0
}

TEST(SloTracker, CleanRunDoesNotBreach) {
  SloTracker slo(slo_cfg());
  for (int i = 0; i < 1000; ++i) slo.observe(10.0 * i, 50.0);
  const auto sum = slo.finalize();
  EXPECT_EQ(sum.bad, 0u);
  EXPECT_DOUBLE_EQ(sum.budget_consumed, 0.0);
  EXPECT_EQ(sum.fast_alerts, 0u);
  EXPECT_EQ(sum.slow_alerts, 0u);
  EXPECT_FALSE(sum.breached);
  EXPECT_DOUBLE_EQ(sum.first_breach_ns, -1.0);
}

TEST(SloTracker, FinalizeIsIdempotentAndCtorValidates) {
  SloTracker slo(slo_cfg());
  slo.observe(0.0, 50.0);
  const auto a = slo.finalize();
  const auto b = slo.finalize();
  EXPECT_EQ(a.good, b.good);
  EXPECT_EQ(slo.windows().size(), 1u);

  auto bad_cfg = slo_cfg();
  bad_cfg.target_ns = 0.0;
  EXPECT_THROW(SloTracker{bad_cfg}, std::invalid_argument);
  bad_cfg = slo_cfg();
  bad_cfg.objective = 1.0;
  EXPECT_THROW(SloTracker{bad_cfg}, std::invalid_argument);
  bad_cfg = slo_cfg();
  bad_cfg.fast_windows = 0;
  EXPECT_THROW(SloTracker{bad_cfg}, std::invalid_argument);
}

}  // namespace
}  // namespace cim::obs
