/// Concurrency regression tests for the telemetry hot paths. The
/// ThreadSanitizer race gate (`ctest -L 'tsan|obs'` in the CIM_TSAN build)
/// runs these so the sharded counters, the perf-counter views, span
/// recording, and component attribution are checked from thread-pool
/// bodies.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "obs/obs.hpp"
#include "util/perf_counters.hpp"
#include "util/thread_pool.hpp"

namespace cim::obs {
namespace {

class ObsConcurrencyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    set_mode(Mode::kMetrics);
    reset();
  }
  void TearDown() override {
    set_mode(Mode::kOff);
    reset();
  }
};

TEST_F(ObsConcurrencyTest, PerfCountersSafeFromParallelForBodies) {
  // Regression: the process-wide cache counters are bumped from
  // ThreadPool::parallel_for bodies (Monte-Carlo fan-out with private
  // crossbars); the registry-backed views must stay exact under that load.
  const std::uint64_t base_full =
      util::perf::cache_full_rebuilds.load(std::memory_order_relaxed);
  const std::uint64_t base_delta =
      util::perf::cache_delta_updates.load(std::memory_order_relaxed);
  util::ThreadPool pool(4);
  constexpr std::size_t kIters = 4000;
  pool.parallel_for(0, kIters, [](std::size_t) {
    util::perf::cache_full_rebuilds.fetch_add(1, std::memory_order_relaxed);
    util::perf::cache_delta_updates.fetch_add(2, std::memory_order_relaxed);
  });
  EXPECT_EQ(util::perf::cache_full_rebuilds.load(std::memory_order_relaxed),
            base_full + kIters);
  EXPECT_EQ(util::perf::cache_delta_updates.load(std::memory_order_relaxed),
            base_delta + 2 * kIters);
}

TEST_F(ObsConcurrencyTest, RegistryMetricsSafeUnderConcurrentUse) {
  util::ThreadPool pool(4);
  constexpr std::size_t kIters = 2000;
  pool.parallel_for(0, kIters, [](std::size_t i) {
    // Lazily-registered metrics hit the registration lock on first use and
    // the lock-free shards afterwards.
    Registry::global().counter("obs_test.concurrent_counter").add(1);
    Registry::global().gauge("obs_test.concurrent_gauge").set(
        static_cast<double>(i));
    Registry::global()
        .histogram("obs_test.concurrent_hist", std::vector<double>{10.0, 100.0})
        .observe(static_cast<double>(i % 128));
    attribute(Component::kAdc, 1.0, 2.0);
    CIM_OBS_SPAN("obs_test.concurrent_span", Component::kDigital);
  });
  const Snapshot s = snapshot();
  for (const auto& [name, v] : s.counters)
    if (name == "obs_test.concurrent_counter") {
      EXPECT_EQ(v, kIters);
    }
  for (const auto& h : s.histograms)
    if (h.name == "obs_test.concurrent_hist") {
      EXPECT_EQ(h.data.count, kIters);
    }
  for (const auto& row : s.spans)
    if (row.name == "obs_test.concurrent_span") {
      EXPECT_EQ(row.count, kIters);
    }
  for (const auto& row : s.components)
    if (row.comp == Component::kAdc) {
      EXPECT_GE(row.events, kIters);
      EXPECT_GE(row.energy_pj, 2.0 * static_cast<double>(kIters) - 1e-9);
    }
}

TEST_F(ObsConcurrencyTest, TraceModeEventCaptureSafeAcrossThreads) {
  set_mode(Mode::kTrace);
  reset();
  util::ThreadPool pool(4);
  constexpr std::size_t kIters = 512;
  pool.parallel_for(0, kIters, [](std::size_t) {
    CIM_OBS_SPAN("obs_test.traced_span", Component::kOther);
  });
  // Snapshots may run while other pools are still alive elsewhere; here the
  // pool has quiesced, so the count is exact.
  for (const auto& row : snapshot().spans)
    if (row.name == "obs_test.traced_span") {
      EXPECT_EQ(row.count, kIters);
    }
}

}  // namespace
}  // namespace cim::obs
