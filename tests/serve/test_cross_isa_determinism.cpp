/// \file test_cross_isa_determinism.cpp
/// \brief Cross-ISA determinism of the whole read path (ctest label
///        `simd`): the same system or serving run under every kernel
///        table this host can execute must give bitwise-equal integer
///        outputs, simulated time and simulated energy. Array energy is a
///        closed form over exact per-row conductance sums, so no
///        table-dependent reduction reaches the stats.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/cim_system.hpp"
#include "serve/controller.hpp"
#include "serve/tile_pool.hpp"
#include "serve/traffic.hpp"
#include "util/rng.hpp"
#include "util/simd_dispatch.hpp"
#include "util/thread_pool.hpp"

namespace cim {
namespace {

namespace simd = util::simd;

// Restores the startup-selected table when a test forces another one.
class IsaGuard {
 public:
  IsaGuard() : saved_(simd::active_isa()) {}
  ~IsaGuard() { simd::set_isa(saved_); }

 private:
  simd::Isa saved_;
};

util::Matrix weights(std::size_t out, std::size_t in, std::uint64_t seed) {
  util::Rng rng(seed);
  util::Matrix w(out, in);
  for (auto& v : w.flat())
    v = static_cast<double>(static_cast<long>(rng.uniform_int(15)) - 7);
  return w;
}

struct SystemRun {
  std::vector<std::vector<long>> outputs;
  double energy_pj = 0.0;
  double time_ns = 0.0;
};

// One 128-out x 256-in system (two 128x128 tiles), 200 4-bit requests per
// fidelity tier, tiles fanned out over a 2-lane pool.
SystemRun run_system() {
  core::CimSystem sys(weights(128, 256, 3), core::CimSystemConfig{});
  util::ThreadPool pool(2);
  util::Rng rng(17);
  SystemRun run;
  std::vector<std::uint32_t> x(256);
  for (const auto tier :
       {crossbar::FidelityTier::kFull, crossbar::FidelityTier::kCalibrated,
        crossbar::FidelityTier::kIdeal}) {
    for (int k = 0; k < 200; ++k) {
      for (auto& xi : x) xi = static_cast<std::uint32_t>(rng.uniform_int(16));
      run.outputs.push_back(sys.vmm_int(x, 4, &pool, tier));
    }
  }
  run.energy_pj = sys.stats().energy_pj;
  run.time_ns = sys.stats().time_ns;
  return run;
}

TEST(CrossIsaDeterminism, SystemVmmIntIsBitIdenticalOnEveryTable) {
  IsaGuard guard;
  simd::set_isa(simd::Isa::kScalar);
  const SystemRun ref = run_system();
  for (const simd::Isa isa : simd::supported_isas()) {
    simd::set_isa(isa);
    const SystemRun got = run_system();
    EXPECT_EQ(got.outputs, ref.outputs) << simd::isa_name(isa);
    EXPECT_EQ(got.energy_pj, ref.energy_pj) << simd::isa_name(isa);
    EXPECT_EQ(got.time_ns, ref.time_ns) << simd::isa_name(isa);
  }
}

struct ServeRun {
  serve::ServeReport report;
  std::vector<double> energy_pj, time_ns;  // per replica
};

// Two replicas of a 100-out x 200-in layer on the default 128x128 tiles:
// 128- and 72-row tiles of 100 columns, a vector tail on every table.
ServeRun run_serve() {
  serve::TilePoolConfig pc;
  pc.replicas = 2;
  pc.seed = 23;
  serve::TilePool pool(weights(100, 200, 5), pc);
  serve::TrafficConfig tc;
  tc.requests = 200;
  tc.rate_rps = 5.0e7;
  tc.in_dim = 200;
  tc.inference_frac = 0.5;
  tc.seed = 29;
  serve::Controller ctl(pool, serve::ControllerConfig{});
  util::ThreadPool lanes(2);
  ServeRun run{ctl.run(serve::generate(tc), &lanes), {}, {}};
  for (std::size_t r = 0; r < pool.size(); ++r) {
    run.energy_pj.push_back(pool.replica(r).stats().energy_pj);
    run.time_ns.push_back(pool.replica(r).stats().time_ns);
  }
  return run;
}

TEST(CrossIsaDeterminism, ControllerRunIsBitIdenticalOnEveryTable) {
  IsaGuard guard;
  simd::set_isa(simd::Isa::kScalar);
  const ServeRun ref = run_serve();
  ASSERT_FALSE(ref.report.completions.empty());
  for (const simd::Isa isa : simd::supported_isas()) {
    simd::set_isa(isa);
    const ServeRun got = run_serve();
    ASSERT_EQ(got.report.completions.size(), ref.report.completions.size());
    for (std::size_t i = 0; i < ref.report.completions.size(); ++i) {
      const auto& a = ref.report.completions[i];
      const auto& b = got.report.completions[i];
      EXPECT_EQ(a.id, b.id);
      EXPECT_EQ(a.result, b.result) << simd::isa_name(isa) << " id " << a.id;
      EXPECT_EQ(a.label, b.label);
      EXPECT_EQ(a.replica, b.replica);
      EXPECT_EQ(a.done_ns, b.done_ns);
    }
    EXPECT_EQ(got.report.rejections.size(), ref.report.rejections.size());
    EXPECT_EQ(got.energy_pj, ref.energy_pj) << simd::isa_name(isa);
    EXPECT_EQ(got.time_ns, ref.time_ns) << simd::isa_name(isa);
  }
}

}  // namespace
}  // namespace cim
