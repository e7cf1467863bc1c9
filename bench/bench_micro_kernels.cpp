/// \file bench_micro_kernels.cpp
/// \brief Micro-kernel throughput bench. Default mode sweeps every
///        runtime-dispatched ISA variant (scalar / avx2 / avx512) of the
///        util::kernels hot loops — dot, axpy, gemm_accumulate and the
///        whole-array crossbar vmm — across sizes, reporting GB/s and
///        speedup vs the portable scalar table, then the ns/draw of the
///        util::Rng normal and lognormal samplers, and ends with the
///        standard BENCH_JSON line (per-variant extras) scraped into
///        BENCH_PR<N>.json by scripts/collect_bench.sh.
///
///        `--gbench` (or any --benchmark_* flag) instead runs the legacy
///        google-benchmark suite over the composite hot paths (crossbar
///        VMM, MAGIC NOR, march test, XNOR-popcount, synthesis flow).
#include <benchmark/benchmark.h>

#include <cstdio>
#include <functional>
#include <iostream>
#include <string>
#include <string_view>
#include <vector>

#include "bench_common.hpp"
#include "crossbar/crossbar.hpp"
#include "eda/flow.hpp"
#include "ferfet/bnn_engine.hpp"
#include "memtest/march.hpp"
#include "nn/bnn.hpp"
#include "util/rng.hpp"
#include "util/simd_dispatch.hpp"
#include "util/table.hpp"

using namespace cim;

namespace {

// --- legacy google-benchmark suite (--gbench) -------------------------------

crossbar::Crossbar make_array(std::size_t n) {
  crossbar::CrossbarConfig cfg;
  cfg.rows = cfg.cols = n;
  cfg.levels = 16;
  cfg.seed = 3;
  crossbar::Crossbar xbar(cfg);
  util::Rng rng(5);
  util::Matrix lv(n, n);
  for (auto& v : lv.flat()) v = static_cast<double>(rng.uniform_int(16));
  xbar.program_levels(lv);
  return xbar;
}

void BM_CrossbarVmm(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  auto xbar = make_array(n);
  std::vector<double> v(n, 0.2);
  for (auto _ : state) benchmark::DoNotOptimize(xbar.vmm(v));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * n));
}
BENCHMARK(BM_CrossbarVmm)->Arg(32)->Arg(64)->Arg(128);

void BM_MagicNor(benchmark::State& state) {
  crossbar::CrossbarConfig cfg;
  cfg.rows = 1;
  cfg.cols = 16;
  cfg.tech = device::Technology::kSttMram;
  cfg.levels = 2;
  crossbar::Crossbar xbar(cfg);
  xbar.write_bit(0, 0, true);
  xbar.write_bit(0, 1, false);
  const std::size_t ins[] = {0, 1};
  for (auto _ : state) {
    xbar.write_bit(0, 2, true);
    xbar.magic_nor(0, ins, 2);
    benchmark::DoNotOptimize(xbar.stats().logic_ops);
  }
}
BENCHMARK(BM_MagicNor);

void BM_MarchCstar(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  crossbar::CrossbarConfig cfg;
  cfg.rows = cfg.cols = n;
  cfg.tech = device::Technology::kSttMram;
  cfg.levels = 2;
  cfg.seed = 7;
  for (auto _ : state) {
    crossbar::Crossbar xbar(cfg);
    benchmark::DoNotOptimize(memtest::run_march(xbar, memtest::march_cstar()));
  }
}
BENCHMARK(BM_MarchCstar)->Arg(16)->Arg(32);

void BM_XnorPopcount(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(9);
  nn::BitVector a(n), b(n);
  for (std::size_t i = 0; i < n; ++i) {
    a.set(i, rng.bernoulli(0.5));
    b.set(i, rng.bernoulli(0.5));
  }
  for (auto _ : state) benchmark::DoNotOptimize(nn::xnor_popcount(a, b));
}
BENCHMARK(BM_XnorPopcount)->Arg(64)->Arg(1024);

void BM_FerfetBnnLayer(benchmark::State& state) {
  util::Rng rng(11);
  util::Matrix w(32, 64);
  for (auto& v : w.flat()) v = rng.normal(0.0, 1.0);
  ferfet::FerfetBnnEngine engine(w);
  std::vector<bool> x(64);
  for (std::size_t i = 0; i < 64; ++i) x[i] = rng.bernoulli(0.5);
  for (auto _ : state) benchmark::DoNotOptimize(engine.forward(x));
}
BENCHMARK(BM_FerfetBnnLayer);

void BM_SynthesisAndMagicMapping(benchmark::State& state) {
  const auto nl = eda::ripple_carry_adder(4);
  for (auto _ : state) {
    const auto rep = eda::run_flow("rca4", nl, eda::LogicFamily::kMagic,
                                   {.reuse_cells = true, .verify = false});
    benchmark::DoNotOptimize(rep.devices);
  }
}
BENCHMARK(BM_SynthesisAndMagicMapping);

// --- dispatched-ISA sweep (default mode) ------------------------------------

std::vector<double> bench_vec(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<double> v(n);
  for (auto& x : v) x = rng.uniform(-1.0, 1.0);
  return v;
}

double checksum_sink = 0.0;  // defeats dead-code elimination across reps

/// Times `reps` invocations of `body` and returns seconds per rep.
template <typename F>
double time_reps(int reps, F&& body) {
  bench::WallTimer t;
  for (int i = 0; i < reps; ++i) body();
  return t.elapsed_ms() / 1e3 / static_cast<double>(reps);
}

struct KernelResult {
  std::string kernel;  // "dot" / "axpy" / "gemm" / "vmm"
  std::size_t n;       // problem size (elements or MACs)
  double bytes;        // bytes touched per invocation
  // seconds/rep, indexed like supported_isas()
  std::vector<double> sec;
};

/// One sweep entry: run every supported table on identical inputs.
void sweep_kernel(std::vector<KernelResult>& out, const std::string& name,
                  std::size_t n, double bytes, int reps,
                  const std::vector<util::simd::Isa>& isas,
                  const std::function<void(const util::simd::KernelTable&)>&
                      run) {
  KernelResult res{name, n, bytes, {}};
  for (const auto isa : isas) {
    const auto& table = util::simd::table_for(isa);
    run(table);  // warm-up: faults the working set, primes branch history
    res.sec.push_back(time_reps(reps, [&] { run(table); }));
  }
  out.push_back(std::move(res));
}

int run_isa_sweep() {
  const auto isas = util::simd::supported_isas();
  bench::WallTimer total;
  std::vector<KernelResult> results;

  // Vector kernels at L1/L2-resident sizes; the largest size of each
  // kernel feeds the per-variant speedup extras below.
  for (const std::size_t n : {256u, 1024u, 4096u}) {
    const auto a = bench_vec(n, 2 * n + 1);
    const auto b = bench_vec(n, 3 * n + 7);
    const int reps = static_cast<int>(4u * 1024u * 1024u / n);

    sweep_kernel(results, "dot", n, 16.0 * static_cast<double>(n), reps, isas,
                 [&](const util::simd::KernelTable& t) {
                   checksum_sink += t.dot(a.data(), b.data(), n);
                 });

    auto y = bench_vec(n, 5 * n + 3);
    sweep_kernel(results, "axpy", n, 24.0 * static_cast<double>(n), reps, isas,
                 [&](const util::simd::KernelTable& t) {
                   t.axpy(1.0000001, a.data(), y.data(), n);
                   checksum_sink += y[n / 2];
                 });
  }

  // Whole-array crossbar VMM with read-noise variance (the tier-0 read),
  // at the serve tile shape and two square arrays; one wordline in four
  // is off, as in bit-serial inputs. n counts the array's cells.
  {
    struct Shape {
      std::size_t rows, cols;
      int reps;
    };
    for (const Shape s :
         {Shape{64, 64, 4096}, Shape{128, 128, 1024}, Shape{256, 256, 256}}) {
      auto g = bench_vec(s.rows * s.cols, 7 * s.cols + 9);
      for (auto& x : g) x = x < 0 ? -x : x;  // conductances are non-negative
      auto v = bench_vec(s.rows, 11);
      for (std::size_t r = 0; r < s.rows; r += 4) v[r] = 0.0;
      auto currents = std::vector<double>(s.cols, 0.0);
      auto noise = std::vector<double>(s.cols, 0.0);
      const std::size_t cells = s.rows * s.cols;
      sweep_kernel(results, "vmm", cells, 8.0 * static_cast<double>(cells),
                   s.reps, isas, [&, s](const util::simd::KernelTable& t) {
                     t.vmm(v.data(), g.data(), s.rows, s.cols,
                           currents.data(), noise.data(), 0.01);
                     checksum_sink += currents[s.cols / 2] + noise[0];
                   });
    }
  }

  // Blocked GEMM: an L1-resident panel (the repo's small-layer nn shapes)
  // and a larger one crossing the kernel's kKc=64 / kNc=256 blocking.
  {
    struct Shape {
      std::size_t m, k, n;
      int reps;
    };
    for (const Shape s : {Shape{128, 64, 64, 32}, Shape{64, 128, 256, 8}}) {
      const auto a = bench_vec(s.m * s.k, 17);
      const auto b = bench_vec(s.k * s.n, 19);
      auto c = std::vector<double>(s.m * s.n, 0.0);
      const double macs = static_cast<double>(s.m * s.k * s.n);
      sweep_kernel(results, "gemm", s.m * s.k * s.n, 24.0 * macs, s.reps,
                   isas, [&, s](const util::simd::KernelTable& t) {
                     t.gemm_accumulate(a.data(), s.k, b.data(), s.n, c.data(),
                                       s.n, s.m, s.k, s.n);
                     checksum_sink += c[s.m * s.n / 2];
                   });
    }
  }

  // Human-readable report.
  {
    std::vector<std::string> headers = {"kernel", "n"};
    for (const auto isa : isas)
      headers.push_back(std::string(util::simd::isa_name(isa)) + " GB/s");
    for (std::size_t i = 1; i < isas.size(); ++i)
      headers.push_back(std::string("speedup ") +
                        util::simd::isa_name(isas[i]));
    util::Table t(headers);
    t.set_title("util::kernels dispatched-ISA throughput (vs scalar table)");
    for (const auto& r : results) {
      std::vector<std::string> row = {r.kernel, std::to_string(r.n)};
      for (const double s : r.sec)
        row.push_back(util::Table::num(r.bytes / s / 1e9, 2));
      for (std::size_t i = 1; i < r.sec.size(); ++i)
        row.push_back(util::Table::num(r.sec[0] / r.sec[i], 2));
      t.add_row(row);
    }
    t.print(std::cout);
  }

  // Host samplers on the simulator's hot paths, next to the kernels above:
  // the tier-0 read-noise loop (one normal per column, scaled by the
  // column's noise std, as in Crossbar::vmm) over a 128-column array, and
  // the per-write lognormal programming spread. Neither is dispatched, so
  // one figure covers every table.
  const auto ns_per_draw = [](std::size_t draws, int reps, auto&& body) {
    body();  // warm-up
    return time_reps(reps, body) * 1e9 / static_cast<double>(draws);
  };
  constexpr std::size_t kCols = 128;
  util::Rng rng(13);
  std::vector<double> col_std(kCols), col_out(kCols, 0.0);
  for (std::size_t c = 0; c < kCols; ++c)
    col_std[c] = 1e-3 * static_cast<double>(1 + c % 7);
  const double normal_ns = ns_per_draw(kCols, 8192, [&] {
    for (std::size_t c = 0; c < kCols; ++c)
      col_out[c] += rng.normal(0.0, col_std[c]);
    checksum_sink += col_out[kCols / 2];
  });
  const double lognormal_ns = ns_per_draw(kCols, 8192, [&] {
    for (std::size_t c = 0; c < kCols; ++c)
      col_out[c] = rng.lognormal(0.0, 0.05);
    checksum_sink += col_out[kCols / 2];
  });
  {
    // The 128x128 vmm on the best table, for scale: one tier-0 read of a
    // 128-column array is this call plus 128 normal draws.
    double vmm128_us = 0.0;
    for (const auto& r : results)
      if (r.kernel == "vmm" && r.n == 128 * 128)
        vmm128_us = r.sec.back() * 1e6;
    util::Table t({"per 128-column read", "ns/draw", "us"});
    t.set_title("util::Rng samplers next to the vmm kernel");
    t.add_row({"normal (read noise)", util::Table::num(normal_ns, 2),
               util::Table::num(normal_ns * kCols / 1e3, 3)});
    t.add_row({"lognormal (write spread)", util::Table::num(lognormal_ns, 2),
               util::Table::num(lognormal_ns * kCols / 1e3, 3)});
    t.add_row({std::string("vmm 128x128 (") +
                   util::simd::isa_name(isas.back()) + ")",
               "-", util::Table::num(vmm128_us, 3)});
    t.print(std::cout);
  }

  // BENCH_JSON extras: per-kernel GB/s for every variant plus speedup vs
  // scalar, taken at each kernel's peak-speedup size across the sweep
  // (the table above records every size).
  const auto best_speedup = [](const KernelResult& r) {
    double s = 0.0;
    for (std::size_t i = 1; i < r.sec.size(); ++i)
      s = std::max(s, r.sec[0] / r.sec[i]);
    return s;
  };
  std::vector<std::pair<std::string, double>> extras;
  double ops = 0.0;
  for (const auto& r : results) ops += static_cast<double>(r.n);
  for (const std::string kernel : {"dot", "axpy", "vmm", "gemm"}) {
    const KernelResult* best = nullptr;
    for (const auto& r : results)
      if (r.kernel == kernel &&
          (best == nullptr || best_speedup(r) > best_speedup(*best)))
        best = &r;
    if (best == nullptr) continue;
    for (std::size_t i = 0; i < isas.size(); ++i) {
      const std::string isa = util::simd::isa_name(isas[i]);
      extras.emplace_back(kernel + "_gbs_" + isa,
                          best->bytes / best->sec[i] / 1e9);
      if (i > 0)
        extras.emplace_back(kernel + "_speedup_" + isa,
                            best->sec[0] / best->sec[i]);
    }
  }

  extras.emplace_back("normal_ns_per_draw", normal_ns);
  extras.emplace_back("lognormal_ns_per_draw", lognormal_ns);

  obs::emit_bench_json("bench_micro_kernels", total.elapsed_ms(), ops, extras);
  return checksum_sink == 12345.6789 ? 1 : 0;  // keep the sink observable
}

}  // namespace

int main(int argc, char** argv) {
  bool gbench = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    if (arg == "--gbench" || arg.rfind("--benchmark", 0) == 0) gbench = true;
  }
  if (gbench) {
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
  }
  return run_isa_sweep();
}
