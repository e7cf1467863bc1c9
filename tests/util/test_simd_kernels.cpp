// Cross-ISA conformance of the dispatched micro-kernels (ISSUE 7).
//
// Sweeps every kernel over every table this host can execute (scalar is
// always present; avx2/avx512 when built + CPUID-supported) at edge sizes
// (0, 1, 3, 5, odd vector tails) and deliberately misaligned buffers, and
// checks the simd_dispatch contract:
//   - axpy / gemm_accumulate / vmm{currents,noise_var} are BIT-IDENTICAL to
//     the portable scalar table, and vmm to a row-by-row mul-then-add sweep,
//   - dot is a reduction: deterministic per table, only tolerance-equal
//     across tables,
//   - dot_serial is the strict left-to-right escape hatch,
//   - set_isa / table_for clamp unsupported requests downward.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/kernels.hpp"
#include "util/simd_dispatch.hpp"

namespace simd = cim::util::simd;
namespace kernels = cim::util::kernels;

namespace {

// Restores the startup-selected table when a test forces another one.
class IsaGuard {
 public:
  IsaGuard() : saved_(simd::active_isa()) {}
  ~IsaGuard() { simd::set_isa(saved_); }

 private:
  simd::Isa saved_;
};

// Deterministic non-trivial doubles (mixed signs and magnitudes) so lane
// reductions and tails cannot cancel to an accidental match.
double pattern(std::uint64_t i, std::uint64_t salt) {
  std::uint64_t x = (i + 1) * 0x9e3779b97f4a7c15ULL + salt;
  x ^= x >> 29;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 32;
  const double mag = static_cast<double>(x % 10000) / 977.0;
  return ((x >> 13) & 1) != 0 ? -mag : mag;
}

std::vector<double> make_vec(std::size_t n, std::uint64_t salt,
                             std::size_t pad = 0) {
  std::vector<double> v(n + pad);
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = pattern(i, salt);
  return v;
}

const std::size_t kSizes[] = {0,  1,  2,  3,  5,  7,  8,   9,  15,
                              16, 17, 31, 32, 33, 63, 64,  65, 100,
                              127, 257};

// Offsets into an over-allocated buffer: 0 keeps malloc's 16-byte
// alignment, 1..3 guarantee the data pointer is NOT 32/64-byte aligned.
const std::size_t kOffsets[] = {0, 1, 2, 3};

}  // namespace

TEST(SimdDispatch, SupportedIsasContainsScalarAndIsOrdered) {
  const auto isas = simd::supported_isas();
  ASSERT_FALSE(isas.empty());
  EXPECT_EQ(isas.front(), simd::Isa::kScalar);
  for (std::size_t i = 1; i < isas.size(); ++i)
    EXPECT_LT(static_cast<int>(isas[i - 1]), static_cast<int>(isas[i]));
  EXPECT_EQ(isas.back(), simd::max_supported_isa());
}

TEST(SimdDispatch, TableForClampsToSupported) {
  const simd::Isa max = simd::max_supported_isa();
  for (simd::Isa req :
       {simd::Isa::kScalar, simd::Isa::kAvx2, simd::Isa::kAvx512}) {
    const auto& t = simd::table_for(req);
    ASSERT_NE(t.dot, nullptr);
    ASSERT_NE(t.axpy, nullptr);
    ASSERT_NE(t.gemm_accumulate, nullptr);
    ASSERT_NE(t.vmm, nullptr);
    EXPECT_LE(static_cast<int>(t.isa), static_cast<int>(max));
    if (static_cast<int>(req) <= static_cast<int>(max)) {
      EXPECT_EQ(t.isa, req);  // supported requests are honoured exactly
    }
  }
}

TEST(SimdDispatch, SetIsaClampsAndActivates) {
  IsaGuard guard;
  const simd::Isa max = simd::max_supported_isa();
  const simd::Isa got = simd::set_isa(simd::Isa::kAvx512);
  EXPECT_LE(static_cast<int>(got), static_cast<int>(max));
  EXPECT_EQ(simd::active_isa(), got);
  EXPECT_EQ(simd::active().isa, got);

  EXPECT_EQ(simd::set_isa(simd::Isa::kScalar), simd::Isa::kScalar);
  EXPECT_EQ(simd::active_isa(), simd::Isa::kScalar);
  EXPECT_STREQ(simd::active_isa_name(), "scalar");
}

TEST(SimdKernels, DotMatchesScalarWithinUlps) {
  const auto& scalar = simd::table_for(simd::Isa::kScalar);
  for (simd::Isa isa : simd::supported_isas()) {
    const auto& t = simd::table_for(isa);
    for (std::size_t n : kSizes) {
      for (std::size_t off : kOffsets) {
        const auto a = make_vec(n, 11, off);
        const auto b = make_vec(n, 23, off);
        const double ref = scalar.dot(a.data() + off, b.data() + off, n);
        const double got = t.dot(a.data() + off, b.data() + off, n);
        // Reduction: reassociation drift only. Scale tolerance with the
        // sum of |a_i b_i| so cancellation-heavy inputs stay testable.
        double scale = 1.0;
        for (std::size_t i = 0; i < n; ++i)
          scale += std::abs(a[off + i] * b[off + i]);
        EXPECT_NEAR(got, ref, 1e-12 * scale)
            << "isa=" << simd::isa_name(isa) << " n=" << n << " off=" << off;
        // Deterministic per table: the same call is bit-identical.
        EXPECT_EQ(got, t.dot(a.data() + off, b.data() + off, n));
      }
    }
  }
}

TEST(SimdKernels, Avx512DotBitsArePinned) {
  // The AVX-512 horizontal sum is written out by hand in the order of
  // _mm512_reduce_add_pd; these are the bits the intrinsic returned.
  if (simd::max_supported_isa() < simd::Isa::kAvx512)
    GTEST_SKIP() << "AVX-512 table not available on this host";
  const auto& t = simd::table_for(simd::Isa::kAvx512);
  const std::pair<std::size_t, std::uint64_t> pinned[] = {
      {8, 0x401248f6f17d6620ULL},   {9, 0xc04a8dcc61f45a77ULL},
      {31, 0xc06e301d4dd77cf2ULL},  {32, 0xc06cd8fad175b7d5ULL},
      {33, 0xc06c8db6d2f447b9ULL},  {40, 0xc06a682f3e3c01f2ULL},
      {64, 0xc0570e6c7569134cULL},  {100, 0xc06581e3a2992f17ULL},
      {257, 0xc07ab588dafb7cb1ULL}};
  for (const auto& [n, bits] : pinned) {
    const auto a = make_vec(n, 11);
    const auto b = make_vec(n, 23);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(t.dot(a.data(), b.data(), n)), bits)
        << "n=" << n;
  }
}

TEST(SimdKernels, DotSerialIsStrictLeftToRight) {
  for (std::size_t n : kSizes) {
    const auto a = make_vec(n, 31);
    const auto b = make_vec(n, 47);
    double ref = 0.0;
    for (std::size_t i = 0; i < n; ++i) ref += a[i] * b[i];
    EXPECT_EQ(kernels::dot_serial(a.data(), b.data(), n), ref) << "n=" << n;
  }
}

TEST(SimdKernels, AxpyBitIdenticalAcrossIsas) {
  const auto& scalar = simd::table_for(simd::Isa::kScalar);
  for (simd::Isa isa : simd::supported_isas()) {
    const auto& t = simd::table_for(isa);
    for (std::size_t n : kSizes) {
      for (std::size_t off : kOffsets) {
        const auto x = make_vec(n, 5, off);
        auto y_ref = make_vec(n, 71, off);
        auto y_got = y_ref;
        const double a = pattern(n, 99);
        scalar.axpy(a, x.data() + off, y_ref.data() + off, n);
        t.axpy(a, x.data() + off, y_got.data() + off, n);
        for (std::size_t i = 0; i < y_ref.size(); ++i)
          ASSERT_EQ(y_got[i], y_ref[i])
              << "isa=" << simd::isa_name(isa) << " n=" << n << " off=" << off
              << " i=" << i;
      }
    }
  }
}

TEST(SimdKernels, GemmAccumulateBitIdenticalAcrossIsas) {
  const auto& scalar = simd::table_for(simd::Isa::kScalar);
  struct Shape {
    std::size_t m, k, n;
  };
  // Edge shapes: empty dims, single elements, odd tails, and sizes that
  // cross the kernel's kKc=64 / kNc=256 blocking boundaries.
  const Shape shapes[] = {{0, 3, 3}, {3, 0, 3}, {3, 3, 0}, {1, 1, 1},
                          {1, 5, 3}, {3, 5, 1}, {5, 7, 9}, {4, 65, 17},
                          {2, 130, 300}, {3, 64, 256}};
  for (simd::Isa isa : simd::supported_isas()) {
    const auto& t = simd::table_for(isa);
    for (const auto& s : shapes) {
      // Strides larger than the row length exercise the lda/ldb/ldc paths.
      const std::size_t lda = s.k + 3, ldb = s.n + 2, ldc = s.n + 5;
      auto a = make_vec(s.m * lda, 7);
      const auto b = make_vec(s.k * ldb, 13);
      // Plant some exact zeros in A: the kernel skips av == 0 entries and
      // that branch must not perturb bit-exactness.
      for (std::size_t i = 0; i < s.m * lda; i += 7) a[i] = 0.0;
      auto c_ref = make_vec(s.m * ldc, 17);
      auto c_got = c_ref;
      scalar.gemm_accumulate(a.data(), lda, b.data(), ldb, c_ref.data(), ldc,
                             s.m, s.k, s.n);
      t.gemm_accumulate(a.data(), lda, b.data(), ldb, c_got.data(), ldc, s.m,
                        s.k, s.n);
      for (std::size_t i = 0; i < c_ref.size(); ++i)
        ASSERT_EQ(c_got[i], c_ref[i])
            << "isa=" << simd::isa_name(isa) << " m=" << s.m << " k=" << s.k
            << " n=" << s.n << " i=" << i;
    }
  }
}

TEST(SimdKernels, VmmBitIdenticalAcrossIsas) {
  const auto& scalar = simd::table_for(simd::Isa::kScalar);
  const double noise_frac = 0.02;
  // Column counts around every table's register block and vector width;
  // row counts include one past the kernel's 1024-row pass.
  const std::size_t kCols[] = {1, 7, 8, 9, 31, 32, 33, 130};
  const std::size_t kRows[] = {1, 5, 64, 1030};
  for (simd::Isa isa : simd::supported_isas()) {
    const auto& t = simd::table_for(isa);
    for (std::size_t rows : kRows) {
      for (std::size_t cols : kCols) {
        for (std::size_t off : kOffsets) {
          // Conductances are non-negative in the crossbar; voltages mix
          // exact zeros (skipped rows), negatives and non-binary values.
          auto g = make_vec(rows * cols, 41 + cols, off);
          for (auto& x : g) x = std::abs(x);
          auto v = make_vec(rows, 53 + rows);
          for (std::size_t r = 0; r < rows; r += 3) v[r] = 0.0;
          const double* gp = g.data() + off;

          // Row-by-row reference: the historical per-row update.
          std::vector<double> cur_ref(cols, 0.0), var_ref(cols, 0.0);
          for (std::size_t r = 0; r < rows; ++r) {
            if (v[r] == 0.0) continue;
            for (std::size_t c = 0; c < cols; ++c) {
              const double i = v[r] * gp[r * cols + c];
              cur_ref[c] += i;
              const double cell_noise = noise_frac * i;
              var_ref[c] += cell_noise * cell_noise;
            }
          }

          // Outputs are overwritten, never accumulated into.
          auto cur = make_vec(cols, 61, off);
          auto var = make_vec(cols, 67, off);
          t.vmm(v.data(), gp, rows, cols, cur.data() + off, var.data() + off,
                noise_frac);
          auto plain = make_vec(cols, 71, off);
          t.vmm(v.data(), gp, rows, cols, plain.data() + off, nullptr,
                noise_frac);
          auto cur_s = make_vec(cols, 73);
          auto var_s = make_vec(cols, 79);
          scalar.vmm(v.data(), gp, rows, cols, cur_s.data(), var_s.data(),
                     noise_frac);
          for (std::size_t c = 0; c < cols; ++c) {
            ASSERT_EQ(cur[off + c], cur_ref[c])
                << "currents isa=" << simd::isa_name(isa) << " rows=" << rows
                << " cols=" << cols << " off=" << off << " c=" << c;
            ASSERT_EQ(var[off + c], var_ref[c])
                << "noise_var isa=" << simd::isa_name(isa) << " rows=" << rows
                << " cols=" << cols << " off=" << off << " c=" << c;
            ASSERT_EQ(plain[off + c], cur_ref[c])
                << "noise-free isa=" << simd::isa_name(isa);
            ASSERT_EQ(cur[off + c], cur_s[c]);
            ASSERT_EQ(var[off + c], var_s[c]);
          }
          // Nothing before the output window is touched.
          for (std::size_t k = 0; k < off; ++k) {
            ASSERT_EQ(cur[k], pattern(k, 61));
            ASSERT_EQ(var[k], pattern(k, 67));
          }
        }
      }
    }
  }
}

TEST(SimdKernels, VmmWithNoActiveRowsWritesZeros) {
  // All-zero wordlines (and zero rows) must still clear both outputs.
  const std::size_t cols = 33;
  const auto g = make_vec(4 * cols, 5);
  const std::vector<double> v(4, 0.0);
  for (simd::Isa isa : simd::supported_isas()) {
    const auto& t = simd::table_for(isa);
    for (const std::size_t rows : {std::size_t{0}, std::size_t{4}}) {
      auto cur = make_vec(cols, 7);
      auto var = make_vec(cols, 9);
      t.vmm(v.data(), g.data(), rows, cols, cur.data(), var.data(), 0.02);
      for (std::size_t c = 0; c < cols; ++c) {
        ASSERT_EQ(cur[c], 0.0) << simd::isa_name(isa) << " rows=" << rows;
        ASSERT_EQ(var[c], 0.0) << simd::isa_name(isa) << " rows=" << rows;
        ASSERT_FALSE(std::signbit(cur[c]));
      }
    }
  }
}

TEST(SimdKernels, DispatchedWrappersFollowActiveTable) {
  IsaGuard guard;
  const std::size_t n = 33;
  const auto a = make_vec(n, 3);
  const auto b = make_vec(n, 9);
  for (simd::Isa isa : simd::supported_isas()) {
    simd::set_isa(isa);
    const auto& t = simd::table_for(isa);
    EXPECT_EQ(kernels::dot(a.data(), b.data(), n),
              t.dot(a.data(), b.data(), n));
    auto y_wrap = make_vec(n, 77);
    auto y_tab = y_wrap;
    kernels::axpy(2.5, a.data(), y_wrap.data(), n);
    t.axpy(2.5, a.data(), y_tab.data(), n);
    for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(y_wrap[i], y_tab[i]);
    // a as 3 wordlines over a 3 x 11 slice of b.
    std::vector<double> i_wrap(11), i_tab(11);
    kernels::vmm(a.data(), b.data(), 3, 11, i_wrap.data(), nullptr, 0.0);
    t.vmm(a.data(), b.data(), 3, 11, i_tab.data(), nullptr, 0.0);
    for (std::size_t i = 0; i < 11; ++i) ASSERT_EQ(i_wrap[i], i_tab[i]);
  }
}
