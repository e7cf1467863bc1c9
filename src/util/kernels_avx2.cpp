/// \file kernels_avx2.cpp
/// \brief AVX2+FMA kernel variants (256-bit lanes).
///
/// Compiled with -mavx2 -mfma -ffp-contract=off (src/util/CMakeLists.txt):
/// contraction is disabled so the element-wise kernels (axpy, gemm's inner
/// axpy, vmm's currents/noise_var updates) keep the separate
/// multiply-then-add rounding of the scalar baseline and stay bit-identical
/// to it. FMA is used only where the contract already permits
/// reassociation: the dot reduction.
#include "util/kernels_impl.hpp"

#if CIM_SIMD_X86 && defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include <algorithm>

namespace cim::util::kernels::detail {

double dot_avx2(const double* a, const double* b, std::size_t n) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  __m256d acc2 = _mm256_setzero_pd();
  __m256d acc3 = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i),
                           acc0);
    acc1 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i + 4),
                           _mm256_loadu_pd(b + i + 4), acc1);
    acc2 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i + 8),
                           _mm256_loadu_pd(b + i + 8), acc2);
    acc3 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i + 12),
                           _mm256_loadu_pd(b + i + 12), acc3);
  }
  for (; i + 4 <= n; i += 4)
    acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i),
                           acc0);
  const __m256d sum =
      _mm256_add_pd(_mm256_add_pd(acc0, acc1), _mm256_add_pd(acc2, acc3));
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, sum);
  double r = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
  for (; i < n; ++i) r += a[i] * b[i];
  return r;
}

void axpy_avx2(double a, const double* x, double* y, std::size_t n) {
  const __m256d va = _mm256_set1_pd(a);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256d y0 = _mm256_add_pd(
        _mm256_loadu_pd(y + i), _mm256_mul_pd(va, _mm256_loadu_pd(x + i)));
    const __m256d y1 =
        _mm256_add_pd(_mm256_loadu_pd(y + i + 4),
                      _mm256_mul_pd(va, _mm256_loadu_pd(x + i + 4)));
    _mm256_storeu_pd(y + i, y0);
    _mm256_storeu_pd(y + i + 4, y1);
  }
  for (; i + 4 <= n; i += 4) {
    const __m256d y0 = _mm256_add_pd(
        _mm256_loadu_pd(y + i), _mm256_mul_pd(va, _mm256_loadu_pd(x + i)));
    _mm256_storeu_pd(y + i, y0);
  }
  for (; i < n; ++i) y[i] += a * x[i];
}

namespace {

// One register block of kNv vectors (4 columns each) starting at column
// c0: currents (and noise variance) stay in ymm registers while the listed
// rows stream past in row order. Each lane does the scalar kernel's
// separate mul-then-add per row, so the block is bit-identical to it.
// `tail` masks the last vector (all lanes set when full); masked-off lanes
// load as zero and are never stored.
template <int kNv, bool kNoise>
void vmm_block(const double* v, const std::uint32_t* active, std::size_t n,
               const double* g, std::size_t cols, std::size_t c0,
               __m256i tail, __m256d nf, double* currents,
               double* noise_var) {
  const __m256i all = _mm256_set1_epi64x(-1);
  const auto mask = [&](int j) { return j == kNv - 1 ? tail : all; };
  __m256d cur[kNv], var[kNv];
#pragma GCC unroll 4
  for (int j = 0; j < kNv; ++j) {
    cur[j] = _mm256_maskload_pd(currents + c0 + 4 * j, mask(j));
    if constexpr (kNoise)
      var[j] = _mm256_maskload_pd(noise_var + c0 + 4 * j, mask(j));
  }
  for (std::size_t k = 0; k < n; ++k) {
    const __m256d vr = _mm256_set1_pd(v[active[k]]);
    const double* gr = g + active[k] * cols + c0;
#pragma GCC unroll 4
    for (int j = 0; j < kNv; ++j) {
      const __m256d i =
          _mm256_mul_pd(vr, _mm256_maskload_pd(gr + 4 * j, mask(j)));
      cur[j] = _mm256_add_pd(cur[j], i);
      if constexpr (kNoise) {
        const __m256d cell_noise = _mm256_mul_pd(nf, i);
        var[j] = _mm256_add_pd(var[j], _mm256_mul_pd(cell_noise, cell_noise));
      }
    }
  }
#pragma GCC unroll 4
  for (int j = 0; j < kNv; ++j) {
    _mm256_maskstore_pd(currents + c0 + 4 * j, mask(j), cur[j]);
    if constexpr (kNoise)
      _mm256_maskstore_pd(noise_var + c0 + 4 * j, mask(j), var[j]);
  }
}

template <bool kNoise>
void vmm_impl(const double* v, const double* g, std::size_t rows,
              std::size_t cols, double* currents, double* noise_var,
              double noise_frac) {
  const __m256d nf = _mm256_set1_pd(noise_frac);
  const __m256i full = _mm256_set1_epi64x(-1);
  std::uint32_t active[kVmmRowChunk];
  for (std::size_t r0 = 0; r0 < rows; r0 += kVmmRowChunk) {
    const std::size_t n = list_active_rows(v, r0, rows, active);
    if (n == 0) continue;
    std::size_t c0 = 0;
    for (; c0 + 16 <= cols; c0 += 16)
      vmm_block<4, kNoise>(v, active, n, g, cols, c0, full, nf, currents,
                           noise_var);
    const std::size_t rest = cols - c0;  // < 16 columns: 0-4 vectors
    const auto lanes = static_cast<long long>(rest % 4 == 0 ? 4 : rest % 4);
    // Lane l is live when l < lanes (maskload reads the sign bit).
    const __m256i tail = _mm256_cmpgt_epi64(_mm256_set1_epi64x(lanes),
                                            _mm256_set_epi64x(3, 2, 1, 0));
    switch ((rest + 3) / 4) {
      case 1:
        vmm_block<1, kNoise>(v, active, n, g, cols, c0, tail, nf, currents,
                             noise_var);
        break;
      case 2:
        vmm_block<2, kNoise>(v, active, n, g, cols, c0, tail, nf, currents,
                             noise_var);
        break;
      case 3:
        vmm_block<3, kNoise>(v, active, n, g, cols, c0, tail, nf, currents,
                             noise_var);
        break;
      case 4:
        vmm_block<4, kNoise>(v, active, n, g, cols, c0, tail, nf, currents,
                             noise_var);
        break;
      default:
        break;
    }
  }
}

}  // namespace

void vmm_avx2(const double* v, const double* g, std::size_t rows,
              std::size_t cols, double* currents, double* noise_var,
              double noise_frac) {
  std::fill(currents, currents + cols, 0.0);
  if (noise_var == nullptr)
    return vmm_impl<false>(v, g, rows, cols, currents, nullptr, noise_frac);
  std::fill(noise_var, noise_var + cols, 0.0);
  vmm_impl<true>(v, g, rows, cols, currents, noise_var, noise_frac);
}

namespace {
// Identical blocking to the scalar gemm (kernels_scalar.cpp): only the
// inner axpy is widened, so C accumulates in the same k-order with the
// same per-element rounding — bit-identical across tables.
constexpr std::size_t kKc = 64;
constexpr std::size_t kNc = 256;
}  // namespace

void gemm_accumulate_avx2(const double* a, std::size_t lda, const double* b,
                          std::size_t ldb, double* c, std::size_t ldc,
                          std::size_t m, std::size_t k, std::size_t n) {
  for (std::size_t k0 = 0; k0 < k; k0 += kKc) {
    const std::size_t k1 = std::min(k, k0 + kKc);
    for (std::size_t n0 = 0; n0 < n; n0 += kNc) {
      const std::size_t n1 = std::min(n, n0 + kNc);
      const std::size_t nb = n1 - n0;
      for (std::size_t r = 0; r < m; ++r) {
        const double* a_row = a + r * lda;
        double* c_row = c + r * ldc + n0;
        for (std::size_t kk = k0; kk < k1; ++kk) {
          const double av = a_row[kk];
          if (av == 0.0) continue;
          axpy_avx2(av, b + kk * ldb + n0, c_row, nb);
        }
      }
    }
  }
}

}  // namespace cim::util::kernels::detail

#endif  // CIM_SIMD_X86 && __AVX2__ && __FMA__
