/// \file kernels_avx512.cpp
/// \brief AVX-512 F/DQ/VL kernel variants (512-bit lanes).
///
/// Compiled with -mavx512f -mavx512dq -mavx512vl -mfma -ffp-contract=off
/// (src/util/CMakeLists.txt). Same contract split as the AVX2 TU: the
/// element-wise kernels (axpy, gemm's inner axpy, vmm) use separate
/// multiply and add so they stay bit-identical to the scalar baseline;
/// only the dot reduction uses FMA.
#include "util/kernels_impl.hpp"

#if CIM_SIMD_X86 && defined(__AVX512F__) && defined(__AVX512DQ__) && \
    defined(__AVX512VL__)

#include <immintrin.h>

#include <algorithm>

namespace cim::util::kernels::detail {

double dot_avx512(const double* a, const double* b, std::size_t n) {
  __m512d acc0 = _mm512_setzero_pd();
  __m512d acc1 = _mm512_setzero_pd();
  __m512d acc2 = _mm512_setzero_pd();
  __m512d acc3 = _mm512_setzero_pd();
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    acc0 = _mm512_fmadd_pd(_mm512_loadu_pd(a + i), _mm512_loadu_pd(b + i),
                           acc0);
    acc1 = _mm512_fmadd_pd(_mm512_loadu_pd(a + i + 8),
                           _mm512_loadu_pd(b + i + 8), acc1);
    acc2 = _mm512_fmadd_pd(_mm512_loadu_pd(a + i + 16),
                           _mm512_loadu_pd(b + i + 16), acc2);
    acc3 = _mm512_fmadd_pd(_mm512_loadu_pd(a + i + 24),
                           _mm512_loadu_pd(b + i + 24), acc3);
  }
  for (; i + 8 <= n; i += 8)
    acc0 = _mm512_fmadd_pd(_mm512_loadu_pd(a + i), _mm512_loadu_pd(b + i),
                           acc0);
  const __m512d sum =
      _mm512_add_pd(_mm512_add_pd(acc0, acc1), _mm512_add_pd(acc2, acc3));
  // _mm512_reduce_add_pd's halving order (256-bit halves, 128-bit halves,
  // then the two lanes), written out: in GCC 12 the intrinsic, the plain
  // 256-bit extract and _mm512_castpd512_pd256 all pass an uninitialized
  // vector as the merge source and trip -Wuninitialized. The zero-masked
  // extract with a full mask has a defined merge source and the same value.
  const __m256d s4 = _mm256_add_pd(_mm512_maskz_extractf64x4_pd(0xF, sum, 1),
                                   _mm512_maskz_extractf64x4_pd(0xF, sum, 0));
  const __m128d s2 = _mm_add_pd(_mm256_extractf128_pd(s4, 1),
                                _mm256_castpd256_pd128(s4));
  double r = _mm_cvtsd_f64(s2) + _mm_cvtsd_f64(_mm_unpackhi_pd(s2, s2));
  for (; i < n; ++i) r += a[i] * b[i];
  return r;
}

void axpy_avx512(double a, const double* x, double* y, std::size_t n) {
  const __m512d va = _mm512_set1_pd(a);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512d y0 = _mm512_add_pd(
        _mm512_loadu_pd(y + i), _mm512_mul_pd(va, _mm512_loadu_pd(x + i)));
    const __m512d y1 =
        _mm512_add_pd(_mm512_loadu_pd(y + i + 8),
                      _mm512_mul_pd(va, _mm512_loadu_pd(x + i + 8)));
    _mm512_storeu_pd(y + i, y0);
    _mm512_storeu_pd(y + i + 8, y1);
  }
  for (; i + 8 <= n; i += 8) {
    const __m512d y0 = _mm512_add_pd(
        _mm512_loadu_pd(y + i), _mm512_mul_pd(va, _mm512_loadu_pd(x + i)));
    _mm512_storeu_pd(y + i, y0);
  }
  for (; i < n; ++i) y[i] += a * x[i];
}

namespace {

// One register block of kNv vectors (8 columns each) starting at column
// c0: currents (and noise variance) stay in zmm registers while the listed
// rows stream past in row order. Each lane does the scalar kernel's
// separate mul-then-add per row, so the block is bit-identical to it.
// `tail` masks the last vector (0xFF when full); masked-off lanes load as
// zero and are never stored.
template <int kNv, bool kNoise>
void vmm_block(const double* v, const std::uint32_t* active, std::size_t n,
               const double* g, std::size_t cols, std::size_t c0,
               __mmask8 tail, __m512d nf, double* currents,
               double* noise_var) {
  const auto mask = [tail](int j) {
    return j == kNv - 1 ? tail : static_cast<__mmask8>(0xFF);
  };
  __m512d cur[kNv], var[kNv];
#pragma GCC unroll 4
  for (int j = 0; j < kNv; ++j) {
    cur[j] = _mm512_maskz_loadu_pd(mask(j), currents + c0 + 8 * j);
    if constexpr (kNoise)
      var[j] = _mm512_maskz_loadu_pd(mask(j), noise_var + c0 + 8 * j);
  }
  for (std::size_t k = 0; k < n; ++k) {
    const __m512d vr = _mm512_set1_pd(v[active[k]]);
    const double* gr = g + active[k] * cols + c0;
#pragma GCC unroll 4
    for (int j = 0; j < kNv; ++j) {
      const __m512d i =
          _mm512_mul_pd(vr, _mm512_maskz_loadu_pd(mask(j), gr + 8 * j));
      cur[j] = _mm512_add_pd(cur[j], i);
      if constexpr (kNoise) {
        const __m512d cell_noise = _mm512_mul_pd(nf, i);
        var[j] = _mm512_add_pd(var[j], _mm512_mul_pd(cell_noise, cell_noise));
      }
    }
  }
#pragma GCC unroll 4
  for (int j = 0; j < kNv; ++j) {
    _mm512_mask_storeu_pd(currents + c0 + 8 * j, mask(j), cur[j]);
    if constexpr (kNoise)
      _mm512_mask_storeu_pd(noise_var + c0 + 8 * j, mask(j), var[j]);
  }
}

template <bool kNoise>
void vmm_impl(const double* v, const double* g, std::size_t rows,
              std::size_t cols, double* currents, double* noise_var,
              double noise_frac) {
  const __m512d nf = _mm512_set1_pd(noise_frac);
  std::uint32_t active[kVmmRowChunk];
  for (std::size_t r0 = 0; r0 < rows; r0 += kVmmRowChunk) {
    const std::size_t n = list_active_rows(v, r0, rows, active);
    if (n == 0) continue;
    std::size_t c0 = 0;
    for (; c0 + 32 <= cols; c0 += 32)
      vmm_block<4, kNoise>(v, active, n, g, cols, c0, 0xFF, nf, currents,
                           noise_var);
    const std::size_t rest = cols - c0;  // < 32 columns: 0-4 vectors
    const auto tail = static_cast<__mmask8>(
        rest % 8 == 0 ? 0xFF : (1u << (rest % 8)) - 1u);
    switch ((rest + 7) / 8) {
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

void vmm_avx512(const double* v, const double* g, std::size_t rows,
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

void gemm_accumulate_avx512(const double* a, std::size_t lda, const double* b,
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
          axpy_avx512(av, b + kk * ldb + n0, c_row, nb);
        }
      }
    }
  }
}

}  // namespace cim::util::kernels::detail

#endif  // CIM_SIMD_X86 && __AVX512F__ && __AVX512DQ__ && __AVX512VL__
