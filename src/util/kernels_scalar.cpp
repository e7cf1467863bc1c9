/// \file kernels_scalar.cpp
/// \brief Portable scalar kernel variants — the dispatch baseline.
///
/// These are the historical util::kernels implementations moved verbatim
/// (same expression shapes, same accumulation order), so dispatch forced to
/// `scalar` reproduces the pre-dispatch simulator bit-for-bit. `vmm` is the
/// whole-array crossbar read; it blocks columns but keeps the per-element
/// rounding of the row-by-row sweep it replaced. Compiled
/// without any -m ISA flags: the baseline x86-64 / portable code the repo
/// always produced.
#include <algorithm>

#include "util/kernels_impl.hpp"

namespace cim::util::kernels::detail {

double dot_scalar(const double* a, const double* b, std::size_t n) {
  double acc0 = 0.0, acc1 = 0.0, acc2 = 0.0, acc3 = 0.0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc0 += a[i] * b[i];
    acc1 += a[i + 1] * b[i + 1];
    acc2 += a[i + 2] * b[i + 2];
    acc3 += a[i + 3] * b[i + 3];
  }
  for (; i < n; ++i) acc0 += a[i] * b[i];
  return (acc0 + acc1) + (acc2 + acc3);
}

void axpy_scalar(double a, const double* x, double* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] += a * x[i];
}

namespace {

// One column block of `w` (<= kCb) columns: the partial sums live in
// locals while the listed rows are walked in row order, so each element
// sees the same mul-then-add sequence as a row-by-row sweep.
constexpr std::size_t kCb = 8;

template <bool kNoise>
void vmm_block(const double* v, const std::uint32_t* active, std::size_t n,
               const double* g, std::size_t cols, std::size_t c0,
               std::size_t w, double noise_frac, double* currents,
               double* noise_var) {
  double cur[kCb], var[kCb];
  for (std::size_t j = 0; j < w; ++j) {
    cur[j] = currents[c0 + j];
    if constexpr (kNoise) var[j] = noise_var[c0 + j];
  }
  for (std::size_t k = 0; k < n; ++k) {
    const double vr = v[active[k]];
    const double* gr = g + active[k] * cols + c0;
    for (std::size_t j = 0; j < w; ++j) {
      const double i = vr * gr[j];
      cur[j] += i;
      if constexpr (kNoise) {
        const double cell_noise = noise_frac * i;
        var[j] += cell_noise * cell_noise;
      }
    }
  }
  for (std::size_t j = 0; j < w; ++j) {
    currents[c0 + j] = cur[j];
    if constexpr (kNoise) noise_var[c0 + j] = var[j];
  }
}

template <bool kNoise>
void vmm_impl(const double* v, const double* g, std::size_t rows,
              std::size_t cols, double* currents, double* noise_var,
              double noise_frac) {
  std::uint32_t active[kVmmRowChunk];
  for (std::size_t r0 = 0; r0 < rows; r0 += kVmmRowChunk) {
    const std::size_t n = list_active_rows(v, r0, rows, active);
    if (n == 0) continue;
    std::size_t c0 = 0;
    for (; c0 + kCb <= cols; c0 += kCb)
      vmm_block<kNoise>(v, active, n, g, cols, c0, kCb, noise_frac, currents,
                        noise_var);
    if (c0 < cols)
      vmm_block<kNoise>(v, active, n, g, cols, c0, cols - c0, noise_frac,
                        currents, noise_var);
  }
}

}  // namespace

void vmm_scalar(const double* v, const double* g, std::size_t rows,
                std::size_t cols, double* currents, double* noise_var,
                double noise_frac) {
  std::fill(currents, currents + cols, 0.0);
  if (noise_var == nullptr)
    return vmm_impl<false>(v, g, rows, cols, currents, nullptr, noise_frac);
  std::fill(noise_var, noise_var + cols, 0.0);
  vmm_impl<true>(v, g, rows, cols, currents, noise_var, noise_frac);
}

namespace {
// Block sizes sized for a ~32 KiB L1d: one B panel (kKc x kNc doubles) plus
// the C row slice stay resident while the k-loop streams over it.
constexpr std::size_t kKc = 64;
constexpr std::size_t kNc = 256;
}  // namespace

void gemm_accumulate_scalar(const double* a, std::size_t lda, const double* b,
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
          axpy_scalar(av, b + kk * ldb + n0, c_row, nb);
        }
      }
    }
  }
}

}  // namespace cim::util::kernels::detail
