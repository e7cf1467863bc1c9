/// \file kernels.hpp
/// \brief Runtime-dispatched numeric micro-kernels for the simulator's
///        inner loops (crossbar VMM, dense matvec/GEMM, im2col conv).
///
/// These are the tight loops NeuroSim/MNSIM-class frameworks spend their
/// time in. Layout assumptions are uniform across the repo: dense row-major
/// `double` storage (util::Matrix, the crossbar conductance caches), so the
/// kernels take raw pointers + lengths and leave bounds checking to the
/// callers.
///
/// Each entry point forwards through the active simd::KernelTable (one
/// relaxed atomic load), selected at startup from CPUID and the `CIM_SIMD`
/// environment variable — see simd_dispatch.hpp for the selection rules
/// and the full cross-ISA bit-exactness contract.
///
/// Accumulation contracts:
///  - `dot` / `gemm_accumulate` tolerate reassociation: `dot` uses
///    multi-accumulator splitting (4-way scalar, per-lane FMA on SIMD
///    tables) and is deterministic per table but drifts by ulps across
///    tables. `gemm_accumulate` accumulates each C element in k-order with
///    separate mul+add on every table, so it is in fact bit-identical
///    across tables — but callers should still only rely on the weaker
///    per-table determinism.
///  - `vmm` reads the whole array in register blocks of columns, but each
///    output element still sees one separate mul-then-add per active row,
///    in row order, so its `currents` / `noise_var` are bit-identical on
///    every table — the crossbar's contract (serial vmm == batched vmm ==
///    any CIM_SIMD setting, tiers 0-2, energy included) rests on it.
///  - `dot_serial` is the order-preserving escape hatch: strict
///    left-to-right summation, never dispatched, bit-identical everywhere.
///    Route callers that require reproducible sums across ISA settings
///    through it.
#pragma once

#include <cmath>
#include <cstddef>

#include "util/simd_dispatch.hpp"

namespace cim::util::kernels {

/// Dot product via the active table (4-way scalar splitting or per-lane
/// FMA accumulators). Deterministic for a fixed table; reassociated —
/// NOT bitwise-stable across CIM_SIMD settings. Callers needing that use
/// dot_serial().
inline double dot(const double* a, const double* b, std::size_t n) {
  return simd::active().dot(a, b, n);
}

/// Strict left-to-right dot product. Never dispatched: bit-identical on
/// every host, thread count, and CIM_SIMD setting. Slower than dot() —
/// one dependent add chain — so reserve it for bit-exactness-dependent
/// callers (golden files, cross-run replay checks).
inline double dot_serial(const double* a, const double* b, std::size_t n) {
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) acc += a[i] * b[i];
  return acc;
}

/// y[i] += a * x[i]. Element-wise separate mul+add on every table:
/// bit-identical across CIM_SIMD settings.
inline void axpy(double a, const double* x, double* y, std::size_t n) {
  simd::active().axpy(a, x, y, n);
}

/// Whole-array crossbar VMM over a flat row-major `rows` x `cols`
/// conductance matrix `g`:
///
///   currents[c]  = sum_r  v[r] * g[r][c]
///   noise_var[c] = sum_r (noise_frac * v[r] * g[r][c])^2   (if non-null)
///
/// Both outputs are overwritten. Rows with v[r] == 0 are skipped; the
/// others accumulate in row order from 0.0, each term a separate multiply
/// then add — the rounding of a row-by-row axpy sweep, on every table.
/// With `noise_var` null only the currents are computed. Array energy is
/// not a kernel output: it is a closed form over per-row conductance sums
/// (Crossbar::vmm_energy_from_rowsums).
inline void vmm(const double* v, const double* g, std::size_t rows,
                std::size_t cols, double* currents, double* noise_var,
                double noise_frac) {
  simd::active().vmm(v, g, rows, cols, currents, noise_var, noise_frac);
}

/// C (m x n) += A (m x k) * B (k x n), all row-major with the given leading
/// strides. Blocked over k and n to keep the B panel and C row in cache;
/// the inner update is an axpy, so each C element accumulates in k-order
/// with separate mul+add on every table.
inline void gemm_accumulate(const double* a, std::size_t lda, const double* b,
                            std::size_t ldb, double* c, std::size_t ldc,
                            std::size_t m, std::size_t k, std::size_t n) {
  simd::active().gemm_accumulate(a, lda, b, ldb, c, ldc, m, k, n);
}

}  // namespace cim::util::kernels
