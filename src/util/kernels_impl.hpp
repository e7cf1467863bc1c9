/// \file kernels_impl.hpp
/// \brief Internal: per-ISA kernel variant declarations wired into the
///        dispatch tables of simd_dispatch.cpp. Not part of the public
///        util::kernels API — call through kernels.hpp (dispatched) or
///        simd::table_for() (conformance tests) instead.
#pragma once

#include <cstddef>
#include <cstdint>

// The AVX variants are compiled only when the toolchain can target them
// (per-TU -m flags from src/util/CMakeLists.txt, which also passes
// CIM_SIMD_HAVE_AVX2 / CIM_SIMD_HAVE_AVX512 to simd_dispatch.cpp so its
// tables only reference symbols that were actually built).
#if defined(__x86_64__) || defined(_M_X64)
#define CIM_SIMD_X86 1
#else
#define CIM_SIMD_X86 0
#endif

#ifndef CIM_SIMD_HAVE_AVX2
#define CIM_SIMD_HAVE_AVX2 0
#endif
#ifndef CIM_SIMD_HAVE_AVX512
#define CIM_SIMD_HAVE_AVX512 0
#endif

namespace cim::util::kernels::detail {

/// Rows per pass of the whole-array vmm kernels: the nonzero-row list of
/// one pass lives on the stack (4 KiB), so no call allocates.
inline constexpr std::size_t kVmmRowChunk = 1024;

/// Lists the rows r in [r0, min(rows, r0 + kVmmRowChunk)) with v[r] != 0
/// into `out`, in row order, and returns their count. `static`: every ISA
/// TU keeps its own copy, so the linker can never hand the scalar table an
/// AVX-compiled body.
static inline std::size_t list_active_rows(const double* v, std::size_t r0,
                                           std::size_t rows,
                                           std::uint32_t* out) {
  const std::size_t r1 = rows - r0 < kVmmRowChunk ? rows : r0 + kVmmRowChunk;
  std::size_t n = 0;
  for (std::size_t r = r0; r < r1; ++r) {
    out[n] = static_cast<std::uint32_t>(r);
    n += v[r] != 0.0 ? 1 : 0;
  }
  return n;
}

// Portable scalar variants: bit-identical to the historical inline kernels
// (same expression shapes, same accumulation order).
double dot_scalar(const double* a, const double* b, std::size_t n);
void axpy_scalar(double a, const double* x, double* y, std::size_t n);
void gemm_accumulate_scalar(const double* a, std::size_t lda, const double* b,
                            std::size_t ldb, double* c, std::size_t ldc,
                            std::size_t m, std::size_t k, std::size_t n);
void vmm_scalar(const double* v, const double* g, std::size_t rows,
                std::size_t cols, double* currents, double* noise_var,
                double noise_frac);

#if CIM_SIMD_HAVE_AVX2
double dot_avx2(const double* a, const double* b, std::size_t n);
void axpy_avx2(double a, const double* x, double* y, std::size_t n);
void gemm_accumulate_avx2(const double* a, std::size_t lda, const double* b,
                          std::size_t ldb, double* c, std::size_t ldc,
                          std::size_t m, std::size_t k, std::size_t n);
void vmm_avx2(const double* v, const double* g, std::size_t rows,
              std::size_t cols, double* currents, double* noise_var,
              double noise_frac);
#endif  // CIM_SIMD_HAVE_AVX2

#if CIM_SIMD_HAVE_AVX512
double dot_avx512(const double* a, const double* b, std::size_t n);
void axpy_avx512(double a, const double* x, double* y, std::size_t n);
void gemm_accumulate_avx512(const double* a, std::size_t lda, const double* b,
                            std::size_t ldb, double* c, std::size_t ldc,
                            std::size_t m, std::size_t k, std::size_t n);
void vmm_avx512(const double* v, const double* g, std::size_t rows,
                std::size_t cols, double* currents, double* noise_var,
                double noise_frac);
#endif  // CIM_SIMD_HAVE_AVX512

}  // namespace cim::util::kernels::detail
