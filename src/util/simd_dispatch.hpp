/// \file simd_dispatch.hpp
/// \brief Runtime ISA dispatch for the util::kernels micro-kernels.
///
/// The numeric kernels (dot, axpy, gemm_accumulate, vmm)
/// exist in up to three implementations — portable scalar, AVX2+FMA, and
/// AVX-512 — compiled into separate translation units with per-file ISA
/// flags. At startup the best table supported by both the build and the
/// CPU (CPUID) is selected, overridable with the `CIM_SIMD` environment
/// variable (`scalar`, `avx2`, `avx512`, `auto`); requests the host cannot
/// honour are clamped down with a one-time stderr notice. The hot path is
/// one relaxed atomic load of the active table pointer.
///
/// Bit-exactness contract across tables (tested by tests/util
/// /test_simd_kernels.cpp, enforced by compiling the SIMD TUs with
/// -ffp-contract=off so mul+add never silently fuses):
///  - `axpy`, `gemm_accumulate` and both outputs of `vmm` are
///    **bit-identical** on every table: all are element-wise mul-then-add
///    updates in the same element order, and the SIMD variants use
///    separate multiply and add (no FMA) for them. Every crossbar VMM
///    output is therefore identical across tables — currents, noise and
///    array energy, which the crossbar derives from exact per-row
///    conductance sums outside the kernel.
///  - `dot` is a *reduction*: each table reassociates it differently
///    (scalar: the historical 4-way chains; SIMD: per-lane FMA partials
///    reduced at the end). Deterministic per table, ulp-level drift
///    between tables.
///
/// This module deliberately depends on nothing else in the repo so both
/// cim_util (the kernels) and cim_obs (build-info stamping) can link it.
#pragma once

#include <cstddef>
#include <vector>

namespace cim::util::simd {

/// Dispatchable instruction-set tiers, ordered by capability.
enum class Isa : int {
  kScalar = 0,  ///< portable C++, bit-identical to the historical kernels
  kAvx2 = 1,    ///< AVX2 + FMA, 256-bit lanes
  kAvx512 = 2,  ///< AVX-512 F/DQ/VL, 512-bit lanes
};

constexpr const char* isa_name(Isa isa) {
  switch (isa) {
    case Isa::kScalar: return "scalar";
    case Isa::kAvx2: return "avx2";
    case Isa::kAvx512: return "avx512";
  }
  return "unknown";
}

/// One resolved implementation set. All four entry points share layout and
/// contracts with util::kernels (see kernels.hpp for the semantics).
struct KernelTable {
  Isa isa = Isa::kScalar;
  double (*dot)(const double* a, const double* b, std::size_t n) = nullptr;
  void (*axpy)(double a, const double* x, double* y, std::size_t n) = nullptr;
  void (*gemm_accumulate)(const double* a, std::size_t lda, const double* b,
                          std::size_t ldb, double* c, std::size_t ldc,
                          std::size_t m, std::size_t k,
                          std::size_t n) = nullptr;
  void (*vmm)(const double* v, const double* g, std::size_t rows,
              std::size_t cols, double* currents, double* noise_var,
              double noise_frac) = nullptr;
};

/// The active kernel table: one relaxed load; first call resolves CPUID +
/// the CIM_SIMD override.
const KernelTable& active();

/// ISA of the active table.
Isa active_isa();

/// Name of the active table's ISA ("scalar" / "avx2" / "avx512").
const char* active_isa_name();

/// Best ISA both this build and this CPU support.
Isa max_supported_isa();

/// Every ISA this process can execute, ascending (always contains kScalar).
std::vector<Isa> supported_isas();

/// Forces the active table (tests / benches / the CIM_SIMD matrix). A
/// request above max_supported_isa() is clamped; returns the ISA actually
/// selected. Thread-safe (atomic pointer swap), but callers racing kernels
/// get an arbitrary mix of old/new tables — switch only at quiesce points.
Isa set_isa(Isa requested);

/// Table for one specific ISA (conformance tests sweep these directly).
/// Requests above max_supported_isa() clamp down to the best available
/// table, so the result is always executable on this host.
const KernelTable& table_for(Isa isa);

}  // namespace cim::util::simd
