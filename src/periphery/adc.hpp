/// \file adc.hpp
/// \brief Analog-to-digital converter model (Section II.B.2 / II.E).
///
/// The paper singles the ADC out as *the* critical periphery block: analog
/// column currents must be digitized, quantization error grows as resolution
/// drops, and "area/power increases drastically" with the number of levels
/// — Fig. 5 shows ADCs dominating CIM die area and power. This model covers
/// both the behaviour (mid-tread uniform quantization with configurable
/// clipping) and the cost (area/power/latency scaling with resolution,
/// anchored to the ISAAC 8-bit 1.28 GS/s SAR design point).
#pragma once

#include <algorithm>
#include <cstdint>

namespace cim::periphery {

/// ADC circuit style; affects the resolution scaling of cost.
enum class AdcKind {
  kSar,    ///< successive approximation: latency grows linearly with bits
  kFlash,  ///< flash: 2^bits comparators, fastest but costliest
};

/// Configuration of one ADC instance.
struct AdcConfig {
  int bits = 8;                  ///< resolution (1..14)
  AdcKind kind = AdcKind::kSar;
  double sample_rate_gsps = 1.28;///< samples per ns (GS/s)
  double full_scale_ua = 1000.0; ///< input current mapped to full code
};

/// Behavioural + cost model of an ADC.
class Adc {
 public:
  explicit Adc(AdcConfig cfg);

  const AdcConfig& config() const { return cfg_; }
  int bits() const { return cfg_.bits; }
  std::uint32_t max_code() const { return (1u << cfg_.bits) - 1; }

  /// Quantizes a current (uA) to a code; clips outside [0, full_scale]
  /// (NaN reads as 0). Rounds half away from zero, exactly as std::lround
  /// would: the scaled value is non-negative and below 2^14, so splitting
  /// off its integer part is exact. Inline and libm-free — the tile calls
  /// it twice per column per bit-serial cycle.
  std::uint32_t quantize(double current_ua) const {
    const double clipped =
        std::min(std::max(0.0, current_ua), cfg_.full_scale_ua);
    const double scaled =
        clipped / cfg_.full_scale_ua * static_cast<double>(max_code());
    const auto whole = static_cast<std::uint32_t>(scaled);
    return whole + (scaled - static_cast<double>(whole) >= 0.5 ? 1u : 0u);
  }

  /// True when `current_ua` falls outside the converter's input range, i.e.
  /// quantize() would clip it. The per-column saturation signal fed to the
  /// device-health monitors: persistent clipping on a column usually means
  /// drifted/stuck LRS cells or sneak-path background pushing the bitline
  /// current past full scale.
  bool clips(double current_ua) const;

  /// Code back to the current at the reconstruction level (uA).
  double dequantize(std::uint32_t code) const;

  /// One quantization step in uA.
  double lsb_ua() const;

  /// Worst-case quantization error (uA) = LSB/2 inside the range.
  double max_quantization_error_ua() const { return 0.5 * lsb_ua(); }

  // --- cost model (anchored at ISAAC's 8-bit SAR: 1200 um^2, 2 mW) ---------
  double area_um2() const;
  double power_mw() const;
  /// Conversion latency for one sample (ns).
  double latency_ns() const;
  /// Energy for one conversion (pJ).
  double energy_per_sample_pj() const;

 private:
  AdcConfig cfg_;
};

}  // namespace cim::periphery
