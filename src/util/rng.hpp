/// \file rng.hpp
/// \brief Deterministic, seedable pseudo-random number generation.
///
/// cimlib avoids std::mt19937 in hot paths and instead uses xoshiro256++,
/// which is small, fast and has well-understood statistical quality. All
/// stochastic components of the framework (device variation, fault
/// injection, workload generation) take a `Rng&` so experiments are exactly
/// reproducible from a single seed.
#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

namespace cim::util {

/// xoshiro256++ generator with SplitMix64 seeding.
///
/// Satisfies the essentials of UniformRandomBitGenerator so it can also be
/// handed to <random> distributions when convenient.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four 64-bit words of state via SplitMix64 from `seed`.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }

  /// Next raw 64-bit output (inline: normal()'s fast path is one of these).
  std::uint64_t operator()();

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [0, n) for n > 0.
  std::uint64_t uniform_int(std::uint64_t n);

  /// Exact standard normal: Marsaglia-Tsang ziggurat with 256 layers (see
  /// the definition below). The only normal sampler of the generator; read
  /// noise, lognormal write variation and every other Gaussian draw go
  /// through it.
  double normal();

  /// Normal with given mean and standard deviation.
  double normal(double mean, double stddev) { return mean + stddev * normal(); }

  /// Counter-based approximate standard normal: a pure function of
  /// (key, ctr), so N draws need only ONE generator advance for the key and
  /// the per-draw cost is a single SplitMix64 finalizer. Unlike normal(),
  /// it is not exact: the mixed 64-bit word is split into four 16-bit lanes
  /// and summed (Irwin-Hall n = 4), which matches N(0, 1) in mean and
  /// variance up to the 2^-32 lattice-variance deficit
  /// (std = sqrt(1 - 2^-32)) but has support ±2*sqrt(3) sigma only.
  /// Distinct ctr values give independent draws (full-avalanche mix).
  /// Inline by design: tier-1 (calibrated) crossbar reads, serial and
  /// batched, draw this per column and rely on its order-free determinism.
  static double normal_hash(std::uint64_t key, std::uint64_t ctr) {
    std::uint64_t z = key + (ctr + 1) * 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    z ^= z >> 31;
    const double s = static_cast<double>(z & 0xffff) +
                     static_cast<double>((z >> 16) & 0xffff) +
                     static_cast<double>((z >> 32) & 0xffff) +
                     static_cast<double>(z >> 48);
    // Lanes are uniform on {0..65535}: sum mean 2*65535, scale sqrt(3)/2^16.
    return (s - 131070.0) * (1.7320508075688772 / 65536.0);
  }

  /// Lognormal: exp(N(mu_log, sigma_log)).
  double lognormal(double mu_log, double sigma_log);

  /// Bernoulli trial with probability p of returning true.
  bool bernoulli(double p);

  /// Geometric variate: the number of failures before the first success
  /// of Bernoulli(p) trials, from one uniform draw (see geometric_gap).
  /// p >= 1 returns 0 without drawing; throws std::invalid_argument for
  /// p <= 0 or NaN. Used to skip-sample rare events over long candidate
  /// lists in O(1 + hits) instead of one Bernoulli per candidate.
  std::uint64_t geometric(double p);

  /// Inverse-CDF body of geometric(): floor(log1p(-u) / log1p(-p)) for u in
  /// [0, 1) and p in (0, 1), clamped to 2^62 before the integer conversion
  /// so extreme (u, p) pairs never overflow. Pure function.
  static std::uint64_t geometric_gap(double u, double p);

  /// Fisher-Yates shuffle of an index vector [0, n).
  std::vector<std::size_t> permutation(std::size_t n);

  /// Splits off an independently seeded child generator. Useful for giving
  /// each subsystem its own stream while keeping one experiment seed.
  /// NOTE: this consumes parent state, so the child depends on *when* the
  /// split happens. For parallel work use the counter-based `stream()`.
  Rng split();

  /// Counter-based sub-stream seed: mixes (seed, stream) through two
  /// SplitMix64 rounds. Pure function of its arguments — task i of a
  /// parallel loop gets `stream(master, i)` and sees the same numbers
  /// regardless of which thread runs it or in what order, which is the
  /// backbone of the repo's "bit-identical for any thread count" contract.
  ///
  /// NESTED SPLITTING: composing this with itself —
  /// `stream_seed(stream_seed(s, a), b)` — is NOT collision-free by
  /// construction. The outer call folds its 64-bit seed argument through
  /// the same Weyl-step + SplitMix64 mix, so two distinct (a, b) pairs can
  /// in principle land on the same final seed (a birthday bound of
  /// ~2^-64 per pair, but nothing *structural* rules it out, and a
  /// collision silently correlates two "independent" Monte-Carlo trials).
  /// Callers that need a two-level split (parameter cell x replication,
  /// as in the cim::exp campaign engine) should use `stream_seed2`, which
  /// mixes both indices into the state in one pass; the campaign key
  /// space is additionally collision-audited by
  /// tests/exp/test_seed_audit.cpp.
  static std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t stream);

  /// Two-index sub-stream seed for nested splits: a pure function of
  /// (seed, hi, lo) that feeds both indices through *independent* Weyl
  /// constants before the double SplitMix64 finalizer, instead of chaining
  /// two stream_seed calls. Use for cell x replication style key spaces;
  /// `stream_seed2(s, 0, i) != stream_seed(s, i)` in general (the two
  /// families are distinct by design, so mixing them in one experiment
  /// cannot alias).
  static std::uint64_t stream_seed2(std::uint64_t seed, std::uint64_t hi,
                                    std::uint64_t lo);

  /// Generator over sub-stream `stream` of `seed` (see `stream_seed`).
  static Rng stream(std::uint64_t seed, std::uint64_t stream_index);

  /// Generator over the two-index sub-stream (see `stream_seed2`).
  static Rng stream2(std::uint64_t seed, std::uint64_t hi, std::uint64_t lo);

 private:
  /// Rare branches of normal() for a candidate `x` that fell outside the
  /// next layer's width: the tail beyond R for layer 0, otherwise the wedge
  /// test of `layer`, which restarts normal() on rejection.
  double normal_slow(unsigned layer, double x);

  std::uint64_t s_[4];
};

namespace detail {
/// Ziggurat tables for normal() (literal data in rng.cpp; nothing runs at
/// static init and no bit depends on libm). For f(x) = exp(-x^2/2), R the
/// tail start and V the common layer area:
///   kZigX[0] = V / f(R), kZigX[1] = R,
///   kZigX[i+1] = f^-1(f(kZigX[i]) + V / kZigX[i]) for 1 <= i < 255,
///   kZigX[256] = 0, and kZigF[i] = f(kZigX[i]).
/// tests/util/test_rng_equivalence.cpp regenerates both from R.
inline constexpr double kZigR = 0x1.d3bb48209ad33p+1;  // 3.6541528853610088
extern const double kZigX[257];
extern const double kZigF[257];
}  // namespace detail

inline std::uint64_t Rng::operator()() {
  const auto rotl = [](std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  };
  const std::uint64_t result = rotl(s_[0] + s_[3], 23) + s_[0];
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

/// One xoshiro256++ output per accepted draw on the fast path (~99% of
/// draws): the low 8 bits pick the layer, the top 52 bits give a signed
/// uniform u in (-1, 1), exactly symmetric about 0, and x = u * kZigX[layer]
/// is returned when it lies inside the next layer's width. No libm call and
/// no SIMD dispatch on this path, so the stream is identical on every
/// CIM_SIMD table; libm (exp/log) runs only in normal_slow().
inline double Rng::normal() {
  const std::uint64_t bits = (*this)();
  const unsigned layer = static_cast<unsigned>(bits & 0xff);
  const double u =
      (static_cast<double>(static_cast<std::int64_t>(bits) >> 12) + 0.5) *
      0x1.0p-51;
  const double x = u * detail::kZigX[layer];
  if (std::fabs(x) < detail::kZigX[layer + 1]) [[likely]]
    return x;
  return normal_slow(layer, x);
}

}  // namespace cim::util
