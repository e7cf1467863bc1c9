#include "util/rng.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>

namespace cim::util {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& word : s_) word = splitmix64(sm);
  // Guard against the (astronomically unlikely) all-zero state.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

std::uint64_t Rng::operator()() {
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

double Rng::uniform() {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

std::uint64_t Rng::uniform_int(std::uint64_t n) {
  // Lemire's nearly-divisionless bounded generation is overkill here;
  // rejection sampling keeps the distribution exactly uniform.
  const std::uint64_t threshold = (~n + 1) % n;  // 2^64 mod n
  for (;;) {
    const std::uint64_t r = (*this)();
    if (r >= threshold) return r % n;
  }
}

double Rng::normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  // Box-Muller; u1 strictly in (0,1] to avoid log(0).
  double u1 = 1.0 - uniform();
  double u2 = uniform();
  double mag = std::sqrt(-2.0 * std::log(u1));
  cached_normal_ = mag * std::sin(2.0 * std::numbers::pi * u2);
  has_cached_normal_ = true;
  return mag * std::cos(2.0 * std::numbers::pi * u2);
}

double Rng::normal(double mean, double stddev) { return mean + stddev * normal(); }

double Rng::normal_approx() {
  // Irwin-Hall with n = 4: sum of four U(0,1) has mean 2, variance 4/12, so
  // (sum - 2) * sqrt(3) is moment-matched to N(0, 1).
  const double sum = uniform() + uniform() + uniform() + uniform();
  return (sum - 2.0) * 1.7320508075688772;  // sqrt(3)
}

double Rng::normal_approx(double mean, double stddev) {
  return mean + stddev * normal_approx();
}

double Rng::lognormal(double mu_log, double sigma_log) {
  return std::exp(normal(mu_log, sigma_log));
}

bool Rng::bernoulli(double p) { return uniform() < p; }

std::uint64_t Rng::geometric(double p) {
  if (!(p > 0.0))
    throw std::invalid_argument("Rng::geometric: need p > 0 (got NaN or <= 0)");
  if (p >= 1.0) return 0;
  return geometric_gap(uniform(), p);
}

std::uint64_t Rng::geometric_gap(double u, double p) {
  constexpr double kMaxGap = 0x1.0p62;
  const double k = std::floor(std::log1p(-u) / std::log1p(-p));
  // `k < kMaxGap` is false for NaN and +inf too: both clamp.
  if (!(k < kMaxGap)) return static_cast<std::uint64_t>(kMaxGap);
  return k > 0.0 ? static_cast<std::uint64_t>(k) : 0;
}

std::vector<std::size_t> Rng::permutation(std::size_t n) {
  std::vector<std::size_t> idx(n);
  for (std::size_t i = 0; i < n; ++i) idx[i] = i;
  for (std::size_t i = n; i > 1; --i) {
    std::size_t j = uniform_int(i);
    std::swap(idx[i - 1], idx[j]);
  }
  return idx;
}

Rng Rng::split() { return Rng((*this)()); }

std::uint64_t Rng::stream_seed(std::uint64_t seed, std::uint64_t stream) {
  // Weyl-step the stream index so streams 0,1,2,... land far apart in the
  // SplitMix64 sequence, then mix twice for full avalanche.
  std::uint64_t x = seed ^ (stream * 0xd1342543de82ef95ULL + 0x2545f4914f6cdd1dULL);
  (void)splitmix64(x);
  return splitmix64(x);
}

Rng Rng::stream(std::uint64_t seed, std::uint64_t stream_index) {
  return Rng(stream_seed(seed, stream_index));
}

std::uint64_t Rng::stream_seed2(std::uint64_t seed, std::uint64_t hi,
                                std::uint64_t lo) {
  // Independent odd Weyl constants for the two indices (golden-ratio and
  // stream_seed's increment) keep (hi, lo) -> state injective modulo 2^64
  // before the avalanche rounds; a distinct xor constant separates this
  // family from single-index stream_seed outputs.
  std::uint64_t x = seed ^ 0x6a09e667f3bcc909ULL;  // sqrt(2) fraction bits
  x ^= hi * 0x9e3779b97f4a7c15ULL + 0x165667b19e3779f9ULL;
  x += lo * 0xd1342543de82ef95ULL + 0x2545f4914f6cdd1dULL;
  (void)splitmix64(x);
  return splitmix64(x);
}

Rng Rng::stream2(std::uint64_t seed, std::uint64_t hi, std::uint64_t lo) {
  return Rng(stream_seed2(seed, hi, lo));
}

}  // namespace cim::util
