// Deterministic random number generation.
//
// Every stochastic component (motion noise, network jitter, dataset
// generation) draws from an explicitly seeded Rng so that simulations
// and benchmarks are reproducible bit-for-bit. xoshiro256** core with
// a SplitMix64 seeder.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace vp {

class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ULL);

  /// The generator whose xoshiro256 state words are `state` (not all
  /// zero), with no Gaussian cached.
  static Rng FromState(const std::array<uint64_t, 4>& state);
  std::array<uint64_t, 4> State() const { return {s_[0], s_[1], s_[2], s_[3]}; }

  /// Advances the stream by n draws, exactly as n calls of NextU64 do,
  /// in at most 255 + 256·popcount(n >> 8) steps: the low eight bits of
  /// n are stepped, and each higher set bit i applies JumpTable's
  /// x^(2^i). The cached Gaussian, if any, is kept.
  void Jump(uint64_t n);

  /// Uniform 64-bit value. Inline, as is NextBoxMullerDraw: stepping the
  /// stream past draws a caller does not need then costs only the
  /// xoshiro arithmetic.
  uint64_t NextU64() {
    const uint64_t result = Scramble(s_[1]);
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }

  /// The value NextU64 returns from a state whose second word is s1:
  /// xoshiro256**'s scrambler.
  static uint64_t Scramble(uint64_t s1) { return Rotl(s1 * 5, 7) * 9; }

  /// Uniform 53-bit integer; NextDouble() is this times 2^-53.
  uint64_t NextU53() { return NextU64() >> 11; }

  /// Uniform in [0, 1).
  double NextDouble();

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  int64_t NextInt(int64_t lo, int64_t hi);

  /// Uniform double in [lo, hi).
  double NextRange(double lo, double hi);

  /// Standard normal via Box–Muller (cached second value).
  double NextGaussian();

  /// The two uniforms of one fresh Box–Muller pair as 53-bit integers,
  /// drawn exactly as NextGaussian draws them (u1 is redrawn while 0).
  /// Lets a caller that only needs a bound on the pair (|g| <= radius)
  /// skip the transform; BoxMuller() finishes it.
  struct BoxMullerDraw {
    uint64_t u1_bits;
    uint64_t u2_bits;
  };
  BoxMullerDraw NextBoxMullerDraw() {
    uint64_t u1_bits = 0;
    do {
      u1_bits = NextU53();
    } while (u1_bits == 0);  // ln(0) is -inf
    return BoxMullerDraw{u1_bits, NextU53()};
  }

  /// Gaussian with the given mean/stddev.
  double NextGaussian(double mean, double stddev) {
    return mean + stddev * NextGaussian();
  }

  /// Bernoulli with probability p.
  bool NextBool(double p = 0.5) { return NextDouble() < p; }

  /// Derive an independent child stream (for per-component seeding).
  Rng Fork();

  /// Fisher–Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>& v) {
    for (size_t i = v.size(); i > 1; --i) {
      size_t j = static_cast<size_t>(NextInt(0, static_cast<int64_t>(i) - 1));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

 private:
  static uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

  /// s ← p(T)·s, where T steps the state once and p's coefficient bits
  /// are `poly` (bit b of word w is the coefficient of x^(64w+b)).
  void ApplyPolynomial(const std::array<uint64_t, 4>& poly);

  uint64_t s_[4];
  bool has_cached_gaussian_ = false;
  double cached_gaussian_ = 0.0;
};

/// The first power in JumpTable: x^(2^i) for i < 8 is the monomial
/// itself, so Jump steps those draws instead.
inline constexpr int kJumpTableFirstPower = 8;

/// x^(2^i) mod xoshiro256's characteristic polynomial (degree 256), for
/// i = kJumpTableFirstPower..63 in order, as 256 coefficient bits (bit b
/// of word w is the coefficient of x^(64w+b)). Applying x^m mod that
/// polynomial to the state advances it by m steps (Cayley–Hamilton).
/// The entries are literals, computed offline by repeated squaring.
std::span<const std::array<uint64_t, 4>> JumpTable();

/// Box–Muller radius sqrt(-2 ln u1) for u1 = u1_bits·2^-53 (u1_bits > 0);
/// it decreases as u1_bits grows, and bounds both values of the pair.
double BoxMullerRadius(uint64_t u1_bits);

/// The standard-normal pair (r·cos θ, r·sin θ), θ = 2π·u2_bits·2^-53,
/// that NextGaussian returns (first) and caches (second).
struct GaussianPair {
  double first;
  double second;
};
GaussianPair BoxMuller(double radius, uint64_t u2_bits);

}  // namespace vp
