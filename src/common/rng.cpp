#include "common/rng.hpp"

#include <cmath>

namespace vp {
namespace {

uint64_t SplitMix64(uint64_t& state) {
  state += 0x9E3779B97F4A7C15ULL;
  uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : s_) s = SplitMix64(sm);
  // Avoid the all-zero state, which is a fixed point of xoshiro.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

double Rng::NextDouble() {
  // 53 random bits into [0,1).
  return static_cast<double>(NextU53()) * 0x1.0p-53;
}

int64_t Rng::NextInt(int64_t lo, int64_t hi) {
  const uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  return lo + static_cast<int64_t>(NextU64() % span);
}

double Rng::NextRange(double lo, double hi) {
  return lo + (hi - lo) * NextDouble();
}

double Rng::NextGaussian() {
  if (has_cached_gaussian_) {
    has_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  const BoxMullerDraw draw = NextBoxMullerDraw();
  const GaussianPair pair = BoxMuller(BoxMullerRadius(draw.u1_bits),
                                      draw.u2_bits);
  cached_gaussian_ = pair.second;
  has_cached_gaussian_ = true;
  return pair.first;
}

double BoxMullerRadius(uint64_t u1_bits) {
  const double u1 = static_cast<double>(u1_bits) * 0x1.0p-53;
  return std::sqrt(-2.0 * std::log(u1));
}

GaussianPair BoxMuller(double radius, uint64_t u2_bits) {
  const double theta = 2.0 * M_PI * (static_cast<double>(u2_bits) * 0x1.0p-53);
  return GaussianPair{radius * std::cos(theta), radius * std::sin(theta)};
}

Rng Rng::Fork() { return Rng(NextU64()); }

}  // namespace vp
