// Scene renderer: turns a body Pose into a raster camera frame.
//
// The scene is a dim living room (noisy dark background, optional
// colored props) with the person drawn as gray bones plus per-joint
// color-coded markers. The pose detector recovers the keypoints from
// these pixels; sensor noise, quantization and marker occlusion make
// its output honestly imperfect.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "media/image.hpp"
#include "media/skeleton.hpp"

namespace vp::media {

/// A static colored object in the scene (for the object-detection
/// service): normalized position/size, solid color.
struct Prop {
  std::string class_name;
  double x = 0, y = 0, w = 0.1, h = 0.1;  // normalized to image
  Rgb color;
};

struct SceneOptions {
  int width = 160;
  int height = 120;
  /// Person placement: body-space unit square maps to a box of
  /// person_height × (person_height * 0.6) pixels, feet at 0.97 of the
  /// image height.
  double person_center_x = 0.5;
  double person_height = 0.88;  // fraction of image height
  /// Sensor noise stddev (per channel, 8-bit).
  double noise_stddev = 3.0;
  /// Mid-quantization-bucket color so codec round-trips keep the
  /// background flat (see codec.hpp).
  Rgb background{24, 24, 24};
  std::vector<Prop> props;
};

/// Render one frame; `frame_seed` drives the sensor noise so each
/// frame differs (deterministically).
Image RenderScene(const Pose& pose, const SceneOptions& options,
                  uint64_t frame_seed);

/// The sensor-noise stream RenderScene draws for `frame_seed`.
Rng SensorNoiseStream(uint64_t frame_seed);

/// RenderScene without the sensor noise (`noise_stddev` is ignored).
Image RenderCleanScene(const Pose& pose, const SceneOptions& options);

/// The furthest RenderScene moves a channel from its RenderCleanScene
/// value: ⌈stddev·BoxMullerRadius(1)⌉ + 1 (u1_bits >= 1 caps the radius
/// at ~8.5716, clamping to [0, 255] only moves a channel back toward
/// its clean value, and the + 1 absorbs rounding), capped at 256; 0
/// without noise, as RenderScene skips it unless stddev > 0.
int MaxSensorNoiseShift(double noise_stddev);

/// RenderScene's sensor noise on some pixels of a RenderCleanScene
/// image. `pixels` lists pixel indices (y·width + x) in ascending order.
/// Every Box–Muller pair that reaches a listed pixel's channels gives
/// both its channels RenderScene's exact values for the same options
/// and seed; the stream is stepped past all other pairs without the
/// transform, and their channels keep their clean values.
void AddSensorNoiseAt(Image& clean, std::span<const uint32_t> pixels,
                      double noise_stddev, uint64_t frame_seed);

/// Sensor noise fused with the codec's quantisation. Apply() turns a
/// RenderCleanScene image, in place, into the 4-bit buckets (v >> 4)
/// of the RenderScene image with the same pose, options and seed, bit
/// for bit, without building that noisy image. It steps the same noise
/// stream and settles each pair in the cheapest way that is exact:
///
/// - Fast path. A pair whose radius cannot carry either channel out of
///   its bucket (see codec.hpp) keeps both buckets; u1_threshold_
///   decides this from u1's bits alone. This is most pairs at the
///   default noise.
/// - Certified tail. Otherwise the pair's draw picks a radius cell and
///   a θ cell (BoxMullerCellBounds), whose intervals hold every value
///   BoxMullerRadius and BoxMuller can return for a draw in them. The
///   exact noise is sd·(r·cos θ) rounded twice; rounding is monotone,
///   so it lies between the same expression on the interval's corners.
///   c + noise, the clamp to [0, 255], the truncation and the >> 4 are
///   monotone too, so when both ends of the interval land in the same
///   bucket that is the channel's bucket.
/// - Exact. Only when an interval straddles a bucket edge does the pair
///   run libm's log, sqrt, cos and sin, as RenderScene does.
///
/// Two paths step the stream. Apply takes the lanes on a CPU with
/// AVX-512 (F, BW, DQ and VL), checked once per process, and the scalar
/// loop elsewhere; both give the same bytes and the same TailCounts.
///
/// - Scalar loop. One generator draws the pairs in order and settles
///   each as above. It is the fallback and the tests' reference.
/// - Lanes. Eight generators, one per 64-bit lane of an AVX-512
///   register, each draw a contiguous slice of the frame's pairs: lane
///   k starts 2·k·L draws into the stream, L = LanePairs(n), by
///   Rng::Jump, which is exact. The vector code does integer work
///   only: the draws, the pair headrooms, and the fast path as an
///   unsigned 64-bit compare of u1's whole draw against
///   (u1_threshold_[h] << 11) | 0x7FF, which holds exactly when u1's
///   top 53 bits exceed u1_threshold_[h]. It compress-stores each
///   other pair (its u1 draw, the state word u2 is drawn from, its
///   index) and hands them, 512 pairs at a time, to the scalar loop's
///   own settle code. That code is compiled apart from the vector code,
///   for the baseline instruction set (inside an AVX-512 function GCC
///   contracts a·b + c into an FMA, which rounds differently), so every
///   floating-point value comes from the same instructions on both
///   paths. The pairs after the last full lane slice and an odd last
///   channel run the scalar loop from lane 7's final state.
/// - Redraw rule. The scalar loop redraws a u1 of 0, which puts every
///   later lane one draw off. A u1 of 0 never passes the fast path, so
///   the settle code meets every one. Until the lanes finish, fast-path
///   pairs keep their clean channels (one >> 4 pass ends the lanes) and
///   each settled pair's clean channels are logged (a per-thread log,
///   reused across frames, sized by the tail pairs rather than the
///   frame). At the first u1 of 0 the lanes put those channels back and
///   the scalar loop runs the whole frame.
class NoisyQuantizer {
 public:
  explicit NoisyQuantizer(double noise_stddev);

  /// How Apply settled the pairs that missed the fast path. The pair an
  /// odd last channel draws always runs the exact transform.
  struct TailCounts {
    uint64_t tail = 0;   // pairs past the fast path
    uint64_t exact = 0;  // of those, pairs that ran the exact transform
  };
  TailCounts Apply(Image& clean, uint64_t frame_seed) const;

  /// Apply's two paths, drawing from `rng` rather than the frame seed's
  /// stream. ApplyLanes runs the scalar loop where the lanes do not
  /// run: on a CPU without the features, without noise, or when
  /// LanePairs is 0.
  TailCounts ApplyScalar(Image& clean, Rng rng) const;
  TailCounts ApplyLanes(Image& clean, Rng rng) const;

  /// Whether this CPU runs the lanes.
  static bool LanesSupported();
  /// The pairs each lane draws in a frame of `channels` channels: a
  /// multiple of 8, or 0 when the frame is too small to fill the lanes.
  static size_t LanePairs(size_t channels);

 private:
  /// The scalar loop over pairs [first_pair, n / 2) of d and an odd
  /// last channel, drawing from `rng`.
  void QuantizeFrom(uint8_t* d, size_t n, size_t first_pair, Rng rng,
                    TailCounts& counts) const;

  double stddev_;
  /// Indexed by bucket headroom (0..16): a pair whose u1 is above
  /// u1_threshold_[h] moves no channel by h or more.
  std::array<uint64_t, 17> u1_threshold_;
};

/// A closed interval [lo, hi].
struct Interval {
  double lo = 0;
  double hi = 0;
};

/// The certificate's cells. u1_bits (1 ≤ u1_bits < 2^53) falls in one
/// of 2^6 cells of its octave [2^k, 2^(k+1)), split by the six bits
/// after its leading one; u2_bits (< 2^53) in one of 2^10 equal cells
/// of the turn, so quarter turns fall on cell edges. The bounds are
/// built once per process, in static storage, from BoxMullerRadius and
/// BoxMuller(1, ·) at each cell's end points: r decreases with u1, and
/// cos θ and sin θ are monotone inside a cell, except that a cell next
/// to a quarter turn also holds that turn's extremum (±1). Each bound
/// is widened by 2^-30. libm's values may break monotonicity by its
/// error: sqrt is correctly rounded and glibc's log, cos and sin stay
/// within about one ulp, so a value can pass its cell's end points by a
/// few ulps at most, and an ulp is at most 2^-49 for r < 16 and 2^-52
/// for |cos|, |sin| ≤ 1. The margin is over 2^17 times four such ulps.
struct BoxMullerCellBounds {
  Interval radius;  // holds BoxMullerRadius(u1_bits)
  Interval cos;     // holds BoxMuller(1, u2_bits).first
  Interval sin;     // holds BoxMuller(1, u2_bits).second
};
BoxMullerCellBounds BoxMullerCell(uint64_t u1_bits, uint64_t u2_bits);

/// The body-space → pixel transform used by RenderScene; exposed so
/// accuracy evaluations can map ground-truth poses into pixel space.
Point2 BodyToPixel(const Point2& body_point, const SceneOptions& options);

}  // namespace vp::media
