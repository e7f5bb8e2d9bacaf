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
  /// person_height × (person_height * 0.6) pixels, feet at
  /// person_foot_y (normalized).
  double person_center_x = 0.5;
  double person_foot_y = 0.97;
  double person_height = 0.88;  // fraction of image height
  /// Sensor noise stddev (per channel, 8-bit).
  double noise_stddev = 3.0;
  /// Joint marker radius in pixels.
  double joint_radius = 2.2;
  double bone_thickness = 2.0;
  /// Mid-quantization-bucket color so codec round-trips keep the
  /// background flat (see codec.hpp).
  Rgb background{24, 24, 24};
  std::vector<Prop> props;
};

/// Render one frame; `frame_seed` drives the sensor noise so each
/// frame differs (deterministically).
Image RenderScene(const Pose& pose, const SceneOptions& options,
                  uint64_t frame_seed);

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
/// stream, but skips the Box–Muller transform for a pair whose radius
/// cannot carry either channel out of its bucket (see codec.hpp), which
/// is most pairs at the default noise.
class NoisyQuantizer {
 public:
  explicit NoisyQuantizer(double noise_stddev);

  void Apply(Image& clean, uint64_t frame_seed) const;

 private:
  double stddev_;
  /// Indexed by bucket headroom (0..16): a pair whose u1 is above
  /// u1_threshold_[h] moves no channel by h or more.
  std::array<uint64_t, 17> u1_threshold_;
};

/// The body-space → pixel transform used by RenderScene; exposed so
/// accuracy evaluations can map ground-truth poses into pixel space.
Point2 BodyToPixel(const Point2& body_point, const SceneOptions& options);

}  // namespace vp::media
