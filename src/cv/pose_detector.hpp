// 2D pose detector.
//
// Stand-in for the paper's CNN pose estimator (§4.1.1): "The 2D pose
// detector first detects a human and places a bounding box around
// them. Within that bounding box, it detects 17 keypoints."
//
// Our detector is real image processing on the synthetic frames: it
// scans the pixel buffer for the per-joint color signatures the
// renderer emits, computes blob centroids, and derives the person
// bounding box from the detected joints. Sensor noise, marker
// occlusion (e.g. hands meeting in a clap) and quantization give it
// honestly imperfect output. Its *latency* comes from the calibrated
// cost model below, charged on the executing device's lane.
#pragma once

#include <array>
#include <cstdint>

#include "common/time.hpp"
#include "json/value.hpp"
#include "media/image.hpp"
#include "media/skeleton.hpp"

namespace vp::media {
class EncodedFrame;
class SyntheticVideoSource;
}  // namespace vp::media

namespace vp::cv {

struct DetectedKeypoint {
  double x = 0;  // pixels
  double y = 0;
  bool detected = false;
  /// Blob pixel count relative to the expected marker area.
  double confidence = 0;
};

struct BoundingBox {
  double x0 = 0, y0 = 0, x1 = 0, y1 = 0;
  bool valid = false;
  double width() const { return x1 - x0; }
  double height() const { return y1 - y0; }
};

struct DetectedPose {
  std::array<DetectedKeypoint, media::kNumKeypoints> keypoints{};
  BoundingBox bbox;
  int num_detected = 0;
  bool person_found() const { return num_detected >= 5; }

  json::Value ToJson() const;
  static Result<DetectedPose> FromJson(const json::Value& v);
};

/// Max per-channel color distance for a pixel to match a joint.
inline constexpr int kPoseColorTolerance = 26;

struct PoseDetectorOptions {
  /// Minimum blob pixels for a joint to count as detected.
  int min_blob_pixels = 3;
};

/// Run detection on an image: the reference for the overloads below.
DetectedPose DetectPose(const media::Image& image,
                        const PoseDetectorOptions& options = {});

/// Exactly DetectPose(source.CaptureFrame(seq).image, options), without
/// building the noisy image. A pixel can only match a joint if its color
/// is within kPoseColorTolerance of that joint's; noise moves a channel at
/// most media::MaxSensorNoiseShift from its clean value, so a pixel
/// whose clean color is further than tolerance + shift from every joint
/// color is rejected whatever its noise. At the default noise that is
/// every pixel but the markers'. Only the remaining (live) pixels get
/// their exact sensor noise (media::AddSensorNoiseAt steps the stream
/// past the rest) and go through the same per-pixel rule, in the same
/// raster order, so every field, doubles included, is bit-identical.
DetectedPose DetectPose(const media::SyntheticVideoSource& source,
                        uint64_t seq, const PoseDetectorOptions& options = {});

/// Exactly DetectPose(frame.image(), options), without decoding: each
/// run's color is matched once and the run's pixel coordinates are
/// added to that joint's blob sums. The sums are sums of integers,
/// exact in a double whatever the order, so every field is
/// bit-identical to the pixel pass.
DetectedPose DetectPose(const media::EncodedFrame& frame,
                        const PoseDetectorOptions& options = {});

/// Reference-device compute cost of one detection on a width×height
/// frame (the dominant cost in the paper's pipeline; Fig. 6 shows pose
/// detection at ~55–75 ms).
Duration PoseDetectCost(int width, int height);

}  // namespace vp::cv
