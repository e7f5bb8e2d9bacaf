#include "cv/pose_detector.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "media/codec.hpp"
#include "media/renderer.hpp"
#include "media/video_source.hpp"

namespace vp::cv {

json::Value DetectedPose::ToJson() const {
  json::Value out = json::Value::MakeObject();
  json::Value::Array kps;
  for (const DetectedKeypoint& kp : keypoints) {
    json::Value k = json::Value::MakeObject();
    k["x"] = json::Value(kp.x);
    k["y"] = json::Value(kp.y);
    k["detected"] = json::Value(kp.detected);
    k["confidence"] = json::Value(kp.confidence);
    kps.push_back(std::move(k));
  }
  out["keypoints"] = json::Value(std::move(kps));
  json::Value box = json::Value::MakeObject();
  box["x0"] = json::Value(bbox.x0);
  box["y0"] = json::Value(bbox.y0);
  box["x1"] = json::Value(bbox.x1);
  box["y1"] = json::Value(bbox.y1);
  box["valid"] = json::Value(bbox.valid);
  out["bbox"] = std::move(box);
  out["num_detected"] = json::Value(num_detected);
  return out;
}

Result<DetectedPose> DetectedPose::FromJson(const json::Value& v) {
  const json::Value* kps = v.Find("keypoints");
  if (kps == nullptr || !kps->is_array() ||
      kps->AsArray().size() != media::kNumKeypoints) {
    return ParseError("pose: expected 17 keypoints");
  }
  DetectedPose pose;
  for (int k = 0; k < media::kNumKeypoints; ++k) {
    const json::Value& kp = kps->AsArray()[static_cast<size_t>(k)];
    DetectedKeypoint& out = pose.keypoints[static_cast<size_t>(k)];
    out.x = kp.GetDouble("x");
    out.y = kp.GetDouble("y");
    out.detected = kp.GetBool("detected");
    out.confidence = kp.GetDouble("confidence");
  }
  if (const json::Value* box = v.Find("bbox"); box != nullptr) {
    pose.bbox.x0 = box->GetDouble("x0");
    pose.bbox.y0 = box->GetDouble("y0");
    pose.bbox.x1 = box->GetDouble("x1");
    pose.bbox.y1 = box->GetDouble("y1");
    pose.bbox.valid = box->GetBool("valid");
  }
  pose.num_detected = static_cast<int>(v.GetInt("num_detected"));
  return pose;
}

namespace {

/// Bounding-box margin around the outermost joints (pixels).
constexpr double kBBoxMargin = 4.0;

/// Sums of the coordinates of the pixels matching one joint, added in
/// raster order.
struct BlobSums {
  double sx = 0, sy = 0;
  int count = 0;
};
using JointSums = std::array<BlobSums, media::kNumKeypoints>;

/// The detector's per-pixel rule, with the joint palette at hand.
class JointMatcher {
 public:
  JointMatcher() {
    for (int k = 0; k < media::kNumKeypoints; ++k) {
      palette_[static_cast<size_t>(k)] = media::KeypointColor(k);
    }
  }

  /// The joint whose palette color is nearest `c` within the tolerance,
  /// or -1.
  int Match(media::Rgb c) const {
    // Quick reject: markers are saturated; the background and bones
    // are dark/gray.
    const int maxc = std::max({c.r, c.g, c.b});
    const int minc = std::min({c.r, c.g, c.b});
    if (maxc < 100 || (maxc - minc) < 40) {
      // Could still be the white right-hip marker (255,255,255).
      if (maxc < 200) return -1;
    }
    int best_joint = -1;
    int best_dist = kPoseColorTolerance + 1;
    for (int k = 0; k < media::kNumKeypoints; ++k) {
      const int d = media::ColorDistance(c, palette_[static_cast<size_t>(k)]);
      if (d < best_dist) {
        best_dist = d;
        best_joint = k;
      }
    }
    return best_joint;
  }

  /// Whether some joint's palette color lies within `reach` of `c`.
  bool WithinReach(media::Rgb c, int reach) const {
    for (const media::Rgb& joint : palette_) {
      if (media::ColorDistance(c, joint) <= reach) return true;
    }
    return false;
  }

 private:
  std::array<media::Rgb, media::kNumKeypoints> palette_;
};

void Accumulate(JointSums& sums, int joint, int x, int y) {
  if (joint < 0) return;
  BlobSums& a = sums[static_cast<size_t>(joint)];
  a.sx += x;
  a.sy += y;
  ++a.count;
}

/// Blob centroids → keypoints → the person's bounding box.
DetectedPose FinishPose(const JointSums& sums, int width, int height,
                        const PoseDetectorOptions& options) {
  DetectedPose pose;
  const double expected_area =
      M_PI * 2.2 * 2.2;  // nominal marker radius the renderer draws
  for (int k = 0; k < media::kNumKeypoints; ++k) {
    const BlobSums& a = sums[static_cast<size_t>(k)];
    DetectedKeypoint& kp = pose.keypoints[static_cast<size_t>(k)];
    if (a.count >= options.min_blob_pixels) {
      kp.detected = true;
      kp.x = a.sx / a.count;
      kp.y = a.sy / a.count;
      kp.confidence = std::min(1.0, a.count / expected_area);
      ++pose.num_detected;
    }
  }

  if (pose.num_detected > 0) {
    double x0 = 1e9, y0 = 1e9, x1 = -1e9, y1 = -1e9;
    for (const DetectedKeypoint& kp : pose.keypoints) {
      if (!kp.detected) continue;
      x0 = std::min(x0, kp.x);
      y0 = std::min(y0, kp.y);
      x1 = std::max(x1, kp.x);
      y1 = std::max(y1, kp.y);
    }
    pose.bbox = BoundingBox{std::max(0.0, x0 - kBBoxMargin),
                            std::max(0.0, y0 - kBBoxMargin),
                            std::min<double>(width - 1, x1 + kBBoxMargin),
                            std::min<double>(height - 1, y1 + kBBoxMargin),
                            true};
  }
  return pose;
}

}  // namespace

DetectedPose DetectPose(const media::Image& image,
                        const PoseDetectorOptions& options) {
  // One pass over the pixels; nearest palette color within tolerance.
  const JointMatcher matcher;
  JointSums sums{};
  for (int y = 0; y < image.height(); ++y) {
    for (int x = 0; x < image.width(); ++x) {
      Accumulate(sums, matcher.Match(image.At(x, y)), x, y);
    }
  }
  return FinishPose(sums, image.width(), image.height(), options);
}

DetectedPose DetectPose(const media::SyntheticVideoSource& source,
                        uint64_t seq, const PoseDetectorOptions& options) {
  media::Image image = source.CaptureClean(seq);
  const int width = image.width();

  // A pixel is live if its noisy color could match a joint. Noise moves
  // each channel at most `shift` from its clean value, so a match within
  // the tolerance of joint k needs the clean color within tolerance +
  // shift of k's color (triangle inequality); a pixel further than that
  // from every joint color is rejected whatever its noise. Scenes are
  // runs of one color, so each pixel reuses the verdict of the last.
  const int reach = kPoseColorTolerance +
                    media::MaxSensorNoiseShift(source.scene().noise_stddev);
  const JointMatcher matcher;
  std::vector<uint32_t> live;  // pixel indices y·width + x, ascending
  media::Rgb last_color;
  bool last_live = matcher.WithinReach(last_color, reach);
  for (int y = 0; y < image.height(); ++y) {
    for (int x = 0; x < width; ++x) {
      const media::Rgb c = image.At(x, y);
      if (!(c == last_color)) {
        last_color = c;
        last_live = matcher.WithinReach(c, reach);
      }
      if (last_live) live.push_back(static_cast<uint32_t>(y * width + x));
    }
  }

  // Only the live pixels get their noise; the rest of the stream is
  // stepped past. They are then matched in raster order, as the
  // full-image pass meets them, so the blob sums are the same doubles.
  source.AddCaptureNoiseAt(image, seq, live);
  JointSums sums{};
  for (const uint32_t p : live) {
    const int x = static_cast<int>(p % static_cast<uint32_t>(width));
    const int y = static_cast<int>(p / static_cast<uint32_t>(width));
    Accumulate(sums, matcher.Match(image.At(x, y)), x, y);
  }
  return FinishPose(sums, width, image.height(), options);
}

DetectedPose DetectPose(const media::EncodedFrame& frame,
                        const PoseDetectorOptions& options) {
  const JointMatcher matcher;
  const auto width = static_cast<size_t>(frame.width());
  JointSums sums{};
  media::ForEachRun(frame.runs(), [&](media::Rgb color, size_t first,
                                      size_t count) {
    if (count == 0) return;
    const int joint = matcher.Match(color);
    if (joint < 0) return;
    BlobSums& a = sums[static_cast<size_t>(joint)];
    // A run can wrap rows: add it one row segment [x0, x1) at a time.
    for (size_t p = first, end = first + count; p < end;) {
      const size_t y = p / width;
      const size_t x0 = p % width;
      const size_t x1 = std::min(width, x0 + (end - p));
      const size_t n = x1 - x0;
      a.sx += static_cast<double>((x0 + x1 - 1) * n / 2);
      a.sy += static_cast<double>(y * n);
      a.count += static_cast<int>(n);
      p += n;
    }
  });
  return FinishPose(sums, frame.width(), frame.height(), options);
}

Duration PoseDetectCost(int width, int height) {
  // CNN inference dominated by a fixed network cost plus modest
  // resolution scaling; calibrated so the paper's desktop runs it in
  // ~55 ms (Fig. 6).
  const double megapixels = static_cast<double>(width) * height / 1e6;
  return Duration::Millis(45.0 + 130.0 * megapixels);
}

}  // namespace vp::cv
