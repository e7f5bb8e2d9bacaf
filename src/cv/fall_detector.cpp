#include "cv/fall_detector.hpp"

#include <algorithm>
#include <cmath>

namespace vp::cv {

json::Value FallAssessment::ToJson() const {
  json::Value out = json::Value::MakeObject();
  out["fallen"] = json::Value(fallen);
  out["torso_angle_deg"] = json::Value(torso_angle_deg);
  out["fallen_fraction"] = json::Value(fallen_fraction);
  return out;
}

namespace {

/// A frame looks fallen past this torso angle from vertical…
constexpr double kAngleThresholdDeg = 55.0;
/// …and a window is fallen when this fraction of its frames do.
constexpr double kMajority = 0.6;

/// Torso angle from vertical, in degrees; -1 when undetectable.
double TorsoAngle(const DetectedPose& pose) {
  const auto& ls = pose.keypoints[media::kLeftShoulder];
  const auto& rs = pose.keypoints[media::kRightShoulder];
  const auto& lh = pose.keypoints[media::kLeftHip];
  const auto& rh = pose.keypoints[media::kRightHip];
  if (!(ls.detected || rs.detected) || !(lh.detected || rh.detected)) {
    return -1.0;
  }
  const double sx = ls.detected && rs.detected ? (ls.x + rs.x) / 2
                    : ls.detected              ? ls.x
                                               : rs.x;
  const double sy = ls.detected && rs.detected ? (ls.y + rs.y) / 2
                    : ls.detected              ? ls.y
                                               : rs.y;
  const double hx = lh.detected && rh.detected ? (lh.x + rh.x) / 2
                    : lh.detected              ? lh.x
                                               : rh.x;
  const double hy = lh.detected && rh.detected ? (lh.y + rh.y) / 2
                    : lh.detected              ? lh.y
                                               : rh.y;
  const double dx = sx - hx;
  const double dy = sy - hy;  // y grows downward; upright torso → dy < 0
  const double len = std::sqrt(dx * dx + dy * dy);
  if (len < 1e-6) return -1.0;
  // Angle between the torso axis and the "up" direction.
  const double cosine = -dy / len;
  return std::acos(std::clamp(cosine, -1.0, 1.0)) * 180.0 / M_PI;
}

}  // namespace

FallAssessment AssessFall(const std::vector<DetectedPose>& window) {
  FallAssessment out;
  if (window.empty()) return out;
  int measured = 0;
  int fallen_frames = 0;
  for (const DetectedPose& pose : window) {
    const double angle = TorsoAngle(pose);
    if (angle < 0) continue;
    ++measured;
    if (angle > kAngleThresholdDeg) ++fallen_frames;
  }
  out.torso_angle_deg = TorsoAngle(window.back());
  if (measured == 0) return out;
  out.fallen_fraction =
      static_cast<double>(fallen_frames) / static_cast<double>(measured);
  out.fallen = out.fallen_fraction >= kMajority;
  return out;
}

}  // namespace vp::cv
