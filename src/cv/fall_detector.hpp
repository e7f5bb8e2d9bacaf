// Fall detection (§4.3: "we also implement a fall detection
// application pipeline with VideoPipe").
//
// Geometric criterion over a short pose window: a person is considered
// fallen when the torso axis is near-horizontal AND the head is at hip
// height or below, sustained for a majority of the window. Stateless:
// the caller supplies the window.
#pragma once

#include <vector>

#include "common/time.hpp"
#include "cv/pose_detector.hpp"
#include "json/value.hpp"

namespace vp::cv {

struct FallAssessment {
  bool fallen = false;
  /// Torso angle from vertical (degrees) in the latest frame.
  double torso_angle_deg = 0;
  /// Fraction of window frames that look fallen.
  double fallen_fraction = 0;

  json::Value ToJson() const;
};

/// A frame looks fallen when its torso is more than 55° from vertical;
/// the window is fallen when at least 60% of its measured frames do.
FallAssessment AssessFall(const std::vector<DetectedPose>& window);

inline Duration FallDetectCost() { return Duration::Millis(1.5); }

}  // namespace vp::cv
