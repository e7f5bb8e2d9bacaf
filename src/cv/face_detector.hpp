// Face detection service algorithm.
//
// Derives a face box from the head keypoints (nose, eyes, ears) of a
// pose detection pass. Listed among the paper's example services
// (§2.2: "object detection, face detection, activity recognition, and
// object tracking").
#pragma once

#include "common/time.hpp"
#include "cv/pose_detector.hpp"
#include "json/value.hpp"
#include "media/image.hpp"

namespace vp::cv {

struct DetectedFace {
  bool found = false;
  double x0 = 0, y0 = 0, x1 = 0, y1 = 0;
  double confidence = 0;

  json::Value ToJson() const;
};

/// Detect a face directly from an image (runs the head-keypoint scan
/// internally).
DetectedFace DetectFace(const media::Image& image);

/// Detect a face from an existing pose detection (cheaper path).
DetectedFace FaceFromPose(const DetectedPose& pose);

/// Reference-device cost of one detection on a width×height frame.
Duration FaceDetectCost(int width, int height);

}  // namespace vp::cv
