#include "cv/face_detector.hpp"

#include <algorithm>

namespace vp::cv {

json::Value DetectedFace::ToJson() const {
  json::Value out = json::Value::MakeObject();
  out["found"] = json::Value(found);
  out["x0"] = json::Value(x0);
  out["y0"] = json::Value(y0);
  out["x1"] = json::Value(x1);
  out["y1"] = json::Value(y1);
  out["confidence"] = json::Value(confidence);
  return out;
}

DetectedFace FaceFromPose(const DetectedPose& pose) {
  const int head_keypoints[] = {media::kNose, media::kLeftEye,
                                media::kRightEye, media::kLeftEar,
                                media::kRightEar};
  DetectedFace face;
  double x0 = 1e9, y0 = 1e9, x1 = -1e9, y1 = -1e9;
  int found = 0;
  double confidence = 0;
  for (int k : head_keypoints) {
    const DetectedKeypoint& kp = pose.keypoints[static_cast<size_t>(k)];
    if (!kp.detected) continue;
    ++found;
    confidence += kp.confidence;
    x0 = std::min(x0, kp.x);
    y0 = std::min(y0, kp.y);
    x1 = std::max(x1, kp.x);
    y1 = std::max(y1, kp.y);
  }
  if (found < 3) return face;  // need nose + both eyes (or similar)
  // Expand the keypoint hull to a plausible face box.
  const double w = std::max(4.0, (x1 - x0) * 1.6);
  const double h = std::max(5.0, w * 1.25);
  const double cx = (x0 + x1) / 2;
  const double cy = (y0 + y1) / 2;
  face.found = true;
  face.x0 = cx - w / 2;
  face.x1 = cx + w / 2;
  face.y0 = cy - h * 0.45;
  face.y1 = cy + h * 0.55;
  face.confidence = confidence / found;
  return face;
}

DetectedFace DetectFace(const media::Image& image) {
  return FaceFromPose(DetectPose(image));
}

Duration FaceDetectCost(int width, int height) {
  const double megapixels = static_cast<double>(width) * height / 1e6;
  return Duration::Millis(14.0 + 70.0 * megapixels);
}

}  // namespace vp::cv
