#include "media/video_source.hpp"

#include <cmath>

#include "media/codec.hpp"

namespace vp::media {

SyntheticVideoSource::SyntheticVideoSource(MotionScript script, double fps,
                                           SceneOptions scene, uint64_t seed)
    : script_(std::move(script)), fps_(fps), scene_(scene), seed_(seed),
      quantizer_(scene_.noise_stddev) {}

uint64_t SyntheticVideoSource::frame_count() const {
  return static_cast<uint64_t>(std::floor(script_.total_duration() * fps_));
}

Frame SyntheticVideoSource::CaptureFrame(uint64_t seq) const {
  const Pose pose = JitteredPose(seq);
  Frame frame;
  frame.seq = seq;
  frame.capture_time = CaptureTime(seq);
  frame.image = RenderScene(pose, scene_, NoiseSeed(seq));
  frame.ground_truth = GroundTruth(seq, pose);
  return frame;
}

Bytes SyntheticVideoSource::CaptureEncoded(uint64_t seq,
                                           TimePoint capture_time) const {
  const Pose pose = JitteredPose(seq);
  Frame frame;
  frame.seq = seq;
  frame.capture_time = capture_time;
  frame.image = RenderCleanScene(pose, scene_);
  quantizer_.Apply(frame.image, NoiseSeed(seq));
  frame.ground_truth = GroundTruth(seq, pose);
  return EncodeQuantizedFrame(frame);
}

Image SyntheticVideoSource::CaptureClean(uint64_t seq) const {
  return RenderCleanScene(JitteredPose(seq), scene_);
}

void SyntheticVideoSource::AddCaptureNoiseAt(
    Image& clean, uint64_t seq, std::span<const uint32_t> pixels) const {
  AddSensorNoiseAt(clean, pixels, scene_.noise_stddev, NoiseSeed(seq));
}

Pose SyntheticVideoSource::JitteredPose(uint64_t seq) const {
  Pose pose = script_.PoseAt(static_cast<double>(seq) / fps_);
  // Pose jitter: small per-joint tremor, deterministic per (seed, seq).
  Rng rng(seed_ * 0x9E3779B97F4A7C15ULL + seq);
  for (auto& pt : pose.points) {
    pt.x += rng.NextGaussian(0.0, 0.003);
    pt.y += rng.NextGaussian(0.0, 0.003);
  }
  return pose;
}

uint64_t SyntheticVideoSource::NoiseSeed(uint64_t seq) const {
  return seed_ ^ (seq * 1000003ULL);
}

json::Value SyntheticVideoSource::GroundTruth(uint64_t seq,
                                              const Pose& pose) const {
  const double t = static_cast<double>(seq) / fps_;
  json::Value gt = json::Value::MakeObject();
  gt["activity"] = json::Value(script_.LabelAt(t));
  gt["reps"] = json::Value(script_.RepsUpTo(t));
  gt["t"] = json::Value(t);
  // True pose in pixel space for detector-accuracy checks.
  json::Value::Array px;
  for (int k = 0; k < kNumKeypoints; ++k) {
    const Point2 p = BodyToPixel(pose[k], scene_);
    json::Value::Array pt;
    pt.push_back(json::Value(p.x));
    pt.push_back(json::Value(p.y));
    px.push_back(json::Value(std::move(pt)));
  }
  gt["pose_px"] = json::Value(std::move(px));
  return gt;
}

MotionScript DefaultWorkoutScript() {
  MotionParams squat;
  squat.period = 2.4;
  MotionParams jack;
  jack.period = 1.4;
  MotionParams lunge;
  lunge.period = 2.8;
  auto script = MotionScript::Make({
      {"idle", 3.0, {}},
      {"squat", 12.0, squat},
      {"idle", 2.0, {}},
      {"jumping_jack", 8.4, jack},
      {"idle", 2.0, {}},
      {"lunge", 11.2, lunge},
      {"idle", 3.0, {}},
  });
  // Labels above are all known; Make cannot fail.
  return std::move(*script);
}

MotionScript DefaultGestureScript() {
  MotionParams wave;
  wave.period = 1.2;
  MotionParams clap;
  clap.period = 1.0;
  auto script = MotionScript::Make({
      {"idle", 3.0, {}},
      {"wave", 4.8, wave},
      {"idle", 3.0, {}},
      {"clap", 4.0, clap},
      {"idle", 3.0, {}},
  });
  return std::move(*script);
}

}  // namespace vp::media
