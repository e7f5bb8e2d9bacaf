// Synthetic camera.
//
// Deterministically generates the video feed a phone camera would
// capture of a person following a MotionScript. Each frame carries
// ground-truth annotations (activity label, cumulative reps, true
// pose in pixel space) used only by accuracy evaluations.
#pragma once

#include <cstdint>
#include <span>

#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "media/frame.hpp"
#include "media/motion.hpp"
#include "media/renderer.hpp"

namespace vp::media {

class SyntheticVideoSource {
 public:
  SyntheticVideoSource(MotionScript script, double fps,
                       SceneOptions scene = {}, uint64_t seed = 7);

  double fps() const { return fps_; }
  const SceneOptions& scene() const { return scene_; }
  const MotionScript& script() const { return script_; }

  /// Number of frames the script covers at this fps.
  uint64_t frame_count() const;

  /// Generate frame `seq` (deterministic in seq).
  Frame CaptureFrame(uint64_t seq) const;

  /// Exactly EncodeFrame(f) for f = CaptureFrame(seq) with its
  /// capture_time replaced, without building f's noisy image: the clean
  /// render is quantized in place by NoisyQuantizer.
  Bytes CaptureEncoded(uint64_t seq, TimePoint capture_time) const;

  /// CaptureFrame(seq)'s image before its sensor noise: RenderCleanScene
  /// of the same jittered pose.
  Image CaptureClean(uint64_t seq) const;

  /// AddSensorNoiseAt with frame `seq`'s noise seed: on CaptureClean(seq),
  /// the listed pixels become exactly CaptureFrame(seq).image's.
  void AddCaptureNoiseAt(Image& clean, uint64_t seq,
                         std::span<const uint32_t> pixels) const;

  /// Capture timestamp of frame `seq`.
  TimePoint CaptureTime(uint64_t seq) const {
    return TimePoint::FromMicros(
        static_cast<int64_t>(static_cast<double>(seq) * 1e6 / fps_));
  }

 private:
  Pose JitteredPose(uint64_t seq) const;
  uint64_t NoiseSeed(uint64_t seq) const;
  json::Value GroundTruth(uint64_t seq, const Pose& pose) const;

  MotionScript script_;
  double fps_;
  SceneOptions scene_;
  uint64_t seed_;
  NoisyQuantizer quantizer_;
};

/// The default fitness-session script used by the examples and
/// benchmarks: idle → squats → jumping jacks → lunges → idle.
MotionScript DefaultWorkoutScript();

/// Gesture-session script: idle → wave → idle → clap → idle.
MotionScript DefaultGestureScript();

}  // namespace vp::media
