// Parametric human motion models.
//
// These replace the paper's live camera feed of a person exercising in
// a living room. Each model is a deterministic, smooth function
// t → Pose, with exact ground truth (activity label, completed rep
// count) available for the accuracy experiments (§4.1.2–4.1.3). Noise
// is added downstream by the synthetic video source, not here.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "json/value.hpp"
#include "media/skeleton.hpp"

namespace vp::media {

struct MotionParams {
  /// Seconds per full exercise cycle (one rep).
  double period = 2.0;
  /// Motion amplitude multiplier (person-to-person variation).
  double amplitude = 1.0;
  /// Phase offset in [0,1) cycles.
  double phase = 0.0;
};

class MotionModel {
 public:
  virtual ~MotionModel() = default;

  /// Activity label, e.g. "squat", "wave".
  virtual std::string label() const = 0;

  /// Body pose at time t (seconds).
  virtual Pose PoseAt(double t) const = 0;

  /// Ground-truth completed repetitions at time t (0 for non-exercise
  /// motions).
  virtual int RepsCompleted(double /*t*/) const { return 0; }
};

/// Labels understood by MakeMotion.
std::vector<std::string> KnownMotionLabels();

/// Factory: "idle", "squat", "jumping_jack", "lunge", "wave", "clap",
/// "fall".
Result<std::unique_ptr<MotionModel>> MakeMotion(const std::string& label,
                                                MotionParams params = {});

/// A timeline of motions: the workout script a synthetic user follows.
class MotionScript {
 public:
  struct Segment {
    std::string label;
    double duration = 5.0;
    MotionParams params;
  };

  /// Build from segments; errors on unknown labels.
  static Result<MotionScript> Make(std::vector<Segment> segments);

  /// Build from a JSON array of segments:
  ///   [ {"motion": "squat", "seconds": 12, "period": 2.4,
  ///      "amplitude": 1.0, "phase": 0.0}, … ]
  /// (period/amplitude/phase optional).
  static Result<MotionScript> FromJson(const json::Value& doc);

  double total_duration() const { return total_; }

  Pose PoseAt(double t) const;
  const std::string& LabelAt(double t) const;

  /// Total ground-truth reps completed up to time t (across segments).
  int RepsUpTo(double t) const;

  const std::vector<Segment>& segments() const { return segments_; }

 private:
  struct Entry {
    Segment segment;
    std::unique_ptr<MotionModel> model;
    double start = 0;
  };
  std::vector<Segment> segments_;
  std::vector<std::shared_ptr<Entry>> entries_;  // shared: script is copyable
  double total_ = 0;
};

}  // namespace vp::media
