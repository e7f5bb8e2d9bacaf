// Repetition counter (§4.1.3).
//
// "Our rep counting system relies on the fact that all exercises start
//  and return to an initial position … We use k-means with k = 2 to
//  classify the frames into a cluster that occurs near the start of
//  the exercise and a cluster that occurs near the end … we require 4
//  frames to have transitioned to count a state transition … We count
//  a state transition from and back to the initial state as a single
//  rep."
//
// The algorithm is *stateless as a service*: all evolving state lives
// in a JSON-serializable RepCounterState that the calling module owns
// and passes with every request, so any replica can serve any call.
#pragma once

#include <vector>

#include "common/error.hpp"
#include "common/time.hpp"
#include "cv/pose_detector.hpp"
#include "json/value.hpp"

namespace vp::cv {

struct RepCounterOptions {
  /// Frames that must agree before a state transition is accepted.
  int debounce_frames = 4;
  /// Sliding window length used for clustering.
  int window = 64;
  /// Frames required before clustering starts.
  int min_frames = 12;
};

struct RepCounterState {
  /// Recent per-frame features (row-major window).
  std::vector<std::vector<double>> features;
  /// Mean of the earliest frames — anchors which cluster is "start".
  std::vector<double> home;
  int home_frames = 0;
  int reps = 0;
  int current_state = 0;   // 0 = initial/start cluster, 1 = end cluster
  int pending_state = 0;
  int pending_run = 0;
  uint64_t frames_seen = 0;

  json::Value ToJson() const;
  static Result<RepCounterState> FromJson(const json::Value& v);
};

class RepCounter {
 public:
  explicit RepCounter(RepCounterOptions options = {}) : options_(options) {}

  /// Feed one detected pose; returns the updated state (pure function
  /// of (state, pose) — the service calls exactly this).
  Result<RepCounterState> Step(RepCounterState state,
                               const DetectedPose& pose) const;

  const RepCounterOptions& options() const { return options_; }

  /// Reference compute cost per step (k-means over the window).
  static Duration Cost() { return Duration::Millis(3.5); }

 private:
  RepCounterOptions options_;
};

}  // namespace vp::cv
