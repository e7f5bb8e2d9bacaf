// Multi-object tracking (§2.2 lists "object tracking" among the
// frame-wise services).
//
// Greedy IoU association between the previous tracks and the current
// detections. Stateless as a service: the full tracker state (tracks +
// id counter) is JSON-serializable and travels with every request, so
// any replica can continue any stream.
#pragma once

#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/time.hpp"
#include "cv/object_detector.hpp"
#include "json/value.hpp"

namespace vp::cv {

struct Track {
  int id = 0;
  std::string class_name;
  double x0 = 0, y0 = 0, x1 = 0, y1 = 0;
  /// Frames since the track was born.
  int age = 0;
  /// Consecutive frames without a matching detection.
  int misses = 0;

  json::Value ToJson() const;
  static Result<Track> FromJson(const json::Value& v);
};

struct TrackerState {
  std::vector<Track> tracks;
  int next_id = 1;

  json::Value ToJson() const;
  static Result<TrackerState> FromJson(const json::Value& v);
};

struct TrackerOptions {
  /// Tracks are dropped after this many consecutive misses.
  int max_misses = 5;
};

/// Intersection-over-union of two boxes.
double IoU(double ax0, double ay0, double ax1, double ay1, double bx0,
           double by0, double bx1, double by1);

/// One tracking step: associate `detections` with `state.tracks`
/// (a detection continues a track above IoU 0.3), update, birth and
/// retire tracks. Pure function.
TrackerState UpdateTracks(TrackerState state,
                          const std::vector<DetectedObject>& detections,
                          const TrackerOptions& options = {});

inline Duration TrackerCost() { return Duration::Millis(2.0); }

}  // namespace vp::cv
