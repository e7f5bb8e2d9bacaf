#include "cv/tracker.hpp"

#include <algorithm>

namespace vp::cv {
namespace {

/// Minimum IoU for a detection to continue a track.
constexpr double kIouThreshold = 0.3;

}  // namespace

json::Value Track::ToJson() const {
  json::Value out = json::Value::MakeObject();
  out["id"] = json::Value(id);
  out["class"] = json::Value(class_name);
  out["x0"] = json::Value(x0);
  out["y0"] = json::Value(y0);
  out["x1"] = json::Value(x1);
  out["y1"] = json::Value(y1);
  out["age"] = json::Value(age);
  out["misses"] = json::Value(misses);
  return out;
}

Result<Track> Track::FromJson(const json::Value& v) {
  if (!v.is_object()) return ParseError("track must be an object");
  Track track;
  track.id = static_cast<int>(v.GetInt("id"));
  track.class_name = v.GetString("class");
  track.x0 = v.GetDouble("x0");
  track.y0 = v.GetDouble("y0");
  track.x1 = v.GetDouble("x1");
  track.y1 = v.GetDouble("y1");
  track.age = static_cast<int>(v.GetInt("age"));
  track.misses = static_cast<int>(v.GetInt("misses"));
  return track;
}

json::Value TrackerState::ToJson() const {
  json::Value out = json::Value::MakeObject();
  json::Value::Array items;
  items.reserve(tracks.size());
  for (const Track& track : tracks) items.push_back(track.ToJson());
  out["tracks"] = json::Value(std::move(items));
  out["next_id"] = json::Value(next_id);
  return out;
}

Result<TrackerState> TrackerState::FromJson(const json::Value& v) {
  TrackerState state;
  if (const json::Value* tracks = v.Find("tracks");
      tracks != nullptr && tracks->is_array()) {
    for (const json::Value& item : tracks->AsArray()) {
      auto track = Track::FromJson(item);
      if (!track.ok()) return track.error();
      state.tracks.push_back(std::move(*track));
    }
  }
  state.next_id = static_cast<int>(v.GetInt("next_id", 1));
  return state;
}

double IoU(double ax0, double ay0, double ax1, double ay1, double bx0,
           double by0, double bx1, double by1) {
  const double ix0 = std::max(ax0, bx0);
  const double iy0 = std::max(ay0, by0);
  const double ix1 = std::min(ax1, bx1);
  const double iy1 = std::min(ay1, by1);
  const double iw = std::max(0.0, ix1 - ix0);
  const double ih = std::max(0.0, iy1 - iy0);
  const double intersection = iw * ih;
  const double area_a = std::max(0.0, ax1 - ax0) * std::max(0.0, ay1 - ay0);
  const double area_b = std::max(0.0, bx1 - bx0) * std::max(0.0, by1 - by0);
  const double uni = area_a + area_b - intersection;
  return uni <= 0 ? 0.0 : intersection / uni;
}

TrackerState UpdateTracks(TrackerState state,
                          const std::vector<DetectedObject>& detections,
                          const TrackerOptions& options) {
  // Greedy matching: repeatedly take the best remaining (track,
  // detection) pair above the IoU threshold.
  std::vector<bool> detection_used(detections.size(), false);
  std::vector<bool> track_matched(state.tracks.size(), false);

  while (true) {
    double best_iou = kIouThreshold;
    size_t best_track = state.tracks.size();
    size_t best_detection = detections.size();
    for (size_t t = 0; t < state.tracks.size(); ++t) {
      if (track_matched[t]) continue;
      const Track& track = state.tracks[t];
      for (size_t d = 0; d < detections.size(); ++d) {
        if (detection_used[d]) continue;
        const DetectedObject& det = detections[d];
        // Class-consistent matching only.
        if (det.class_name != track.class_name) continue;
        const double iou = IoU(track.x0, track.y0, track.x1, track.y1,
                               det.x0, det.y0, det.x1, det.y1);
        if (iou > best_iou) {
          best_iou = iou;
          best_track = t;
          best_detection = d;
        }
      }
    }
    if (best_track == state.tracks.size()) break;
    Track& track = state.tracks[best_track];
    const DetectedObject& det = detections[best_detection];
    track.x0 = det.x0;
    track.y0 = det.y0;
    track.x1 = det.x1;
    track.y1 = det.y1;
    track.misses = 0;
    ++track.age;
    track_matched[best_track] = true;
    detection_used[best_detection] = true;
  }

  // Unmatched tracks age out.
  std::vector<Track> surviving;
  surviving.reserve(state.tracks.size());
  for (size_t t = 0; t < state.tracks.size(); ++t) {
    Track& track = state.tracks[t];
    if (!track_matched[t]) {
      ++track.misses;
      ++track.age;
      if (track.misses > options.max_misses) continue;  // retired
    }
    surviving.push_back(std::move(track));
  }
  state.tracks = std::move(surviving);

  // Unmatched detections are new tracks.
  for (size_t d = 0; d < detections.size(); ++d) {
    if (detection_used[d]) continue;
    const DetectedObject& det = detections[d];
    Track track;
    track.id = state.next_id++;
    track.class_name = det.class_name;
    track.x0 = det.x0;
    track.y0 = det.y0;
    track.x1 = det.x1;
    track.y1 = det.y1;
    state.tracks.push_back(std::move(track));
  }
  return state;
}

}  // namespace vp::cv
