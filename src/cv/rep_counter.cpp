#include "cv/rep_counter.hpp"

#include <algorithm>

#include "cv/features.hpp"
#include "cv/kmeans.hpp"

namespace vp::cv {

namespace {

/// Minimum separation between the two centroids for the clustering to
/// be trusted (prevents counting during idle).
constexpr double kMinClusterSeparation = 0.35;
constexpr uint64_t kKMeansSeed = 23;

json::Value VectorToJson(const std::vector<double>& v) {
  json::Value::Array arr;
  arr.reserve(v.size());
  for (double d : v) arr.push_back(json::Value(d));
  return json::Value(std::move(arr));
}

Result<std::vector<double>> VectorFromJson(const json::Value& v) {
  if (!v.is_array()) return ParseError("expected numeric array");
  std::vector<double> out;
  out.reserve(v.AsArray().size());
  for (const json::Value& d : v.AsArray()) {
    if (!d.is_number()) return ParseError("expected numeric array");
    out.push_back(d.AsDouble());
  }
  return out;
}

}  // namespace

json::Value RepCounterState::ToJson() const {
  json::Value out = json::Value::MakeObject();
  json::Value::Array rows;
  rows.reserve(features.size());
  for (const auto& row : features) rows.push_back(VectorToJson(row));
  out["features"] = json::Value(std::move(rows));
  out["home"] = VectorToJson(home);
  out["home_frames"] = json::Value(home_frames);
  out["reps"] = json::Value(reps);
  out["current_state"] = json::Value(current_state);
  out["pending_state"] = json::Value(pending_state);
  out["pending_run"] = json::Value(pending_run);
  out["frames_seen"] = json::Value(static_cast<double>(frames_seen));
  return out;
}

Result<RepCounterState> RepCounterState::FromJson(const json::Value& v) {
  RepCounterState state;
  if (const json::Value* rows = v.Find("features");
      rows != nullptr && rows->is_array()) {
    for (const json::Value& row : rows->AsArray()) {
      auto vec = VectorFromJson(row);
      if (!vec.ok()) return vec.error();
      state.features.push_back(std::move(*vec));
    }
  }
  if (const json::Value* home = v.Find("home"); home != nullptr) {
    auto vec = VectorFromJson(*home);
    if (!vec.ok()) return vec.error();
    state.home = std::move(*vec);
  }
  state.home_frames = static_cast<int>(v.GetInt("home_frames"));
  state.reps = static_cast<int>(v.GetInt("reps"));
  state.current_state = static_cast<int>(v.GetInt("current_state"));
  state.pending_state = static_cast<int>(v.GetInt("pending_state"));
  state.pending_run = static_cast<int>(v.GetInt("pending_run"));
  state.frames_seen = static_cast<uint64_t>(v.GetInt("frames_seen"));
  return state;
}

Result<RepCounterState> RepCounter::Step(RepCounterState state,
                                         const DetectedPose& pose) const {
  std::vector<double> f = PoseFeatures(pose);
  ++state.frames_seen;

  // Maintain the "home" anchor: mean of the first min_frames features.
  if (state.home_frames < options_.min_frames) {
    if (state.home.empty()) state.home.assign(f.size(), 0.0);
    if (state.home.size() == f.size()) {
      for (size_t i = 0; i < f.size(); ++i) {
        state.home[i] = (state.home[i] * state.home_frames + f[i]) /
                        (state.home_frames + 1);
      }
      ++state.home_frames;
    }
  }

  state.features.push_back(std::move(f));
  while (static_cast<int>(state.features.size()) > options_.window) {
    state.features.erase(state.features.begin());
  }
  if (static_cast<int>(state.features.size()) < options_.min_frames) {
    return state;
  }

  auto clusters = KMeans(state.features, 2, {.seed = kKMeansSeed});
  if (!clusters.ok()) return clusters.error();

  // Trust the clustering only when the two centroids are genuinely
  // apart; otherwise (idle) hold the current state.
  const double separation =
      L2Distance(clusters->centroids[0], clusters->centroids[1]);
  if (separation < kMinClusterSeparation) {
    state.pending_run = 0;
    return state;
  }

  // Canonical labels: the "start" cluster is the one nearer home.
  const int start_cluster =
      L2Distance(clusters->centroids[0], state.home) <=
              L2Distance(clusters->centroids[1], state.home)
          ? 0
          : 1;
  const int current_cluster = clusters->assignment.back();
  const int raw_state = current_cluster == start_cluster ? 0 : 1;

  // Debounce: require `debounce_frames` consecutive frames in the new
  // state before accepting the transition (paper's 4-frame rule).
  if (raw_state == state.current_state) {
    state.pending_run = 0;
    return state;
  }
  if (raw_state == state.pending_state) {
    ++state.pending_run;
  } else {
    state.pending_state = raw_state;
    state.pending_run = 1;
  }
  if (state.pending_run >= options_.debounce_frames) {
    state.current_state = raw_state;
    state.pending_run = 0;
    if (raw_state == 0) {
      // Returned to the initial position: one full rep.
      ++state.reps;
    }
  }
  return state;
}

}  // namespace vp::cv
