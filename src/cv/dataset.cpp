#include "cv/dataset.hpp"

#include <algorithm>
#include <cmath>

#include "cv/features.hpp"

namespace vp::cv {

namespace {

/// Label-appropriate cycle period range (seconds).
std::pair<double, double> PeriodRange(const std::string& label) {
  if (label == "jumping_jack") return {1.1, 1.8};
  if (label == "clap") return {0.8, 1.4};
  if (label == "wave") return {0.9, 1.6};
  if (label == "squat") return {1.8, 3.0};
  if (label == "lunge") return {2.2, 3.4};
  return {3.0, 5.0};  // idle sway
}

}  // namespace

std::vector<LabeledWindow> GenerateActivityDataset(
    const DatasetOptions& options) {
  std::vector<LabeledWindow> windows;
  Rng rng(options.seed);
  for (const std::string& label : options.labels) {
    const auto [period_lo, period_hi] = PeriodRange(label);
    for (int s = 0; s < options.samples_per_label; ++s) {
      media::MotionParams params;
      params.period = rng.NextRange(period_lo, period_hi);
      params.amplitude = rng.NextRange(0.85, 1.15);
      params.phase = rng.NextDouble();
      const double clip_duration =
          (kActivityWindow + 2) / options.fps + params.period;
      auto script = media::MotionScript::Make(
          {{label, clip_duration, params}});
      // Labels come from KnownMotionLabels; Make cannot fail here.
      media::SyntheticVideoSource source(std::move(*script), options.fps,
                                         media::SceneOptions{}, rng.NextU64());
      const auto start =
          static_cast<uint64_t>(rng.NextInt(0, 2));
      std::vector<DetectedPose> poses;
      poses.reserve(kActivityWindow);
      for (int f = 0; f < kActivityWindow; ++f) {
        poses.push_back(DetectPose(source, start + f));
      }
      windows.push_back(LabeledWindow{WindowFeatures(poses), label});
    }
  }
  return windows;
}

SplitDataset SplitTrainTest(std::vector<LabeledWindow> windows,
                            double test_fraction, uint64_t seed) {
  Rng rng(seed);
  rng.Shuffle(windows);
  SplitDataset split;
  const size_t test_count = static_cast<size_t>(
      std::llround(static_cast<double>(windows.size()) * test_fraction));
  for (size_t i = 0; i < windows.size(); ++i) {
    if (i < test_count) {
      split.test.push_back(std::move(windows[i]));
    } else {
      split.train.push_back(std::move(windows[i]));
    }
  }
  return split;
}

ActivityClassifier TrainActivityClassifier(
    const std::vector<LabeledWindow>& train, int k) {
  KnnClassifier knn(k);
  for (const LabeledWindow& w : train) {
    knn.Add(w.features, w.label);
  }
  return ActivityClassifier(std::move(knn));
}

double EvaluateActivityAccuracy(const ActivityClassifier& classifier,
                                const std::vector<LabeledWindow>& test) {
  if (test.empty()) return 0.0;
  int correct = 0;
  for (const LabeledWindow& w : test) {
    auto prediction = classifier.ClassifyFeatures(w.features);
    if (prediction.ok() && prediction->label == w.label) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(test.size());
}

Result<RepEvalResult> EvaluateRepCounter(const std::string& exercise,
                                         double duration_seconds, double fps,
                                         media::MotionParams params,
                                         uint64_t seed,
                                         RepCounterOptions options,
                                         media::SceneOptions scene) {
  auto script = media::MotionScript::Make(
      {{exercise, duration_seconds, params}});
  if (!script.ok()) return script.error();
  auto model = media::MakeMotion(exercise, params);
  if (!model.ok()) return model.error();

  media::SyntheticVideoSource source(std::move(*script), fps, scene, seed);
  RepCounter counter(options);
  RepCounterState state;
  const auto frames =
      static_cast<uint64_t>(std::floor(duration_seconds * fps));
  for (uint64_t f = 0; f < frames; ++f) {
    auto next = counter.Step(std::move(state), DetectPose(source, f));
    if (!next.ok()) return next.error();
    state = std::move(*next);
  }

  RepEvalResult result;
  result.true_reps = (*model)->RepsCompleted(duration_seconds);
  result.counted_reps = state.reps;
  if (result.true_reps == 0) {
    result.accuracy = result.counted_reps == 0 ? 1.0 : 0.0;
  } else {
    result.accuracy = std::clamp(
        1.0 - std::abs(result.counted_reps - result.true_reps) /
                  static_cast<double>(result.true_reps),
        0.0, 1.0);
  }
  return result;
}

}  // namespace vp::cv
