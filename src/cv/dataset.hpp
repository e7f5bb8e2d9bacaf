// Synthetic labelled datasets + accuracy evaluation.
//
// Replaces the paper's internally-collected labelled exercise data
// ("The algorithm is trained on all available labelled data except for
// a withheld test set", §4.1.2). Windows are produced by the full
// honest path: motion model → renderer → pixels → pose detector →
// features, so classifier accuracy reflects real detection noise.
//
// Each frame goes through DetectPose(source, seq), which returns
// exactly what DetectPose on the rendered noisy frame returns: it
// renders the clean scene, keeps the pixels whose color noise could
// bring within the detector's tolerance of a joint color (clean
// distance <= tolerance + media::MaxSensorNoiseShift, by the triangle
// inequality), and gives only those their exact sensor noise before
// the same per-pixel rule. Every other pixel fails that rule whatever
// its noise, so the features and trained models are bit-identical to
// detecting on full frames, at a fraction of the cost.
#pragma once

#include <string>
#include <vector>

#include "common/rng.hpp"
#include "cv/activity.hpp"
#include "cv/rep_counter.hpp"
#include "media/renderer.hpp"
#include "media/video_source.hpp"

namespace vp::cv {

struct LabeledWindow {
  std::vector<double> features;
  std::string label;
};

struct DatasetOptions {
  std::vector<std::string> labels = {"idle",  "squat", "jumping_jack",
                                     "lunge", "wave",  "clap"};
  /// Windows generated per label.
  int samples_per_label = 14;
  double fps = 15.0;
  uint64_t seed = 99;
};

/// Render-and-detect a full labelled window dataset.
std::vector<LabeledWindow> GenerateActivityDataset(
    const DatasetOptions& options);

struct SplitDataset {
  std::vector<LabeledWindow> train;
  std::vector<LabeledWindow> test;
};

/// Shuffled split with the given withheld-test fraction.
SplitDataset SplitTrainTest(std::vector<LabeledWindow> windows,
                            double test_fraction, uint64_t seed);

/// Fit a kNN activity classifier on training windows.
ActivityClassifier TrainActivityClassifier(
    const std::vector<LabeledWindow>& train, int k = 3);

/// Fraction of test windows classified correctly.
double EvaluateActivityAccuracy(const ActivityClassifier& classifier,
                                const std::vector<LabeledWindow>& test);

struct RepEvalResult {
  int true_reps = 0;
  int counted_reps = 0;
  /// 1 - |counted-true|/true (clamped to [0,1]); 1.0 when both zero.
  double accuracy = 0;
};

/// Run the rep counter end-to-end (render → detect → count) over an
/// exercise clip and compare with motion-model ground truth. `scene`
/// controls difficulty (resolution, person size, noise).
Result<RepEvalResult> EvaluateRepCounter(const std::string& exercise,
                                         double duration_seconds, double fps,
                                         media::MotionParams params,
                                         uint64_t seed,
                                         RepCounterOptions options = {},
                                         media::SceneOptions scene = {});

}  // namespace vp::cv
