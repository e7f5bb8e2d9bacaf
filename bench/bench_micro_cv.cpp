// Microbenchmarks: the CV kernels that the services run for real.
#include <benchmark/benchmark.h>

#include "cv/features.hpp"
#include "cv/kmeans.hpp"
#include "cv/pose_detector.hpp"
#include "cv/rep_counter.hpp"
#include "media/codec.hpp"
#include "media/renderer.hpp"
#include "media/video_source.hpp"
#include "services/models.hpp"

using namespace vp;

namespace {

void BM_DetectPose(benchmark::State& state) {
  media::SceneOptions scene;
  scene.width = static_cast<int>(state.range(0));
  scene.height = scene.width * 3 / 4;
  const media::Image image =
      media::RenderScene(media::Pose::Standing(), scene, 1);
  for (auto _ : state) {
    const cv::DetectedPose pose = cv::DetectPose(image);
    benchmark::DoNotOptimize(pose.num_detected);
  }
}
BENCHMARK(BM_DetectPose)->Arg(160)->Arg(320)->Arg(640);

// The pose service's path: the same frame as BM_DetectPose/320 after
// the codec, detected on its runs without decoding a pixel.
void BM_DetectPoseRuns(benchmark::State& state) {
  media::SceneOptions scene;
  scene.width = 320;
  scene.height = 240;
  media::Frame frame;
  frame.image = media::RenderScene(media::Pose::Standing(), scene, 1);
  const auto encoded = media::EncodedFrame::Parse(media::EncodeFrame(frame));
  for (auto _ : state) {
    const cv::DetectedPose pose = cv::DetectPose(*encoded);
    benchmark::DoNotOptimize(pose.num_detected);
  }
  state.counters["runs"] = static_cast<double>(encoded->runs().size() / 4);
}
BENCHMARK(BM_DetectPoseRuns);

// Training set-up's per-frame work at the default 160×120: render a
// squat frame and detect its pose, through the full noisy image or
// through the exact sparse path (noise only on the pixels the detector
// could match).
media::SyntheticVideoSource SquatSource() {
  auto script = media::MotionScript::Make({{"squat", 10.0, {}}});
  return media::SyntheticVideoSource(std::move(*script), 15.0);
}

void BM_CaptureFrameDetectPose(benchmark::State& state) {
  const media::SyntheticVideoSource source = SquatSource();
  uint64_t seq = 0;
  for (auto _ : state) {
    const cv::DetectedPose pose =
        cv::DetectPose(source.CaptureFrame(seq++ % 150).image);
    benchmark::DoNotOptimize(pose.num_detected);
  }
}
BENCHMARK(BM_CaptureFrameDetectPose);

void BM_DetectCapturedPose(benchmark::State& state) {
  const media::SyntheticVideoSource source = SquatSource();
  uint64_t seq = 0;
  for (auto _ : state) {
    const cv::DetectedPose pose = cv::DetectPose(source, seq++ % 150);
    benchmark::DoNotOptimize(pose.num_detected);
  }
}
BENCHMARK(BM_DetectCapturedPose);

void BM_PoseFeatures(benchmark::State& state) {
  const media::Image image = media::RenderScene(media::Pose::Standing(),
                                                media::SceneOptions{}, 1);
  const cv::DetectedPose pose = cv::DetectPose(image);
  for (auto _ : state) {
    const auto features = cv::PoseFeatures(pose);
    benchmark::DoNotOptimize(features.data());
  }
}
BENCHMARK(BM_PoseFeatures);

void BM_ActivityClassify(benchmark::State& state) {
  const auto artifact =
      services::DefaultArtifactForKind(modelreg::kActivityKind);
  const cv::ActivityClassifier& model = *artifact->activity;
  const media::Image image = media::RenderScene(media::Pose::Standing(),
                                                media::SceneOptions{}, 1);
  const cv::DetectedPose pose = cv::DetectPose(image);
  const std::vector<cv::DetectedPose> window(cv::kActivityWindow, pose);
  const auto features = cv::WindowFeatures(window);
  for (auto _ : state) {
    auto prediction = model.ClassifyFeatures(features);
    benchmark::DoNotOptimize(prediction);
  }
}
BENCHMARK(BM_ActivityClassify);

void BM_KMeansWindow(benchmark::State& state) {
  Rng rng(3);
  std::vector<std::vector<double>> points;
  for (int i = 0; i < 64; ++i) {
    std::vector<double> p(34);
    for (double& d : p) d = rng.NextGaussian(i % 2 ? 1.0 : 0.0, 0.2);
    points.push_back(std::move(p));
  }
  for (auto _ : state) {
    auto result = cv::KMeans(points, 2);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_KMeansWindow);

void BM_RepCounterStep(benchmark::State& state) {
  const media::Image image = media::RenderScene(media::Pose::Standing(),
                                                media::SceneOptions{}, 1);
  const cv::DetectedPose pose = cv::DetectPose(image);
  const cv::RepCounter counter;
  cv::RepCounterState rep_state;
  // Pre-fill the window so the steady-state path (with k-means) runs.
  for (int i = 0; i < 64; ++i) {
    rep_state = *counter.Step(std::move(rep_state), pose);
  }
  for (auto _ : state) {
    rep_state = *counter.Step(std::move(rep_state), pose);
    benchmark::DoNotOptimize(rep_state.reps);
  }
}
BENCHMARK(BM_RepCounterStep);

void BM_RepStateJsonRoundTrip(benchmark::State& state) {
  const media::Image image = media::RenderScene(media::Pose::Standing(),
                                                media::SceneOptions{}, 1);
  const cv::DetectedPose pose = cv::DetectPose(image);
  const cv::RepCounter counter;
  cv::RepCounterState rep_state;
  for (int i = 0; i < 64; ++i) {
    rep_state = *counter.Step(std::move(rep_state), pose);
  }
  for (auto _ : state) {
    auto restored = cv::RepCounterState::FromJson(rep_state.ToJson());
    benchmark::DoNotOptimize(restored);
  }
}
BENCHMARK(BM_RepStateJsonRoundTrip);

}  // namespace
// (appended) tracker microbenchmark
#include "cv/tracker.hpp"

namespace {

void BM_TrackerUpdate(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  vp::cv::TrackerState tracker_state;
  std::vector<vp::cv::DetectedObject> detections;
  for (int i = 0; i < n; ++i) {
    vp::cv::DetectedObject det;
    det.class_name = "object";
    det.x0 = i * 40.0;
    det.x1 = det.x0 + 30.0;
    det.y0 = 10;
    det.y1 = 40;
    detections.push_back(det);
  }
  tracker_state = vp::cv::UpdateTracks(std::move(tracker_state), detections);
  for (auto _ : state) {
    for (auto& det : detections) {
      det.x0 += 2;
      det.x1 += 2;
    }
    tracker_state =
        vp::cv::UpdateTracks(std::move(tracker_state), detections);
    benchmark::DoNotOptimize(tracker_state.tracks.size());
  }
}
BENCHMARK(BM_TrackerUpdate)->Arg(2)->Arg(8)->Arg(32);

}  // namespace
