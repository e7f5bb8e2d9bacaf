// Tests for the vision algorithms: pose detection, features, kNN,
// k-means, rep counting, object/face/fall detection, classification.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "cv/activity.hpp"
#include "cv/classifier.hpp"
#include "cv/face_detector.hpp"
#include "cv/fall_detector.hpp"
#include "cv/features.hpp"
#include "cv/kmeans.hpp"
#include "cv/knn.hpp"
#include "cv/object_detector.hpp"
#include "cv/pose_detector.hpp"
#include "cv/rep_counter.hpp"
#include "media/codec.hpp"
#include "media/renderer.hpp"
#include "media/video_source.hpp"
#include "scene_matrix.hpp"

namespace vp::cv {
namespace {

media::Image RenderStanding(uint64_t seed = 1,
                            media::SceneOptions scene = {}) {
  return media::RenderScene(media::Pose::Standing(), scene, seed);
}

// --------------------------------------------------------- PoseDetector

TEST(PoseDetector, RecoversStandingPose) {
  media::SceneOptions scene;
  const media::Pose truth = media::Pose::Standing();
  const DetectedPose pose = DetectPose(RenderStanding(3, scene));
  EXPECT_TRUE(pose.person_found());
  EXPECT_GE(pose.num_detected, 15);
  // Compare detected pixel positions to the ground-truth transform.
  double err = 0;
  int counted = 0;
  for (int k = 0; k < media::kNumKeypoints; ++k) {
    const DetectedKeypoint& kp = pose.keypoints[static_cast<size_t>(k)];
    if (!kp.detected) continue;
    const media::Point2 expected = media::BodyToPixel(truth[k], scene);
    err += std::hypot(kp.x - expected.x, kp.y - expected.y);
    ++counted;
  }
  EXPECT_GE(counted, 15);
  EXPECT_LT(err / counted, 2.5) << "mean keypoint error (pixels)";
}

TEST(PoseDetector, BoundingBoxCoversDetectedJoints) {
  const DetectedPose pose = DetectPose(RenderStanding(4));
  ASSERT_TRUE(pose.bbox.valid);
  for (const DetectedKeypoint& kp : pose.keypoints) {
    if (!kp.detected) continue;
    EXPECT_GE(kp.x, pose.bbox.x0);
    EXPECT_LE(kp.x, pose.bbox.x1);
    EXPECT_GE(kp.y, pose.bbox.y0);
    EXPECT_LE(kp.y, pose.bbox.y1);
  }
  EXPECT_GT(pose.bbox.height(), pose.bbox.width());  // standing person
}

TEST(PoseDetector, EmptyRoomFindsNoPerson) {
  media::SceneOptions scene;
  media::Pose hidden;
  hidden.visible.fill(false);
  const DetectedPose pose =
      DetectPose(media::RenderScene(hidden, scene, 5));
  EXPECT_FALSE(pose.person_found());
  EXPECT_EQ(pose.num_detected, 0);
  EXPECT_FALSE(pose.bbox.valid);
}

TEST(PoseDetector, OcclusionLosesJoints) {
  // A clap brings the wrists together: markers overlap and at least
  // one of them is occluded at the clap apex.
  media::MotionParams params;
  params.period = 2.0;
  auto clap = media::MakeMotion("clap", params);
  media::SceneOptions scene;
  const media::Pose apex = (*clap)->PoseAt(1.0);  // hands together
  const DetectedPose pose = DetectPose(media::RenderScene(apex, scene, 6));
  const bool left = pose.keypoints[media::kLeftWrist].detected;
  const bool right = pose.keypoints[media::kRightWrist].detected;
  EXPECT_FALSE(left && right) << "clapped wrists should occlude";
  // Still a person though.
  EXPECT_TRUE(pose.person_found());
}

TEST(PoseDetector, JsonRoundTrip) {
  const DetectedPose pose = DetectPose(RenderStanding(7));
  auto back = DetectedPose::FromJson(pose.ToJson());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->num_detected, pose.num_detected);
  EXPECT_EQ(back->bbox.valid, pose.bbox.valid);
  for (int k = 0; k < media::kNumKeypoints; ++k) {
    EXPECT_DOUBLE_EQ(back->keypoints[static_cast<size_t>(k)].x,
                     pose.keypoints[static_cast<size_t>(k)].x);
    EXPECT_EQ(back->keypoints[static_cast<size_t>(k)].detected,
              pose.keypoints[static_cast<size_t>(k)].detected);
  }
}

TEST(PoseDetector, FromJsonRejectsBadInput) {
  EXPECT_FALSE(DetectedPose::FromJson(json::Value::MakeObject()).ok());
  EXPECT_FALSE(DetectedPose::FromJson(json::Value("x")).ok());
}

TEST(PoseDetector, CostGrowsWithResolution) {
  EXPECT_GT(PoseDetectCost(640, 480).millis(),
            PoseDetectCost(320, 240).millis());
  // The Fig. 6 calibration point: ~55 ms at 320×240 reference speed.
  EXPECT_NEAR(PoseDetectCost(320, 240).millis(), 55.0, 3.0);
}

/// The first field in which two detections differ, doubles compared bit
/// for bit; empty when they agree everywhere.
std::string FirstDifference(const DetectedPose& a, const DetectedPose& b) {
  auto same = [](double x, double y) {
    return std::bit_cast<uint64_t>(x) == std::bit_cast<uint64_t>(y);
  };
  for (int k = 0; k < media::kNumKeypoints; ++k) {
    const DetectedKeypoint& ka = a.keypoints[static_cast<size_t>(k)];
    const DetectedKeypoint& kb = b.keypoints[static_cast<size_t>(k)];
    if (ka.detected != kb.detected || !same(ka.x, kb.x) ||
        !same(ka.y, kb.y) || !same(ka.confidence, kb.confidence)) {
      return std::string("keypoint ") + media::KeypointName(k);
    }
  }
  if (a.bbox.valid != b.bbox.valid || !same(a.bbox.x0, b.bbox.x0) ||
      !same(a.bbox.y0, b.bbox.y0) || !same(a.bbox.x1, b.bbox.x1) ||
      !same(a.bbox.y1, b.bbox.y1)) {
    return "bbox";
  }
  if (a.num_detected != b.num_detected) return "num_detected";
  return "";
}

TEST(PoseDetector, CapturedFrameDetectionIsBitIdenticalToTheImagePath) {
  // The prop tolerance + 4 levels off the nose color matches only
  // through noise: the liveness bound must carry the noise shift for
  // those frames to agree.
  int mismatches = 0;
  std::string first_mismatch;
  const int frames = test_support::ForEachMatrixFrame(
      [&](const media::SyntheticVideoSource& source, uint64_t seq,
          const std::string& where) {
        const std::string diff = FirstDifference(
            DetectPose(source.CaptureFrame(seq).image),
            DetectPose(source, seq));
        if (!diff.empty() && mismatches++ == 0) {
          first_mismatch = diff + " at " + where;
        }
      });
  EXPECT_EQ(frames, 1680);
  EXPECT_EQ(mismatches, 0) << "first: " << first_mismatch;
}

TEST(PoseDetector, RunDetectionIsBitIdenticalToTheImagePath) {
  // The pose service's path: the camera's bytes, detected on their runs,
  // against the same bytes decoded and detected pixel by pixel.
  int mismatches = 0;
  int people = 0;
  std::string first_mismatch;
  const int frames = test_support::ForEachMatrixFrame(
      [&](const media::SyntheticVideoSource& source, uint64_t seq,
          const std::string& where) {
        const Bytes wire = source.CaptureEncoded(seq, source.CaptureTime(seq));
        const auto decoded = media::DecodeFrame(wire);
        const auto encoded = media::EncodedFrame::Parse(wire);
        ASSERT_TRUE(decoded.ok() && encoded.ok()) << where;
        const DetectedPose from_pixels = DetectPose(decoded->image);
        if (from_pixels.person_found()) ++people;
        const std::string diff =
            FirstDifference(from_pixels, DetectPose(*encoded));
        if (!diff.empty() && mismatches++ == 0) {
          first_mismatch = diff + " at " + where;
        }
      });
  EXPECT_EQ(frames, 1680);
  EXPECT_EQ(mismatches, 0) << "first: " << first_mismatch;
  // Not vacuous: most frames hold a detectable person.
  EXPECT_GT(people, frames / 2);
}

// ------------------------------------------------------------- Features

TEST(Features, HipCenteredAndScaleInvariant) {
  // Higher resolution so the far person's joints stay resolvable.
  media::SceneOptions near_scene;
  near_scene.width = 320;
  near_scene.height = 240;
  near_scene.person_height = 0.9;
  media::SceneOptions far_scene = near_scene;
  far_scene.person_height = 0.6;
  far_scene.person_center_x = 0.35;  // also translated

  // Same body pose at two distances/positions, and a different pose at
  // the original distance. Scale/translation must matter LESS than the
  // actual pose change.
  media::MotionParams params;
  params.period = 2.0;
  auto squat = media::MakeMotion("squat", params);
  const media::Pose squatting = (*squat)->PoseAt(1.0);

  const auto near_features = PoseFeatures(
      DetectPose(media::RenderScene(media::Pose::Standing(), near_scene, 8)));
  const auto far_features = PoseFeatures(
      DetectPose(media::RenderScene(media::Pose::Standing(), far_scene, 9)));
  const auto squat_features = PoseFeatures(
      DetectPose(media::RenderScene(squatting, near_scene, 10)));
  ASSERT_EQ(near_features.size(), 34u);
  ASSERT_EQ(far_features.size(), 34u);

  const double same_pose = L2Distance(near_features, far_features);
  const double different_pose = L2Distance(near_features, squat_features);
  EXPECT_LT(same_pose, different_pose * 0.8)
      << "same=" << same_pose << " different=" << different_pose;
}

TEST(Features, WindowConcatenates) {
  const DetectedPose pose = DetectPose(RenderStanding(10));
  const auto window = WindowFeatures({pose, pose, pose});
  EXPECT_EQ(window.size(), 3u * 34u);
}

TEST(Features, UndetectedJointsImputeHipCenter) {
  DetectedPose pose;  // nothing detected
  const auto features = PoseFeatures(pose);
  for (double f : features) EXPECT_DOUBLE_EQ(f, 0.0);
}

TEST(Features, L2DistancePenalizesLengthMismatch) {
  EXPECT_GT(L2Distance({1, 2, 3}, {1, 2}), 5.0);
  EXPECT_DOUBLE_EQ(L2Distance({1, 2}, {1, 2}), 0.0);
  EXPECT_DOUBLE_EQ(L2Distance({0, 0}, {3, 4}), 5.0);
}

// ------------------------------------------------------------------ kNN

TEST(Knn, MajorityVoteWithConfidence) {
  KnnClassifier knn(3);
  knn.Add({0, 0}, "a");
  knn.Add({0.1, 0}, "a");
  knn.Add({10, 10}, "b");
  knn.Add({10, 10.1}, "b");
  auto p = knn.Predict({0.05, 0.0});
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->label, "a");
  EXPECT_NEAR(p->confidence, 2.0 / 3.0, 1e-9);
  EXPECT_LT(p->nearest_distance, 0.1);
}

TEST(Knn, EmptyModelErrors) {
  KnnClassifier knn;
  EXPECT_EQ(knn.Predict({1.0}).code(), StatusCode::kFailedPrecondition);
}

TEST(Knn, KLargerThanSamplesClamps) {
  KnnClassifier knn(5);
  knn.Add({0}, "only");
  auto p = knn.Predict({1});
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->label, "only");
}

TEST(Knn, JsonRoundTripPreservesPredictions) {
  KnnClassifier knn(3);
  Rng rng(4);
  for (int i = 0; i < 30; ++i) {
    const double base = (i % 3) * 5.0;
    knn.Add({base + rng.NextDouble(), base - rng.NextDouble()},
            "class" + std::to_string(i % 3));
  }
  auto restored = KnnClassifier::FromJson(knn.ToJson());
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->size(), knn.size());
  for (double probe = -1; probe < 12; probe += 0.7) {
    auto a = knn.Predict({probe, probe});
    auto b = restored->Predict({probe, probe});
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(a->label, b->label);
  }
}

// --------------------------------------------------------------- KMeans

TEST(KMeans, SeparatesTwoBlobs) {
  Rng rng(5);
  std::vector<std::vector<double>> points;
  for (int i = 0; i < 40; ++i) {
    points.push_back({rng.NextGaussian(0, 0.3), rng.NextGaussian(0, 0.3)});
    points.push_back({rng.NextGaussian(8, 0.3), rng.NextGaussian(8, 0.3)});
  }
  auto result = KMeans(points, 2);
  ASSERT_TRUE(result.ok());
  // One centroid near (0,0), one near (8,8).
  const auto& c = result->centroids;
  const bool ordered = c[0][0] < 4.0;
  const auto& low = ordered ? c[0] : c[1];
  const auto& high = ordered ? c[1] : c[0];
  EXPECT_NEAR(low[0], 0.0, 0.5);
  EXPECT_NEAR(high[0], 8.0, 0.5);
  // Assignments split evenly.
  int count0 = 0;
  for (int a : result->assignment) count0 += a == 0 ? 1 : 0;
  EXPECT_EQ(count0, 40);
}

TEST(KMeans, DeterministicPerSeed) {
  Rng rng(6);
  std::vector<std::vector<double>> points;
  for (int i = 0; i < 50; ++i) {
    points.push_back({rng.NextDouble() * 10, rng.NextDouble() * 10});
  }
  KMeansOptions options;
  options.seed = 17;
  auto a = KMeans(points, 3, options);
  auto b = KMeans(points, 3, options);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->assignment, b->assignment);
  EXPECT_DOUBLE_EQ(a->inertia, b->inertia);
}

TEST(KMeans, Validation) {
  EXPECT_FALSE(KMeans({}, 2).ok());
  EXPECT_FALSE(KMeans({{1.0}}, 2).ok());
  EXPECT_FALSE(KMeans({{1.0}, {1.0, 2.0}}, 1).ok());  // dim mismatch
  EXPECT_FALSE(KMeans({{1.0}}, 0).ok());
}

TEST(KMeans, IdenticalPointsDoNotCrash) {
  std::vector<std::vector<double>> points(10, {3.0, 3.0});
  auto result = KMeans(points, 2);
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result->inertia, 0.0);
}

TEST(KMeans, NearestCentroid) {
  std::vector<std::vector<double>> centroids{{0, 0}, {10, 0}};
  EXPECT_EQ(NearestCentroid(centroids, {1, 1}), 0);
  EXPECT_EQ(NearestCentroid(centroids, {9, 1}), 1);
}

// ----------------------------------------------------------- RepCounter

/// Build a synthetic feature sequence alternating between two poses —
/// exercises the counting logic without rendering.
DetectedPose PoseWithHipY(double y) {
  DetectedPose pose;
  for (int k = 0; k < media::kNumKeypoints; ++k) {
    auto& kp = pose.keypoints[static_cast<size_t>(k)];
    kp.detected = true;
    kp.x = 10.0 + k;
    kp.y = 50.0 + k;
  }
  // Move wrists far down to create a distinct "end" position.
  pose.keypoints[media::kLeftWrist].y = y;
  pose.keypoints[media::kRightWrist].y = y;
  pose.num_detected = 17;
  pose.bbox = {0, 0, 60, 120, true};
  return pose;
}

TEST(RepCounter, CountsAlternatingStates) {
  RepCounterOptions options;
  options.min_frames = 6;
  options.window = 48;
  RepCounter counter(options);
  RepCounterState state;
  const DetectedPose start = PoseWithHipY(60.0);
  const DetectedPose end = PoseWithHipY(140.0);

  // 6 cycles of 8 frames start / 8 frames end.
  for (int cycle = 0; cycle < 6; ++cycle) {
    for (int i = 0; i < 8; ++i) {
      state = *counter.Step(std::move(state), start);
    }
    for (int i = 0; i < 8; ++i) {
      state = *counter.Step(std::move(state), end);
    }
  }
  for (int i = 0; i < 8; ++i) {
    state = *counter.Step(std::move(state), start);
  }
  EXPECT_GE(state.reps, 5);
  EXPECT_LE(state.reps, 6);
}

TEST(RepCounter, DebounceIgnoresSingleFrameFlickers) {
  RepCounterOptions options;
  options.min_frames = 6;
  options.debounce_frames = 4;
  RepCounter counter(options);
  RepCounterState state;
  const DetectedPose start = PoseWithHipY(60.0);
  const DetectedPose end = PoseWithHipY(140.0);
  // Warm up at start, then single-frame blips that must not count.
  for (int i = 0; i < 10; ++i) state = *counter.Step(std::move(state), start);
  for (int blip = 0; blip < 8; ++blip) {
    state = *counter.Step(std::move(state), end);  // 1 frame only
    for (int i = 0; i < 4; ++i) {
      state = *counter.Step(std::move(state), start);
    }
  }
  EXPECT_EQ(state.reps, 0);
}

TEST(RepCounter, IdleCountsNothing) {
  RepCounter counter;
  RepCounterState state;
  const DetectedPose still = PoseWithHipY(60.0);
  for (int i = 0; i < 120; ++i) {
    state = *counter.Step(std::move(state), still);
  }
  EXPECT_EQ(state.reps, 0);
}

TEST(RepCounter, StateJsonRoundTrip) {
  RepCounter counter;
  RepCounterState state;
  for (int i = 0; i < 20; ++i) {
    state = *counter.Step(std::move(state),
                          PoseWithHipY(i % 2 == 0 ? 60.0 : 140.0));
  }
  auto restored = RepCounterState::FromJson(state.ToJson());
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->reps, state.reps);
  EXPECT_EQ(restored->current_state, state.current_state);
  EXPECT_EQ(restored->frames_seen, state.frames_seen);
  EXPECT_EQ(restored->features.size(), state.features.size());
  // Continuing from the restored state behaves identically.
  auto a = counter.Step(state, PoseWithHipY(140.0));
  auto b = counter.Step(*restored, PoseWithHipY(140.0));
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->reps, b->reps);
  EXPECT_EQ(a->current_state, b->current_state);
}

// ------------------------------------------------------- ObjectDetector

TEST(ObjectDetector, FindsRegisteredProps) {
  media::SceneOptions scene;
  scene.props.push_back(
      media::Prop{"lamp", 0.05, 0.1, 0.08, 0.25, media::Rgb{200, 160, 40}});
  scene.props.push_back(
      media::Prop{"speaker", 0.8, 0.6, 0.1, 0.3, media::Rgb{40, 60, 180}});
  media::Pose hidden;
  hidden.visible.fill(false);
  const media::Image image = media::RenderScene(hidden, scene, 12);

  ObjectDetectorOptions options;
  options.classes = {{"lamp", media::Rgb{200, 160, 40}},
                     {"speaker", media::Rgb{40, 60, 180}}};
  const auto objects = DetectObjects(image, options);
  ASSERT_EQ(objects.size(), 2u);
  std::set<std::string> names;
  for (const auto& object : objects) {
    names.insert(object.class_name);
    EXPECT_GT(object.confidence, 0.3);
    EXPECT_GT(object.pixels, 20);
  }
  EXPECT_TRUE(names.count("lamp"));
  EXPECT_TRUE(names.count("speaker"));
}

TEST(ObjectDetector, IgnoresThePerson) {
  media::SceneOptions scene;  // no props
  const media::Image image =
      media::RenderScene(media::Pose::Standing(), scene, 13);
  ObjectDetectorOptions options;
  options.classes = {{"lamp", media::Rgb{200, 160, 40}}};
  options.min_blob_pixels = 25;
  const auto objects = DetectObjects(image, options);
  EXPECT_TRUE(objects.empty());
}

TEST(ObjectDetector, UnknownColorsLabeledUnknown) {
  media::SceneOptions scene;
  scene.props.push_back(
      media::Prop{"mystery", 0.1, 0.1, 0.15, 0.2, media::Rgb{210, 40, 210}});
  media::Pose hidden;
  hidden.visible.fill(false);
  const media::Image image = media::RenderScene(hidden, scene, 14);
  ObjectDetectorOptions options;
  options.classes = {{"lamp", media::Rgb{200, 160, 40}}};
  const auto objects = DetectObjects(image, options);
  ASSERT_EQ(objects.size(), 1u);
  EXPECT_EQ(objects[0].class_name, "unknown");
  EXPECT_DOUBLE_EQ(objects[0].confidence, 0.0);
}

// --------------------------------------------------------- FaceDetector

TEST(FaceDetector, FindsFaceOnStandingPerson) {
  const media::Image image = RenderStanding(15);
  const DetectedFace face = DetectFace(image);
  ASSERT_TRUE(face.found);
  // The face box surrounds the nose.
  media::SceneOptions scene;
  const media::Point2 nose =
      media::BodyToPixel(media::Pose::Standing()[media::kNose], scene);
  EXPECT_GT(nose.x, face.x0);
  EXPECT_LT(nose.x, face.x1);
  EXPECT_GT(nose.y, face.y0);
  EXPECT_LT(nose.y, face.y1);
}

TEST(FaceDetector, NoFaceInEmptyRoom) {
  media::SceneOptions scene;
  media::Pose hidden;
  hidden.visible.fill(false);
  EXPECT_FALSE(DetectFace(media::RenderScene(hidden, scene, 16)).found);
}

TEST(FaceDetector, PoseFastPathMatchesImagePath) {
  const media::Image image = RenderStanding(17);
  const DetectedPose pose = DetectPose(image);
  const DetectedFace from_pose = FaceFromPose(pose);
  const DetectedFace from_image = DetectFace(image);
  EXPECT_EQ(from_pose.found, from_image.found);
  EXPECT_NEAR(from_pose.x0, from_image.x0, 1e-9);
}

// --------------------------------------------------------- FallDetector

TEST(FallDetector, StandingIsNotFallen) {
  std::vector<DetectedPose> window;
  for (int i = 0; i < 8; ++i) {
    window.push_back(DetectPose(RenderStanding(20 + i)));
  }
  const FallAssessment assessment = AssessFall(window);
  EXPECT_FALSE(assessment.fallen);
  EXPECT_LT(assessment.torso_angle_deg, 30.0);
}

TEST(FallDetector, LyingIsFallen) {
  media::MotionParams params;
  params.period = 4.0;
  auto fall = media::MakeMotion("fall", params);
  media::SceneOptions scene;
  std::vector<DetectedPose> window;
  for (int i = 0; i < 8; ++i) {
    // Sample the lying phase.
    const media::Pose pose = (*fall)->PoseAt(3.5 + 0.05 * i);
    window.push_back(DetectPose(media::RenderScene(pose, scene, 30 + i)));
  }
  const FallAssessment assessment = AssessFall(window);
  EXPECT_TRUE(assessment.fallen);
  EXPECT_GT(assessment.torso_angle_deg, 55.0);
  EXPECT_GT(assessment.fallen_fraction, 0.6);
}

TEST(FallDetector, EmptyWindowSafe) {
  EXPECT_FALSE(AssessFall({}).fallen);
}

// ------------------------------------------------------ ImageClassifier

TEST(ImageClassifier, SeparatesPersonFromEmptyRoom) {
  ImageClassifier classifier(10);
  media::SceneOptions scene;
  media::Pose hidden;
  hidden.visible.fill(false);
  for (uint64_t s = 0; s < 8; ++s) {
    classifier.Train("person", RenderStanding(40 + s, scene));
    classifier.Train("empty", media::RenderScene(hidden, scene, 60 + s));
  }
  EXPECT_EQ(classifier.num_classes(), 2u);
  auto person = classifier.Classify(RenderStanding(99, scene));
  ASSERT_TRUE(person.ok());
  EXPECT_EQ(person->label, "person");
  auto empty = classifier.Classify(media::RenderScene(hidden, scene, 98));
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty->label, "empty");
}

TEST(ImageClassifier, UntrainedErrors) {
  ImageClassifier classifier;
  EXPECT_EQ(classifier.Classify(media::Image(8, 8)).code(),
            StatusCode::kFailedPrecondition);
}

TEST(ImageClassifier, JsonRoundTrip) {
  ImageClassifier classifier(6);
  classifier.Train("a", media::Image(12, 12, media::Rgb{200, 200, 200}));
  classifier.Train("b", media::Image(12, 12, media::Rgb{20, 20, 20}));
  auto restored = ImageClassifier::FromJson(classifier.ToJson());
  ASSERT_TRUE(restored.ok());
  auto p = restored->Classify(media::Image(12, 12, media::Rgb{190, 190, 190}));
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->label, "a");
}

// --------------------------------------------------- ActivityClassifier

TEST(ActivityClassifier, ClassifiesFromSerializedModel) {
  // Tiny two-class model over window features.
  KnnClassifier knn(1);
  std::vector<double> squat_features(15 * 34, 0.2);
  std::vector<double> wave_features(15 * 34, -0.4);
  knn.Add(squat_features, "squat");
  knn.Add(wave_features, "wave");
  ActivityClassifier classifier(std::move(knn));

  auto p = classifier.ClassifyFeatures(std::vector<double>(15 * 34, 0.19));
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->label, "squat");

  auto restored = ActivityClassifier::FromJson(classifier.ToJson());
  ASSERT_TRUE(restored.ok());
  auto p2 = restored->ClassifyFeatures(std::vector<double>(15 * 34, -0.35));
  ASSERT_TRUE(p2.ok());
  EXPECT_EQ(p2->label, "wave");
}

}  // namespace
}  // namespace vp::cv
