// Tests for the media substrate: images, skeleton/motion models, the
// renderer, the codec, frame stores and the synthetic camera.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <ostream>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "cv/pose_detector.hpp"
#include "media/codec.hpp"
#include "media/frame_store.hpp"
#include "media/motion.hpp"
#include "media/renderer.hpp"
#include "media/video_source.hpp"
#include "scene_matrix.hpp"

namespace vp::media {
namespace {

/// A frame holding only a black image of the given size.
Frame BlankFrame(int width, int height) {
  Frame frame;
  frame.image = Image(width, height);
  return frame;
}

// ---------------------------------------------------------------- Image

TEST(Image, ConstructionAndPixelAccess) {
  Image image(8, 4, Rgb{1, 2, 3});
  EXPECT_EQ(image.width(), 8);
  EXPECT_EQ(image.height(), 4);
  EXPECT_EQ(image.byte_size(), 8u * 4u * 3u);
  EXPECT_EQ(image.At(0, 0), (Rgb{1, 2, 3}));
  image.Set(7, 3, Rgb{9, 9, 9});
  EXPECT_EQ(image.At(7, 3), (Rgb{9, 9, 9}));
}

TEST(Image, ClippedSetIgnoresOutOfBounds) {
  Image image(4, 4);
  image.SetClipped(-1, 0, Rgb{255, 0, 0});
  image.SetClipped(0, 100, Rgb{255, 0, 0});
  for (int y = 0; y < 4; ++y) {
    for (int x = 0; x < 4; ++x) {
      EXPECT_EQ(image.At(x, y), (Rgb{0, 0, 0}));
    }
  }
}

TEST(Image, DrawDiskCoversExpectedArea) {
  Image image(21, 21);
  image.DrawDisk(10, 10, 3.0, Rgb{255, 255, 255});
  int lit = 0;
  for (int y = 0; y < 21; ++y) {
    for (int x = 0; x < 21; ++x) {
      if (image.At(x, y).r == 255) ++lit;
    }
  }
  EXPECT_NEAR(lit, M_PI * 9.0, 10.0);
  EXPECT_EQ(image.At(10, 10).r, 255);
  EXPECT_EQ(image.At(0, 0).r, 0);
}

TEST(Image, DrawLineConnectsEndpoints) {
  Image image(20, 20);
  image.DrawLine(2, 2, 17, 17, 1.5, Rgb{200, 0, 0});
  EXPECT_GT(image.At(2, 2).r, 0);
  EXPECT_GT(image.At(17, 17).r, 0);
  EXPECT_GT(image.At(10, 10).r, 0);  // midpoint
  EXPECT_EQ(image.At(2, 17).r, 0);   // off-diagonal untouched
}

TEST(Image, DownsampleAverages) {
  Image image(4, 4, Rgb{100, 100, 100});
  image.Set(0, 0, Rgb{200, 200, 200});
  Image small = image.Downsample(2);
  EXPECT_EQ(small.width(), 2);
  EXPECT_EQ(small.height(), 2);
  EXPECT_EQ(small.At(0, 0).r, 125);  // (200+100+100+100)/4
  EXPECT_EQ(small.At(1, 1).r, 100);
}

TEST(Image, MeanAbsDiff) {
  Image a(4, 4, Rgb{10, 10, 10});
  Image b(4, 4, Rgb{14, 10, 10});
  EXPECT_NEAR(a.MeanAbsDiff(b), 4.0 / 3.0, 1e-9);
  EXPECT_DOUBLE_EQ(a.MeanAbsDiff(a), 0.0);
  Image c(3, 3);
  EXPECT_DOUBLE_EQ(a.MeanAbsDiff(c), 255.0);  // dimension mismatch
}

TEST(Image, ColorDistanceIsChebyshev) {
  EXPECT_EQ(ColorDistance(Rgb{0, 0, 0}, Rgb{5, 10, 2}), 10);
  EXPECT_EQ(ColorDistance(Rgb{255, 0, 0}, Rgb{0, 0, 0}), 255);
}

// ------------------------------------------------------------- Skeleton

TEST(Skeleton, SeventeenKeypointsWithNamesAndColors) {
  EXPECT_EQ(kNumKeypoints, 17);
  std::set<std::string> names;
  for (int k = 0; k < kNumKeypoints; ++k) {
    names.insert(KeypointName(k));
  }
  EXPECT_EQ(names.size(), 17u);  // all distinct
  // Palette colors must stay pairwise separable beyond the detector
  // tolerance plus the codec quantization error.
  for (int a = 0; a < kNumKeypoints; ++a) {
    for (int b = a + 1; b < kNumKeypoints; ++b) {
      EXPECT_GE(ColorDistance(KeypointColor(a), KeypointColor(b)), 55)
          << KeypointName(a) << " vs " << KeypointName(b);
    }
  }
}

TEST(Skeleton, BonesReferenceValidJoints) {
  for (const auto& [a, b] : SkeletonBones()) {
    EXPECT_GE(a, 0);
    EXPECT_LT(a, kNumKeypoints);
    EXPECT_GE(b, 0);
    EXPECT_LT(b, kNumKeypoints);
    EXPECT_NE(a, b);
  }
  EXPECT_GE(SkeletonBones().size(), 14u);
}

TEST(Skeleton, StandingPoseGeometry) {
  const Pose pose = Pose::Standing();
  // Head above hips above ankles (y grows downward).
  EXPECT_LT(pose[kNose].y, pose[kLeftHip].y);
  EXPECT_LT(pose[kLeftHip].y, pose[kLeftAnkle].y);
  // Left of body has smaller x than right.
  EXPECT_LT(pose[kLeftShoulder].x, pose[kRightShoulder].x);
  EXPECT_GT(pose.TorsoLength(), 0.1);
  const Point2 hips = pose.HipCenter();
  EXPECT_NEAR(hips.x, 0.5, 0.01);
}

TEST(Skeleton, PoseJsonRoundTrip) {
  Pose pose = Pose::Standing();
  pose.visible[kLeftEar] = false;
  auto back = Pose::FromJson(pose.ToJson());
  ASSERT_TRUE(back.ok());
  for (int k = 0; k < kNumKeypoints; ++k) {
    EXPECT_DOUBLE_EQ((*back)[k].x, pose[k].x);
    EXPECT_DOUBLE_EQ((*back)[k].y, pose[k].y);
    EXPECT_EQ(back->visible[static_cast<size_t>(k)],
              pose.visible[static_cast<size_t>(k)]);
  }
}

TEST(Skeleton, PoseFromJsonRejectsBadShapes) {
  EXPECT_FALSE(Pose::FromJson(json::Value::MakeObject()).ok());
  auto truncated = Pose::Standing().ToJson();
  truncated["points"].AsArray().pop_back();
  EXPECT_FALSE(Pose::FromJson(truncated).ok());
}

TEST(Skeleton, LerpInterpolates) {
  Pose a = Pose::Standing();
  Pose b = a;
  b[kNose] = {0.7, 0.5};
  const Pose mid = Lerp(a, b, 0.5);
  EXPECT_NEAR(mid[kNose].x, (a[kNose].x + 0.7) / 2, 1e-12);
  EXPECT_NEAR(mid[kNose].y, (a[kNose].y + 0.5) / 2, 1e-12);
}

// --------------------------------------------------------------- Motion

TEST(Motion, FactoryKnowsAllAdvertisedLabels) {
  for (const std::string& label : KnownMotionLabels()) {
    auto motion = MakeMotion(label);
    ASSERT_TRUE(motion.ok()) << label;
    EXPECT_EQ((*motion)->label(), label);
  }
  EXPECT_FALSE(MakeMotion("moonwalk").ok());
  MotionParams bad;
  bad.period = 0;
  EXPECT_FALSE(MakeMotion("squat", bad).ok());
}

class MotionBounds : public ::testing::TestWithParam<std::string> {};

TEST_P(MotionBounds, PosesStayInBodySpace) {
  auto motion = MakeMotion(GetParam());
  ASSERT_TRUE(motion.ok());
  for (double t = 0; t < 10.0; t += 0.05) {
    const Pose pose = (*motion)->PoseAt(t);
    for (const Point2& p : pose.points) {
      EXPECT_GT(p.x, -0.3) << GetParam() << " t=" << t;
      EXPECT_LT(p.x, 1.3) << GetParam() << " t=" << t;
      EXPECT_GT(p.y, -0.3) << GetParam() << " t=" << t;
      EXPECT_LT(p.y, 1.3) << GetParam() << " t=" << t;
    }
  }
}

TEST_P(MotionBounds, RepsAreMonotone) {
  auto motion = MakeMotion(GetParam());
  ASSERT_TRUE(motion.ok());
  int last = 0;
  for (double t = 0; t < 12.0; t += 0.1) {
    const int reps = (*motion)->RepsCompleted(t);
    EXPECT_GE(reps, last);
    last = reps;
  }
}

INSTANTIATE_TEST_SUITE_P(AllMotions, MotionBounds,
                         ::testing::Values("idle", "squat", "jumping_jack",
                                           "lunge", "wave", "clap", "fall"));

TEST(Motion, ExerciseRepsMatchPeriods) {
  MotionParams params;
  params.period = 2.0;
  auto squat = MakeMotion("squat", params);
  ASSERT_TRUE(squat.ok());
  EXPECT_EQ((*squat)->RepsCompleted(9.9), 4);
  EXPECT_EQ((*squat)->RepsCompleted(10.1), 5);
  auto idle = MakeMotion("idle", params);
  EXPECT_EQ((*idle)->RepsCompleted(100.0), 0);
}

TEST(Motion, SquatActuallySinks) {
  MotionParams params;
  params.period = 2.0;
  auto squat = MakeMotion("squat", params);
  const Pose top = (*squat)->PoseAt(0.0);
  const Pose bottom = (*squat)->PoseAt(1.0);  // mid-cycle
  EXPECT_GT(bottom[kLeftHip].y, top[kLeftHip].y + 0.08);
}

TEST(Motion, FallEndsHorizontal) {
  MotionParams params;
  params.period = 4.0;
  auto fall = MakeMotion("fall", params);
  const Pose upright = (*fall)->PoseAt(0.0);
  const Pose lying = (*fall)->PoseAt(4.0);
  const double upright_dy =
      std::abs(upright[kNose].y - upright[kLeftAnkle].y);
  const double lying_dy = std::abs(lying[kNose].y - lying[kLeftAnkle].y);
  EXPECT_GT(upright_dy, 0.5);
  EXPECT_LT(lying_dy, 0.25);
}

TEST(MotionScript, SegmentsAndLabels) {
  auto script = MotionScript::Make({
      {"idle", 2.0, {}},
      {"squat", 4.0, {}},
      {"clap", 1.0, {}},
  });
  ASSERT_TRUE(script.ok());
  EXPECT_DOUBLE_EQ(script->total_duration(), 7.0);
  EXPECT_EQ(script->LabelAt(1.0), "idle");
  EXPECT_EQ(script->LabelAt(3.0), "squat");
  EXPECT_EQ(script->LabelAt(6.5), "clap");
  EXPECT_EQ(script->LabelAt(100.0), "clap");  // clamps to last segment
}

TEST(MotionScript, RepsAccumulateAcrossSegments) {
  MotionParams fast;
  fast.period = 1.0;
  auto script = MotionScript::Make({
      {"squat", 3.0, fast},  // 3 reps
      {"idle", 1.0, {}},
      {"jumping_jack", 2.0, fast},  // 2 reps
  });
  ASSERT_TRUE(script.ok());
  EXPECT_EQ(script->RepsUpTo(0.0), 0);
  EXPECT_EQ(script->RepsUpTo(3.5), 3);
  EXPECT_EQ(script->RepsUpTo(6.5), 5);
}

TEST(MotionScript, RejectsBadSegments) {
  EXPECT_FALSE(MotionScript::Make({{"warp", 1.0, {}}}).ok());
  EXPECT_FALSE(MotionScript::Make({{"idle", -1.0, {}}}).ok());
}

// -------------------------------------------------------------- Renderer

TEST(Renderer, JointMarkersLandWhereTheTransformSays) {
  SceneOptions scene;
  const Pose pose = Pose::Standing();
  const Image image = RenderScene(pose, scene, 1);
  const Point2 nose = BodyToPixel(pose[kNose], scene);
  const Rgb at_nose = image.At(static_cast<int>(std::lround(nose.x)),
                               static_cast<int>(std::lround(nose.y)));
  EXPECT_LT(ColorDistance(at_nose, KeypointColor(kNose)), 30);
}

TEST(Renderer, BackgroundIsQuietAndNoisy) {
  SceneOptions scene;
  Pose hidden;
  hidden.visible.fill(false);
  const Image image = RenderScene(hidden, scene, 2);
  const Rgb corner = image.At(1, 1);
  EXPECT_LT(ColorDistance(corner, scene.background), 15);
  // Noise makes frames differ between seeds.
  const Image other = RenderScene(hidden, scene, 3);
  EXPECT_GT(image.MeanAbsDiff(other), 0.5);
}

TEST(Renderer, DeterministicPerSeed) {
  SceneOptions scene;
  const Pose pose = Pose::Standing();
  const Image a = RenderScene(pose, scene, 7);
  const Image b = RenderScene(pose, scene, 7);
  EXPECT_DOUBLE_EQ(a.MeanAbsDiff(b), 0.0);
}

TEST(Renderer, PropsAreDrawn) {
  SceneOptions scene;
  scene.props.push_back(Prop{"lamp", 0.05, 0.05, 0.1, 0.2, Rgb{10, 90, 200}});
  Pose hidden;
  hidden.visible.fill(false);
  const Image image = RenderScene(hidden, scene, 4);
  const int cx = static_cast<int>(0.1 * scene.width);
  const int cy = static_cast<int>(0.15 * scene.height);
  EXPECT_LT(ColorDistance(image.At(cx, cy), Rgb{10, 90, 200}), 20);
}

TEST(Renderer, InvisibleJointsNotDrawn) {
  SceneOptions scene;
  Pose pose = Pose::Standing();
  pose.visible[kNose] = false;
  const Image image = RenderScene(pose, scene, 5);
  const Point2 nose = BodyToPixel(pose[kNose], scene);
  const Rgb at_nose =
      image.At(static_cast<int>(nose.x), static_cast<int>(nose.y));
  EXPECT_GT(ColorDistance(at_nose, KeypointColor(kNose)), 60);
}

// Every value the exact path can compute lies in its draw's cell: the
// certificate's tables are sound. Covers every cell's end points and
// their neighbours, both sides of every quarter turn, the extreme u1
// values, and seeded random draws spread over all 53 octaves.
TEST(BoxMullerCells, HoldEveryValueOfTheirCell) {
  int checked = 0;
  std::string first_failure;
  const auto note = [&](const std::string& what) {
    if (first_failure.empty()) first_failure = what;
  };
  const auto check_radius = [&](uint64_t u1) {
    ++checked;
    const Interval r = BoxMullerCell(u1, 0).radius;
    const double v = BoxMullerRadius(u1);
    if (!(r.lo <= v && v <= r.hi)) note("u1_bits " + std::to_string(u1));
  };
  const auto check_theta = [&](uint64_t u2) {
    ++checked;
    const BoxMullerCellBounds cell = BoxMullerCell(1, u2);
    const GaussianPair g = BoxMuller(1.0, u2);
    if (!(cell.cos.lo <= g.first && g.first <= cell.cos.hi) ||
        !(cell.sin.lo <= g.second && g.second <= cell.sin.hi)) {
      note("u2_bits " + std::to_string(u2));
    }
  };
  constexpr uint64_t kLimit = uint64_t{1} << 53;
  for (int k = 0; k < 53; ++k) {
    const uint64_t octave = uint64_t{1} << k;
    const uint64_t width = k >= 6 ? octave >> 6 : 1;
    for (uint64_t first = octave; first < 2 * octave; first += width) {
      for (const uint64_t u1 : {first - 1, first, first + 1, first + width - 1,
                                first + width}) {
        if (u1 >= 1 && u1 < kLimit) check_radius(u1);
      }
    }
  }
  check_radius(1);
  check_radius(kLimit - 1);
  constexpr uint64_t kThetaCell = uint64_t{1} << 43;
  for (uint64_t first = 0; first < kLimit; first += kThetaCell) {
    for (const uint64_t u2 : {first - 1, first, first + 1,
                              first + kThetaCell - 2, first + kThetaCell - 1}) {
      if (u2 < kLimit) check_theta(u2);
    }
  }
  for (uint64_t quarter = 0; quarter <= 4; ++quarter) {
    for (int delta = -2; delta <= 2; ++delta) {
      const uint64_t u2 = quarter * (kLimit / 4) + static_cast<uint64_t>(delta);
      if (u2 < kLimit) check_theta(u2);
    }
  }
  Rng rng(20261017);
  for (int i = 0; i < 200000; ++i) {
    const uint64_t u1 = rng.NextU53() >> rng.NextInt(0, 52);
    if (u1 >= 1) check_radius(u1);
    check_theta(rng.NextU53());
  }
  EXPECT_TRUE(first_failure.empty()) << "first value outside its cell: "
                                     << first_failure;
  EXPECT_GT(checked, 400000);
}

// At the default noise, nearly every pair past the fast path is settled
// by the certificate without libm.
TEST(NoisyQuantizer, CertificateSettlesAllButAFewTailPairs) {
  SceneOptions scene;
  scene.width = 320;
  scene.height = 240;
  scene.noise_stddev = 3.0;
  const SyntheticVideoSource source(DefaultWorkoutScript(), 20.0, scene, 1);
  const NoisyQuantizer quantizer(scene.noise_stddev);
  uint64_t tail = 0;
  uint64_t exact = 0;
  for (uint64_t seq = 0; seq < source.frame_count(); seq += 40) {
    Image image = source.CaptureClean(seq);
    const NoisyQuantizer::TailCounts counts = quantizer.Apply(image, seq);
    tail += counts.tail;
    exact += counts.exact;
  }
  EXPECT_GT(tail, 1000u);
  EXPECT_LE(exact * 50, tail) << exact << " of " << tail << " reached libm";

  Image clean = source.CaptureClean(0);
  const NoisyQuantizer::TailCounts none = NoisyQuantizer(0.0).Apply(clean, 0);
  EXPECT_EQ(none.tail, 0u);
  EXPECT_EQ(none.exact, 0u);
}

// ----------------------------------------------------------------- Codec

TEST(Codec, RoundTripWithinQuantizationBound) {
  SceneOptions scene;
  Frame frame;
  frame.seq = 9;
  frame.capture_time = TimePoint::FromMicros(123456);
  frame.ground_truth["activity"] = json::Value("squat");
  frame.image = RenderScene(Pose::Standing(), scene, 6);

  const Bytes wire = EncodeFrame(frame);
  auto decoded = DecodeFrame(wire);
  ASSERT_TRUE(decoded.ok()) << decoded.error().ToString();
  EXPECT_EQ(decoded->seq, 9u);
  EXPECT_EQ(decoded->capture_time.micros(), 123456);
  EXPECT_EQ(decoded->ground_truth.GetString("activity"), "squat");
  EXPECT_EQ(decoded->image.width(), frame.image.width());
  EXPECT_EQ(decoded->image.height(), frame.image.height());
  // 16-level quantization: every channel within 8 of the original.
  EXPECT_LE(frame.image.MeanAbsDiff(decoded->image), 8.0);
  for (int y = 0; y < frame.image.height(); y += 7) {
    for (int x = 0; x < frame.image.width(); x += 7) {
      EXPECT_LE(ColorDistance(frame.image.At(x, y), decoded->image.At(x, y)),
                8);
    }
  }
}

TEST(Codec, CompressesSyntheticScenes) {
  SceneOptions scene;
  Frame frame;
  frame.image = RenderScene(Pose::Standing(), scene, 8);
  const Bytes wire = EncodeFrame(frame);
  EXPECT_LT(wire.size(), frame.image.byte_size() / 2);
  EXPECT_GT(wire.size(), 100u);
}

TEST(Codec, RejectsGarbage) {
  EXPECT_FALSE(DecodeFrame(Bytes{1, 2, 3}).ok());
  Bytes wire = EncodeFrame(BlankFrame(8, 8));
  wire[0] ^= 0xFF;
  EXPECT_FALSE(DecodeFrame(wire).ok());
  wire[0] ^= 0xFF;
  wire.resize(wire.size() / 2);
  EXPECT_FALSE(DecodeFrame(wire).ok());
}

TEST(Codec, CostModelsScaleWithSize) {
  EXPECT_GT(EncodeCost(640, 480).millis(), EncodeCost(160, 120).millis());
  EXPECT_GT(DecodeCost(100000).millis(), DecodeCost(1000).millis());
}

// Parameterized: the round-trip bound holds across resolutions/noise.
struct CodecCase {
  int width;
  int height;
  double noise;
};

class CodecRoundTrip : public ::testing::TestWithParam<CodecCase> {};

TEST_P(CodecRoundTrip, BoundHolds) {
  SceneOptions scene;
  scene.width = GetParam().width;
  scene.height = GetParam().height;
  scene.noise_stddev = GetParam().noise;
  Frame frame;
  frame.image = RenderScene(Pose::Standing(), scene, 11);
  auto decoded = DecodeFrame(EncodeFrame(frame));
  ASSERT_TRUE(decoded.ok());
  EXPECT_LE(frame.image.MeanAbsDiff(decoded->image), 8.0);
}

INSTANTIATE_TEST_SUITE_P(
    Resolutions, CodecRoundTrip,
    ::testing::Values(CodecCase{64, 48, 0.0}, CodecCase{160, 120, 3.0},
                      CodecCase{320, 240, 3.0}, CodecCase{320, 240, 10.0},
                      CodecCase{640, 480, 3.0}, CodecCase{17, 13, 5.0}));

TEST(Codec, ForgedDimensionsAreRejectedBeforeAllocating) {
  // A 2×2 frame whose header claims 65535×65535: sizing the pixels from
  // the header would allocate ~12.9 GB before reading a run.
  const Bytes wire = EncodeFrame(BlankFrame(2, 2));
  // The wire ends u16 width, u16 height, u32 run-section length and
  // the frame's one run.
  const size_t dims = wire.size() - 4 - 4 - 4;
  Bytes forged = wire;
  forged[dims] = forged[dims + 1] = forged[dims + 2] = forged[dims + 3] = 0xFF;
  const auto decoded = DecodeFrame(forged);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.error().message(), "frame RLE underfills pixel buffer");
  FrameStore store(4);
  const auto put = store.Put(forged);
  ASSERT_FALSE(put.ok());
  EXPECT_EQ(put.error().message(), "frame RLE underfills pixel buffer");
  // Claiming fewer pixels than the runs hold is the other side.
  forged = wire;
  forged[dims] = 1;
  forged[dims + 1] = 0;
  const auto shrunk = DecodeFrame(forged);
  ASSERT_FALSE(shrunk.ok());
  EXPECT_EQ(shrunk.error().message(), "frame RLE overruns pixel buffer");
}

// ------------------------------------------------ wire-format mutations

/// The codec's run expansion written out one pixel at a time: the
/// reference the decoders' pixels are checked against.
std::vector<uint8_t> ReferencePixels(std::span<const uint8_t> runs) {
  std::vector<uint8_t> out;
  for (size_t i = 0; i + 4 <= runs.size(); i += 4) {
    for (int k = 0; k < runs[i]; ++k) {
      for (int c = 1; c <= 3; ++c) {
        out.push_back(static_cast<uint8_t>(((runs[i + c] & 0x0F) << 4) | 8));
      }
    }
  }
  return out;
}

bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

bool SamePose(const cv::DetectedPose& a, const cv::DetectedPose& b) {
  for (size_t k = 0; k < a.keypoints.size(); ++k) {
    const cv::DetectedKeypoint& ka = a.keypoints[k];
    const cv::DetectedKeypoint& kb = b.keypoints[k];
    if (ka.detected != kb.detected || !SameBits(ka.x, kb.x) ||
        !SameBits(ka.y, kb.y) || !SameBits(ka.confidence, kb.confidence)) {
      return false;
    }
  }
  return a.bbox.valid == b.bbox.valid && SameBits(a.bbox.x0, b.bbox.x0) &&
         SameBits(a.bbox.y0, b.bbox.y0) && SameBits(a.bbox.x1, b.bbox.x1) &&
         SameBits(a.bbox.y1, b.bbox.y1) && a.num_detected == b.num_detected;
}

/// Where EncodeFrame put each field of `wire`.
struct WireLayout {
  size_t width_at = 0;   // u16 width, then u16 height
  size_t runs_at = 0;    // first run quad
  size_t runs = 0;       // run quads
};

WireLayout LayoutOf(const Bytes& wire) {
  const size_t gt_len = wire[20] | (wire[21] << 8) | (wire[22] << 16) |
                        (static_cast<size_t>(wire[23]) << 24);
  WireLayout layout;
  layout.width_at = 24 + gt_len;
  layout.runs_at = layout.width_at + 4 + 4;
  layout.runs = (wire.size() - layout.runs_at) / 4;
  return layout;
}

enum class Expect { kAccept, kReject, kEither };

struct Mutant {
  Bytes wire;
  Expect expect;
  std::string what;
};

/// Truncations, byte flips, run-length edits and header edits of one
/// valid frame, with the verdict each must get where it is known.
std::vector<Mutant> Mutate(const Bytes& wire, Rng& rng) {
  const WireLayout layout = LayoutOf(wire);
  std::vector<Mutant> out;
  auto pick = [&rng](size_t n) {
    return static_cast<size_t>(rng.NextInt(0, static_cast<int64_t>(n) - 1));
  };
  auto run_count = [&](size_t run) -> uint8_t& {
    return out.back().wire[layout.runs_at + 4 * run];
  };
  auto add = [&](Expect expect, std::string what) {
    out.push_back({wire, expect, std::move(what)});
  };

  for (size_t cut : {size_t{3}, size_t{20}, layout.width_at + 2,
                     layout.runs_at - 1, pick(wire.size()),
                     pick(wire.size())}) {
    add(Expect::kReject, "truncated to " + std::to_string(cut));
    out.back().wire.resize(cut);
  }
  for (int i = 0; i < 6; ++i) {
    const size_t at = pick(wire.size());
    add(Expect::kEither, "byte " + std::to_string(at) + " flipped");
    out.back().wire[at] ^= static_cast<uint8_t>(rng.NextInt(1, 255));
  }
  add(Expect::kEither, "trailing bytes");
  out.back().wire.push_back(0x5A);

  // Run-length edits: one pixel more or fewer fails the run total;
  // moving a pixel from one run to another keeps it and shifts pixels.
  for (int i = 0; i < 3 && layout.runs > 0; ++i) {
    const size_t a = pick(layout.runs);
    const size_t b = pick(layout.runs);
    add(Expect::kReject, "run " + std::to_string(a) + " grown");
    if (run_count(a) == 255) {
      out.pop_back();
    } else {
      ++run_count(a);
    }
    add(Expect::kReject, "run " + std::to_string(a) + " shrunk");
    if (run_count(a) == 0) {
      out.pop_back();
    } else {
      --run_count(a);
    }
    add(Expect::kAccept, "pixel moved from run " + std::to_string(a) +
                             " to run " + std::to_string(b));
    if (a == b || run_count(a) == 0 || run_count(b) == 255) {
      out.pop_back();
    } else {
      --run_count(a);
      ++run_count(b);
    }
  }

  // Header edits.
  add(Expect::kReject, "bad magic");
  out.back().wire[0] ^= 0x01;
  add(Expect::kAccept, "new seq and capture time");
  for (size_t i = 4; i < 20; ++i) {
    out.back().wire[i] = static_cast<uint8_t>(rng.NextInt(0, 255));
  }
  add(Expect::kAccept, "width and height swapped");
  std::swap(out.back().wire[layout.width_at],
            out.back().wire[layout.width_at + 2]);
  std::swap(out.back().wire[layout.width_at + 1],
            out.back().wire[layout.width_at + 3]);
  add(Expect::kReject, "width + 1");
  ++out.back().wire[layout.width_at];
  add(Expect::kReject, "65535x65535");
  for (size_t i = 0; i < 4; ++i) out.back().wire[layout.width_at + i] = 0xFF;
  add(Expect::kReject, "ground truth made invalid JSON");
  out.back().wire[24] = '}';
  return out;
}

TEST(FrameWireMutations, ParseAcceptsExactlyWhatDecodeFrameAccepts) {
  // Encoded frames from the pose-exactness scene matrix (every 7th),
  // each mutated; seeded, so every run checks the same inputs.
  Rng rng(20261017);
  int checked = 0;
  int mutants = 0;
  int accepted = 0;
  int people = 0;
  test_support::ForEachMatrixFrame([&](const SyntheticVideoSource& source,
                                       uint64_t seq, const std::string& where) {
    if (checked++ % 7 != 0) return;
    const Bytes wire = source.CaptureEncoded(seq, source.CaptureTime(seq));
    for (const Mutant& m : Mutate(wire, rng)) {
      SCOPED_TRACE(where + ": " + m.what);
      ++mutants;
      const auto decoded = DecodeFrame(m.wire);
      const auto parsed = EncodedFrame::Parse(m.wire);
      ASSERT_EQ(parsed.ok(), decoded.ok());
      if (m.expect != Expect::kEither) {
        EXPECT_EQ(decoded.ok(), m.expect == Expect::kAccept);
      }
      if (!decoded.ok()) {
        EXPECT_EQ(parsed.error().ToString(), decoded.error().ToString());
        continue;
      }
      ++accepted;
      // Header fields come from the parse, with no pixel decoded.
      EXPECT_EQ(parsed->resident_bytes(), m.wire.size());
      EXPECT_EQ(parsed->seq(), decoded->seq);
      EXPECT_EQ(parsed->capture_time(), decoded->capture_time);
      EXPECT_EQ(parsed->width(), decoded->image.width());
      EXPECT_EQ(parsed->height(), decoded->image.height());
      // Pixels read lazily equal DecodeFrame's, and both the reference's.
      EXPECT_EQ(parsed->image().data(), decoded->image.data());
      EXPECT_EQ(decoded->image.data(), ReferencePixels(parsed->runs()));
      const cv::DetectedPose from_pixels = cv::DetectPose(decoded->image);
      if (from_pixels.person_found()) ++people;
      EXPECT_TRUE(SamePose(cv::DetectPose(*parsed), from_pixels));
    }
  });
  EXPECT_EQ(checked, 1680);
  EXPECT_EQ(mutants, 6677);
  EXPECT_GT(accepted, 1000);
  EXPECT_GT(people, 200);
}

// ------------------------------------------------------------ FrameStore

/// Put a frame's encoding; the returned reference holds it resident.
FrameRef PutFrame(FrameStore& store, const Frame& frame) {
  auto put = store.Put(EncodeFrame(frame));
  EXPECT_TRUE(put.ok()) << put.error().ToString();
  return put.ok() ? *put : nullptr;
}

TEST(FrameStore, PutGetRelease) {
  FrameStore store(8);
  Frame frame;
  frame.seq = 5;
  frame.capture_time = TimePoint::FromMicros(7000);
  frame.image = Image(4, 4);
  FrameRef held = PutFrame(store, frame);
  ASSERT_NE(held, nullptr);
  const FrameId id = held->id();
  EXPECT_NE(id, kInvalidFrameId);
  auto got = store.Get(id);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ((*got)->seq(), 5u);
  EXPECT_EQ((*got)->id(), id);
  EXPECT_EQ((*got)->capture_time().micros(), 7000);
  EXPECT_EQ((*got)->width(), 4);
  EXPECT_EQ((*got)->height(), 4);
  // Released when the last reference goes, and not before.
  held.reset();
  EXPECT_EQ(store.size(), 1u);
  EXPECT_TRUE(store.Get(id).ok());
  got->reset();
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.Get(id).code(), StatusCode::kNotFound);
  EXPECT_EQ(store.evictions(), 0u);
}

TEST(FrameStore, IdsAreUnique) {
  FrameStore store(100);
  std::set<FrameId> ids;
  for (int i = 0; i < 50; ++i) {
    ids.insert(PutFrame(store, BlankFrame(2, 2))->id());
  }
  EXPECT_EQ(ids.size(), 50u);
}

TEST(FrameStore, EvictsOldestAtCapacity) {
  FrameStore store(3);
  std::vector<FrameRef> held;
  for (int i = 0; i < 4; ++i) held.push_back(PutFrame(store, BlankFrame(2, 2)));
  EXPECT_EQ(store.size(), 3u);
  EXPECT_EQ(store.evictions(), 1u);
  EXPECT_FALSE(store.Get(held[0]->id()).ok());
  EXPECT_TRUE(store.Get(held[3]->id()).ok());
  // Eviction only unmaps the id: its holder keeps the frame.
  EXPECT_EQ(held[0]->image().width(), 2);
}

TEST(FrameStore, KeepsTheWireBytesAndDecodesOnFirstPixelRead) {
  FrameStore store(4);
  Frame frame = BlankFrame(10, 10);
  frame.image.Set(3, 4, Rgb{200, 40, 40});
  const Bytes wire = EncodeFrame(frame);
  FrameRef a = PutFrame(store, frame);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->wire(), wire);
  EXPECT_EQ(store.resident_bytes(), wire.size());
  const auto decoded = DecodeFrame(wire);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(a->image().data(), decoded->image.data());
  EXPECT_EQ(store.Get(999).code(), StatusCode::kNotFound);
}

TEST(FrameStore, ResidentBytesCountsWireAndDecodedPixels) {
  FrameStore store(4);
  FrameRef a = PutFrame(store, BlankFrame(10, 10));
  FrameRef b = PutFrame(store, BlankFrame(10, 10));
  const size_t wire = a->wire().size() + b->wire().size();
  EXPECT_EQ(store.resident_bytes(), wire);
  a->image();
  b->image();
  EXPECT_EQ(store.resident_bytes(), wire + 2u * 10u * 10u * 3u);
  a.reset();
  b.reset();
  EXPECT_EQ(store.resident_bytes(), 0u);
}

TEST(FrameStore, PutRejectsWhatDecodeFrameRejects) {
  FrameStore store(4);
  Bytes wire = EncodeFrame(BlankFrame(8, 8));
  wire.resize(wire.size() - 4);  // one run short
  const auto decoded = DecodeFrame(wire);
  ASSERT_FALSE(decoded.ok());
  const auto put = store.Put(wire);
  ASSERT_FALSE(put.ok());
  EXPECT_EQ(put.error().ToString(), decoded.error().ToString());
  EXPECT_EQ(store.size(), 0u);
}

TEST(FrameStore, ClearMakesIdsUnresolvableButKeepsHolders) {
  FrameStore store(4);
  FrameRef a = PutFrame(store, BlankFrame(2, 2));
  store.Clear();
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.evictions(), 1u);
  EXPECT_EQ(store.Get(a->id()).code(), StatusCode::kNotFound);
  EXPECT_EQ(a->width(), 2);
  // Ids are never reused, and dropping the old holder later is harmless.
  FrameRef b = PutFrame(store, BlankFrame(2, 2));
  EXPECT_GT(b->id(), a->id());
  a.reset();
  EXPECT_TRUE(store.Get(b->id()).ok());
}

TEST(FrameStore, ReferencesMayOutliveTheStore) {
  FrameRef held;
  {
    FrameStore store(4);
    held = PutFrame(store, BlankFrame(2, 2));
  }
  EXPECT_EQ(held->height(), 2);
  held.reset();  // no store left to erase from
}

// ----------------------------------------------------------- VideoSource

TEST(VideoSource, FrameCountAndTimestamps) {
  SyntheticVideoSource source(DefaultWorkoutScript(), 10.0);
  EXPECT_EQ(source.frame_count(),
            static_cast<uint64_t>(DefaultWorkoutScript().total_duration() *
                                  10.0));
  EXPECT_EQ(source.CaptureTime(0).micros(), 0);
  EXPECT_EQ(source.CaptureTime(10).millis(), 1000.0);
}

TEST(VideoSource, DeterministicPerSeed) {
  SceneOptions scene;
  SyntheticVideoSource a(DefaultWorkoutScript(), 10.0, scene, 5);
  SyntheticVideoSource b(DefaultWorkoutScript(), 10.0, scene, 5);
  const Frame fa = a.CaptureFrame(17);
  const Frame fb = b.CaptureFrame(17);
  EXPECT_DOUBLE_EQ(fa.image.MeanAbsDiff(fb.image), 0.0);
}

TEST(VideoSource, GroundTruthAnnotations) {
  SyntheticVideoSource source(DefaultWorkoutScript(), 10.0);
  // t = 8 s is inside the squat segment (starts at 3 s, 12 s long).
  const Frame frame = source.CaptureFrame(80);
  EXPECT_EQ(frame.ground_truth.GetString("activity"), "squat");
  EXPECT_GT(frame.ground_truth.GetInt("reps"), 0);
  const json::Value* pose_px = frame.ground_truth.Find("pose_px");
  ASSERT_NE(pose_px, nullptr);
  EXPECT_EQ(pose_px->AsArray().size(), 17u);
}

// CaptureEncoded must be the camera's old two-step path, byte for byte.
Bytes EncodeCapturedFrame(const SyntheticVideoSource& source, uint64_t seq,
                          TimePoint capture_time) {
  Frame frame = source.CaptureFrame(seq);
  frame.capture_time = capture_time;
  return EncodeFrame(frame);
}

struct CaptureEncodedCase {
  int width;
  int height;
  double noise;
  Rgb background = SceneOptions{}.background;
  std::vector<Prop> props = {};

  SceneOptions Scene() const {
    SceneOptions scene;
    scene.width = width;
    scene.height = height;
    scene.noise_stddev = noise;
    scene.background = background;
    scene.props = props;
    return scene;
  }
};

void PrintTo(const CaptureEncodedCase& c, std::ostream* os) {
  *os << c.width << "x" << c.height << " noise " << c.noise << " background ("
      << int{c.background.r} << "," << int{c.background.g} << ","
      << int{c.background.b} << ") props " << c.props.size();
}

// Scenes whose background and prop channels sit on a bucket edge
// (16, 32, 240: headroom 0), one level from one (15, 17, 31, 239:
// headroom 1) or on the clamp (255), at every noise level from below a
// level to past the clamps. 5×3 and 7×3 have odd channel counts; the
// person's bones (90, 90, 96) add a headroom-0 channel to every bone
// pixel.
std::vector<CaptureEncodedCase> BucketEdgeCases() {
  const Rgb backgrounds[] = {
      {15, 16, 17}, {31, 32, 239}, {240, 255, 16}, {17, 15, 32}};
  const std::vector<Prop> props = {
      Prop{"box", 0.05, 0.1, 0.4, 0.35, Rgb{239, 240, 31}},
      Prop{"lamp", 0.6, 0.05, 0.3, 0.5, Rgb{255, 17, 16}}};
  const std::pair<int, int> sizes[] = {{64, 48}, {5, 3}, {7, 3}};
  std::vector<CaptureEncodedCase> cases;
  for (const double noise : {0.5, 3.0, 9.0, 40.0}) {
    for (const auto& [width, height] : sizes) {
      for (const Rgb background : backgrounds) {
        cases.push_back({width, height, noise, background});
        cases.push_back({width, height, noise, background, props});
      }
    }
    cases.push_back({320, 240, noise, backgrounds[1], props});
  }
  return cases;
}

class CaptureEncodedExact
    : public ::testing::TestWithParam<CaptureEncodedCase> {};

TEST_P(CaptureEncodedExact, MatchesEncodeOfCaptureFrame) {
  const SceneOptions scene = GetParam().Scene();
  for (uint64_t seed : {1u, 7u, 90210u}) {
    SyntheticVideoSource source(DefaultWorkoutScript(), 20.0, scene, seed);
    for (uint64_t seq : {0u, 1u, 37u, 160u, 301u, 555u, 799u}) {
      const TimePoint t = TimePoint::FromMicros(1000 + 50 * seq);
      EXPECT_EQ(source.CaptureEncoded(seq, t),
                EncodeCapturedFrame(source, seq, t))
          << "seed " << seed << " seq " << seq;
    }
  }
}

// 5×3 has an odd channel count: its last channel takes the first value
// of a fresh Box–Muller pair. Noise 40 pushes channels through both
// clamps.
INSTANTIATE_TEST_SUITE_P(
    SizesAndNoise, CaptureEncodedExact,
    ::testing::Values(CaptureEncodedCase{320, 240, 0.0},
                      CaptureEncodedCase{320, 240, 0.5},
                      CaptureEncodedCase{320, 240, 3.0},
                      CaptureEncodedCase{320, 240, 40.0},
                      CaptureEncodedCase{64, 48, 0.0},
                      CaptureEncodedCase{64, 48, 0.5},
                      CaptureEncodedCase{64, 48, 3.0},
                      CaptureEncodedCase{64, 48, 40.0},
                      CaptureEncodedCase{5, 3, 0.0},
                      CaptureEncodedCase{5, 3, 0.5},
                      CaptureEncodedCase{5, 3, 3.0},
                      CaptureEncodedCase{5, 3, 40.0}));
INSTANTIATE_TEST_SUITE_P(BucketEdges, CaptureEncodedExact,
                         ::testing::ValuesIn(BucketEdgeCases()));

// FNV-1a over the bytes of every frame `fn` passes on.
class Fingerprint {
 public:
  void Add(const Bytes& bytes) {
    for (const uint8_t b : bytes) {
      hash_ = (hash_ ^ b) * 0x100000001B3ULL;
    }
    ++frames_;
  }
  uint64_t hash() const { return hash_; }
  int frames() const { return frames_; }

 private:
  uint64_t hash_ = 0xCBF29CE484222325ULL;
  int frames_ = 0;
};

// The camera's bytes, pinned to literals taken from the pre-certificate
// implementation (exact Box–Muller for every tail pair, per-byte RLE),
// so render, quantizer and RLE stay byte-identical to it without going
// through EncodeFrame.
TEST(CaptureEncoded, GoldenFingerprint) {
  Fingerprint matrix;
  const int visited = test_support::ForEachMatrixFrame(
      [&](const SyntheticVideoSource& source, uint64_t seq,
          const std::string&) {
        matrix.Add(source.CaptureEncoded(seq, source.CaptureTime(seq)));
      });
  EXPECT_EQ(visited, 1680);
  EXPECT_EQ(matrix.frames(), 1680);
  EXPECT_EQ(matrix.hash(), 0x17F1878CBB8C1D2EULL);

  Fingerprint edges;
  for (const CaptureEncodedCase& c : BucketEdgeCases()) {
    for (uint64_t seed : {1u, 90210u}) {
      const SyntheticVideoSource source(DefaultWorkoutScript(), 20.0,
                                        c.Scene(), seed);
      for (uint64_t seq : {0u, 37u, 301u}) {
        edges.Add(source.CaptureEncoded(seq, source.CaptureTime(seq)));
      }
    }
  }
  EXPECT_EQ(edges.frames(), 600);
  EXPECT_EQ(edges.hash(), 0xC22038F6B59DB90CULL);
}

TEST(CaptureEncoded, MatchesAcrossTheWorkoutScript) {
  SceneOptions scene;
  scene.width = 320;
  scene.height = 240;
  const SyntheticVideoSource source(DefaultWorkoutScript(), 10.0, scene, 3);
  for (uint64_t seq = 0; seq < source.frame_count(); seq += 7) {
    const TimePoint t = source.CaptureTime(seq);
    ASSERT_EQ(source.CaptureEncoded(seq, t),
              EncodeCapturedFrame(source, seq, t))
        << "seq " << seq;
  }
}

// A 16×16 grid of props whose colors cover every channel value, so
// every bucket edge (and headroom 0) meets the noise. A small person in
// a corner leaves most props uncovered.
SceneOptions EveryChannelValueScene() {
  SceneOptions scene;
  scene.width = 96;
  scene.height = 64;
  for (int k = 0; k < 256; ++k) {
    Prop prop;
    prop.x = (k % 16) / 16.0;
    prop.y = (k / 16) / 16.0;
    prop.w = 1.0 / 16;
    prop.h = 1.0 / 16;
    prop.color = Rgb{static_cast<uint8_t>(k), static_cast<uint8_t>(255 - k),
                     static_cast<uint8_t>(k * 7)};
    scene.props.push_back(prop);
  }
  scene.person_height = 0.3;
  scene.person_center_x = 0.85;
  return scene;
}

TEST(CaptureEncoded, MatchesAtEveryBucketEdge) {
  SceneOptions scene = EveryChannelValueScene();
  scene.noise_stddev = 0.0;
  const SyntheticVideoSource clean(DefaultGestureScript(), 15.0, scene, 11);
  const Frame clean_frame = clean.CaptureFrame(0);
  std::set<uint8_t> values;
  for (uint8_t v : clean_frame.image.data()) values.insert(v);
  ASSERT_EQ(values.size(), 256u);

  for (double noise : {0.5, 3.0, 40.0}) {
    scene.noise_stddev = noise;
    const SyntheticVideoSource source(DefaultGestureScript(), 15.0, scene, 11);
    for (uint64_t seq = 0; seq < 40; ++seq) {
      const TimePoint t = source.CaptureTime(seq);
      ASSERT_EQ(source.CaptureEncoded(seq, t),
                EncodeCapturedFrame(source, seq, t))
          << "noise " << noise << " seq " << seq;
    }
  }
}

// ---------------------------------------------------------------- Lanes

// NoisyQuantizer's lanes against its scalar loop on the same stream.
// Where the CPU cannot run the lanes, ApplyLanes is the scalar loop and
// these tests skip, saying so.
constexpr const char* kNoLanes =
    "this CPU lacks AVX-512 F/BW/DQ/VL: NoisyQuantizer's lanes do not run";

::testing::AssertionResult LanesMatchScalar(const NoisyQuantizer& quantizer,
                                            const Image& clean,
                                            const Rng& stream) {
  Image lanes = clean;
  Image scalar = clean;
  const NoisyQuantizer::TailCounts a = quantizer.ApplyLanes(lanes, stream);
  const NoisyQuantizer::TailCounts b = quantizer.ApplyScalar(scalar, stream);
  size_t differing = 0;
  size_t first = 0;
  for (size_t i = 0; i < lanes.data().size(); ++i) {
    if (lanes.data()[i] == scalar.data()[i]) continue;
    if (differing++ == 0) first = i;
  }
  if (differing > 0) {
    return ::testing::AssertionFailure()
           << differing << " channels differ, the first at " << first;
  }
  if (a.tail != b.tail || a.exact != b.exact) {
    return ::testing::AssertionFailure()
           << "tail " << a.tail << " vs " << b.tail << ", exact " << a.exact
           << " vs " << b.exact;
  }
  return ::testing::AssertionSuccess();
}

// Whether ApplyLanes runs the lanes (not the scalar loop) on `clean`.
bool LanesRunOn(const Image& clean, double noise) {
  return noise > 0 && NoisyQuantizer::LanePairs(clean.byte_size()) > 0;
}

TEST(NoisyQuantizerLanes, MatchTheScalarLoopOverTheSceneMatrix) {
  if (!NoisyQuantizer::LanesSupported()) GTEST_SKIP() << kNoLanes;
  int laned = 0;
  int differing = 0;
  uint64_t stream_seed = 0;
  const int visited = test_support::ForEachMatrixFrame(
      [&](const SyntheticVideoSource& source, uint64_t seq,
          const std::string& what) {
        const double noise = source.scene().noise_stddev;
        const Image clean = source.CaptureClean(seq);
        laned += LanesRunOn(clean, noise);
        const ::testing::AssertionResult same = LanesMatchScalar(
            NoisyQuantizer(noise), clean, SensorNoiseStream(++stream_seed));
        if (!same) {
          ++differing;
          ADD_FAILURE() << what << ": " << same.message();
        }
      });
  EXPECT_EQ(visited, 1680);
  EXPECT_EQ(differing, 0);
  // Noise above 0 at 320×240, 160×120 and 64×48; 5×3 runs the loop.
  EXPECT_EQ(laned, 4 * 3 * 7 * 3 * 4) << "frames the lanes ran";
}

TEST(NoisyQuantizerLanes, MatchTheScalarLoopAtBucketEdges) {
  if (!NoisyQuantizer::LanesSupported()) GTEST_SKIP() << kNoLanes;
  int laned = 0;
  for (const CaptureEncodedCase& c : BucketEdgeCases()) {
    const NoisyQuantizer quantizer(c.noise);
    for (const uint64_t seed : {1u, 90210u}) {
      const SyntheticVideoSource source(DefaultWorkoutScript(), 20.0,
                                        c.Scene(), seed);
      for (const uint64_t seq : {0u, 37u, 301u}) {
        const Image clean = source.CaptureClean(seq);
        laned += LanesRunOn(clean, c.noise);
        EXPECT_TRUE(LanesMatchScalar(quantizer, clean,
                                     SensorNoiseStream(seed * 1000 + seq)))
            << ::testing::PrintToString(c) << " seed " << seed << " seq "
            << seq;
      }
    }
  }
  EXPECT_EQ(laned, 4 * 9 * 6) << "frames the lanes ran";  // 64×48, 320×240
}

// Every headroom from 0 to 16 (two black channels in one pair) reaches
// the fast path's table lookup.
TEST(NoisyQuantizerLanes, MatchTheScalarLoopAtEveryHeadroom) {
  if (!NoisyQuantizer::LanesSupported()) GTEST_SKIP() << kNoLanes;
  SceneOptions scene = EveryChannelValueScene();
  // Half-size props on black: black pairs between them.
  for (Prop& prop : scene.props) {
    prop.w /= 2;
    prop.h /= 2;
  }
  scene.background = Rgb{0, 0, 0};
  const SyntheticVideoSource source(DefaultGestureScript(), 15.0, scene, 11);
  const Image clean = source.CaptureClean(0);
  int black_pairs = 0;
  for (size_t i = 0; i + 1 < clean.byte_size(); i += 2) {
    black_pairs += clean.data()[i] == 0 && clean.data()[i + 1] == 0;
  }
  ASSERT_GT(black_pairs, 1000);
  for (const double noise : {0.5, 3.0, 9.0, 40.0}) {
    ASSERT_TRUE(LanesRunOn(clean, noise));
    for (uint64_t seed = 0; seed < 8; ++seed) {
      EXPECT_TRUE(LanesMatchScalar(NoisyQuantizer(noise), clean,
                                   SensorNoiseStream(seed)))
          << "noise " << noise << " seed " << seed;
    }
  }
}

// Frames and streams drawn from VP_TEST_SEED (1 when unset): odd and
// uneven sizes, noise from a fraction of a level to past the clamps,
// any generator state.
TEST(NoisyQuantizerLanes, MatchTheScalarLoopOnSeededFrames) {
  if (!NoisyQuantizer::LanesSupported()) GTEST_SKIP() << kNoLanes;
  const char* env = std::getenv("VP_TEST_SEED");
  Rng rng(env != nullptr ? std::strtoull(env, nullptr, 10) : 1);
  const std::pair<int, int> sizes[] = {{320, 240}, {160, 120}, {96, 64},
                                       {64, 48},   {33, 31},   {101, 77}};
  int laned = 0;
  for (int i = 0; i < 120; ++i) {
    const auto [width, height] = sizes[rng.NextInt(0, 5)];
    SceneOptions scene;
    scene.width = width;
    scene.height = height;
    scene.noise_stddev = rng.NextBool(0.5) ? 3.0 : rng.NextRange(0.05, 50.0);
    const SyntheticVideoSource source(DefaultWorkoutScript(), 20.0, scene,
                                      rng.NextU64());
    const uint64_t seq =
        static_cast<uint64_t>(rng.NextInt(0, source.frame_count() - 1));
    const Image clean = source.CaptureClean(seq);
    laned += LanesRunOn(clean, scene.noise_stddev);
    const Rng stream = Rng::FromState(
        {rng.NextU64(), rng.NextU64(), rng.NextU64(), rng.NextU64()});
    EXPECT_TRUE(LanesMatchScalar(NoisyQuantizer(scene.noise_stddev), clean,
                                 stream))
        << width << "x" << height << " noise " << scene.noise_stddev
        << " seq " << seq;
  }
  EXPECT_GT(laned, 90) << "frames the lanes ran";
}

// The inverse of one xoshiro256 step.
std::array<uint64_t, 4> StepBack(const std::array<uint64_t, 4>& next) {
  const uint64_t s3a = (next[3] >> 45) | (next[3] << 19);
  // The step left s2 ^ s0 ^ (s1 << 17) and s1 ^ s2 ^ s0: x = s2 ^ s0
  // solves x ^ (x << 17) = next[2] ^ (next[1] << 17).
  const uint64_t y = next[2] ^ (next[1] << 17);
  const uint64_t x = y ^ (y << 17) ^ (y << 34) ^ (y << 51);
  const uint64_t s1 = next[1] ^ x;
  const uint64_t s0 = next[0] ^ s3a;
  return {s0, s1, x ^ s0, s3a ^ s1};
}

TEST(NoisyQuantizerLanes, StepBackInvertsTheGeneratorStep) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const std::array<uint64_t, 4> before = rng.State();
    rng.NextU64();
    ASSERT_EQ(StepBack(rng.State()), before);
  }
}

// A stream whose u1 draw for pair `pair` is 0, which the scalar loop
// redraws: the state before that draw has s1 = 0, as the value is
// rotl(s1·5, 7)·9, and the stream starts 2·pair draws before it.
Rng StreamRedrawingAt(size_t pair, uint64_t salt) {
  Rng words(salt);
  std::array<uint64_t, 4> state = {words.NextU64(), 0, words.NextU64(),
                                   words.NextU64()};
  for (size_t i = 0; i < 2 * pair; ++i) state = StepBack(state);
  return Rng::FromState(state);
}

TEST(NoisyQuantizerLanes, RedrawInAMiddleOrTheLastLaneGivesTheScalarBytes) {
  if (!NoisyQuantizer::LanesSupported()) GTEST_SKIP() << kNoLanes;
  for (const auto& [width, height] :
       {std::pair{320, 240}, std::pair{64, 48}}) {
    SceneOptions scene;
    scene.width = width;
    scene.height = height;
    const SyntheticVideoSource source(DefaultWorkoutScript(), 20.0, scene, 5);
    const Image clean = source.CaptureClean(80);
    const NoisyQuantizer quantizer(scene.noise_stddev);
    const size_t lane = NoisyQuantizer::LanePairs(clean.byte_size());
    ASSERT_GT(lane, 0u);
    // Both frames split evenly: lane 3's middle pair, lane 7's first
    // and the frame's last.
    ASSERT_EQ(8 * lane, clean.byte_size() / 2);
    for (const size_t pair : {3 * lane + lane / 2, 7 * lane, 8 * lane - 1}) {
      const Rng stream = StreamRedrawingAt(pair, pair);
      Rng at = stream;
      at.Jump(2 * pair);
      ASSERT_EQ(at.NextU53(), 0u) << "pair " << pair;
      EXPECT_TRUE(LanesMatchScalar(quantizer, clean, stream))
          << width << "x" << height << ", u1 = 0 at pair " << pair
          << " of lanes of " << lane;
    }
  }
}

TEST(VideoSource, DefaultScriptsCoverTheApplications) {
  const MotionScript workout = DefaultWorkoutScript();
  EXPECT_GT(workout.total_duration(), 30.0);
  EXPECT_GT(workout.RepsUpTo(workout.total_duration()), 10);
  const MotionScript gestures = DefaultGestureScript();
  bool has_wave = false;
  bool has_clap = false;
  for (const auto& seg : gestures.segments()) {
    has_wave |= seg.label == "wave";
    has_clap |= seg.label == "clap";
  }
  EXPECT_TRUE(has_wave);
  EXPECT_TRUE(has_clap);
}

}  // namespace
}  // namespace vp::media
