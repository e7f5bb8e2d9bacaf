// The scene matrix the pose-exactness tests share: noise from none to
// far past the markers' separation, frame sizes down to an odd channel
// count (5×3), every motion, several frames. One scene variant adds a
// prop 6 levels from the nose color (it matches); another one
// tolerance + 4 levels away, so that only the noise decides whether
// its pixels match.
#pragma once

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "cv/pose_detector.hpp"
#include "media/motion.hpp"
#include "media/skeleton.hpp"
#include "media/video_source.hpp"

namespace vp::test_support {

/// Calls fn(source, seq, description) for each of the matrix's 1680
/// frames, in a fixed order; returns how many it visited.
template <typename Fn>
int ForEachMatrixFrame(Fn&& fn) {
  const media::Rgb nose = media::KeypointColor(media::kNose);
  auto prop = [&](int levels_off_nose) {
    const auto red = static_cast<uint8_t>(nose.r - levels_off_nose);
    return media::Prop{"box", 0.05, 0.1, 0.15, 0.2,
                       media::Rgb{red, nose.g, nose.b}};
  };
  const std::vector<std::vector<media::Prop>> props = {
      {}, {prop(6)}, {prop(cv::kPoseColorTolerance + 4)}};
  const uint64_t seeds[] = {3, 11, 2024};
  const std::pair<int, int> sizes[] = {{160, 120}, {320, 240}, {64, 48},
                                       {5, 3}};
  int frames = 0;
  for (const double noise : {0.0, 0.5, 3.0, 9.0, 40.0}) {
    for (const auto& [width, height] : sizes) {
      for (const std::string& label : media::KnownMotionLabels()) {
        for (size_t variant = 0; variant < props.size(); ++variant) {
          media::SceneOptions scene;
          scene.width = width;
          scene.height = height;
          scene.noise_stddev = noise;
          scene.props = props[variant];
          auto script = media::MotionScript::Make({{label, 3.0, {}}});
          EXPECT_TRUE(script.ok());
          if (!script.ok()) return frames;
          const media::SyntheticVideoSource source(std::move(*script), 15.0,
                                                   scene, seeds[variant]);
          for (const uint64_t seq : {0, 4, 13, 29}) {
            ++frames;
            fn(source, seq,
               "noise " + std::to_string(noise) + ", " +
                   std::to_string(width) + "x" + std::to_string(height) +
                   ", " + label + ", variant " + std::to_string(variant) +
                   ", seq " + std::to_string(seq));
          }
        }
      }
    }
  }
  return frames;
}

}  // namespace vp::test_support
