// Video frames.
#pragma once

#include <cmath>
#include <cstdint>

#include "common/time.hpp"
#include "json/value.hpp"
#include "media/image.hpp"

namespace vp::media {

/// Frame ids are opaque 64-bit handles; 0 is "no frame".
using FrameId = uint64_t;
inline constexpr FrameId kInvalidFrameId = 0;

/// The frame id a script number names. Ids travel through scripts as
/// doubles, so only an integer in [1, 2^53) names a frame; anything
/// else (fractions, negatives, NaN, 1e300) maps to kInvalidFrameId,
/// which no store resolves. The one conversion from a number to an id.
inline FrameId FrameIdFromNumber(double v) {
  constexpr double kLimit = 9007199254740992.0;  // 2^53
  if (!(v >= 1.0 && v < kLimit) || v != std::floor(v)) return kInvalidFrameId;
  return static_cast<FrameId>(v);
}

struct Frame {
  /// Source sequence number (frame index at the camera).
  uint64_t seq = 0;
  /// Virtual capture timestamp.
  TimePoint capture_time;
  Image image;
  /// Ground-truth annotations from the synthetic source (activity
  /// label, rep count, true pose). Never consulted by the CV services
  /// — only by accuracy evaluations.
  json::Value ground_truth;
};

}  // namespace vp::media
