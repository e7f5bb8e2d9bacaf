// Raster images.
//
// Interleaved 8-bit RGB. Small by modern standards (the synthetic
// camera defaults to 160×120) but fully real: the CV services operate
// on these pixel buffers, and the codec compresses them for network
// transfer.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <vector>

#include "common/bytes.hpp"

namespace vp::media {

struct Rgb {
  uint8_t r = 0, g = 0, b = 0;
  bool operator==(const Rgb&) const = default;
};

/// Chebyshev (max-channel) distance between two colors. Inline: the
/// pose detector runs it for every candidate pixel and joint.
inline int ColorDistance(Rgb a, Rgb b) {
  const int dr = std::abs(static_cast<int>(a.r) - static_cast<int>(b.r));
  const int dg = std::abs(static_cast<int>(a.g) - static_cast<int>(b.g));
  const int db = std::abs(static_cast<int>(a.b) - static_cast<int>(b.b));
  return std::max({dr, dg, db});
}

class Image {
 public:
  Image() = default;
  Image(int width, int height, Rgb fill = Rgb{0, 0, 0});

  int width() const { return width_; }
  int height() const { return height_; }
  bool empty() const { return data_.empty(); }
  size_t byte_size() const { return data_.size(); }

  bool InBounds(int x, int y) const {
    return x >= 0 && y >= 0 && x < width_ && y < height_;
  }

  Rgb At(int x, int y) const {
    const size_t i = Index(x, y);
    return Rgb{data_[i], data_[i + 1], data_[i + 2]};
  }

  void Set(int x, int y, Rgb c) {
    const size_t i = Index(x, y);
    data_[i] = c.r;
    data_[i + 1] = c.g;
    data_[i + 2] = c.b;
  }

  /// Set with bounds check (no-op when outside).
  void SetClipped(int x, int y, Rgb c) {
    if (InBounds(x, y)) Set(x, y, c);
  }

  void Fill(Rgb c);

  /// Filled disk of radius r at (cx, cy), clipped to bounds.
  void DrawDisk(int cx, int cy, double r, Rgb c);

  /// Line from (x0,y0) to (x1,y1) with the given thickness, clipped.
  void DrawLine(int x0, int y0, int x1, int y1, double thickness, Rgb c);

  /// Downsample by integer factor (box filter) — used by the image
  /// classifier service.
  Image Downsample(int factor) const;

  /// Mean per-channel absolute difference against another image of the
  /// same dimensions (returns 255 on dimension mismatch).
  double MeanAbsDiff(const Image& other) const;

  const std::vector<uint8_t>& data() const { return data_; }
  std::vector<uint8_t>& data() { return data_; }

 private:
  size_t Index(int x, int y) const {
    return 3 * (static_cast<size_t>(y) * static_cast<size_t>(width_) +
                static_cast<size_t>(x));
  }

  int width_ = 0;
  int height_ = 0;
  std::vector<uint8_t> data_;
};

}  // namespace vp::media
