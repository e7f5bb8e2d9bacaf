#include "media/image.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>

namespace vp::media {

Image::Image(int width, int height, Rgb fill)
    : width_(width), height_(height),
      data_(static_cast<size_t>(width) * static_cast<size_t>(height) * 3,
            fill.r) {
  // A gray fill (black included) is the byte fill above.
  if (fill.g != fill.r || fill.b != fill.r) Fill(fill);
}

void Image::Fill(Rgb c) {
  const size_t end = data_.size() - data_.size() % 3;
  if (end == 0) return;
  uint8_t* data = data_.data();
  data[0] = c.r;
  data[1] = c.g;
  data[2] = c.b;
  // Double the filled prefix; every copy starts on a pixel boundary.
  for (size_t filled = 3; filled < end;) {
    const size_t chunk = std::min(filled, end - filled);
    std::memcpy(data + filled, data, chunk);
    filled += chunk;
  }
}

void Image::DrawDisk(int cx, int cy, double r, Rgb c) {
  const int ri = static_cast<int>(std::ceil(r));
  const double r2 = r * r;
  for (int dy = -ri; dy <= ri; ++dy) {
    for (int dx = -ri; dx <= ri; ++dx) {
      if (dx * dx + dy * dy <= r2) SetClipped(cx + dx, cy + dy, c);
    }
  }
}

void Image::DrawLine(int x0, int y0, int x1, int y1, double thickness,
                     Rgb c) {
  const double dx = x1 - x0;
  const double dy = y1 - y0;
  const double len = std::sqrt(dx * dx + dy * dy);
  const int steps = std::max(1, static_cast<int>(std::ceil(len * 2)));
  const double radius = thickness / 2.0;
  int last_x = 0;
  int last_y = 0;
  for (int i = 0; i <= steps; ++i) {
    const double t = static_cast<double>(i) / steps;
    const int x = static_cast<int>(std::lround(x0 + t * dx));
    const int y = static_cast<int>(std::lround(y0 + t * dy));
    // Samples half a pixel apart often round to the same centre; the
    // same disk again would set the same pixels to the same colour.
    if (i > 0 && x == last_x && y == last_y) continue;
    DrawDisk(x, y, radius, c);
    last_x = x;
    last_y = y;
  }
}

Image Image::Downsample(int factor) const {
  if (factor <= 1) return *this;
  const int w = std::max(1, width_ / factor);
  const int h = std::max(1, height_ / factor);
  Image out(w, h);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      int sr = 0, sg = 0, sb = 0, n = 0;
      for (int dy = 0; dy < factor; ++dy) {
        for (int dx = 0; dx < factor; ++dx) {
          const int sx = x * factor + dx;
          const int sy = y * factor + dy;
          if (!InBounds(sx, sy)) continue;
          const Rgb c = At(sx, sy);
          sr += c.r;
          sg += c.g;
          sb += c.b;
          ++n;
        }
      }
      if (n == 0) n = 1;
      out.Set(x, y,
              Rgb{static_cast<uint8_t>(sr / n), static_cast<uint8_t>(sg / n),
                  static_cast<uint8_t>(sb / n)});
    }
  }
  return out;
}

double Image::MeanAbsDiff(const Image& other) const {
  if (width_ != other.width_ || height_ != other.height_) return 255.0;
  if (data_.empty()) return 0.0;
  uint64_t sum = 0;
  for (size_t i = 0; i < data_.size(); ++i) {
    sum += static_cast<uint64_t>(
        std::abs(static_cast<int>(data_[i]) - static_cast<int>(other.data_[i])));
  }
  return static_cast<double>(sum) / static_cast<double>(data_.size());
}

}  // namespace vp::media
