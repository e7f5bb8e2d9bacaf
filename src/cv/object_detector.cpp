#include "cv/object_detector.hpp"

#include <algorithm>
#include <queue>

#include "media/skeleton.hpp"

namespace vp::cv {

json::Value DetectedObject::ToJson() const {
  json::Value out = json::Value::MakeObject();
  out["class"] = json::Value(class_name);
  out["x0"] = json::Value(x0);
  out["y0"] = json::Value(y0);
  out["x1"] = json::Value(x1);
  out["y1"] = json::Value(y1);
  out["pixels"] = json::Value(pixels);
  out["confidence"] = json::Value(confidence);
  return out;
}

namespace {

/// Max color distance from a blob's mean to a class color.
constexpr int kClassColorTolerance = 40;
/// Pixels at least this far from the background estimate enter the
/// foreground mask.
constexpr int kBackgroundTolerance = 45;

/// Estimate the background color as the median-ish of the four
/// corners (robust enough for indoor scenes with a dominant wall).
media::Rgb EstimateBackground(const media::Image& image) {
  const int w = image.width();
  const int h = image.height();
  const media::Rgb corners[4] = {image.At(1, 1), image.At(w - 2, 1),
                                 image.At(1, h - 2), image.At(w - 2, h - 2)};
  int r = 0, g = 0, b = 0;
  for (const auto& c : corners) {
    r += c.r;
    g += c.g;
    b += c.b;
  }
  return media::Rgb{static_cast<uint8_t>(r / 4), static_cast<uint8_t>(g / 4),
                    static_cast<uint8_t>(b / 4)};
}

/// True when the color is part of the person (joint markers or bones)
/// rather than a prop.
bool IsPersonColor(media::Rgb c) {
  const media::Rgb bone{90, 90, 96};
  if (media::ColorDistance(c, bone) < 25) return true;
  for (int k = 0; k < media::kNumKeypoints; ++k) {
    if (media::ColorDistance(c, media::KeypointColor(k)) < 25) return true;
  }
  return false;
}

}  // namespace

std::vector<DetectedObject> DetectObjects(
    const media::Image& image, const ObjectDetectorOptions& options) {
  const int w = image.width();
  const int h = image.height();
  const media::Rgb background = EstimateBackground(image);

  // Foreground mask (excluding person pixels).
  std::vector<uint8_t> mask(static_cast<size_t>(w) * h, 0);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      const media::Rgb c = image.At(x, y);
      if (media::ColorDistance(c, background) < kBackgroundTolerance) {
        continue;
      }
      if (IsPersonColor(c)) continue;
      mask[static_cast<size_t>(y) * w + x] = 1;
    }
  }

  // Connected components (4-connectivity BFS).
  std::vector<DetectedObject> objects;
  std::vector<uint8_t> seen(mask.size(), 0);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      const size_t idx = static_cast<size_t>(y) * w + x;
      if (!mask[idx] || seen[idx]) continue;
      // BFS this blob.
      std::queue<std::pair<int, int>> frontier;
      frontier.push({x, y});
      seen[idx] = 1;
      int min_x = x, max_x = x, min_y = y, max_y = y;
      long sr = 0, sg = 0, sb = 0;
      int count = 0;
      while (!frontier.empty()) {
        const auto [cx, cy] = frontier.front();
        frontier.pop();
        const media::Rgb c = image.At(cx, cy);
        sr += c.r;
        sg += c.g;
        sb += c.b;
        ++count;
        min_x = std::min(min_x, cx);
        max_x = std::max(max_x, cx);
        min_y = std::min(min_y, cy);
        max_y = std::max(max_y, cy);
        const int nx[4] = {cx - 1, cx + 1, cx, cx};
        const int ny[4] = {cy, cy, cy - 1, cy + 1};
        for (int i = 0; i < 4; ++i) {
          if (nx[i] < 0 || ny[i] < 0 || nx[i] >= w || ny[i] >= h) continue;
          const size_t nidx = static_cast<size_t>(ny[i]) * w + nx[i];
          if (mask[nidx] && !seen[nidx]) {
            seen[nidx] = 1;
            frontier.push({nx[i], ny[i]});
          }
        }
      }
      if (count < options.min_blob_pixels) continue;

      const media::Rgb mean{static_cast<uint8_t>(sr / count),
                            static_cast<uint8_t>(sg / count),
                            static_cast<uint8_t>(sb / count)};
      DetectedObject object;
      object.x0 = min_x;
      object.y0 = min_y;
      object.x1 = max_x;
      object.y1 = max_y;
      object.pixels = count;
      object.class_name = "unknown";
      int best = kClassColorTolerance + 1;
      for (const ObjectClass& cls : options.classes) {
        const int d = media::ColorDistance(mean, cls.color);
        if (d < best) {
          best = d;
          object.class_name = cls.name;
        }
      }
      object.confidence =
          object.class_name == "unknown"
              ? 0.0
              : 1.0 - static_cast<double>(best) / kClassColorTolerance;
      objects.push_back(object);
    }
  }
  return objects;
}

Duration ObjectDetectCost(int width, int height) {
  const double megapixels = static_cast<double>(width) * height / 1e6;
  return Duration::Millis(18.0 + 90.0 * megapixels);
}

}  // namespace vp::cv
