#include "media/renderer.hpp"

#include <algorithm>
#include <array>
#include <cmath>

namespace vp::media {

Point2 BodyToPixel(const Point2& body_point, const SceneOptions& options) {
  const double person_px_h = options.person_height * options.height;
  const double person_px_w = person_px_h * 0.6;
  const double foot_y = options.person_foot_y * options.height;
  const double top_y = foot_y - person_px_h;
  const double center_x = options.person_center_x * options.width;
  return Point2{center_x + (body_point.x - 0.5) * person_px_w,
                top_y + body_point.y * person_px_h};
}

namespace {

Rng SensorNoiseRng(uint64_t frame_seed) {
  return Rng(frame_seed ^ 0xC0FFEE123456789ULL);
}

uint8_t AddSensorNoise(uint8_t channel, double noise) {
  return static_cast<uint8_t>(std::clamp(channel + noise, 0.0, 255.0));
}

// Distance from a channel value to the edge of its 16-level codec
// bucket: |noise| < kHeadroom[c] keeps (c + noise) in c's bucket. The
// clamped side of buckets 0 and 15 has no edge.
constexpr std::array<uint8_t, 256> kHeadroom = [] {
  std::array<uint8_t, 256> headroom{};
  for (int c = 0; c < 256; ++c) {
    const int lo = c & 0xF0;
    const int down = lo == 0 ? 16 : c - lo;
    const int up = lo == 0xF0 ? 16 : lo + 16 - c;
    headroom[static_cast<size_t>(c)] =
        static_cast<uint8_t>(std::min(down, up));
  }
  return headroom;
}();

}  // namespace

Image RenderScene(const Pose& pose, const SceneOptions& options,
                  uint64_t frame_seed) {
  Image image = RenderCleanScene(pose, options);
  if (options.noise_stddev > 0) {
    Rng rng = SensorNoiseRng(frame_seed);
    for (auto& channel : image.data()) {
      channel = AddSensorNoise(channel,
                               rng.NextGaussian(0.0, options.noise_stddev));
    }
  }
  return image;
}

Image RenderCleanScene(const Pose& pose, const SceneOptions& options) {
  Image image(options.width, options.height, options.background);

  // Props (furniture / IoT devices) behind the person.
  for (const Prop& prop : options.props) {
    const int x0 = static_cast<int>(prop.x * options.width);
    const int y0 = static_cast<int>(prop.y * options.height);
    const int x1 = static_cast<int>((prop.x + prop.w) * options.width);
    const int y1 = static_cast<int>((prop.y + prop.h) * options.height);
    for (int y = y0; y <= y1; ++y) {
      for (int x = x0; x <= x1; ++x) {
        image.SetClipped(x, y, prop.color);
      }
    }
  }

  // Bones.
  const Rgb bone_color{90, 90, 96};
  for (const auto& [a, b] : SkeletonBones()) {
    if (!pose.visible[static_cast<size_t>(a)] ||
        !pose.visible[static_cast<size_t>(b)]) {
      continue;
    }
    const Point2 pa = BodyToPixel(pose[a], options);
    const Point2 pb = BodyToPixel(pose[b], options);
    image.DrawLine(static_cast<int>(std::lround(pa.x)),
                   static_cast<int>(std::lround(pa.y)),
                   static_cast<int>(std::lround(pb.x)),
                   static_cast<int>(std::lround(pb.y)),
                   options.bone_thickness, bone_color);
  }

  // Joint markers (drawn over bones; overlapping joints occlude each
  // other — the later-drawn joint wins, which is what makes e.g. a
  // clap hide a wrist from the detector).
  for (int k = 0; k < kNumKeypoints; ++k) {
    if (!pose.visible[static_cast<size_t>(k)]) continue;
    const Point2 p = BodyToPixel(pose[k], options);
    image.DrawDisk(static_cast<int>(std::lround(p.x)),
                   static_cast<int>(std::lround(p.y)), options.joint_radius,
                   KeypointColor(k));
  }
  return image;
}

int MaxSensorNoiseShift(double noise_stddev) {
  if (!(noise_stddev > 0)) return 0;
  const double shift = std::ceil(noise_stddev * BoxMullerRadius(1)) + 1;
  return static_cast<int>(std::min(shift, 256.0));
}

void AddSensorNoiseAt(Image& image, std::span<const uint32_t> pixels,
                      double noise_stddev, uint64_t frame_seed) {
  if (!(noise_stddev > 0)) return;
  std::vector<uint8_t>& data = image.data();
  const size_t n = data.size();
  Rng rng = SensorNoiseRng(frame_seed);
  // Pair q carries channels 2q and 2q + 1, as RenderScene draws them;
  // pixel p's channels 3p..3p+2 lie in pairs 3p/2..(3p+2)/2. Pairs
  // before `next` are drawn (the previous pixel may share one).
  size_t next = 0;
  for (const uint32_t pixel : pixels) {
    const size_t first = std::max(size_t{3} * pixel / 2, next);
    const size_t last = (size_t{3} * pixel + 2) / 2;
    for (; next < first; ++next) rng.NextBoxMullerDraw();
    for (; next <= last; ++next) {
      const Rng::BoxMullerDraw draw = rng.NextBoxMullerDraw();
      // As in NoisyQuantizer::Apply, sd·g adds to a channel exactly as
      // NextGaussian(0, sd) does.
      const GaussianPair g =
          BoxMuller(BoxMullerRadius(draw.u1_bits), draw.u2_bits);
      const size_t i = 2 * next;
      data[i] = AddSensorNoise(data[i], noise_stddev * g.first);
      // An odd last channel takes the first value of a fresh pair.
      if (i + 1 < n) {
        data[i + 1] = AddSensorNoise(data[i + 1], noise_stddev * g.second);
      }
    }
  }
}

NoisyQuantizer::NoisyQuantizer(double noise_stddev)
    : stddev_(noise_stddev) {
  // Above u1_threshold_[h], stddev·r stays below h - kSlack. The
  // inverse of r = sqrt(-2 ln u1) gives the boundary to within an ulp
  // or two; it is then stepped up until the very expression the exact
  // path evaluates agrees (the radius decreases as u1 grows). The slack
  // absorbs ulp-level non-monotonicity of libm and the rounding of
  // c + noise. Sources are built per deploy, so this stays cheap.
  constexpr uint64_t kMaxBits = (uint64_t{1} << 53) - 1;
  constexpr double kSlack = 1e-6;
  u1_threshold_.fill(kMaxBits);  // no fast path for headroom 0
  if (!(stddev_ > 0)) return;
  for (size_t h = 1; h < u1_threshold_.size(); ++h) {
    const double limit = static_cast<double>(h) - kSlack;
    const double r_max = limit / stddev_;
    const double u1_min = std::exp(-0.5 * r_max * r_max);
    uint64_t first_safe = static_cast<uint64_t>(
        std::clamp(std::ceil(u1_min * 0x1.0p53), 1.0, 0x1.0p53));
    while (first_safe <= kMaxBits &&
           stddev_ * BoxMullerRadius(first_safe) > limit) {
      ++first_safe;
    }
    u1_threshold_[h] = first_safe - 1;
  }
}

void NoisyQuantizer::Apply(Image& image, uint64_t frame_seed) const {
  std::vector<uint8_t>& data = image.data();
  if (!(stddev_ > 0)) {
    for (uint8_t& v : data) v = static_cast<uint8_t>(v >> 4);
    return;
  }
  Rng rng = SensorNoiseRng(frame_seed);
  const size_t n = data.size();
  // One Box–Muller pair per two channels, as RenderScene draws them; an
  // odd last channel takes the first value of a fresh pair.
  for (size_t i = 0; i < n; i += 2) {
    const bool pair = i + 1 < n;
    const uint8_t c0 = data[i];
    const uint8_t c1 = pair ? data[i + 1] : c0;
    const Rng::BoxMullerDraw draw = rng.NextBoxMullerDraw();
    const uint8_t headroom = std::min(kHeadroom[c0], kHeadroom[c1]);
    if (draw.u1_bits > u1_threshold_[headroom]) {
      // |stddev·r·cos θ| and |stddev·r·sin θ| are at most stddev·r,
      // which is below both headrooms: neither bucket changes.
      data[i] = static_cast<uint8_t>(c0 >> 4);
      if (pair) data[i + 1] = static_cast<uint8_t>(c1 >> 4);
      continue;
    }
    // NextGaussian(0, sd) is 0.0 + sd·g; adding it to a channel gives
    // the same double as adding sd·g (the two differ only for -0.0).
    const GaussianPair g =
        BoxMuller(BoxMullerRadius(draw.u1_bits), draw.u2_bits);
    data[i] = static_cast<uint8_t>(AddSensorNoise(c0, stddev_ * g.first) >> 4);
    if (pair) {
      data[i + 1] =
          static_cast<uint8_t>(AddSensorNoise(c1, stddev_ * g.second) >> 4);
    }
  }
}

}  // namespace vp::media
