#include "media/renderer.hpp"

#include <algorithm>
#include <array>
#include <bit>
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

// The certificate's cells (BoxMullerCellBounds in renderer.hpp).
constexpr int kRadiusOctaves = 53;  // u1_bits in [1, 2^53)
constexpr int kRadiusCellBits = 6;
constexpr int kThetaCellBits = 10;
constexpr int kThetaCells = 1 << kThetaCellBits;
constexpr double kCellSlack = 0x1.0p-30;

// u1_bits converts to a double exactly; its exponent is u1_bits's
// octave and the top six bits of its mantissa the cell in the octave.
size_t RadiusCell(uint64_t u1_bits) {
  const uint64_t bits = std::bit_cast<uint64_t>(static_cast<double>(u1_bits));
  return static_cast<size_t>((bits >> (52 - kRadiusCellBits)) -
                             (uint64_t{1023} << kRadiusCellBits));
}

size_t ThetaCell(uint64_t u2_bits) {
  return static_cast<size_t>(u2_bits >> (53 - kThetaCellBits));
}

Interval Widened(double a, double b) {
  return Interval{std::min(a, b) - kCellSlack, std::max(a, b) + kCellSlack};
}

struct BoxMullerCells {
  struct Theta {
    Interval cos;
    Interval sin;
  };
  std::array<Interval, size_t{kRadiusOctaves} << kRadiusCellBits> radius;
  std::array<Theta, kThetaCells> theta;

  BoxMullerCells() {
    for (int k = 0; k < kRadiusOctaves; ++k) {
      for (uint64_t j = 0; j < (uint64_t{1} << kRadiusCellBits); ++j) {
        // Below octave 6 a cell holds one value or none.
        const uint64_t lead = (uint64_t{1} << kRadiusCellBits) | j;
        const uint64_t first = k >= kRadiusCellBits
                                   ? lead << (k - kRadiusCellBits)
                                   : lead >> (kRadiusCellBits - k);
        const uint64_t last =
            k >= kRadiusCellBits
                ? first + (uint64_t{1} << (k - kRadiusCellBits)) - 1
                : first;
        Interval& r = radius[RadiusCell(first)];
        r = Widened(BoxMullerRadius(first), BoxMullerRadius(last));
        r.lo = std::max(r.lo, 0.0);  // a radius is never negative
      }
    }
    constexpr uint64_t kCellWidth = uint64_t{1} << (53 - kThetaCellBits);
    for (size_t j = 0; j < theta.size(); ++j) {
      const GaussianPair a = BoxMuller(1.0, j * kCellWidth);
      const GaussianPair b = BoxMuller(1.0, (j + 1) * kCellWidth - 1);
      theta[j] = Theta{Widened(a.first, b.first), Widened(a.second, b.second)};
    }
    // Quarter turn q lies on the edge between cells q·kQuarter - 1 and
    // q·kQuarter. The computed θ there is within an ulp of qπ/2, so
    // either neighbour may hold the extremum: cos θ = ±1 at even q,
    // sin θ = ±1 at odd q.
    constexpr int kQuarter = kThetaCells / 4;
    for (int q = 0; q <= 4; ++q) {
      const double peak = q % 4 < 2 ? 1.0 : -1.0;
      for (const int j : {q * kQuarter - 1, q * kQuarter}) {
        if (j < 0 || j >= kThetaCells) continue;
        Theta& cell = theta[static_cast<size_t>(j)];
        Interval& f = q % 2 == 0 ? cell.cos : cell.sin;
        f.lo = std::min(f.lo, peak - kCellSlack);
        f.hi = std::max(f.hi, peak + kCellSlack);
      }
    }
  }
};

// Built on first use, once per process; about 86 KB.
const BoxMullerCells& Cells() {
  static const BoxMullerCells cells;
  return cells;
}

// The bucket of AddSensorNoise(c, sd·(r·f)) for every r in `radius` and
// f in `factor`, or -1 when the interval straddles a bucket edge. With
// r ≥ 0, the four corners' minimum is at f.lo and their maximum at
// f.hi, and the rounded products keep that order.
inline int CertifiedBucket(uint8_t c, double sd, const Interval& radius,
                           const Interval& factor) {
  const double lo = sd * std::min(radius.lo * factor.lo, radius.hi * factor.lo);
  const double hi = sd * std::max(radius.lo * factor.hi, radius.hi * factor.hi);
  const int bucket = AddSensorNoise(c, lo) >> 4;
  return bucket == AddSensorNoise(c, hi) >> 4 ? bucket : -1;
}

}  // namespace

BoxMullerCellBounds BoxMullerCell(uint64_t u1_bits, uint64_t u2_bits) {
  const BoxMullerCells& cells = Cells();
  const BoxMullerCells::Theta& theta = cells.theta[ThetaCell(u2_bits)];
  return BoxMullerCellBounds{cells.radius[RadiusCell(u1_bits)], theta.cos,
                             theta.sin};
}

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

NoisyQuantizer::TailCounts NoisyQuantizer::Apply(Image& image,
                                                 uint64_t frame_seed) const {
  std::vector<uint8_t>& data = image.data();
  TailCounts counts;
  if (!(stddev_ > 0)) {
    for (uint8_t& v : data) v = static_cast<uint8_t>(v >> 4);
    return counts;
  }
  const BoxMullerCells& cells = Cells();
  // The loop stores through uint8_t*, which may alias any object whose
  // address has escaped, as the seeded generator's has (to its
  // constructor). A copy's never does, so its state stays in registers
  // instead of going through memory on every draw.
  const Rng seeded = SensorNoiseRng(frame_seed);
  Rng rng = seeded;
  uint8_t* const d = data.data();
  const size_t n = data.size();
  // One Box–Muller pair per two channels, as RenderScene draws them.
  for (size_t i = 0; i + 1 < n; i += 2) {
    const uint8_t c0 = d[i];
    const uint8_t c1 = d[i + 1];
    const Rng::BoxMullerDraw draw = rng.NextBoxMullerDraw();
    const uint8_t headroom = std::min(kHeadroom[c0], kHeadroom[c1]);
    if (draw.u1_bits > u1_threshold_[headroom]) {
      // |stddev·r·cos θ| and |stddev·r·sin θ| are at most stddev·r,
      // which is below both headrooms: neither bucket changes.
      d[i] = static_cast<uint8_t>(c0 >> 4);
      d[i + 1] = static_cast<uint8_t>(c1 >> 4);
      continue;
    }
    ++counts.tail;
    const Interval& radius = cells.radius[RadiusCell(draw.u1_bits)];
    const BoxMullerCells::Theta& theta = cells.theta[ThetaCell(draw.u2_bits)];
    const int b0 = CertifiedBucket(c0, stddev_, radius, theta.cos);
    const int b1 = CertifiedBucket(c1, stddev_, radius, theta.sin);
    if (b0 >= 0 && b1 >= 0) {
      d[i] = static_cast<uint8_t>(b0);
      d[i + 1] = static_cast<uint8_t>(b1);
      continue;
    }
    ++counts.exact;
    // NextGaussian(0, sd) is 0.0 + sd·g; adding it to a channel gives
    // the same double as adding sd·g (the two differ only for -0.0).
    const GaussianPair g =
        BoxMuller(BoxMullerRadius(draw.u1_bits), draw.u2_bits);
    d[i] = static_cast<uint8_t>(AddSensorNoise(c0, stddev_ * g.first) >> 4);
    d[i + 1] =
        static_cast<uint8_t>(AddSensorNoise(c1, stddev_ * g.second) >> 4);
  }
  if (n % 2 == 1) {
    // An odd last channel takes the first value of a fresh pair; one
    // channel a frame runs the exact transform.
    ++counts.tail;
    ++counts.exact;
    const Rng::BoxMullerDraw draw = rng.NextBoxMullerDraw();
    const GaussianPair g =
        BoxMuller(BoxMullerRadius(draw.u1_bits), draw.u2_bits);
    d[n - 1] =
        static_cast<uint8_t>(AddSensorNoise(d[n - 1], stddev_ * g.first) >> 4);
  }
  return counts;
}

}  // namespace vp::media
