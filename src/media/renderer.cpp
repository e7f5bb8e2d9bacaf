#include "media/renderer.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace vp::media {
namespace {

/// The person's feet, normalized to the image height.
constexpr double kPersonFootY = 0.97;
/// Joint marker radius and bone thickness, in pixels.
constexpr double kJointRadius = 2.2;
constexpr double kBoneThickness = 2.0;

}  // namespace

Point2 BodyToPixel(const Point2& body_point, const SceneOptions& options) {
  const double person_px_h = options.person_height * options.height;
  const double person_px_w = person_px_h * 0.6;
  const double foot_y = kPersonFootY * options.height;
  const double top_y = foot_y - person_px_h;
  const double center_x = options.person_center_x * options.width;
  return Point2{center_x + (body_point.x - 0.5) * person_px_w,
                top_y + body_point.y * person_px_h};
}

Rng SensorNoiseStream(uint64_t frame_seed) {
  return Rng(frame_seed ^ 0xC0FFEE123456789ULL);
}

namespace {

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
    Rng rng = SensorNoiseStream(frame_seed);
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
                   kBoneThickness, bone_color);
  }

  // Joint markers (drawn over bones; overlapping joints occlude each
  // other — the later-drawn joint wins, which is what makes e.g. a
  // clap hide a wrist from the detector).
  for (int k = 0; k < kNumKeypoints; ++k) {
    if (!pose.visible[static_cast<size_t>(k)]) continue;
    const Point2 p = BodyToPixel(pose[k], options);
    image.DrawDisk(static_cast<int>(std::lround(p.x)),
                   static_cast<int>(std::lround(p.y)), kJointRadius,
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
  Rng rng = SensorNoiseStream(frame_seed);
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

namespace {

// The bucket pair of one Box–Muller pair that missed the fast path,
// settled from the certificate's cells when both intervals land in one
// bucket and by the exact transform otherwise.
struct SettledPair {
  uint8_t b0;
  uint8_t b1;
  bool exact;
};

[[gnu::always_inline]] inline SettledPair SettleTailPair(
    uint8_t c0, uint8_t c1, uint64_t u1_bits, uint64_t u2_bits, double sd,
    const BoxMullerCells& cells) {
  const Interval& radius = cells.radius[RadiusCell(u1_bits)];
  const BoxMullerCells::Theta& theta = cells.theta[ThetaCell(u2_bits)];
  const int b0 = CertifiedBucket(c0, sd, radius, theta.cos);
  const int b1 = CertifiedBucket(c1, sd, radius, theta.sin);
  if (b0 >= 0 && b1 >= 0) {
    return SettledPair{static_cast<uint8_t>(b0), static_cast<uint8_t>(b1),
                       false};
  }
  // NextGaussian(0, sd) is 0.0 + sd·g; adding it to a channel gives the
  // same double as adding sd·g (the two differ only for -0.0).
  const GaussianPair g = BoxMuller(BoxMullerRadius(u1_bits), u2_bits);
  return SettledPair{
      static_cast<uint8_t>(AddSensorNoise(c0, sd * g.first) >> 4),
      static_cast<uint8_t>(AddSensorNoise(c1, sd * g.second) >> 4), true};
}

}  // namespace

NoisyQuantizer::TailCounts NoisyQuantizer::Apply(Image& image,
                                                 uint64_t frame_seed) const {
  // Both paths take the stream by value. The loops store through
  // uint8_t*, which may alias any object whose address has escaped, as
  // the seeded generator's has (to its constructor). A copy's never
  // does, so its state stays in registers instead of going through
  // memory on every draw.
  const Rng seeded = SensorNoiseStream(frame_seed);
  return LanesSupported() ? ApplyLanes(image, seeded)
                          : ApplyScalar(image, seeded);
}

NoisyQuantizer::TailCounts NoisyQuantizer::ApplyScalar(Image& image,
                                                       Rng rng) const {
  std::vector<uint8_t>& data = image.data();
  TailCounts counts;
  if (!(stddev_ > 0)) {
    for (uint8_t& v : data) v = static_cast<uint8_t>(v >> 4);
    return counts;
  }
  QuantizeFrom(data.data(), data.size(), 0, rng, counts);
  return counts;
}

void NoisyQuantizer::QuantizeFrom(uint8_t* d, size_t n, size_t first_pair,
                                  Rng rng, TailCounts& counts) const {
  const BoxMullerCells& cells = Cells();
  // One Box–Muller pair per two channels, as RenderScene draws them.
  for (size_t i = 2 * first_pair; i + 1 < n; i += 2) {
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
    const SettledPair b =
        SettleTailPair(c0, c1, draw.u1_bits, draw.u2_bits, stddev_, cells);
    counts.exact += b.exact;
    d[i] = b.b0;
    d[i + 1] = b.b1;
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
}

// ------------------------------------------------------------------ Lanes

#if defined(__x86_64__) && defined(__GNUC__)
#define VP_HAVE_LANES 1
#define VP_LANES_TARGET \
  __attribute__((target("avx512f,avx512bw,avx512dq,avx512vl")))
#else
#define VP_HAVE_LANES 0
#endif

#if VP_HAVE_LANES

namespace {

constexpr size_t kLanes = 8;
// Steps whose pair headrooms are transposed together, and steps between
// two settles of the compress-stored tail pairs.
constexpr size_t kGroupSteps = 8;
constexpr size_t kChunkSteps = 64;
// Below this many pairs a lane, the jumps cost more than the lanes save.
constexpr size_t kMinLanePairs = 256;

// One chunk's tail pairs, in the order the lanes compress-store them.
// Each compress-store writes a whole vector from the first free entry;
// a step adds at most kLanes entries, so every store ends inside.
struct LaneTail {
  static constexpr size_t kCapacity = kChunkSteps * kLanes;
  uint64_t u1[kCapacity];        // the u1 draw; u1_bits is its top 53 bits
  uint64_t u2_state[kCapacity];  // the u2 draw's state word: Rng::Scramble
  uint64_t pair[kCapacity];
  size_t size = 0;
};

// A settled tail pair's clean channels, kept until the lanes are known
// to have drawn no u1 = 0.
struct UndoEntry {
  uint32_t pair;
  uint8_t c0;
  uint8_t c1;
};

// Reused across frames: after a thread's first frames it allocates
// nothing. It holds the tail pairs, ~4% of a frame's pairs at noise 3.
std::vector<UndoEntry>& UndoLog() {
  thread_local std::vector<UndoEntry> log;
  return log;
}

// Settles a chunk's tail pairs as the scalar loop does, writes each
// bucket shifted left by four (the lanes' closing >> 4 leaves the
// bucket) and logs the clean channels it overwrites. Returns false at a
// draw with u1 = 0, which the scalar loop would redraw, leaving it and
// the chunk's later pairs unsettled. Kept out of line, so it is compiled
// for the baseline instruction set: inlined into the AVX-512 kernel, GCC
// may contract its products and sums into FMAs, which round differently.
__attribute__((noinline)) bool SettleLaneTail(
    uint8_t* d, const LaneTail& tails, double sd,
    NoisyQuantizer::TailCounts& counts, std::vector<UndoEntry>& undo) {
  const BoxMullerCells& cells = Cells();
  uint64_t exact = 0;
  size_t r = 0;
  for (; r < tails.size; ++r) {
    const uint64_t u1_bits = tails.u1[r] >> 11;
    if (u1_bits == 0) break;
    const size_t i = 2 * tails.pair[r];
    const uint8_t c0 = d[i];
    const uint8_t c1 = d[i + 1];
    undo.push_back(UndoEntry{static_cast<uint32_t>(tails.pair[r]), c0, c1});
    const SettledPair b =
        SettleTailPair(c0, c1, u1_bits,
                       Rng::Scramble(tails.u2_state[r]) >> 11, sd, cells);
    exact += b.exact;
    d[i] = static_cast<uint8_t>(b.b0 << 4);
    d[i + 1] = static_cast<uint8_t>(b.b1 << 4);
  }
  counts.tail += r;
  counts.exact += exact;
  return r == tails.size;
}

// Eight xoshiro256** generators, one per 64-bit lane.
struct LaneState {
  __m512i s0, s1, s2, s3;
};

// NextU64's value in every lane, rotl(s1·5, 7)·9, by shifts and adds.
VP_LANES_TARGET inline __m512i LaneValue(__m512i s1) {
  const __m512i times5 = _mm512_add_epi64(s1, _mm512_slli_epi64(s1, 2));
  const __m512i rotated = _mm512_rol_epi64(times5, 7);
  return _mm512_add_epi64(rotated, _mm512_slli_epi64(rotated, 3));
}

// NextU64's step in every lane.
VP_LANES_TARGET inline void LaneStep(LaneState& s) {
  const __m512i t = _mm512_slli_epi64(s.s1, 17);
  s.s2 = _mm512_xor_si512(s.s2, s.s0);
  s.s3 = _mm512_xor_si512(s.s3, s.s1);
  s.s1 = _mm512_xor_si512(s.s1, s.s2);
  s.s0 = _mm512_xor_si512(s.s0, s.s3);
  s.s2 = _mm512_xor_si512(s.s2, t);
  s.s3 = _mm512_rol_epi64(s.s3, 45);
}

// kHeadroom of every byte: down to the bucket's lower edge is c & 0x0F,
// up to its upper edge 16 - (c & 0x0F); bucket 0 has no lower edge and
// bucket 15 no upper one.
VP_LANES_TARGET inline __m512i ByteHeadroom(__m512i c) {
  const __m512i sixteen = _mm512_set1_epi8(16);
  const __m512i low = _mm512_and_si512(c, _mm512_set1_epi8(0x0F));
  const __m512i down =
      _mm512_mask_mov_epi8(low, _mm512_cmplt_epu8_mask(c, sixteen), sixteen);
  const __m512i up = _mm512_mask_mov_epi8(
      _mm512_sub_epi8(sixteen, low),
      _mm512_cmpge_epu8_mask(c, _mm512_set1_epi8(static_cast<char>(0xF0))),
      sixteen);
  return _mm512_min_epu8(down, up);
}

// The pair headrooms (the smaller of the two channels') of kGroupSteps
// steps in every lane, step-major: heads[8·t + k] belongs to lane k's
// pair at step t, whose channels lie at lane0 + k·lane_bytes + 2t.
VP_LANES_TARGET inline void GroupHeadroom(const uint8_t* lane0,
                                          size_t lane_bytes,
                                          uint16_t heads[kLanes * kGroupSteps]) {
  __m512i half[2];
  for (size_t h = 0; h < 2; ++h) {
    const uint8_t* p = lane0 + 4 * h * lane_bytes;
    __m512i c = _mm512_castsi128_si512(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
    c = _mm512_inserti32x4(
        c, _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + lane_bytes)),
        1);
    c = _mm512_inserti32x4(
        c,
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 2 * lane_bytes)),
        2);
    c = _mm512_inserti32x4(
        c,
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 3 * lane_bytes)),
        3);
    // Each 16-bit word holds one pair's channels; its low byte becomes
    // the smaller headroom and its high byte zero.
    const __m512i h8 = ByteHeadroom(c);
    half[h] = _mm512_min_epu8(h8, _mm512_srli_epi16(h8, 8));
  }
  // Lane k's step t is word 8k + t of half[0] for k < 4 and of half[1]
  // (the permutes' words 32..63) for k >= 4, so it is word 8k + t of the
  // pair; output word 8t + k takes it: an 8×8 transpose of words.
  alignas(64) static constexpr uint16_t kTranspose[2][32] = {
      {0, 8, 16, 24, 32, 40, 48, 56, 1, 9, 17, 25, 33, 41, 49, 57,
       2, 10, 18, 26, 34, 42, 50, 58, 3, 11, 19, 27, 35, 43, 51, 59},
      {4, 12, 20, 28, 36, 44, 52, 60, 5, 13, 21, 29, 37, 45, 53, 61,
       6, 14, 22, 30, 38, 46, 54, 62, 7, 15, 23, 31, 39, 47, 55, 63}};
  for (int i = 0; i < 2; ++i) {
    const __m512i index = _mm512_load_si512(kTranspose[i]);
    _mm512_storeu_si512(heads + 32 * i,
                        _mm512_permutex2var_epi16(half[0], index, half[1]));
  }
}

// Steps the lanes through lane_pairs pairs each, lane k from starts[k]
// over pairs [k·lane_pairs, (k + 1)·lane_pairs). Pairs the fast path
// clears keep their clean channels until the closing >> 4; the others
// are compress-stored and settled a chunk at a time. `draw_threshold[h]`
// is u1_threshold_[h] in NextU64's scale. On success, lane 7's final
// state is `end`; false when a lane drew u1 = 0.
VP_LANES_TARGET bool QuantizeLanes(
    uint8_t* d, size_t lane_pairs,
    const uint64_t (&starts)[4][kLanes],
    const uint64_t (&draw_threshold)[17], double sd,
    NoisyQuantizer::TailCounts& counts, std::vector<UndoEntry>& undo,
    std::array<uint64_t, 4>& end) {
  LaneState s{_mm512_loadu_si512(starts[0]), _mm512_loadu_si512(starts[1]),
              _mm512_loadu_si512(starts[2]), _mm512_loadu_si512(starts[3])};
  const __m512i threshold_lo = _mm512_loadu_si512(draw_threshold);
  const __m512i threshold_hi = _mm512_loadu_si512(draw_threshold + 8);
  const __m512i threshold_16 = _mm512_set1_epi64(
      static_cast<long long>(draw_threshold[16]));
  const __m512i sixteen = _mm512_set1_epi64(16);
  const __m512i one = _mm512_set1_epi64(1);
  const size_t lane_bytes = 2 * lane_pairs;
  __m512i pair = _mm512_mullo_epi64(
      _mm512_set_epi64(7, 6, 5, 4, 3, 2, 1, 0),
      _mm512_set1_epi64(static_cast<long long>(lane_pairs)));
  LaneTail tails;
  alignas(64) uint16_t heads[kLanes * kGroupSteps];
  for (size_t chunk = 0; chunk < lane_pairs; chunk += kChunkSteps) {
    const size_t chunk_end = std::min(chunk + kChunkSteps, lane_pairs);
    tails.size = 0;
    for (size_t group = chunk; group < chunk_end; group += kGroupSteps) {
      GroupHeadroom(d + 2 * group, lane_bytes, heads);
      for (size_t t = 0; t < kGroupSteps; ++t) {
        const __m512i headroom = _mm512_cvtepu16_epi64(
            _mm_load_si128(reinterpret_cast<const __m128i*>(heads + 8 * t)));
        // The table lookup takes the index's low four bits; headroom 16
        // is patched in.
        __m512i threshold = _mm512_permutex2var_epi64(threshold_lo, headroom,
                                                      threshold_hi);
        threshold = _mm512_mask_mov_epi64(
            threshold, _mm512_cmpeq_epi64_mask(headroom, sixteen),
            threshold_16);
        const __m512i u1 = LaneValue(s.s1);
        LaneStep(s);
        // Only tail pairs need u2, so its value is left to the settle.
        const __m512i u2_state = s.s1;
        LaneStep(s);
        // u1_bits > u1_threshold_[h] iff the draw is above its threshold
        // in NextU64's scale: the fast path.
        const __mmask8 tail = _mm512_cmple_epu64_mask(u1, threshold);
        const size_t at = tails.size;
        _mm512_storeu_si512(tails.u1 + at,
                            _mm512_maskz_compress_epi64(tail, u1));
        _mm512_storeu_si512(tails.u2_state + at,
                            _mm512_maskz_compress_epi64(tail, u2_state));
        _mm512_storeu_si512(tails.pair + at,
                            _mm512_maskz_compress_epi64(tail, pair));
        tails.size = at + static_cast<size_t>(__builtin_popcount(tail));
        pair = _mm512_add_epi64(pair, one);
      }
    }
    // The settle code is SSE: clear the vector registers' upper halves
    // first, as GCC does on its own only when optimizing, or every SSE
    // instruction after them runs slowly.
    _mm256_zeroupper();
    if (!SettleLaneTail(d, tails, sd, counts, undo)) return false;
  }
  // Every pair the lanes drew is settled; fast-path pairs still hold
  // their clean channels and tail pairs their buckets shifted left.
  const size_t bytes = kLanes * lane_bytes;
  size_t i = 0;
  const __m512i low_nibbles = _mm512_set1_epi8(0x0F);
  for (; i + 64 <= bytes; i += 64) {
    const __m512i v = _mm512_loadu_si512(d + i);
    _mm512_storeu_si512(
        d + i, _mm512_and_si512(_mm512_srli_epi16(v, 4), low_nibbles));
  }
  for (; i < bytes; ++i) d[i] = static_cast<uint8_t>(d[i] >> 4);
  alignas(64) uint64_t words[4][kLanes];
  _mm512_store_si512(words[0], s.s0);
  _mm512_store_si512(words[1], s.s1);
  _mm512_store_si512(words[2], s.s2);
  _mm512_store_si512(words[3], s.s3);
  end = {words[0][kLanes - 1], words[1][kLanes - 1], words[2][kLanes - 1],
         words[3][kLanes - 1]};
  _mm256_zeroupper();
  return true;
}

}  // namespace

#endif  // VP_HAVE_LANES

bool NoisyQuantizer::LanesSupported() {
#if VP_HAVE_LANES
  static const bool supported = __builtin_cpu_supports("avx512f") &&
                                __builtin_cpu_supports("avx512bw") &&
                                __builtin_cpu_supports("avx512dq") &&
                                __builtin_cpu_supports("avx512vl");
  return supported;
#else
  return false;
#endif
}

size_t NoisyQuantizer::LanePairs(size_t channels) {
#if VP_HAVE_LANES
  const size_t pairs = channels / 2;
  // Whole transpose groups; the undo log indexes pairs in 32 bits.
  const size_t lane_pairs = pairs / kLanes / kGroupSteps * kGroupSteps;
  if (lane_pairs < kMinLanePairs || pairs > UINT32_MAX) return 0;
  return lane_pairs;
#else
  (void)channels;
  return 0;
#endif
}

NoisyQuantizer::TailCounts NoisyQuantizer::ApplyLanes(Image& image,
                                                      Rng rng) const {
#if VP_HAVE_LANES
  std::vector<uint8_t>& data = image.data();
  const size_t lane_pairs = LanePairs(data.size());
  if (!LanesSupported() || lane_pairs == 0 || !(stddev_ > 0)) {
    return ApplyScalar(image, rng);
  }
  // Lane k starts 2·k·lane_pairs draws into the stream: its slice of
  // the frame's pairs, if no earlier lane redraws a u1.
  uint64_t starts[4][kLanes];
  Rng lane = rng;
  for (size_t k = 0; k < kLanes; ++k) {
    if (k > 0) lane.Jump(2 * lane_pairs);
    const std::array<uint64_t, 4> state = lane.State();
    for (size_t w = 0; w < 4; ++w) starts[w][k] = state[w];
  }
  // u1_bits > t iff the draw's value (u1_bits << 11 plus 11 low bits)
  // is above (t << 11) | 0x7FF.
  uint64_t draw_threshold[17];
  for (size_t h = 0; h < u1_threshold_.size(); ++h) {
    draw_threshold[h] = (u1_threshold_[h] << 11) | 0x7FF;
  }
  std::vector<UndoEntry>& undo = UndoLog();
  undo.clear();
  TailCounts counts;
  std::array<uint64_t, 4> end{};
  uint8_t* const d = data.data();
  if (!QuantizeLanes(d, lane_pairs, starts, draw_threshold, stddev_, counts,
                     undo, end)) {
    // The scalar loop redraws a u1 of 0, which puts every later lane one
    // draw off: put the clean channels back and run it instead.
    for (const UndoEntry& e : undo) {
      d[2 * size_t{e.pair}] = e.c0;
      d[2 * size_t{e.pair} + 1] = e.c1;
    }
    return ApplyScalar(image, rng);
  }
  // The pairs past the last whole lane, and an odd last channel, follow
  // lane 7 in the stream.
  QuantizeFrom(d, data.size(), kLanes * lane_pairs, Rng::FromState(end),
               counts);
  return counts;
#else
  return ApplyScalar(image, rng);
#endif
}

}  // namespace vp::media
