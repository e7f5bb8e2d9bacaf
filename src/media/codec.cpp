#include "media/codec.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#include "json/parse.hpp"
#include "json/write.hpp"

namespace vp::media {

namespace {
constexpr uint32_t kFrameMagic = 0x56504631;  // "VPF1"

// The RLE of `buckets` (4-bit buckets, three per pixel, in raster
// order): a (count u8, r', g', b') quad per run of identical pixels, at
// most 255 pixels a run. A pixel extends the run when each of its bytes
// equals the byte three before it, so the scan compares eight bytes
// with the eight three before them at a time. A trailing partial pixel
// is ignored.
Bytes ScanRuns(std::span<const uint8_t> buckets) {
  const size_t end = buckets.size() - buckets.size() % 3;
  const uint8_t* q = buckets.data();
  ByteWriter rle;
  for (size_t start = 0; start < end;) {
    const size_t limit = std::min(end, start + 255 * 3);
    size_t j = start + 3;  // the first byte that may break the run
    for (; j + 8 <= limit; j += 8) {
      uint64_t now = 0;
      uint64_t before = 0;
      std::memcpy(&now, q + j, 8);
      std::memcpy(&before, q + j - 3, 8);
      if (const uint64_t diff = now ^ before; diff != 0) {
        j += static_cast<size_t>(std::endian::native == std::endian::little
                                     ? std::countr_zero(diff)
                                     : std::countl_zero(diff)) /
             8;
        break;
      }
    }
    while (j < limit && q[j] == q[j - 3]) ++j;  // the tail, or no-op
    const size_t run = (j - start) / 3;  // pixels whose bytes all matched
    rle.WriteU8(static_cast<uint8_t>(run));
    rle.WriteU8(q[start]);
    rle.WriteU8(q[start + 1]);
    rle.WriteU8(q[start + 2]);
    start += run * 3;
  }
  return rle.Take();
}

// The wire frame: header, ground truth, size and the runs of `buckets`.
Bytes Encode(const Frame& frame, std::span<const uint8_t> buckets) {
  ByteWriter w;
  w.WriteU32(kFrameMagic);
  w.WriteU64(frame.seq);
  w.WriteI64(frame.capture_time.micros());
  w.WriteString(json::Write(frame.ground_truth));
  w.WriteU16(static_cast<uint16_t>(frame.image.width()));
  w.WriteU16(static_cast<uint16_t>(frame.image.height()));
  w.WriteBytes(ScanRuns(buckets));
  return w.Take();
}

}  // namespace

// Lossy compression, JPEG-in-spirit: quantize each channel to 16 levels
// (sensor noise collapses into the bucket), then run-length encode the
// quantized RGB triples.
Bytes EncodeFrame(const Frame& frame) {
  const std::vector<uint8_t>& data = frame.image.data();
  Bytes buckets(data.size());
  std::transform(data.begin(), data.end(), buckets.begin(),
                 [](uint8_t v) { return static_cast<uint8_t>(v >> 4); });
  return Encode(frame, buckets);
}

Bytes EncodeQuantizedFrame(const Frame& frame) {
  return Encode(frame, frame.image.data());
}

namespace {

/// A wire frame's fields, checked: every field reads, the ground truth
/// parses, and the runs cover exactly width·height pixels.
struct WireFrame {
  uint64_t seq = 0;
  TimePoint capture_time;
  int width = 0;
  int height = 0;
  std::span<const uint8_t> runs;
};

/// Parses the ground truth into `*ground_truth`, or with nullptr only
/// validates it: the same checks in the same order either way.
Result<WireFrame> ParseWire(std::span<const uint8_t> data,
                            json::Value* ground_truth) {
  ByteReader r(data);
  auto magic = r.ReadU32();
  if (!magic.ok()) return magic.error();
  if (*magic != kFrameMagic) return ParseError("bad frame magic");

  WireFrame frame;
  auto seq = r.ReadU64();
  if (!seq.ok()) return seq.error();
  frame.seq = *seq;

  auto cap = r.ReadI64();
  if (!cap.ok()) return cap.error();
  frame.capture_time = TimePoint::FromMicros(*cap);

  auto gt_text = r.ReadString();
  if (!gt_text.ok()) return gt_text.error();
  if (ground_truth == nullptr) {
    Status valid = json::Validate(*gt_text);
    if (!valid.ok()) return valid.error();
  } else {
    auto gt = json::Parse(*gt_text);
    if (!gt.ok()) return gt.error();
    *ground_truth = std::move(*gt);
  }

  auto w16 = r.ReadU16();
  if (!w16.ok()) return w16.error();
  auto h16 = r.ReadU16();
  if (!h16.ok()) return h16.error();
  frame.width = *w16;
  frame.height = *h16;

  auto rle = r.ReadBytesView();
  if (!rle.ok()) return rle.error();
  frame.runs = *rle;

  // The run total is checked against the header's dimensions before
  // anything is sized from them: a forged 65535×65535 header would
  // otherwise allocate ~12.9 GB.
  const size_t pixels =
      static_cast<size_t>(frame.width) * static_cast<size_t>(frame.height);
  size_t total = 0;
  ForEachRun(frame.runs, [&total](Rgb, size_t, size_t count) {
    total += count;
  });
  if (total > pixels) return ParseError("frame RLE overruns pixel buffer");
  if (total < pixels) return ParseError("frame RLE underfills pixel buffer");
  return frame;
}

/// Fill `image` (already sized) from a checked RLE section.
void DecodeRuns(std::span<const uint8_t> runs, Image& image) {
  uint8_t* out = image.data().data();
  ForEachRun(runs, [out](Rgb color, size_t first, size_t count) {
    for (size_t p = first * 3, end = (first + count) * 3; p < end; p += 3) {
      out[p] = color.r;
      out[p + 1] = color.g;
      out[p + 2] = color.b;
    }
  });
}

}  // namespace

Result<Frame> DecodeFrame(std::span<const uint8_t> data) {
  Frame frame;
  auto wire = ParseWire(data, &frame.ground_truth);
  if (!wire.ok()) return wire.error();
  frame.seq = wire->seq;
  frame.capture_time = wire->capture_time;
  frame.image = Image(wire->width, wire->height);
  DecodeRuns(wire->runs, frame.image);
  return frame;
}

Result<EncodedFrame> EncodedFrame::Parse(Bytes wire) {
  auto parsed = ParseWire(wire, nullptr);
  if (!parsed.ok()) return parsed.error();
  EncodedFrame frame;
  frame.seq_ = parsed->seq;
  frame.capture_time_ = parsed->capture_time;
  frame.width_ = parsed->width;
  frame.height_ = parsed->height;
  frame.runs_offset_ = static_cast<size_t>(parsed->runs.data() - wire.data());
  frame.runs_size_ = parsed->runs.size();
  frame.wire_ = std::move(wire);
  return frame;
}

const Image& EncodedFrame::image() const {
  if (!image_) {
    image_.emplace(width_, height_);
    DecodeRuns(runs(), *image_);
  }
  return *image_;
}

Duration EncodeCost(int width, int height) {
  const double megapixels = static_cast<double>(width) * height / 1e6;
  return Duration::Millis(0.3 + 19.5 * megapixels);  // 640x480 ≈ 6 ms
}

Duration DecodeCost(size_t encoded_bytes) {
  return Duration::Millis(0.3 + static_cast<double>(encoded_bytes) / 12000.0);
}

}  // namespace vp::media
