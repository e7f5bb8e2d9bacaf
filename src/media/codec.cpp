#include "media/codec.hpp"

#include "json/parse.hpp"
#include "json/write.hpp"

namespace vp::media {

namespace {
constexpr uint32_t kFrameMagic = 0x56504631;  // "VPF1"

// `quant` maps a channel of the frame's image to its 4-bit bucket.
template <typename Quant>
Bytes Encode(const Frame& frame, Quant quant) {
  ByteWriter w;
  w.WriteU32(kFrameMagic);
  w.WriteU64(frame.seq);
  w.WriteI64(frame.capture_time.micros());
  w.WriteString(json::Write(frame.ground_truth));
  w.WriteU16(static_cast<uint16_t>(frame.image.width()));
  w.WriteU16(static_cast<uint16_t>(frame.image.height()));

  // Lossy compression, JPEG-in-spirit: quantize each channel to 16
  // levels (sensor noise collapses into the bucket), then RLE over the
  // quantized RGB triples: (run_len u8, r', g', b'), max run 255.
  const auto& data = frame.image.data();
  ByteWriter rle;
  size_t i = 0;
  const size_t n = data.size();
  while (i + 2 < n) {
    const uint8_t r = quant(data[i]);
    const uint8_t g = quant(data[i + 1]);
    const uint8_t b = quant(data[i + 2]);
    size_t run = 1;
    while (run < 255 && i + run * 3 + 2 < n &&
           quant(data[i + run * 3]) == r &&
           quant(data[i + run * 3 + 1]) == g &&
           quant(data[i + run * 3 + 2]) == b) {
      ++run;
    }
    rle.WriteU8(static_cast<uint8_t>(run));
    rle.WriteU8(r);
    rle.WriteU8(g);
    rle.WriteU8(b);
    i += run * 3;
  }
  w.WriteBytes(rle.data());
  return w.Take();
}

}  // namespace

Bytes EncodeFrame(const Frame& frame) {
  return Encode(frame,
                [](uint8_t v) { return static_cast<uint8_t>(v >> 4); });
}

Bytes EncodeQuantizedFrame(const Frame& frame) {
  return Encode(frame, [](uint8_t v) { return v; });
}

namespace {

/// A wire frame's fields, checked: every field reads, the ground truth
/// parses, and the runs cover exactly width·height pixels.
struct WireFrame {
  uint64_t seq = 0;
  TimePoint capture_time;
  json::Value ground_truth;
  int width = 0;
  int height = 0;
  std::span<const uint8_t> runs;
};

Result<WireFrame> ParseWire(std::span<const uint8_t> data) {
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
  auto gt = json::Parse(*gt_text);
  if (!gt.ok()) return gt.error();
  frame.ground_truth = std::move(*gt);

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
  auto wire = ParseWire(data);
  if (!wire.ok()) return wire.error();
  Frame frame;
  frame.seq = wire->seq;
  frame.capture_time = wire->capture_time;
  frame.ground_truth = std::move(wire->ground_truth);
  frame.image = Image(wire->width, wire->height);
  DecodeRuns(wire->runs, frame.image);
  return frame;
}

Result<EncodedFrame> EncodedFrame::Parse(Bytes wire) {
  auto parsed = ParseWire(wire);
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
