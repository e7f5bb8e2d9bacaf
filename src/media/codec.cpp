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

Result<Frame> DecodeFrame(std::span<const uint8_t> data) {
  ByteReader r(data);
  auto magic = r.ReadU32();
  if (!magic.ok()) return magic.error();
  if (*magic != kFrameMagic) return ParseError("bad frame magic");

  Frame frame;
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

  auto rle = r.ReadBytes();
  if (!rle.ok()) return rle.error();

  Image image(*w16, *h16);
  auto& out = image.data();
  size_t pos = 0;
  const Bytes& src = *rle;
  size_t si = 0;
  while (si + 4 <= src.size()) {
    const uint8_t run = src[si];
    // Dequantize to bucket centers.
    const auto dequant = [](uint8_t q) -> uint8_t {
      return static_cast<uint8_t>((q << 4) | 8);
    };
    const uint8_t cr = dequant(src[si + 1]);
    const uint8_t cg = dequant(src[si + 2]);
    const uint8_t cb = dequant(src[si + 3]);
    si += 4;
    for (uint8_t k = 0; k < run; ++k) {
      if (pos + 2 >= out.size()) {
        return ParseError("frame RLE overruns pixel buffer");
      }
      out[pos] = cr;
      out[pos + 1] = cg;
      out[pos + 2] = cb;
      pos += 3;
    }
  }
  if (pos != out.size()) return ParseError("frame RLE underfills pixel buffer");
  frame.image = std::move(image);
  return frame;
}

Duration EncodeCost(int width, int height) {
  const double megapixels = static_cast<double>(width) * height / 1e6;
  return Duration::Millis(0.3 + 19.5 * megapixels);  // 640x480 ≈ 6 ms
}

Duration EncodeCost(const Image& image) {
  return EncodeCost(image.width(), image.height());
}

Duration DecodeCost(size_t encoded_bytes) {
  return Duration::Millis(0.3 + static_cast<double>(encoded_bytes) / 12000.0);
}

}  // namespace vp::media
