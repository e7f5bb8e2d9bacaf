// Frame codec for network transfer.
//
// Lossy compression, JPEG-in-spirit: 16-level per-channel quantization
// (which swallows sensor noise) followed by run-length encoding over
// the quantized RGB triples. Synthetic indoor scenes compress to a few
// tens of kilobytes, giving inter-device frame transfers a realistic
// on-wire size. The codec is real code on real buffers — round-trip
// bounds are tested — and its CPU cost model (reference ms per
// megapixel) is charged by the runtime on the encoding/decoding
// device.
//
// Bucket headroom: a channel c lies in bucket c >> 4, which spans
// [c & 0xF0, (c & 0xF0) + 15]. Noise with |noise| < h(c) — the distance
// from c to the nearer bucket edge, with no edge on the clamped side of
// buckets 0 and 15 — leaves the quantized channel unchanged. The camera
// path (SyntheticVideoSource::CaptureEncoded, via NoisyQuantizer) relies
// on this to skip the noise of most channels. Past the headroom, the
// bucket of c + noise is still a monotone function of the noise (the
// addition, the clamp to [0, 255], the truncation and the >> 4 each
// are), so noise known to lie in an interval whose two ends give the
// same bucket gives that bucket: NoisyQuantizer settles most of the
// remaining channels from such intervals, without libm.
//
// One RLE scanner reads bucket bytes: EncodeFrame quantizes a copy of
// the image first, EncodeQuantizedFrame passes its buckets through.
#pragma once

#include <memory>
#include <optional>
#include <span>

#include "common/bytes.hpp"
#include "common/error.hpp"
#include "common/time.hpp"
#include "media/frame.hpp"

namespace vp::media {

/// Encode a frame (image + tiny header carrying seq/capture time).
Bytes EncodeFrame(const Frame& frame);

/// EncodeFrame for a frame whose image channels already hold their
/// 4-bit buckets (v >> 4): the same bytes, without quantizing again.
Bytes EncodeQuantizedFrame(const Frame& frame);

/// Decode. Ground truth survives the trip — it rides along as JSON for
/// evaluation purposes. Rejects exactly the inputs EncodedFrame::Parse
/// rejects, with the same error, before allocating the pixels.
Result<Frame> DecodeFrame(std::span<const uint8_t> data);

/// The color a run's quantized (r', g', b') decodes to: each channel's
/// bucket center. Only the low nibble of a wire byte counts.
inline Rgb DequantizeRun(uint8_t r, uint8_t g, uint8_t b) {
  const auto center = [](uint8_t q) {
    return static_cast<uint8_t>((q << 4) | 8);
  };
  return Rgb{center(r), center(g), center(b)};
}

/// Calls fn(color, first, count) for each run of an RLE section, in
/// raster order: `count` pixels of `color` starting at pixel index
/// `first` (y·width + x). Runs are (count u8, r', g', b') quads; a
/// trailing partial quad is ignored, and a count may be 0.
template <typename Fn>
void ForEachRun(std::span<const uint8_t> runs, Fn&& fn) {
  size_t first = 0;
  for (size_t i = 0; i + 4 <= runs.size(); i += 4) {
    const size_t count = runs[i];
    fn(DequantizeRun(runs[i + 1], runs[i + 2], runs[i + 3]), first, count);
    first += count;
  }
}

/// A frame kept as the wire bytes it arrived in. Parse checks
/// everything DecodeFrame checks — the header, the ground-truth JSON
/// and that the runs cover exactly width·height pixels — so a frame
/// that exists decodes. The header fields are served from the parse;
/// the pixels are decoded on the first image() call and kept. Not
/// thread-safe: a frame belongs to one device (its store, or one
/// service request).
class EncodedFrame {
 public:
  /// Errors exactly where DecodeFrame(wire) would.
  static Result<EncodedFrame> Parse(Bytes wire);

  /// Store-assigned id; kInvalidFrameId outside a FrameStore.
  FrameId id() const { return id_; }
  uint64_t seq() const { return seq_; }
  TimePoint capture_time() const { return capture_time_; }
  int width() const { return width_; }
  int height() const { return height_; }
  const Bytes& wire() const { return wire_; }
  /// The RLE section, for ForEachRun.
  std::span<const uint8_t> runs() const {
    return std::span<const uint8_t>(wire_).subspan(runs_offset_, runs_size_);
  }
  /// The pixels, as DecodeFrame(wire()) would return them; decoded on
  /// the first call.
  const Image& image() const;
  /// Bytes held: the wire bytes, plus the pixels once decoded.
  size_t resident_bytes() const {
    return wire_.size() + (image_ ? image_->byte_size() : 0);
  }

 private:
  friend class FrameStore;  // assigns id_
  EncodedFrame() = default;

  Bytes wire_;
  FrameId id_ = kInvalidFrameId;
  uint64_t seq_ = 0;
  TimePoint capture_time_;
  int width_ = 0;
  int height_ = 0;
  size_t runs_offset_ = 0;
  size_t runs_size_ = 0;
  mutable std::optional<Image> image_;
};

/// A shared handle on a frame. One from FrameStore::Put or Get also
/// keeps the frame's id resolving in its store while it lives.
using FrameRef = std::shared_ptr<const EncodedFrame>;

/// Cost model (reference milliseconds on the speed-1.0 device).
/// Calibrated to software JPEG-class codecs: ~6 ms to encode and
/// ~3 ms to decode a 640×480 frame at reference speed.
Duration EncodeCost(int width, int height);
Duration DecodeCost(size_t encoded_bytes);

}  // namespace vp::media
