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
// on this to skip the noise of most channels.
#pragma once

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

/// Decode; the returned frame has id 0 (ids are store-local and must
/// be re-assigned by the receiving FrameStore). Ground truth survives
/// the trip — it rides along as JSON for evaluation purposes.
Result<Frame> DecodeFrame(std::span<const uint8_t> data);

/// Cost model (reference milliseconds on the speed-1.0 device).
/// Calibrated to software JPEG-class codecs: ~6 ms to encode and
/// ~3 ms to decode a 640×480 frame at reference speed.
Duration EncodeCost(int width, int height);
Duration EncodeCost(const Image& image);
Duration DecodeCost(size_t encoded_bytes);

}  // namespace vp::media
