// Per-device frame store: the paper's copy-avoidance mechanism.
//
// §3: "rather than copying the full image frames to the module, we
// pass on a reference id that identifies the frame." Each device
// runtime owns one FrameStore; modules and co-located services resolve
// ids against it without copying pixels.
//
// Frames rest in their wire encoding (media::EncodedFrame): a frame
// whose pixels nothing reads is never decoded. The store does not own
// them. A FrameRef does: the handler a frame arrived for, a
// same-device message naming it, a service request carrying it. When
// the last reference goes, the frame leaves the store, so the store
// holds the frames in flight and no more. The capacity is an overflow
// bound on top: past it, the oldest ids stop resolving.
#pragma once

#include <cstdint>
#include <map>
#include <memory>

#include "common/error.hpp"
#include "media/codec.hpp"

namespace vp::media {

class FrameStore {
 public:
  /// `capacity` = max resident frames; past it the oldest id stops
  /// resolving (its holders keep the frame itself).
  explicit FrameStore(size_t capacity = 64)
      : capacity_(capacity), index_(std::make_shared<Index>()) {}
  // A copy would share the index its references erase from.
  FrameStore(const FrameStore&) = delete;
  FrameStore& operator=(const FrameStore&) = delete;

  /// Check `wire` (EncodedFrame::Parse, so it errors exactly where
  /// DecodeFrame would) and register it under a fresh id. The returned
  /// reference is the frame's first holder: drop it, and every copy,
  /// and the id stops resolving.
  Result<FrameRef> Put(Bytes wire);

  /// Another reference to a resident frame. Errors with kNotFound once
  /// it was released, evicted or cleared.
  Result<FrameRef> Get(FrameId id) const;

  /// Forget every frame — the store's RAM died with its device (or the
  /// pipeline hibernated). Resident frames count as evictions. Ids are
  /// NOT reused (next_id_ keeps advancing), so stale ids fail with
  /// kNotFound, never alias; outstanding references stay valid.
  void Clear() {
    evictions_ += index_->size();
    index_->clear();
  }

  size_t size() const { return index_->size(); }
  size_t capacity() const { return capacity_; }
  uint64_t evictions() const { return evictions_; }

  /// Every byte the resident frames hold, encoded and decoded.
  size_t resident_bytes() const;

 private:
  /// Resident frames by id, so oldest first. Weak: the references own
  /// the frames, and the last one to go erases its entry.
  using Index = std::map<FrameId, std::weak_ptr<const EncodedFrame>>;

  size_t capacity_;
  FrameId next_id_ = 1;
  std::shared_ptr<Index> index_;
  uint64_t evictions_ = 0;
};

}  // namespace vp::media
