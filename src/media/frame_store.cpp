#include "media/frame_store.hpp"

#include <string>

namespace vp::media {

Result<FrameRef> FrameStore::Put(Bytes wire) {
  auto parsed = EncodedFrame::Parse(std::move(wire));
  if (!parsed.ok()) return parsed.error();
  const FrameId id = next_id_++;
  parsed->id_ = id;
  // The last reference erases the entry. The index is held weakly: a
  // reference may outlive the store (a message still queued in the
  // simulator when the orchestrator goes).
  FrameRef ref(new EncodedFrame(std::move(*parsed)),
               [index = std::weak_ptr<Index>(index_),
                id](const EncodedFrame* frame) {
                 if (auto live = index.lock()) live->erase(id);
                 delete frame;
               });
  index_->emplace(id, ref);
  while (index_->size() > capacity_) {
    index_->erase(index_->begin());
    ++evictions_;
  }
  return ref;
}

Result<FrameRef> FrameStore::Get(FrameId id) const {
  if (auto it = index_->find(id); it != index_->end()) {
    if (FrameRef live = it->second.lock()) return live;
  }
  return NotFound("frame " + std::to_string(id) + " not in store");
}

size_t FrameStore::resident_bytes() const {
  size_t total = 0;
  for (const auto& [id, frame] : *index_) {
    if (FrameRef live = frame.lock()) total += live->resident_bytes();
  }
  return total;
}

}  // namespace vp::media
