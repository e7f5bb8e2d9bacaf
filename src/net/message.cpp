#include "net/message.hpp"

#include "json/parse.hpp"
#include "json/write.hpp"

namespace vp::net {

namespace {
constexpr uint32_t kMagic = 0x56504D32;  // "VPM2"
}

const json::Value& Message::NullJson() {
  static const json::Value kNull;
  return kNull;
}

const std::vector<Bytes>& Message::NoParts() {
  static const std::vector<Bytes> kEmpty;
  return kEmpty;
}

json::Value& Message::payload() {
  // Write in place only into a tree this message built and holds
  // alone; a moved-from message holds none and starts a fresh one.
  if (!payload_ || !owns_payload_ || payload_.use_count() > 1) {
    set_payload(payload_ ? *payload_ : json::Value());  // un-share
  }
  // Created non-const by set_payload(json::Value), so writable.
  return const_cast<json::Value&>(*payload_);
}

void Message::set_payload(json::Value v) {
  payload_ = std::make_shared<json::Value>(std::move(v));
  owns_payload_ = true;
}

void Message::set_payload(std::shared_ptr<const json::Value> v) {
  payload_ = std::move(v);
  owns_payload_ = false;
}

std::vector<Bytes>& Message::mutable_parts() {
  if (!parts_) {
    parts_ = std::make_shared<std::vector<Bytes>>();
  } else if (parts_.use_count() > 1) {
    parts_ = std::make_shared<std::vector<Bytes>>(*parts_);  // un-share
  }
  return *parts_;
}

size_t Message::ByteSize() const {
  size_t size = 4;                       // magic
  size += 4 + type_.size();              // type
  size += 4 + sender_.size();            // sender
  size += 8;                             // seq
  size += 4;                             // link_seq
  size += 8;                             // fence_epoch
  size += 4 + json::WrittenSize(payload());  // payload JSON
  size += 4;                             // part count
  for (const auto& p : parts()) size += 4 + p.size();
  size += 4;                             // checksum
  return size;
}

Bytes Message::Encode() const {
  ByteWriter w;
  w.WriteU32(kMagic);
  w.WriteString(type_);
  w.WriteString(sender_);
  w.WriteU64(seq_);
  w.WriteU32(link_seq_);
  w.WriteU64(fence_epoch_);
  w.WriteString(json::Write(payload()));
  const auto& ps = parts();
  w.WriteU32(static_cast<uint32_t>(ps.size()));
  for (const auto& p : ps) w.WriteBytes(p);
  w.WriteU32(static_cast<uint32_t>(Fnv1a(w.data())));
  return w.Take();
}

Result<Message> Message::Decode(std::span<const uint8_t> data) {
  // Verify the trailing checksum before trusting any field: a flipped
  // bit inside a length prefix would otherwise misparse plausibly.
  if (data.size() < 8) return ParseError("message too short");
  const size_t body = data.size() - 4;
  uint32_t stored = 0;
  for (int i = 0; i < 4; ++i) {
    stored |= static_cast<uint32_t>(data[body + i]) << (8 * i);
  }
  const uint32_t computed = static_cast<uint32_t>(Fnv1a(data.first(body)));
  if (stored != computed) return ParseError("message checksum mismatch");

  ByteReader r(data.first(body));
  auto magic = r.ReadU32();
  if (!magic.ok()) return magic.error();
  if (*magic != kMagic) return ParseError("bad message magic");

  Message m;
  auto type = r.ReadString();
  if (!type.ok()) return type.error();
  m.type_ = std::move(*type);

  auto sender = r.ReadString();
  if (!sender.ok()) return sender.error();
  m.sender_ = std::move(*sender);

  auto seq = r.ReadU64();
  if (!seq.ok()) return seq.error();
  m.seq_ = *seq;

  auto link_seq = r.ReadU32();
  if (!link_seq.ok()) return link_seq.error();
  m.link_seq_ = *link_seq;

  auto fence_epoch = r.ReadU64();
  if (!fence_epoch.ok()) return fence_epoch.error();
  m.fence_epoch_ = *fence_epoch;

  auto payload_text = r.ReadString();
  if (!payload_text.ok()) return payload_text.error();
  auto payload = json::Parse(*payload_text);
  if (!payload.ok()) return payload.error();
  m.set_payload(std::move(*payload));

  auto count = r.ReadU32();
  if (!count.ok()) return count.error();
  for (uint32_t i = 0; i < *count; ++i) {
    auto part = r.ReadBytes();
    if (!part.ok()) return part.error();
    m.mutable_parts().push_back(std::move(*part));
  }
  if (!r.AtEnd()) return ParseError("trailing bytes after message");
  return m;
}

}  // namespace vp::net
