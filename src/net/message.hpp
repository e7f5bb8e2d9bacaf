// Wire messages.
//
// A Message is what flows between modules and services: a small typed
// header, a JSON payload, and zero or more binary parts (encoded video
// frames travel as binary parts so they are sized honestly on the
// simulated network). Messages have a real binary encoding —
// round-tripped in tests and used to compute on-wire size.
//
// Payload and parts are copy-on-write: copying a Message shares them
// behind shared_ptrs and only a mutating accessor clones (fan-out in
// Fabric::Publish copies one Message per subscriber — per-copy cost
// must not scale with frame size). A payload can also be shared with
// whoever built it — a service request is immutable once issued, so
// its retries, the message and the serving replica read one tree.
// ByteSize() — called on every Push/Request/Publish for network
// accounting — sizes the payload with json::WrittenSize, without
// printing it.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/error.hpp"
#include "json/value.hpp"

namespace vp::net {

class Message {
 public:
  Message() = default;
  explicit Message(std::string type) : type_(std::move(type)) {}
  Message(std::string type, json::Value payload) : type_(std::move(type)) {
    set_payload(std::move(payload));
  }

  const std::string& type() const { return type_; }
  void set_type(std::string t) { type_ = std::move(t); }

  /// Logical sender, e.g. "fitness/pose_detection_module".
  const std::string& sender() const { return sender_; }
  void set_sender(std::string s) { sender_ = std::move(s); }

  /// Monotone per-stream sequence number (frame index).
  uint64_t seq() const { return seq_; }
  void set_seq(uint64_t s) { seq_ = s; }

  /// Per-directed-link transport sequence number, stamped by the
  /// fabric at send time. Feeds the receiver-side dedup window so
  /// at-least-once delivery (duplication, reordering) stays
  /// effectively-once at endpoints. 0 = unstamped (loopback).
  uint32_t link_seq() const { return link_seq_; }
  void set_link_seq(uint32_t s) { link_seq_ = s; }

  /// Placement epoch of the sending runtime, for split-brain fencing.
  /// A receiver drops messages whose epoch is older than the sender
  /// module's current placement epoch. 0 = unfenced (control traffic).
  uint64_t fence_epoch() const { return fence_epoch_; }
  void set_fence_epoch(uint64_t e) { fence_epoch_ = e; }

  const json::Value& payload() const {
    return payload_ ? *payload_ : NullJson();
  }
  /// Mutable access un-shares the payload: it copies unless this
  /// message built the tree and is its only holder.
  json::Value& payload();
  void set_payload(json::Value v);
  /// Share `v` instead of copying it; a later mutable payload() copies.
  void set_payload(std::shared_ptr<const json::Value> v);
  /// The payload as shared, without a copy; nullptr when there is none.
  const std::shared_ptr<const json::Value>& shared_payload() const {
    return payload_;
  }

  const std::vector<Bytes>& parts() const {
    return parts_ ? *parts_ : NoParts();
  }
  /// Mutable access un-shares the parts vector.
  std::vector<Bytes>& mutable_parts();
  void AddPart(Bytes part) { mutable_parts().push_back(std::move(part)); }

  /// Keep `object` alive while this message, or a copy of it, exists.
  /// A same-device message holds the frame its payload names this
  /// way, so every path that drops the message releases the frame.
  /// Not part of the wire format: it never leaves the device.
  void Hold(std::shared_ptr<const void> object) { held_ = std::move(object); }

  /// Exact size of Encode()'s output, without encoding.
  size_t ByteSize() const;

  /// Binary wire format (little-endian, length-prefixed). The encoding
  /// ends with an FNV-1a checksum over all preceding bytes; Decode
  /// verifies it and rejects corrupted frames.
  Bytes Encode() const;
  static Result<Message> Decode(std::span<const uint8_t> data);

 private:
  static const json::Value& NullJson();
  static const std::vector<Bytes>& NoParts();

  std::string type_;
  std::string sender_;
  uint64_t seq_ = 0;
  uint32_t link_seq_ = 0;
  uint64_t fence_epoch_ = 0;
  std::shared_ptr<const json::Value> payload_;
  // payload_ was created non-const by this message (or a copy of it),
  // so payload() may write through it once it is the only holder.
  bool owns_payload_ = false;
  std::shared_ptr<std::vector<Bytes>> parts_;
  std::shared_ptr<const void> held_;
};

}  // namespace vp::net
