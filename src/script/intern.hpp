// Name interning for the vpscript engine.
//
// The resolver pass and the runtime agree on a process-wide mapping
// from identifier / property-key spellings to dense uint32 ids, so the
// hot paths (variable lookup, object member access) compare integers
// instead of strings. The table is append-only and bounded: only names
// that appear in program text or are registered by the host (stdlib,
// host functions, snapshot keys) are interned — keys fabricated at
// runtime (`obj[dynamic] = …`) stay plain strings, so a long-running
// module cannot grow the table without bound.
#pragma once

#include <cstdint>
#include <deque>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <vector>

namespace vp::script {

/// Sentinel: "not interned". Entries carrying this id fall back to
/// string comparison.
inline constexpr uint32_t kNoNameId = 0xFFFFFFFFu;

class Interner {
 public:
  /// The process-wide table shared by every script context. On the
  /// parallel fleet engine, script contexts on different shards intern
  /// and look up names concurrently, so the table is guarded by a
  /// reader/writer lock: the hot runtime paths (Lookup on
  /// already-interned names) take the shared side; only first-time
  /// interning writes.
  static Interner& Global();

  /// Insert-or-get. Stable ids; the same spelling always maps to the
  /// same id.
  uint32_t Intern(std::string_view name);

  /// Get without inserting; kNoNameId when the name was never interned
  /// (and therefore cannot be bound anywhere that uses ids).
  uint32_t Lookup(std::string_view name) const;

  size_t size() const;

 private:
  Interner();

  static uint32_t Hash(std::string_view s);
  uint32_t FindLocked(std::string_view name, uint32_t h) const;
  void Rehash(size_t capacity);

  // Spellings by id, append-only.
  std::deque<std::string> names_;
  // Interning sits on the resolve and context-construction paths, so
  // the index is a flat open-addressing table (linear probing,
  // power-of-two capacity) instead of std::unordered_map — one cache
  // line per probe, no per-node allocation. Entries store id + 1 so 0
  // can mean "empty"; hashes_ memoizes each name's hash for cheap
  // probe rejection and rehashing.
  std::vector<uint32_t> table_;
  std::vector<uint32_t> hashes_;
  size_t mask_ = 0;
  mutable std::shared_mutex mutex_;
};

}  // namespace vp::script
