#include "script/intern.hpp"

#include <mutex>

namespace vp::script {

Interner& Interner::Global() {
  static Interner interner;
  return interner;
}

Interner::Interner() : table_(256, 0), mask_(255) {}

uint32_t Interner::Hash(std::string_view s) {
  // FNV-1a. Identifier spellings are short, so byte-at-a-time is fine.
  uint32_t h = 2166136261u;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 16777619u;
  }
  return h;
}

uint32_t Interner::FindLocked(std::string_view name, uint32_t h) const {
  size_t i = h & mask_;
  while (table_[i] != 0) {
    const uint32_t id = table_[i] - 1;
    if (hashes_[id] == h && names_[id] == name) return id;
    i = (i + 1) & mask_;
  }
  return kNoNameId;
}

void Interner::Rehash(size_t capacity) {
  table_.assign(capacity, 0);
  mask_ = capacity - 1;
  for (uint32_t id = 0; id < names_.size(); ++id) {
    size_t i = hashes_[id] & mask_;
    while (table_[i] != 0) i = (i + 1) & mask_;
    table_[i] = id + 1;
  }
}

uint32_t Interner::Intern(std::string_view name) {
  const uint32_t h = Hash(name);
  {
    // Fast path: already interned (steady state for everything the
    // runtime touches) — readers only.
    std::shared_lock<std::shared_mutex> lock(mutex_);
    const uint32_t id = FindLocked(name, h);
    if (id != kNoNameId) return id;
  }
  std::unique_lock<std::shared_mutex> lock(mutex_);
  // Re-probe: another thread may have interned it between the locks.
  {
    const uint32_t id = FindLocked(name, h);
    if (id != kNoNameId) return id;
  }
  const auto id = static_cast<uint32_t>(names_.size());
  names_.emplace_back(name);
  hashes_.push_back(h);
  size_t i = h & mask_;
  while (table_[i] != 0) i = (i + 1) & mask_;
  // Keep load factor under 3/4; rehashing moves the insertion slot.
  if ((names_.size() + 1) * 4 >= table_.size() * 3) {
    Rehash(table_.size() * 2);
    i = h & mask_;
    while (table_[i] != 0) i = (i + 1) & mask_;
  }
  table_[i] = id + 1;
  return id;
}

uint32_t Interner::Lookup(std::string_view name) const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  return FindLocked(name, Hash(name));
}

size_t Interner::size() const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  return names_.size();
}

}  // namespace vp::script
