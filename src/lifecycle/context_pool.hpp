// Warm pool of pre-resolved, pre-loaded script contexts.
//
// A cold module start pays parse + resolve + compile + Load (top-level
// execution). The process-wide program cache (script/program_cache.hpp)
// removes the first three for repeated source; this pool removes the
// fourth: a pooled context already ran Load for its module source, so
// a wake that draws from the pool only binds host functions and runs
// init() — the "hot" tier of the coldstart ladder.
//
// Entries are keyed (source hash, random seed). The seed is part of
// the key because a context's Math.random stream is seeded at
// construction: handing a module a context built for a different seed
// would silently change its random sequence and break per-home
// determinism.
#pragma once

#include <deque>
#include <memory>
#include <string>

#include "common/error.hpp"
#include "script/context.hpp"

namespace vp::lifecycle {

/// Pooled contexts run under the default script::ScriptLimits, as a
/// module's cold-started context does.
struct ContextPoolOptions {
  /// Pooled contexts kept at once (oldest evicted beyond this).
  size_t capacity = 64;
};

struct ContextPoolStats {
  uint64_t prewarmed = 0;
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evicted = 0;
  size_t entries = 0;
};

class ContextPool {
 public:
  explicit ContextPool(ContextPoolOptions options = {});

  /// Build and Load a context for (source, seed) and park it. Returns
  /// the Load error (and pools nothing) if top-level execution fails.
  Status Prewarm(const std::string& source, uint64_t random_seed);

  /// Take a pooled context matching (source, seed), or nullptr (the
  /// caller falls back to a cold Initialize).
  std::unique_ptr<script::Context> Acquire(const std::string& source,
                                           uint64_t random_seed);

  void Clear();
  size_t size() const { return entries_.size(); }
  ContextPoolStats stats() const;

 private:
  struct Entry {
    uint64_t code_hash;
    uint64_t seed;
    std::string source;  // hash-collision guard
    std::unique_ptr<script::Context> context;
  };

  ContextPoolOptions options_;
  std::deque<Entry> entries_;
  ContextPoolStats stats_;
};

}  // namespace vp::lifecycle
