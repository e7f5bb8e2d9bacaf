// Content-hash-keyed compiled-program cache.
//
// Every Context::Load goes through this cache. A fleet deploys the
// same handful of module scripts into thousands of contexts; without
// sharing, every context would re-parse, re-resolve and re-compile
// identical source. The cache compiles each distinct source exactly
// once (under a mutex, into a throwaway Vm) and keeps only a
// *portable* form of the result — bytecode, constants, slot-ordered
// global names — that links into any fresh Vm without touching the
// parser, the resolver or the compiler again. The AST is dropped after
// compilation. Warm pipeline wakeups (src/lifecycle) and ordinary
// repeat deploys both ride on it.
//
// Linking reproduces exactly what a private compile would have built:
// global-slot operands in the bytecode are indices into the Vm's slot
// table in first-reference order, so LinkInto replays the recorded
// names in that order before the caller imports its baseline globals.
// Slots the program references but the baseline never fills stay
// Empty, preserving "'x' is not defined" semantics.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "script/vm.hpp"

namespace vp::script {

struct ProgramCacheStats {
  /// Loads served from a cached entry (link only).
  uint64_t hits = 0;
  /// Loads that had to parse + resolve + compile (populating the cache
  /// on success).
  uint64_t misses = 0;
  /// Entries dropped by Clear() or capacity pressure.
  uint64_t evictions = 0;
  size_t entries = 0;
};

/// One compiled program in engine-neutral form. Immutable after
/// construction; safe to link into many Vms concurrently.
class CachedProgram {
 public:
  /// Rebuild the protos inside `vm` (fresh strings on its heap, global
  /// slots replayed in compile order) and return the top-level proto.
  /// `vm` must be freshly constructed — no protos, no global slots.
  const FunctionProto* LinkInto(Vm& vm) const;

  uint64_t hash() const { return hash_; }
  /// Bytecode + constant bytes (cache-footprint accounting).
  size_t code_bytes() const { return code_bytes_; }

 private:
  friend class ProgramCache;

  struct PortableConst {
    /// Raw NaN-boxed bits for numbers/singletons; strings are rebuilt
    /// on the target heap from `text` + `name_id`.
    bool is_string = false;
    RawVal raw = 0;
    std::string text;
    uint32_t name_id = kNoNameId;
  };
  struct PortableProto {
    std::string name;
    int arity = 0;
    uint32_t max_stack = 0;
    std::vector<uint8_t> code;
    std::vector<int32_t> lines;
    std::vector<PortableConst> constants;
    std::vector<UpvalDesc> upvalues;
  };

  uint64_t hash_ = 0;
  std::string source_;  // exact-match guard against hash collisions
  std::vector<PortableProto> protos_;
  uint16_t top_index_ = 0;
  /// Global names in slot-allocation order (the compiler's
  /// first-reference order) — replayed into the target Vm so bytecode
  /// slot operands resolve identically.
  std::vector<std::string> global_names_;
  size_t code_bytes_ = 0;
};

/// Process-wide cache, shared across contexts, homes and fleet worker
/// threads (all access is under one mutex; linking itself happens
/// outside it, per-Vm). Semantically transparent: a context built from
/// a hit is indistinguishable from one that compiled privately, so
/// per-seed determinism is independent of hit/miss order.
class ProgramCache {
 public:
  static ProgramCache& Global();

  /// Look up `source`, compiling (parse + resolve + compile) on miss.
  /// Returns the cached program, ready to LinkInto a Vm, or the parse
  /// or compile error. Failures are not cached.
  Result<std::shared_ptr<const CachedProgram>> Acquire(
      const std::string& source, const ScriptLimits& limits);

  /// Registry-style teardown: drop every entry (tests, fleet restarts).
  /// Outstanding shared_ptrs keep already-linked contexts valid.
  void Clear();

  ProgramCacheStats stats() const;

  /// Entries kept before the oldest is evicted.
  void set_capacity(size_t capacity);

 private:
  ProgramCache() = default;

  mutable std::mutex mu_;
  size_t capacity_ = 256;
  std::vector<std::shared_ptr<const CachedProgram>> entries_;  // FIFO
  ProgramCacheStats stats_;
};

/// FNV-1a 64 of the source text (exposed for tests).
uint64_t HashProgramSource(const std::string& source);

}  // namespace vp::script
