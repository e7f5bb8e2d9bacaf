// Script contexts.
//
// A Context is the unit of isolation: one per module, mirroring the
// paper's "separate Duktape contexts … spawned inside a single JVM to
// provide isolation without compromising performance" (§3). Each
// context has its own global scope, stdlib instance and step budget;
// host functions (the Table-1 API) are registered by the module
// runtime before the module source is loaded.
//
// Load has one path: the process-wide program cache (program_cache.hpp)
// parses, resolves and compiles each distinct source once; the context
// links the cached bytecode into a fresh Vm, imports its baseline
// globals (stdlib + host functions) and runs the top level.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "json/value.hpp"
#include "script/stdlib.hpp"
#include "script/value.hpp"
#include "script/vm.hpp"

namespace vp::script {

struct ContextOptions {
  ScriptLimits limits;
  /// Seed for this context's Math.random.
  uint64_t random_seed = 1234;
};

class Context {
 public:
  explicit Context(ContextOptions options = {});

  // The stdlib's console.log calls back into this object.
  Context(const Context&) = delete;
  Context& operator=(const Context&) = delete;

  /// Expose a host function as a global, e.g. call_service.
  void RegisterHostFunction(const std::string& name, HostFunction fn);

  /// Define an arbitrary global value (configuration constants…).
  void DefineGlobal(const std::string& name, Value v);

  /// Parse + compile + execute module source. Top-level code runs
  /// immediately; function declarations become callable afterwards. A
  /// reload replaces the previous program; a load that fails to parse
  /// or compile leaves no program at all.
  Status Load(const std::string& source);

  bool HasFunction(const std::string& name) const;

  /// Call a global function by name. Resets the step budget first, so
  /// each event gets the full budget (FaaS-style per-invocation cap).
  Result<Value> Call(const std::string& name, std::vector<Value> args);

  /// Read a global (undefined if absent).
  Value GetGlobal(const std::string& name) const;

  /// Snapshot the module-defined, JSON-serializable globals — the
  /// variables the module source created on top of the baseline
  /// environment (stdlib + host functions are excluded automatically,
  /// functions and other non-serializable values are skipped).
  /// Restoring a snapshot into a freshly-Loaded context of the same
  /// source resumes the module's state — the basis of live module
  /// migration between devices.
  json::Value SnapshotState() const;

  /// Overwrite globals from a snapshot produced by SnapshotState().
  Status RestoreState(const json::Value& snapshot);

  /// Where console.log output goes (default: VP_INFO log).
  void set_print_handler(PrintFn handler) { print_ = std::move(handler); }

  /// The VM running the loaded program, or nullptr before a successful
  /// parse + compile. Exposed for GC instrumentation in tests and
  /// benchmarks.
  Vm* vm() { return vm_.get(); }

  /// Script-engine heap bytes currently resident.
  size_t MemoryBytes() const { return vm_ ? vm_->bytes_allocated() : 0; }

 private:
  ContextOptions options_;
  PrintFn print_;
  /// Stdlib + host functions + DefineGlobal values, in definition
  /// order — imported into every Vm this context links, flagged so
  /// snapshots skip them.
  GlobalList baseline_;
  std::unique_ptr<Vm> vm_;
};

}  // namespace vp::script
