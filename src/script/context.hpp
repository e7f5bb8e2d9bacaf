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
// links the cached bytecode into a fresh Vm, installs the stdlib and
// its baseline globals (host functions + DefineGlobal values) and runs
// the top level.
//
// The host-facing surface speaks JSON, the paper's message format:
// DefineGlobal, Call and GetGlobal convert through Vm::ToJson/FromJson.
// Host functions are native (vm.hpp HostFunction).
#pragma once

#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "json/value.hpp"
#include "script/stdlib.hpp"
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

  /// Define a global data value (configuration constants…).
  void DefineGlobal(const std::string& name, json::Value v);

  /// Parse + compile + execute module source. Top-level code runs
  /// immediately; function declarations become callable afterwards. A
  /// reload replaces the previous program; a load that fails to parse
  /// or compile leaves no program at all.
  Status Load(const std::string& source);

  bool HasFunction(const std::string& name) const;

  /// Call a global function by name with JSON arguments. Resets the
  /// step budget first, so each event gets the full budget (FaaS-style
  /// per-invocation cap). Success depends only on the call: a result
  /// with no JSON form (undefined, a function, a cyclic value…) comes
  /// back as null.
  Result<json::Value> Call(const std::string& name,
                           std::initializer_list<json::Value> args = {});

  /// Read a global as JSON; null when absent, undefined or not
  /// serializable.
  json::Value GetGlobal(const std::string& name) const;

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
  /// parse + compile. Exposed for tests and benchmarks (GC
  /// instrumentation, reading globals as script values).
  Vm* vm() { return vm_.get(); }

  /// Script-engine heap bytes currently resident.
  size_t MemoryBytes() const { return vm_ ? vm_->bytes_allocated() : 0; }

 private:
  /// A host function (`fn` set) or a DefineGlobal data value.
  struct BaselineGlobal {
    std::string name;
    HostFunction fn;
    json::Value value;
  };
  /// Define `global` in `vm` as a baseline (snapshot-skipped) global.
  static void Import(Vm& vm, const BaselineGlobal& global);
  /// Record `global` (replacing one of the same name) and define it in
  /// the live VM, if any.
  void AddBaseline(BaselineGlobal global);

  ContextOptions options_;
  PrintFn print_;
  /// Math.random's generator: one sequence per context, across reloads.
  Rng rng_;
  /// Host functions + DefineGlobal values in definition order,
  /// installed after the stdlib into every Vm this context links.
  std::vector<BaselineGlobal> baseline_;
  std::unique_ptr<Vm> vm_;
};

}  // namespace vp::script
