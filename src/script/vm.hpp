// vpscript bytecode virtual machine.
//
// The VM executes compact bytecode produced by compiler.hpp from the
// resolved AST; it is the only engine that runs module code, and its
// NaN-boxed 64-bit VpValue is the only script value: doubles are stored
// verbatim, singletons (undefined/null/true/false) live in the quiet
// NaN space, and heap objects (strings, arrays, objects, closures,
// upvalue cells, host functions, bound methods) are 48-bit pointers
// into a VM-owned heap reclaimed by a mark-and-sweep tracing collector.
//
// Why tracing: closures capture scopes that hold values that own the
// closures — a reference cycle that reference counting can never
// reclaim. The tracing GC eliminates that class of leak by
// construction: anything unreachable from the VM roots (value stack,
// call frames, globals, open upvalues, native-method temporaries) is
// reclaimed, cycles included.
//
// Determinism: collection is driven purely by allocation pressure
// (bytes allocated since the last cycle), checked only at instruction
// boundaries. Wall-clock time never influences when a collection runs,
// so a GC pause cannot perturb the discrete-event simulator.
//
// Host interop: host functions are native — they receive the Vm and
// its argument values in place (HostFunction) and build their result
// on the same heap. JSON is the only other representation: ToJson /
// FromJson convert module messages, service requests and responses and
// snapshots, under the guard rails below, since module state is
// untrusted and may be cyclic, absurdly deep or exponentially shared.
#pragma once

#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/error.hpp"
#include "json/value.hpp"
#include "script/intern.hpp"

namespace vp::script {

class Vm;
struct VpValue;

/// A host function's arguments: the caller's values in place on the VM
/// stack, rooted for the duration of the call.
using HostArgs = std::span<const VpValue>;

/// A C++ function exposed to scripts (the paper's Table-1 API, the
/// stdlib). The result is a value of the same Vm; allocation never
/// collects, so values a host function builds need no rooting before it
/// returns.
using HostFunction = std::function<Result<VpValue>(Vm& vm, HostArgs args)>;

// ------------------------------------------------------------ guard rails

/// Deepest container nesting ToJson serializes and display descends
/// into. Handlers run on 256 KiB fiber stacks (sim::Fiber), and ToJson,
/// json::Write and copying or destroying the json::Value all recurse
/// once per level: ~0.2 KiB a level optimized, up to 2.4 KiB (a
/// json::Value copy) in a Debug + ASan build, where 64 levels stay
/// under ~160 KiB. json::Parse accepts at least this depth
/// (static_assert in vm.cpp): everything ToJson emits parses back.
inline constexpr int kMaxValueDepth = 64;
/// Work bound of one ToJson: each value visited costs 32 units (about
/// its json::Value footprint), each string or key byte copied costs
/// one. A DAG that shares one array twice per level, or one big string
/// pushed many times, fails fast instead of expanding without limit.
inline constexpr size_t kMaxConversionWork = size_t{8} << 20;
/// Longest string a script can build (`+`, join, repeat, padStart,
/// replace, String(), JSON.stringify).
inline constexpr size_t kMaxStringLength = size_t{1} << 20;
/// Longest array a script can build (an index store past the end,
/// push, unshift, concat, split). Values are 8 bytes, so one array stays
/// within 8 MiB, far past any module's state, and one statement cannot
/// ask the host for more: without the bound, `a[1e12] = 1` would resize
/// the array to the index and abort the process.
inline constexpr size_t kMaxArrayLength = size_t{1} << 20;

/// Per-context execution limits — what a FaaS runtime enforces on
/// untrusted functions: a runaway `while(true)` in module code cannot
/// stall the device runtime, and unbounded recursion errors out
/// cleanly.
struct ScriptLimits {
  /// Maximum VM instructions per entry (Load's top level or one Call).
  uint64_t max_steps = 5'000'000;
  int max_call_depth = 128;
};

// ------------------------------------------------------------ values

/// NaN-boxed value: a double, a tagged singleton, or a heap pointer.
using RawVal = uint64_t;

inline constexpr RawVal kQnan = 0x7ffc000000000000ull;
inline constexpr RawVal kSignBit = 0x8000000000000000ull;
inline constexpr RawVal kTagUndefined = kQnan | 1;
inline constexpr RawVal kTagNull = kQnan | 2;
inline constexpr RawVal kTagFalse = kQnan | 3;
inline constexpr RawVal kTagTrue = kQnan | 4;
/// Global-table slot sentinel: "never defined". Not script-visible.
inline constexpr RawVal kTagEmpty = kQnan | 5;

enum class GcType : uint8_t {
  kString, kArray, kObject, kClosure, kUpvalue, kHostFn, kBoundMethod,
};

struct GcObj {
  GcType type;
  bool marked = false;
  GcObj* next = nullptr;
  explicit GcObj(GcType t) : type(t) {}
};

struct VpValue {
  RawVal bits;

  VpValue() : bits(kTagUndefined) {}
  explicit VpValue(RawVal raw) : bits(raw) {}

  static VpValue Undefined() { return VpValue(kTagUndefined); }
  static VpValue Null() { return VpValue(kTagNull); }
  static VpValue Empty() { return VpValue(kTagEmpty); }
  static VpValue Boolean(bool b) { return VpValue(b ? kTagTrue : kTagFalse); }
  static VpValue Number(double d) {
    RawVal raw;
    std::memcpy(&raw, &d, sizeof(raw));
    return VpValue(raw);
  }
  static VpValue Heap(GcObj* obj) {
    return VpValue(kSignBit | kQnan |
                   static_cast<RawVal>(reinterpret_cast<uintptr_t>(obj)));
  }

  bool is_number() const { return (bits & kQnan) != kQnan; }
  bool is_undefined() const { return bits == kTagUndefined; }
  bool is_null() const { return bits == kTagNull; }
  bool is_nullish() const { return is_undefined() || is_null(); }
  bool is_bool() const { return bits == kTagTrue || bits == kTagFalse; }
  bool is_empty() const { return bits == kTagEmpty; }
  bool is_heap() const {
    return (bits & (kSignBit | kQnan)) == (kSignBit | kQnan);
  }

  double AsNumber() const {
    double d;
    std::memcpy(&d, &bits, sizeof(d));
    return d;
  }
  bool AsBool() const { return bits == kTagTrue; }
  GcObj* AsHeap() const {
    return reinterpret_cast<GcObj*>(
        static_cast<uintptr_t>(bits & ~(kSignBit | kQnan)));
  }
  bool IsHeapType(GcType t) const { return is_heap() && AsHeap()->type == t; }
  bool is_string() const { return IsHeapType(GcType::kString); }
  /// The text of a string value (is_string() must hold).
  const std::string& AsString() const;
};

struct GcString : GcObj {
  std::string text;
  /// Interned id when this string is used as a property key constant
  /// (kNoNameId otherwise) — lets property lookups compare integers.
  uint32_t name_id = kNoNameId;
  explicit GcString(std::string s) : GcObj(GcType::kString),
                                     text(std::move(s)) {}
};

inline const std::string& VpValue::AsString() const {
  return static_cast<const GcString*>(AsHeap())->text;
}

struct GcArray : GcObj {
  std::vector<VpValue> items;
  GcArray() : GcObj(GcType::kArray) {}
};

struct GcObject : GcObj {
  struct Entry {
    uint32_t key_id;
    std::string key;
    VpValue value;
  };
  std::vector<Entry> items;
  GcObject() : GcObj(GcType::kObject) {}

  VpValue* Find(const std::string& key);
  VpValue* FindInterned(uint32_t key_id, const std::string& key);
  void Set(const std::string& key, VpValue v);
  void SetInterned(uint32_t key_id, const std::string& key, VpValue v);
};

struct GcUpvalue : GcObj {
  /// Points into the VM value stack while open, at `closed` after.
  VpValue* location;
  VpValue closed;
  GcUpvalue* next_open = nullptr;  // intrusive open-upvalue list
  explicit GcUpvalue(VpValue* slot) : GcObj(GcType::kUpvalue),
                                      location(slot) {}
};

/// Upvalue capture descriptor, resolved at compile time.
struct UpvalDesc {
  bool from_local;  // capture enclosing local vs. enclosing upvalue
  uint16_t index;
};

/// A compiled function body — bytecode, constants, line table. Owned
/// by the Vm (protos_), referenced by closures.
struct FunctionProto {
  std::string name;
  int arity = 0;
  /// Maximum value-stack depth any execution of this body can reach,
  /// relative to the frame base (slot 0 = callee), computed by the
  /// compiler's abstract interpretation of the bytecode. PushFrame
  /// checks base + max_stack against the stack capacity once per call,
  /// so no push inside the frame needs a bounds check — including
  /// arbitrarily wide array/object literals, which can exceed any
  /// fixed per-call headroom.
  uint32_t max_stack = 0;
  std::vector<uint8_t> code;
  /// Source line per code byte (same length as `code`) — exact
  /// "script:%d:" attribution for every instruction.
  std::vector<int32_t> lines;
  std::vector<VpValue> constants;
  std::vector<UpvalDesc> upvalues;
};

struct GcClosure : GcObj {
  const FunctionProto* proto;
  std::vector<GcUpvalue*> upvalues;
  explicit GcClosure(const FunctionProto* p) : GcObj(GcType::kClosure),
                                               proto(p) {}
};

/// A host function exposed to VM code.
struct GcHostFn : GcObj {
  std::string name;
  HostFunction fn;
  GcHostFn(std::string n, HostFunction f)
      : GcObj(GcType::kHostFn), name(std::move(n)), fn(std::move(f)) {}
};

/// `array.method` / `string.method` read without being called: a native
/// method bound to its receiver, so a later call still acts on (and, for
/// arrays, mutates) the original.
struct GcBoundMethod : GcObj {
  VpValue receiver;  // an array or a string
  uint8_t method;    // ordinal in the receiver type's method table (vm.cpp)
  const char* name;  // the table's spelling
  GcBoundMethod() : GcObj(GcType::kBoundMethod) {}
};

// ------------------------------------------------------------- opcodes

enum class Op : uint8_t {
  kConst,          // u16 constant index
  kUndefined, kNull, kTrue, kFalse,
  kUndefN,         // u16: push n undefined values (block-entry slots)
  kPop,
  kPopN,           // u16
  kDup,            // duplicate top
  kSwap,           // a b -> b a
  kRot3,           // a b c -> b c a
  kGetLocal,       // u16 frame slot
  kSetLocal,       // u16 (peeks)
  kGetUpvalue,     // u16
  kSetUpvalue,     // u16 (peeks)
  kGetGlobal,      // u16 global slot
  kSetGlobal,      // u16 (peeks)
  kDefineGlobal,   // u16 (pops)
  kDefineGlobalConst,  // u16 (pops)
  kArray,          // u16 element count (pops elements)
  kObject,         // u16 property count (pops key/value pairs)
  kGetProp,        // u16 name constant
  kSetProp,        // u16 name constant: obj value -> value
  kGetIndex,       // obj index -> value
  kSetIndex,       // obj index value -> value
  kAdd, kSub, kMul, kDiv, kMod,
  kEq, kNe, kStrictEq, kStrictNe,
  kLt, kLe, kGt, kGe,
  kNegate, kToNumber, kNot, kTypeof,
  kInc, kDec,      // number on top -> number ± 1
  kJump,           // u16 forward offset
  kJumpIfFalse,    // u16 (pops)
  kJumpIfTrue,     // u16 (pops)
  kJumpIfFalsePeek,  // u16 (peeks — logical &&)
  kJumpIfTruePeek,   // u16 (peeks — logical ||)
  kLoop,           // u16 backward offset
  kCall,           // u8 argc
  kInvoke,         // u16 name constant, u8 argc (obj.method(...) fused)
  kClosure,        // u16 proto index (upvalue descs live in the proto)
  kCloseScope,     // u16 n: close upvalues into the top n slots, pop n
  kReturn,         // pops result
  kReturnUndef,
  kPushHandler,    // u16 catch target offset (forward)
  kPopHandler,
  kThrow,          // pops thrown value
  kForInInit,      // pops subject, pushes keys array + index 0
  kForInNext,      // u16 keys slot, u16 exit offset: push next key or jump
  kRuntimeError,   // u16 message constant: raise ScriptError here
};

// ------------------------------------------------------------------ Vm

/// Execution engine + heap. One Vm per Context (the unit of isolation,
/// mirroring the paper's one-Duktape-context-per-module design).
class Vm {
 public:
  explicit Vm(ScriptLimits limits = {});
  ~Vm();

  Vm(const Vm&) = delete;
  Vm& operator=(const Vm&) = delete;

  // -- program loading -------------------------------------------------
  /// Take ownership of a compiled function body; returns its index
  /// (the kClosure operand).
  uint16_t AdoptProto(std::unique_ptr<FunctionProto> proto);
  const FunctionProto* proto_at(uint16_t index) const {
    return protos_[index].get();
  }
  size_t proto_count() const { return protos_.size(); }

  /// Global-slot bookkeeping (compile time): index for `name`,
  /// allocating an empty slot on first use.
  uint16_t GlobalSlot(const std::string& name);
  /// Slot-table introspection in allocation order — the program cache
  /// records this layout so a cached program links into a fresh Vm
  /// with identical slot operands.
  const std::string& global_name_at(uint16_t index) const {
    return globals_[index].name;
  }
  size_t global_count() const { return globals_.size(); }

  /// Define a global (a stdlib or host import at Load, or a post-Load
  /// Context::DefineGlobal). Baseline globals are left out of snapshots.
  void DefineGlobal(const std::string& name, VpValue v, bool baseline);

  /// Run the top-level proto. Call once per Load.
  Status RunTopLevel(const FunctionProto* top);

  // -- host entry points ----------------------------------------------
  bool GlobalIsFunction(const std::string& name) const;
  /// A global's value; undefined when absent.
  VpValue GetGlobal(const std::string& name) const;
  /// Call the global function `name`. `args` need not be rooted: they
  /// are pushed before anything can collect.
  Result<VpValue> CallGlobal(const std::string& name,
                             std::span<const VpValue> args);

  json::Value SnapshotState();
  void RestoreState(const json::Value& snapshot);

  void ResetBudget() { steps_used_ = 0; }

  // -- GC --------------------------------------------------------------
  /// Mark-and-sweep collection. Safe whenever the VM is at an
  /// instruction boundary (including "not running at all").
  void CollectGarbage();
  size_t live_objects() const { return live_objects_; }
  size_t bytes_allocated() const { return bytes_allocated_; }
  uint64_t gc_cycles() const { return gc_cycles_; }

  // -- heap ------------------------------------------------------------
  GcString* NewString(std::string s);
  GcArray* NewArray();
  GcObject* NewObject();
  GcClosure* NewClosure(const FunctionProto* proto);
  GcUpvalue* NewUpvalue(VpValue* slot);
  GcHostFn* NewHostFn(std::string name, HostFunction fn);
  GcBoundMethod* NewBoundMethod(VpValue receiver, uint8_t method,
                                const char* name);
  /// A new string, or kScriptError when `s` is longer than
  /// kMaxStringLength.
  Result<VpValue> MakeString(std::string s);

  // -- value semantics (the constant folder uses these too) -----------
  static bool Truthy(VpValue v);
  static double ToNumber(VpValue v);
  /// ToNumber truncated toward zero, NaN as 0, clamped to ±2^53 — index
  /// and count arguments, without an out-of-range float→int cast.
  static int64_t ToInteger(VpValue v);
  /// Abstract ToString (`+` concatenation, console.log, String()).
  /// Cycles and nesting past kMaxValueDepth print as "[...]"; output
  /// stops growing once it passes kMaxStringLength, so callers that
  /// keep the string check that bound.
  static std::string ToDisplayString(VpValue v);
  static bool StrictEquals(VpValue a, VpValue b);
  static bool LooseEquals(VpValue a, VpValue b);
  /// Relational operators (kLt/kLe/kGt/kGe): two strings compare
  /// bytewise, anything else numerically.
  static bool Compare(Op op, VpValue a, VpValue b);
  static const char* TypeName(VpValue v);

  // -- JSON ------------------------------------------------------------
  /// Serialize a value: undefined → null, functions are rejected, and
  /// so are cycles, nesting past kMaxValueDepth and conversions past
  /// kMaxConversionWork (kScriptError). Shared acyclic values serialize
  /// once per reference.
  Result<json::Value> ToJson(VpValue v) const;
  /// Deserialize (total). The result is unrooted: push or store it
  /// before the next instruction boundary.
  VpValue FromJson(const json::Value& j);

 private:
  struct Frame {
    GcClosure* closure;
    const uint8_t* ip;
    size_t base;  // stack index of slot 0 (the callee)
  };
  struct Handler {
    size_t frame_index;
    size_t sp;
    size_t ip_offset;  // catch target within the frame's proto
  };
  struct GlobalSlotData {
    uint32_t name_id;
    std::string name;
    VpValue value = VpValue::Empty();
    bool is_const = false;
    bool baseline = false;
  };

  /// Dispatch loop: runs until the frame stack shrinks back to
  /// `base_frames`. Reentrant (native array methods calling script
  /// callbacks re-enter here).
  Status Run(size_t base_frames);

  /// Push callee+args and execute to completion (reentrant).
  Result<VpValue> CallValue(VpValue callee, const VpValue* args, int argc,
                            int line);
  /// Set up a frame for a closure call; stack already holds
  /// callee+args starting at `base`.
  Status PushFrame(VpValue callee, int argc, int line);

  Status Raise(int line, const std::string& what) const {
    return Status(StatusCode::kScriptError,
                  FormatScriptError(line, what));
  }
  static std::string FormatScriptError(int line, const std::string& what);
  /// Call-site annotation: prefix "script:%d:" unless already present,
  /// preserving the status code (host failures stay catchable as-is).
  static Status AnnotateCallError(Status s, int line);

  int CurrentLine() const;
  Status BudgetExhausted(int line) const;

  GcUpvalue* CaptureUpvalue(VpValue* slot);
  void CloseUpvalues(VpValue* from);

  // Native methods: `argc` arguments on top of the stack. InvokeMethod
  // dispatches on the receiver (an array or a string).
  Status InvokeMethod(VpValue receiver, uint8_t method, int argc, int line,
                      VpValue* out);
  Status InvokeArrayMethod(GcArray* arr, uint8_t method, int argc, int line,
                           VpValue* out);
  Status InvokeStringMethod(const GcString* str, uint8_t method, int argc,
                            VpValue* out);
  /// Call a non-closure callee (host fn / bound method / error case);
  /// stack holds [callee, args...], replaced by the result on success.
  Status CallNonClosure(VpValue callee, int argc, int line);
  Result<VpValue> GetPropertyVm(VpValue obj, const GcString* name, int line);

  void Push(VpValue v) { stack_[sp_++] = v; }
  VpValue Pop() { return stack_[--sp_]; }
  VpValue Peek(size_t depth) const { return stack_[sp_ - 1 - depth]; }

  void TrackAllocation(GcObj* obj, size_t bytes);
  void MarkValue(VpValue v);
  void MarkObject(GcObj* obj);
  void TraceReferences();
  void Sweep();

  ScriptLimits limits_;

  // Execution state. The stack has fixed capacity so upvalue pointers
  // into it stay stable. The backing is raw UNINITIALIZED storage:
  // slots at or above sp_ are never read (the GC marks [0, sp_) only),
  // and zero-filling the full capacity on every Vm construction would
  // dominate warm-start latency (lifecycle wakeups build a fresh Vm
  // per module).
  struct RawStackFree {
    void operator()(VpValue* p) const { ::operator delete(p); }
  };
  std::unique_ptr<VpValue[], RawStackFree> stack_;
  size_t sp_ = 0;
  std::vector<Frame> frames_;
  std::vector<Handler> handlers_;
  GcUpvalue* open_upvalues_ = nullptr;
  uint64_t steps_used_ = 0;

  // Program.
  std::vector<std::unique_ptr<FunctionProto>> protos_;
  std::vector<GlobalSlotData> globals_;
  std::unordered_map<uint32_t, uint16_t> global_index_;  // name_id -> slot

  // Heap.
  GcObj* heap_head_ = nullptr;
  size_t live_objects_ = 0;
  size_t bytes_allocated_ = 0;
  size_t next_gc_ = 256 * 1024;
  uint64_t gc_cycles_ = 0;
  std::vector<GcObj*> gray_;
  /// Extra roots for native-method temporaries that live across a
  /// reentrant script callback (map/filter accumulators, …).
  std::vector<VpValue> temp_roots_;
  /// Frame count corresponding to call depth 0 for the current entry
  /// (1 for RunTopLevel — the script frame is not a "call" — 0 for
  /// CallGlobal).
  size_t depth_base_ = 0;

  friend class TempRootScope;
};

/// RAII root pin for values held in C++ locals across a reentrant
/// script call (GC safepoints run inside the callee).
class TempRootScope {
 public:
  explicit TempRootScope(Vm& vm) : vm_(vm), base_(vm.temp_roots_.size()) {}
  ~TempRootScope() { vm_.temp_roots_.resize(base_); }
  void Pin(VpValue v) { vm_.temp_roots_.push_back(v); }

 private:
  Vm& vm_;
  size_t base_;
};

}  // namespace vp::script
