// vpscript bytecode VM: dispatch loop, NaN-boxed values, tracing GC.
//
// Semantics (error messages, coercions, stdlib behaviour, snapshot key
// order) are pinned by the golden corpus in tests/test_script_vm.cpp —
// outputs frozen from the retired tree-walking interpreter, which the
// VM matched byte for byte. Deviate only with a matching corpus change.
#include "script/vm.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdlib>

#include "common/strings.hpp"
#include "script/convert.hpp"
#include "script/stdlib.hpp"

// Token-threaded dispatch needs GNU "labels as values"; fall back to a
// plain switch elsewhere. Define VP_VM_FORCE_SWITCH to benchmark the
// switch loop on a GNU-compatible compiler.
#if !defined(VP_VM_COMPUTED_GOTO)
#if (defined(__GNUC__) || defined(__clang__)) && !defined(VP_VM_FORCE_SWITCH)
#define VP_VM_COMPUTED_GOTO 1
#else
#define VP_VM_COMPUTED_GOTO 0
#endif
#endif

namespace vp::script {

// ----------------------------------------------------- GcObject lookup
// Exact mirror of ScriptObject (value.cpp): insertion order, id upgrade
// for entries stored without one.

VpValue* GcObject::Find(const std::string& key) {
  for (auto& e : items) {
    if (e.key == key) return &e.value;
  }
  return nullptr;
}

VpValue* GcObject::FindInterned(uint32_t key_id, const std::string& key) {
  for (auto& e : items) {
    if (e.key_id == key_id) return &e.value;
    if (e.key_id == kNoNameId && e.key == key) {
      e.key_id = key_id;
      return &e.value;
    }
  }
  return nullptr;
}

void GcObject::Set(const std::string& key, VpValue v) {
  if (VpValue* existing = Find(key)) {
    *existing = v;
    return;
  }
  items.push_back(Entry{kNoNameId, key, v});
}

void GcObject::SetInterned(uint32_t key_id, const std::string& key,
                           VpValue v) {
  if (VpValue* existing = FindInterned(key_id, key)) {
    *existing = v;
    return;
  }
  items.push_back(Entry{key_id, key, v});
}

namespace {

constexpr size_t kStackCapacity = 1 << 17;
/// Defensive slack for host-boundary entry points (CallValue's
/// callee+args pushes, kUndefN block entry). The authoritative bound
/// is per-proto: PushFrame checks base + proto->max_stack, computed by
/// the compiler, which covers every push a frame can make.
constexpr size_t kStackHeadroom = 4096;
constexpr size_t kInitialGcThreshold = 256 * 1024;

/// Array builtin ordinals, indexing ArrayMethodNames().
enum class ArrMethod : uint8_t {
  kPush, kPop, kShift, kUnshift, kSlice, kJoin, kIndexOf, kConcat,
  kMap, kFilter, kForEach, kReverse, kIncludes, kSort, kReduce,
};
constexpr uint8_t kNumArrayMethods = 15;
constexpr uint8_t kNoArrayMethod = 0xff;

const std::array<const char*, kNumArrayMethods>& ArrayMethodNames() {
  static const std::array<const char*, kNumArrayMethods> names = {
      "push", "pop", "shift", "unshift", "slice", "join", "indexOf",
      "concat", "map", "filter", "forEach", "reverse", "includes", "sort",
      "reduce"};
  return names;
}

const std::array<uint32_t, kNumArrayMethods>& ArrayMethodIds() {
  static const std::array<uint32_t, kNumArrayMethods> ids = [] {
    std::array<uint32_t, kNumArrayMethods> a{};
    for (size_t i = 0; i < kNumArrayMethods; ++i) {
      a[i] = Interner::Global().Intern(ArrayMethodNames()[i]);
    }
    return a;
  }();
  return ids;
}

uint8_t ArrayMethodOf(const GcString* name) {
  if (name->name_id != kNoNameId) {
    const auto& ids = ArrayMethodIds();
    for (uint8_t i = 0; i < kNumArrayMethods; ++i) {
      if (ids[i] == name->name_id) return i;
    }
    return kNoArrayMethod;
  }
  const auto& names = ArrayMethodNames();
  for (uint8_t i = 0; i < kNumArrayMethods; ++i) {
    if (name->text == names[i]) return i;
  }
  return kNoArrayMethod;
}

bool IsCallable(VpValue v) {
  return v.IsHeapType(GcType::kClosure) || v.IsHeapType(GcType::kHostFn) ||
         v.IsHeapType(GcType::kBoundMethod);
}

/// Boxed-equivalent type of a VM value, for coercion rules and names.
ValueType VmValueType(VpValue v) {
  if (v.is_number()) return ValueType::kNumber;
  if (v.is_bool()) return ValueType::kBool;
  if (v.is_null()) return ValueType::kNull;
  if (v.is_heap()) {
    switch (v.AsHeap()->type) {
      case GcType::kString: return ValueType::kString;
      case GcType::kArray: return ValueType::kArray;
      case GcType::kObject: return ValueType::kObject;
      // Closures share the boxed function type: both are "function".
      case GcType::kClosure:
      case GcType::kHostFn:
      case GcType::kBoundMethod: return ValueType::kHostFunction;
      case GcType::kUpvalue: break;  // never script-visible
    }
  }
  return ValueType::kUndefined;  // undefined / empty sentinel
}

const char* TypeofName(VpValue v) {
  const ValueType t = VmValueType(v);
  if (t == ValueType::kArray || t == ValueType::kNull) return "object";
  return ValueTypeName(t);
}

/// Mirror of Value::ToNumberSlow's string branch.
double StringToNumber(const std::string& s) {
  if (s.empty()) return 0.0;
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  while (end && *end == ' ') ++end;
  if (end != s.c_str() + s.size()) return std::nan("");
  return v;
}

size_t ApproxSize(const GcObj* obj) {
  switch (obj->type) {
    case GcType::kString:
      return sizeof(GcString) +
             static_cast<const GcString*>(obj)->text.capacity();
    case GcType::kArray:
      return sizeof(GcArray) +
             static_cast<const GcArray*>(obj)->items.capacity() *
                 sizeof(VpValue);
    case GcType::kObject: {
      const auto* o = static_cast<const GcObject*>(obj);
      size_t bytes = sizeof(GcObject) +
                     o->items.capacity() * sizeof(GcObject::Entry);
      for (const auto& e : o->items) bytes += e.key.capacity();
      return bytes;
    }
    case GcType::kClosure:
      return sizeof(GcClosure) +
             static_cast<const GcClosure*>(obj)->upvalues.capacity() *
                 sizeof(GcUpvalue*);
    case GcType::kUpvalue: return sizeof(GcUpvalue);
    case GcType::kHostFn: return sizeof(GcHostFn);
    case GcType::kBoundMethod: return sizeof(GcBoundMethod);
  }
  return sizeof(GcObj);
}

void FreeObject(GcObj* obj) {
  // No virtual destructor (saves a vtable pointer per object): free
  // through the type tag instead.
  switch (obj->type) {
    case GcType::kString: delete static_cast<GcString*>(obj); return;
    case GcType::kArray: delete static_cast<GcArray*>(obj); return;
    case GcType::kObject: delete static_cast<GcObject*>(obj); return;
    case GcType::kClosure: delete static_cast<GcClosure*>(obj); return;
    case GcType::kUpvalue: delete static_cast<GcUpvalue*>(obj); return;
    case GcType::kHostFn: delete static_cast<GcHostFn*>(obj); return;
    case GcType::kBoundMethod:
      delete static_cast<GcBoundMethod*>(obj);
      return;
  }
  delete obj;
}

}  // namespace

// -------------------------------------------------------- construction

Vm::Vm(ScriptLimits limits) : limits_(limits) {
  static_assert(std::is_trivially_copyable_v<VpValue> &&
                std::is_trivially_destructible_v<VpValue>);
  stack_.reset(static_cast<VpValue*>(
      ::operator new(kStackCapacity * sizeof(VpValue))));
  frames_.reserve(64);
  next_gc_ = kInitialGcThreshold;
}

Vm::~Vm() {
  GcObj* obj = heap_head_;
  while (obj != nullptr) {
    GcObj* next = obj->next;
    FreeObject(obj);
    obj = next;
  }
}

// ---------------------------------------------------------- allocators

void Vm::TrackAllocation(GcObj* obj, size_t bytes) {
  obj->next = heap_head_;
  heap_head_ = obj;
  ++live_objects_;
  bytes_allocated_ += bytes;
}

GcString* Vm::NewString(std::string s) {
  auto* obj = new GcString(std::move(s));
  TrackAllocation(obj, ApproxSize(obj));
  return obj;
}

GcArray* Vm::NewArray() {
  auto* obj = new GcArray();
  TrackAllocation(obj, ApproxSize(obj));
  return obj;
}

GcObject* Vm::NewObject() {
  auto* obj = new GcObject();
  TrackAllocation(obj, ApproxSize(obj));
  return obj;
}

GcClosure* Vm::NewClosure(const FunctionProto* proto) {
  auto* obj = new GcClosure(proto);
  TrackAllocation(obj, ApproxSize(obj));
  return obj;
}

GcUpvalue* Vm::NewUpvalue(VpValue* slot) {
  auto* obj = new GcUpvalue(slot);
  TrackAllocation(obj, ApproxSize(obj));
  return obj;
}

GcHostFn* Vm::NewHostFn(std::shared_ptr<HostFunctionValue> host) {
  auto* obj = new GcHostFn(std::move(host));
  TrackAllocation(obj, ApproxSize(obj));
  return obj;
}

GcBoundMethod* Vm::NewBoundMethod(VpValue receiver, uint8_t method,
                                  std::string name) {
  auto* obj = new GcBoundMethod();
  obj->receiver = receiver;
  obj->method = method;
  obj->name = std::move(name);
  TrackAllocation(obj, ApproxSize(obj));
  return obj;
}

// ------------------------------------------------------------------ GC

void Vm::MarkValue(VpValue v) {
  if (v.is_heap()) MarkObject(v.AsHeap());
}

void Vm::MarkObject(GcObj* obj) {
  if (obj == nullptr || obj->marked) return;
  obj->marked = true;
  gray_.push_back(obj);
}

void Vm::TraceReferences() {
  while (!gray_.empty()) {
    GcObj* obj = gray_.back();
    gray_.pop_back();
    switch (obj->type) {
      case GcType::kString:
      case GcType::kHostFn:
        break;
      case GcType::kArray:
        for (VpValue v : static_cast<GcArray*>(obj)->items) MarkValue(v);
        break;
      case GcType::kObject:
        for (const auto& e : static_cast<GcObject*>(obj)->items) {
          MarkValue(e.value);
        }
        break;
      case GcType::kClosure:
        for (GcUpvalue* uv : static_cast<GcClosure*>(obj)->upvalues) {
          MarkObject(uv);
        }
        break;
      case GcType::kUpvalue:
        MarkValue(*static_cast<GcUpvalue*>(obj)->location);
        break;
      case GcType::kBoundMethod:
        MarkValue(static_cast<GcBoundMethod*>(obj)->receiver);
        break;
    }
  }
}

void Vm::Sweep() {
  GcObj** link = &heap_head_;
  size_t live = 0;
  size_t bytes = 0;
  while (*link != nullptr) {
    GcObj* obj = *link;
    if (obj->marked) {
      obj->marked = false;
      bytes += ApproxSize(obj);
      ++live;
      link = &obj->next;
    } else {
      *link = obj->next;
      FreeObject(obj);
    }
  }
  live_objects_ = live;
  // Recomputed from survivors: byte accounting can never drift from
  // reality (mutations after allocation grow containers untracked).
  bytes_allocated_ = bytes;
}

void Vm::CollectGarbage() {
  gray_.clear();
  for (size_t i = 0; i < sp_; ++i) MarkValue(stack_[i]);
  for (const Frame& f : frames_) MarkObject(f.closure);
  for (GcUpvalue* uv = open_upvalues_; uv != nullptr; uv = uv->next_open) {
    MarkObject(uv);
  }
  for (const GlobalSlotData& g : globals_) MarkValue(g.value);
  for (VpValue v : temp_roots_) MarkValue(v);
  for (VpValue v : escaped_) MarkValue(v);
  for (const auto& proto : protos_) {
    for (VpValue c : proto->constants) MarkValue(c);
  }
  TraceReferences();
  Sweep();
  next_gc_ = std::max(kInitialGcThreshold, bytes_allocated_ * 2);
  ++gc_cycles_;
}

// ------------------------------------------------------- value helpers

bool Vm::Truthy(VpValue v) {
  if (v.is_number()) {
    const double d = v.AsNumber();
    return d != 0.0 && d == d;  // NaN is falsy
  }
  if (v.is_bool()) return v.AsBool();
  if (v.IsHeapType(GcType::kString)) {
    return !static_cast<GcString*>(v.AsHeap())->text.empty();
  }
  return v.is_heap();  // nullish / empty -> false, other heap -> true
}

double Vm::ToNumber(VpValue v) {
  if (v.is_number()) return v.AsNumber();
  if (v.is_bool()) return v.AsBool() ? 1.0 : 0.0;
  if (v.is_null()) return 0.0;
  if (v.IsHeapType(GcType::kString)) {
    return StringToNumber(static_cast<GcString*>(v.AsHeap())->text);
  }
  return std::nan("");
}

bool Vm::StrictEquals(VpValue a, VpValue b) {
  if (a.is_number() || b.is_number()) {
    return a.is_number() && b.is_number() && a.AsNumber() == b.AsNumber();
  }
  if (a.is_heap() && b.is_heap()) {
    GcObj* x = a.AsHeap();
    GcObj* y = b.AsHeap();
    if (x == y) return true;
    if (x->type != y->type) return false;
    // Strings compare by value; host fns by the wrapped host identity
    // (two GcHostFn wrappers may box the same host function).
    if (x->type == GcType::kString) {
      return static_cast<GcString*>(x)->text ==
             static_cast<GcString*>(y)->text;
    }
    if (x->type == GcType::kHostFn) {
      return static_cast<GcHostFn*>(x)->host.get() ==
             static_cast<GcHostFn*>(y)->host.get();
    }
    return false;
  }
  return a.bits == b.bits;  // singleton tags
}

bool Vm::LooseEquals(VpValue a, VpValue b) {
  const ValueType ta = VmValueType(a);
  const ValueType tb = VmValueType(b);
  if (ta == tb) return StrictEquals(a, b);
  if (a.is_nullish() && b.is_nullish()) return true;
  if ((ta == ValueType::kNumber && tb == ValueType::kString) ||
      (ta == ValueType::kString && tb == ValueType::kNumber)) {
    return ToNumber(a) == ToNumber(b);
  }
  if (ta == ValueType::kBool) {
    return LooseEquals(VpValue::Number(ToNumber(a)), b);
  }
  if (tb == ValueType::kBool) {
    return LooseEquals(a, VpValue::Number(ToNumber(b)));
  }
  return false;
}

const char* Vm::TypeName(VpValue v) { return ValueTypeName(VmValueType(v)); }

std::string Vm::ToDisplayString(VpValue v) const {
  if (v.is_number()) return NumberToString(v.AsNumber());
  if (v.is_undefined() || v.is_empty()) return "undefined";
  if (v.is_null()) return "null";
  if (v.is_bool()) return v.AsBool() ? "true" : "false";
  GcObj* obj = v.AsHeap();
  switch (obj->type) {
    case GcType::kString:
      return static_cast<GcString*>(obj)->text;
    case GcType::kObject: {
      std::string out = "{";
      bool first = true;
      for (const auto& e : static_cast<GcObject*>(obj)->items) {
        if (!first) out += ", ";
        first = false;
        out += e.key + ": " +
               (e.value.IsHeapType(GcType::kString)
                    ? "\"" + static_cast<GcString*>(e.value.AsHeap())->text +
                          "\""
                    : ToDisplayString(e.value));
      }
      return out + "}";
    }
    case GcType::kArray: {
      std::string out = "[";
      bool first = true;
      for (VpValue item : static_cast<GcArray*>(obj)->items) {
        if (!first) out += ", ";
        first = false;
        out += item.IsHeapType(GcType::kString)
                   ? "\"" + static_cast<GcString*>(item.AsHeap())->text + "\""
                   : ToDisplayString(item);
      }
      return out + "]";
    }
    case GcType::kClosure:
      return "function " + static_cast<GcClosure*>(obj)->proto->name +
             "() { … }";
    case GcType::kHostFn:
      return "function " + static_cast<GcHostFn*>(obj)->host->name +
             "() { [native] }";
    case GcType::kBoundMethod:
      return "function " + static_cast<GcBoundMethod*>(obj)->name +
             "() { [native] }";
    case GcType::kUpvalue:
      break;
  }
  return "?";
}

// ------------------------------------------------------- error helpers

std::string Vm::FormatScriptError(int line, const std::string& what) {
  return Format("script:%d: %s", line, what.c_str());
}

Status Vm::AnnotateCallError(Status s, int line) {
  if (s.ok()) return s;
  const std::string& msg = s.message();
  if (msg.find("script:") == std::string::npos) {
    return Status(s.code(), Format("script:%d: %s", line, msg.c_str()));
  }
  return s;
}

Status Vm::BudgetExhausted(int line) const {
  return Status(
      StatusCode::kResourceExhausted,
      Format("script:%d: step budget exceeded (%llu steps)", line,
             static_cast<unsigned long long>(limits_.max_steps)));
}

int Vm::CurrentLine() const {
  if (frames_.empty()) return 0;
  const Frame& f = frames_.back();
  const FunctionProto* proto = f.closure->proto;
  size_t off = static_cast<size_t>(f.ip - proto->code.data());
  if (off > 0) --off;
  return off < proto->lines.size() ? proto->lines[off] : 0;
}

// ------------------------------------------------------------ upvalues

GcUpvalue* Vm::CaptureUpvalue(VpValue* slot) {
  // Open-upvalue list sorted by stack address, descending: reuse an
  // existing cell so every closure over a local shares it.
  GcUpvalue* prev = nullptr;
  GcUpvalue* uv = open_upvalues_;
  while (uv != nullptr && uv->location > slot) {
    prev = uv;
    uv = uv->next_open;
  }
  if (uv != nullptr && uv->location == slot) return uv;
  GcUpvalue* created = NewUpvalue(slot);
  created->next_open = uv;
  if (prev != nullptr) {
    prev->next_open = created;
  } else {
    open_upvalues_ = created;
  }
  return created;
}

void Vm::CloseUpvalues(VpValue* from) {
  while (open_upvalues_ != nullptr && open_upvalues_->location >= from) {
    GcUpvalue* uv = open_upvalues_;
    uv->closed = *uv->location;
    uv->location = &uv->closed;
    open_upvalues_ = uv->next_open;
  }
}

// --------------------------------------------------------------- calls

Status Vm::PushFrame(VpValue callee, int argc, int line) {
  (void)line;
  auto* closure = static_cast<GcClosure*>(callee.AsHeap());
  const FunctionProto* proto = closure->proto;
  // A call at depth max_call_depth is rejected; depth_base_ maps frame
  // count to call depth for this entry.
  if (frames_.size() >=
      depth_base_ + static_cast<size_t>(limits_.max_call_depth)) {
    return Status(StatusCode::kScriptError,
                  Format("call depth limit (%d) exceeded",
                         limits_.max_call_depth));
  }
  // One bounds check per call covers every push the frame can make:
  // max_stack is the compiler-computed worst-case depth of the body
  // (locals and literal/argument temporaries included), so a frame can
  // never outgrow a fixed headroom between checks.
  const size_t base = sp_ - static_cast<size_t>(argc) - 1;
  if (base + proto->max_stack > kStackCapacity) {
    return Status(StatusCode::kScriptError, "stack overflow");
  }
  // Arity fixup, positional parameter bind: extra arguments dropped,
  // missing ones undefined.
  while (argc > proto->arity) {
    --sp_;
    --argc;
  }
  while (argc < proto->arity) {
    Push(VpValue::Undefined());
    ++argc;
  }
  frames_.push_back(Frame{closure, proto->code.data(),
                          sp_ - static_cast<size_t>(proto->arity) - 1});
  return Status::Ok();
}

Status Vm::CallNonClosure(VpValue callee, int argc, int line) {
  // Stack holds [callee, args...]; on success they are replaced by the
  // result. On error the caller unwinds sp_.
  if (callee.IsHeapType(GcType::kHostFn)) {
    VpValue out;
    Status s = CallHostFn(static_cast<GcHostFn*>(callee.AsHeap()),
                          &stack_[sp_ - static_cast<size_t>(argc)], argc,
                          line, &out);
    if (!s.ok()) return s;
    sp_ -= static_cast<size_t>(argc) + 1;
    Push(out);
    return Status::Ok();
  }
  if (callee.IsHeapType(GcType::kBoundMethod)) {
    auto* bm = static_cast<GcBoundMethod*>(callee.AsHeap());
    VpValue out;
    Status s = InvokeArrayMethod(static_cast<GcArray*>(bm->receiver.AsHeap()),
                                 bm->method, argc, line, &out);
    if (!s.ok()) return s;
    sp_ -= static_cast<size_t>(argc) + 1;
    Push(out);
    return Status::Ok();
  }
  return Status(StatusCode::kScriptError,
                std::string("attempt to call a ") + TypeName(callee));
}

Result<VpValue> Vm::CallValue(VpValue callee, const VpValue* args, int argc,
                              int line) {
  if (sp_ + static_cast<size_t>(argc) + kStackHeadroom > kStackCapacity) {
    return Error(StatusCode::kScriptError, "stack overflow");
  }
  const size_t entry_sp = sp_;
  Push(callee);
  for (int i = 0; i < argc; ++i) Push(args[i]);
  if (callee.IsHeapType(GcType::kClosure)) {
    const size_t base_frames = frames_.size();
    Status s = PushFrame(callee, argc, line);
    if (s.ok()) s = Run(base_frames);
    if (!s.ok()) {
      CloseUpvalues(&stack_[entry_sp]);
      sp_ = entry_sp;
      frames_.resize(base_frames);
      return s.error();
    }
    return Pop();
  }
  Status s = CallNonClosure(callee, argc, line);
  if (!s.ok()) {
    sp_ = entry_sp;
    return s.error();
  }
  return Pop();
}

Status Vm::CallHostFn(GcHostFn* host, const VpValue* args, int argc,
                      int line, VpValue* out) {
  (void)line;
  std::vector<Value> boxed;
  boxed.reserve(static_cast<size_t>(argc));
  std::unordered_map<const GcObj*, Value> memo;  // arg-sharing per call
  for (int i = 0; i < argc; ++i) {
    boxed.push_back(ExportValueRec(args[i], memo));
  }
  auto r = host->host->fn(boxed);
  if (!r.ok()) return r.status();
  *out = BoxedToVm(*r);
  return Status::Ok();
}

// ------------------------------------------------- native array methods
// Array builtins operate on VM values in place. Arguments live on the
// VM stack (rooted across reentrant callbacks).

Status Vm::InvokeArrayMethod(GcArray* arr, uint8_t method, int argc,
                             int line, VpValue* out) {
  const size_t args_base = sp_ - static_cast<size_t>(argc);
  auto arg = [&](int i) { return stack_[args_base + static_cast<size_t>(i)]; };
  switch (static_cast<ArrMethod>(method)) {
    case ArrMethod::kPush: {
      for (int i = 0; i < argc; ++i) arr->items.push_back(arg(i));
      *out = VpValue::Number(static_cast<double>(arr->items.size()));
      return Status::Ok();
    }
    case ArrMethod::kPop: {
      if (arr->items.empty()) {
        *out = VpValue::Undefined();
        return Status::Ok();
      }
      *out = arr->items.back();
      arr->items.pop_back();
      return Status::Ok();
    }
    case ArrMethod::kShift: {
      if (arr->items.empty()) {
        *out = VpValue::Undefined();
        return Status::Ok();
      }
      *out = arr->items.front();
      arr->items.erase(arr->items.begin());
      return Status::Ok();
    }
    case ArrMethod::kUnshift: {
      arr->items.insert(arr->items.begin(), &stack_[args_base],
                        &stack_[args_base] + argc);
      *out = VpValue::Number(static_cast<double>(arr->items.size()));
      return Status::Ok();
    }
    case ArrMethod::kSlice: {
      int64_t n = static_cast<int64_t>(arr->items.size());
      int64_t a = argc > 0 ? static_cast<int64_t>(ToNumber(arg(0))) : 0;
      int64_t b = argc > 1 ? static_cast<int64_t>(ToNumber(arg(1))) : n;
      if (a < 0) a += n;
      if (b < 0) b += n;
      a = std::clamp<int64_t>(a, 0, n);
      b = std::clamp<int64_t>(b, 0, n);
      GcArray* result = NewArray();
      for (int64_t i = a; i < b; ++i) {
        result->items.push_back(arr->items[static_cast<size_t>(i)]);
      }
      *out = VpValue::Heap(result);
      return Status::Ok();
    }
    case ArrMethod::kJoin: {
      const std::string sep = argc == 0 ? "," : ToDisplayString(arg(0));
      std::string joined;
      for (size_t i = 0; i < arr->items.size(); ++i) {
        if (i) joined += sep;
        joined += ToDisplayString(arr->items[i]);
      }
      *out = VpValue::Heap(NewString(std::move(joined)));
      return Status::Ok();
    }
    case ArrMethod::kIndexOf: {
      *out = VpValue::Number(-1.0);
      if (argc == 0) return Status::Ok();
      for (size_t i = 0; i < arr->items.size(); ++i) {
        if (StrictEquals(arr->items[i], arg(0))) {
          *out = VpValue::Number(static_cast<double>(i));
          return Status::Ok();
        }
      }
      return Status::Ok();
    }
    case ArrMethod::kConcat: {
      GcArray* result = NewArray();
      result->items = arr->items;
      for (int i = 0; i < argc; ++i) {
        VpValue v = arg(i);
        if (v.IsHeapType(GcType::kArray)) {
          auto* other = static_cast<GcArray*>(v.AsHeap());
          result->items.insert(result->items.end(), other->items.begin(),
                               other->items.end());
        } else {
          result->items.push_back(v);
        }
      }
      *out = VpValue::Heap(result);
      return Status::Ok();
    }
    case ArrMethod::kMap:
    case ArrMethod::kFilter:
    case ArrMethod::kForEach: {
      if (argc == 0 || !IsCallable(arg(0))) {
        return Status(ScriptError("expected a callback function"));
      }
      GcArray* result = NewArray();
      TempRootScope roots(*this);
      roots.Pin(VpValue::Heap(result));  // survives callback-driven GC
      // Live re-reads of size/elements each iteration: callbacks may
      // mutate the array.
      for (size_t i = 0; i < arr->items.size(); ++i) {
        VpValue cb_args[2] = {arr->items[i],
                              VpValue::Number(static_cast<double>(i))};
        auto r = CallValue(arg(0), cb_args, 2, line);
        if (!r.ok()) return r.status();
        switch (static_cast<ArrMethod>(method)) {
          case ArrMethod::kMap:
            result->items.push_back(*r);
            break;
          case ArrMethod::kFilter:
            if (Truthy(*r) && i < arr->items.size()) {
              result->items.push_back(arr->items[i]);
            }
            break;
          default:
            break;
        }
      }
      *out = static_cast<ArrMethod>(method) == ArrMethod::kForEach
                 ? VpValue::Undefined()
                 : VpValue::Heap(result);
      return Status::Ok();
    }
    case ArrMethod::kReverse: {
      std::reverse(arr->items.begin(), arr->items.end());
      *out = VpValue::Heap(arr);
      return Status::Ok();
    }
    case ArrMethod::kIncludes: {
      *out = VpValue::Boolean(false);
      if (argc == 0) return Status::Ok();
      for (VpValue v : arr->items) {
        if (StrictEquals(v, arg(0))) {
          *out = VpValue::Boolean(true);
          return Status::Ok();
        }
      }
      return Status::Ok();
    }
    case ArrMethod::kSort: {
      if (argc > 0 && IsCallable(arg(0))) {
        // std::stable_sort's temporary buffer hides elements from the
        // stack roots mid-sort: pin copies for the duration.
        TempRootScope roots(*this);
        for (VpValue v : arr->items) roots.Pin(v);
        Status failure = Status::Ok();
        const VpValue cmp = arg(0);
        std::stable_sort(arr->items.begin(), arr->items.end(),
                         [&](VpValue a, VpValue b) {
                           if (!failure.ok()) return false;
                           VpValue cb_args[2] = {a, b};
                           auto r = CallValue(cmp, cb_args, 2, line);
                           if (!r.ok()) {
                             failure = r.status();
                             return false;
                           }
                           return ToNumber(*r) < 0;
                         });
        if (!failure.ok()) return failure;
      } else {
        bool all_numbers = true;
        for (VpValue v : arr->items) all_numbers &= v.is_number();
        std::stable_sort(arr->items.begin(), arr->items.end(),
                         [all_numbers, this](VpValue a, VpValue b) {
                           if (all_numbers) return a.AsNumber() < b.AsNumber();
                           return ToDisplayString(a) < ToDisplayString(b);
                         });
      }
      *out = VpValue::Heap(arr);
      return Status::Ok();
    }
    case ArrMethod::kReduce: {
      if (argc == 0 || !IsCallable(arg(0))) {
        return Status(ScriptError("expected a callback function"));
      }
      size_t start = 0;
      VpValue acc;
      if (argc > 1) {
        acc = arg(1);
      } else {
        if (arr->items.empty()) {
          return Status(ScriptError("reduce of empty array"));
        }
        acc = arr->items[0];
        start = 1;
      }
      // acc is rooted whenever a collection can run: CallValue pushes
      // it as an argument before entering the dispatch loop.
      for (size_t i = start; i < arr->items.size(); ++i) {
        VpValue cb_args[3] = {acc, arr->items[i],
                              VpValue::Number(static_cast<double>(i))};
        auto r = CallValue(arg(0), cb_args, 3, line);
        if (!r.ok()) return r.status();
        acc = *r;
      }
      *out = acc;
      return Status::Ok();
    }
  }
  return Status(ScriptError("unknown array method"));
}

// ----------------------------------------------------------- properties

Result<VpValue> Vm::GetPropertyVm(VpValue obj, const GcString* name,
                                  int line) {
  if (obj.is_nullish()) {
    return Raise(line, "cannot read property '" + name->text + "' of " +
                           TypeName(obj))
        .error();
  }
  if (obj.IsHeapType(GcType::kObject)) {
    auto* o = static_cast<GcObject*>(obj.AsHeap());
    VpValue* v = name->name_id != kNoNameId
                     ? o->FindInterned(name->name_id, name->text)
                     : o->Find(name->text);
    return v != nullptr ? *v : VpValue::Undefined();
  }
  if (obj.IsHeapType(GcType::kArray)) {
    auto* arr = static_cast<GcArray*>(obj.AsHeap());
    if (name->text == "length") {
      return VpValue::Number(static_cast<double>(arr->items.size()));
    }
    const uint8_t method = ArrayMethodOf(name);
    if (method != kNoArrayMethod) {
      // Fresh per access: two reads are two distinct functions.
      return VpValue::Heap(NewBoundMethod(obj, method, name->text));
    }
    return VpValue::Undefined();
  }
  if (obj.IsHeapType(GcType::kString)) {
    // String methods bridge through the boxed stdlib (they capture the
    // string by value, so the round trip is loss-free).
    auto* s = static_cast<GcString*>(obj.AsHeap());
    return BoxedToVm(StringProperty(s->text, name->text));
  }
  return VpValue::Undefined();  // numbers, booleans, functions
}

// -------------------------------------------------------- dispatch loop

Status Vm::Run(size_t base_frames) {
  Frame* frame = &frames_.back();
  const FunctionProto* proto = frame->closure->proto;
  const uint8_t* ip = frame->ip;
  Status err = Status::Ok();

  auto read_u16 = [&ip]() {
    const uint16_t v =
        static_cast<uint16_t>(ip[0] | (static_cast<uint16_t>(ip[1]) << 8));
    ip += 2;
    return v;
  };
  // Line of the instruction whose last byte was just read (operands
  // share their opcode's line).
  auto line_at = [&]() {
    return proto->lines[static_cast<size_t>(ip - proto->code.data()) - 1];
  };
  auto refresh = [&]() {
    frame = &frames_.back();
    proto = frame->closure->proto;
    ip = frame->ip;
  };

  // max_steps never changes mid-run (ResetBudget happens between
  // entry-point calls), so hoist the load out of the dispatch loop.
  // The step counter runs in a local so the hot path increments a
  // register instead of a member; it is flushed to steps_used_ before
  // anything that can nest another Run activation (host function ->
  // CallValue) and reloaded after, so the budget stays shared.
  const uint64_t max_steps = limits_.max_steps;
  uint64_t steps = steps_used_;

  // One dispatch step: GC safepoint (allocation itself never collects;
  // pressure is checked only at instruction boundaries, so collection
  // points are a pure function of the instruction stream), step
  // budget, then decode the next opcode into `op`.
#define VM_STEP()                                                          \
  if (bytes_allocated_ > next_gc_) {                                       \
    frame->ip = ip;                                                        \
    CollectGarbage();                                                      \
  }                                                                        \
  if (++steps > max_steps) {                                               \
    err = BudgetExhausted(                                                 \
        proto->lines[static_cast<size_t>(ip - proto->code.data())]);       \
    goto unwind;                                                           \
  }                                                                        \
  op = static_cast<Op>(*ip++)

#if VP_VM_COMPUTED_GOTO
  // Token-threaded dispatch (GNU labels-as-values): every handler ends
  // by jumping straight to the next opcode's handler, so the branch
  // predictor sees one indirect-branch site per opcode instead of a
  // single shared switch branch. Table order must match enum Op
  // exactly (static_assert pins the count).
  static const void* const kDispatch[] = {
      &&lbl_kConst,
      &&lbl_kUndefined,
      &&lbl_kNull,
      &&lbl_kTrue,
      &&lbl_kFalse,
      &&lbl_kUndefN,
      &&lbl_kPop,
      &&lbl_kPopN,
      &&lbl_kDup,
      &&lbl_kSwap,
      &&lbl_kRot3,
      &&lbl_kGetLocal,
      &&lbl_kSetLocal,
      &&lbl_kGetUpvalue,
      &&lbl_kSetUpvalue,
      &&lbl_kGetGlobal,
      &&lbl_kSetGlobal,
      &&lbl_kDefineGlobal,
      &&lbl_kDefineGlobalConst,
      &&lbl_kArray,
      &&lbl_kObject,
      &&lbl_kGetProp,
      &&lbl_kSetProp,
      &&lbl_kGetIndex,
      &&lbl_kSetIndex,
      &&lbl_kAdd,
      &&lbl_kSub,
      &&lbl_kMul,
      &&lbl_kDiv,
      &&lbl_kMod,
      &&lbl_kEq,
      &&lbl_kNe,
      &&lbl_kStrictEq,
      &&lbl_kStrictNe,
      &&lbl_kLt,
      &&lbl_kLe,
      &&lbl_kGt,
      &&lbl_kGe,
      &&lbl_kNegate,
      &&lbl_kToNumber,
      &&lbl_kNot,
      &&lbl_kTypeof,
      &&lbl_kInc,
      &&lbl_kDec,
      &&lbl_kJump,
      &&lbl_kJumpIfFalse,
      &&lbl_kJumpIfTrue,
      &&lbl_kJumpIfFalsePeek,
      &&lbl_kJumpIfTruePeek,
      &&lbl_kLoop,
      &&lbl_kCall,
      &&lbl_kInvoke,
      &&lbl_kClosure,
      &&lbl_kCloseScope,
      &&lbl_kReturn,
      &&lbl_kReturnUndef,
      &&lbl_kPushHandler,
      &&lbl_kPopHandler,
      &&lbl_kThrow,
      &&lbl_kForInInit,
      &&lbl_kForInNext,
      &&lbl_kRuntimeError,
  };
  static_assert(sizeof(kDispatch) / sizeof(kDispatch[0]) ==
                    static_cast<size_t>(Op::kRuntimeError) + 1,
                "dispatch table out of sync with enum Op");
#define VM_CASE(name) lbl_##name
#define VM_NEXT()                                                          \
  do {                                                                     \
    VM_STEP();                                                             \
    goto* kDispatch[static_cast<uint8_t>(op)];                             \
  } while (0)
#else
#define VM_CASE(name) case Op::name
#define VM_NEXT() break
#endif

  Op op;
  for (;;) {
    VM_STEP();
#if VP_VM_COMPUTED_GOTO
    goto* kDispatch[static_cast<uint8_t>(op)];
#else
    switch (op)
#endif
    {
        VM_CASE(kConst):
          Push(proto->constants[read_u16()]);
          VM_NEXT();
        VM_CASE(kUndefined):
          Push(VpValue::Undefined());
          VM_NEXT();
        VM_CASE(kNull):
          Push(VpValue::Null());
          VM_NEXT();
        VM_CASE(kTrue):
          Push(VpValue::Boolean(true));
          VM_NEXT();
        VM_CASE(kFalse):
          Push(VpValue::Boolean(false));
          VM_NEXT();
        VM_CASE(kUndefN): {
          const uint16_t n = read_u16();
          if (sp_ + n + kStackHeadroom > kStackCapacity) {
            err = Status(StatusCode::kScriptError, "stack overflow");
            goto unwind;
          }
          for (uint16_t i = 0; i < n; ++i) Push(VpValue::Undefined());
          VM_NEXT();
        }
        VM_CASE(kPop):
          --sp_;
          VM_NEXT();
        VM_CASE(kPopN):
          sp_ -= read_u16();
          VM_NEXT();
        VM_CASE(kDup):
          Push(Peek(0));
          VM_NEXT();
        VM_CASE(kSwap):
          std::swap(stack_[sp_ - 1], stack_[sp_ - 2]);
          VM_NEXT();
        VM_CASE(kRot3): {
          const VpValue a = stack_[sp_ - 3];
          stack_[sp_ - 3] = stack_[sp_ - 2];
          stack_[sp_ - 2] = stack_[sp_ - 1];
          stack_[sp_ - 1] = a;
          VM_NEXT();
        }
        VM_CASE(kGetLocal):
          Push(stack_[frame->base + read_u16()]);
          VM_NEXT();
        VM_CASE(kSetLocal):
          stack_[frame->base + read_u16()] = Peek(0);
          VM_NEXT();
        VM_CASE(kGetUpvalue):
          Push(*frame->closure->upvalues[read_u16()]->location);
          VM_NEXT();
        VM_CASE(kSetUpvalue):
          *frame->closure->upvalues[read_u16()]->location = Peek(0);
          VM_NEXT();
        VM_CASE(kGetGlobal): {
          const GlobalSlotData& g = globals_[read_u16()];
          if (g.value.is_empty()) {
            err = Raise(line_at(), "'" + g.name + "' is not defined");
            goto unwind;
          }
          Push(g.value);
          VM_NEXT();
        }
        VM_CASE(kSetGlobal): {
          GlobalSlotData& g = globals_[read_u16()];
          if (g.value.is_empty()) {
            err = Raise(line_at(),
                        "assignment to undeclared variable '" + g.name + "'");
            goto unwind;
          }
          if (g.is_const) {
            err = Raise(line_at(), "assignment to const '" + g.name + "'");
            goto unwind;
          }
          g.value = Peek(0);
          VM_NEXT();
        }
        VM_CASE(kDefineGlobal):
        VM_CASE(kDefineGlobalConst): {
          GlobalSlotData& g = globals_[read_u16()];
          g.value = Pop();
          g.is_const = op == Op::kDefineGlobalConst;
          VM_NEXT();
        }
        VM_CASE(kArray): {
          const uint16_t n = read_u16();
          GcArray* arr = NewArray();
          arr->items.assign(&stack_[sp_ - n], &stack_[0] + sp_);
          sp_ -= n;
          Push(VpValue::Heap(arr));
          VM_NEXT();
        }
        VM_CASE(kObject): {
          const uint16_t n = read_u16();
          GcObject* obj = NewObject();
          obj->items.reserve(n);
          const size_t first = sp_ - 2 * static_cast<size_t>(n);
          for (uint16_t i = 0; i < n; ++i) {
            auto* key =
                static_cast<GcString*>(stack_[first + 2 * i].AsHeap());
            const VpValue value = stack_[first + 2 * i + 1];
            if (key->name_id != kNoNameId) {
              obj->SetInterned(key->name_id, key->text, value);
            } else {
              obj->Set(key->text, value);
            }
          }
          sp_ = first;
          Push(VpValue::Heap(obj));
          VM_NEXT();
        }
        VM_CASE(kGetProp): {
          const uint16_t name_idx = read_u16();
          const int line = line_at();
          auto* name =
              static_cast<GcString*>(proto->constants[name_idx].AsHeap());
          auto r = GetPropertyVm(Peek(0), name, line);
          if (!r.ok()) {
            err = r.status();
            goto unwind;
          }
          Pop();
          Push(*r);
          VM_NEXT();
        }
        VM_CASE(kSetProp): {
          const uint16_t name_idx = read_u16();
          const int line = line_at();
          auto* name =
              static_cast<GcString*>(proto->constants[name_idx].AsHeap());
          const VpValue value = Pop();
          const VpValue obj = Pop();
          if (!obj.IsHeapType(GcType::kObject)) {
            err = Raise(line, "cannot set property '" + name->text +
                                  "' on a " + TypeName(obj));
            goto unwind;
          }
          auto* o = static_cast<GcObject*>(obj.AsHeap());
          if (name->name_id != kNoNameId) {
            o->SetInterned(name->name_id, name->text, value);
          } else {
            o->Set(name->text, value);
          }
          Push(value);
          VM_NEXT();
        }
        VM_CASE(kGetIndex): {
          const int line = line_at();
          const VpValue index = Pop();
          const VpValue obj = Pop();
          if (obj.IsHeapType(GcType::kArray)) {
            auto* arr = static_cast<GcArray*>(obj.AsHeap());
            const double d = ToNumber(index);
            if (std::isnan(d)) {
              err = Raise(line, "array index is NaN");
              goto unwind;
            }
            const int64_t i = static_cast<int64_t>(d);
            if (i < 0 || static_cast<size_t>(i) >= arr->items.size()) {
              Push(VpValue::Undefined());
            } else {
              Push(arr->items[static_cast<size_t>(i)]);
            }
          } else if (obj.IsHeapType(GcType::kObject)) {
            auto* o = static_cast<GcObject*>(obj.AsHeap());
            VpValue* v = o->Find(ToDisplayString(index));
            Push(v != nullptr ? *v : VpValue::Undefined());
          } else if (obj.IsHeapType(GcType::kString)) {
            const std::string& s =
                static_cast<GcString*>(obj.AsHeap())->text;
            const double d = ToNumber(index);
            const int64_t i =
                std::isnan(d) ? -1 : static_cast<int64_t>(d);
            if (i < 0 || static_cast<size_t>(i) >= s.size()) {
              Push(VpValue::Undefined());
            } else {
              Push(VpValue::Heap(
                  NewString(std::string(1, s[static_cast<size_t>(i)]))));
            }
          } else {
            err = Raise(line,
                        std::string("cannot index a ") + TypeName(obj));
            goto unwind;
          }
          VM_NEXT();
        }
        VM_CASE(kSetIndex): {
          const int line = line_at();
          const VpValue value = Pop();
          const VpValue index = Pop();
          const VpValue obj = Pop();
          if (obj.IsHeapType(GcType::kArray)) {
            const double d = ToNumber(index);
            if (std::isnan(d) || d < 0) {
              err = Raise(line, "bad array index");
              goto unwind;
            }
            auto* arr = static_cast<GcArray*>(obj.AsHeap());
            const size_t i = static_cast<size_t>(d);
            if (i >= arr->items.size()) arr->items.resize(i + 1);
            arr->items[i] = value;
            Push(value);
          } else if (obj.IsHeapType(GcType::kObject)) {
            static_cast<GcObject*>(obj.AsHeap())
                ->Set(ToDisplayString(index), value);
            Push(value);
          } else {
            err = Raise(line, std::string("cannot index-assign a ") +
                                  TypeName(obj));
            goto unwind;
          }
          VM_NEXT();
        }
        VM_CASE(kAdd): {
          const VpValue b = Pop();
          const VpValue a = Pop();
          if (a.is_number() && b.is_number()) {
            Push(VpValue::Number(a.AsNumber() + b.AsNumber()));
          } else if (a.IsHeapType(GcType::kString) ||
                     b.IsHeapType(GcType::kString)) {
            Push(VpValue::Heap(
                NewString(ToDisplayString(a) + ToDisplayString(b))));
          } else {
            Push(VpValue::Number(ToNumber(a) + ToNumber(b)));
          }
          VM_NEXT();
        }
        VM_CASE(kSub): {
          const VpValue b = Pop();
          const VpValue a = Pop();
          Push(VpValue::Number(ToNumber(a) - ToNumber(b)));
          VM_NEXT();
        }
        VM_CASE(kMul): {
          const VpValue b = Pop();
          const VpValue a = Pop();
          Push(VpValue::Number(ToNumber(a) * ToNumber(b)));
          VM_NEXT();
        }
        VM_CASE(kDiv): {
          const VpValue b = Pop();
          const VpValue a = Pop();
          Push(VpValue::Number(ToNumber(a) / ToNumber(b)));
          VM_NEXT();
        }
        VM_CASE(kMod): {
          const VpValue b = Pop();
          const VpValue a = Pop();
          Push(VpValue::Number(std::fmod(ToNumber(a), ToNumber(b))));
          VM_NEXT();
        }
        VM_CASE(kEq): {
          const VpValue b = Pop();
          const VpValue a = Pop();
          Push(VpValue::Boolean(LooseEquals(a, b)));
          VM_NEXT();
        }
        VM_CASE(kNe): {
          const VpValue b = Pop();
          const VpValue a = Pop();
          Push(VpValue::Boolean(!LooseEquals(a, b)));
          VM_NEXT();
        }
        VM_CASE(kStrictEq): {
          const VpValue b = Pop();
          const VpValue a = Pop();
          Push(VpValue::Boolean(StrictEquals(a, b)));
          VM_NEXT();
        }
        VM_CASE(kStrictNe): {
          const VpValue b = Pop();
          const VpValue a = Pop();
          Push(VpValue::Boolean(!StrictEquals(a, b)));
          VM_NEXT();
        }
        VM_CASE(kLt):
        VM_CASE(kLe):
        VM_CASE(kGt):
        VM_CASE(kGe): {
          const VpValue b = Pop();
          const VpValue a = Pop();
          bool result;
          if (a.IsHeapType(GcType::kString) &&
              b.IsHeapType(GcType::kString)) {
            const int cmp =
                static_cast<GcString*>(a.AsHeap())
                    ->text.compare(static_cast<GcString*>(b.AsHeap())->text);
            result = op == Op::kLt   ? cmp < 0
                     : op == Op::kLe ? cmp <= 0
                     : op == Op::kGt ? cmp > 0
                                     : cmp >= 0;
          } else {
            const double x = ToNumber(a);
            const double y = ToNumber(b);
            result = op == Op::kLt   ? x < y
                     : op == Op::kLe ? x <= y
                     : op == Op::kGt ? x > y
                                     : x >= y;
          }
          Push(VpValue::Boolean(result));
          VM_NEXT();
        }
        VM_CASE(kNegate):
          Push(VpValue::Number(-ToNumber(Pop())));
          VM_NEXT();
        VM_CASE(kToNumber):
          Push(VpValue::Number(ToNumber(Pop())));
          VM_NEXT();
        VM_CASE(kNot):
          Push(VpValue::Boolean(!Truthy(Pop())));
          VM_NEXT();
        VM_CASE(kTypeof):
          Push(VpValue::Heap(NewString(TypeofName(Pop()))));
          VM_NEXT();
        VM_CASE(kInc):
          Push(VpValue::Number(ToNumber(Pop()) + 1));
          VM_NEXT();
        VM_CASE(kDec):
          Push(VpValue::Number(ToNumber(Pop()) - 1));
          VM_NEXT();
        VM_CASE(kJump): {
          const uint16_t off = read_u16();
          ip += off;
          VM_NEXT();
        }
        VM_CASE(kJumpIfFalse): {
          const uint16_t off = read_u16();
          if (!Truthy(Pop())) ip += off;
          VM_NEXT();
        }
        VM_CASE(kJumpIfTrue): {
          const uint16_t off = read_u16();
          if (Truthy(Pop())) ip += off;
          VM_NEXT();
        }
        VM_CASE(kJumpIfFalsePeek): {
          const uint16_t off = read_u16();
          if (!Truthy(Peek(0))) ip += off;
          VM_NEXT();
        }
        VM_CASE(kJumpIfTruePeek): {
          const uint16_t off = read_u16();
          if (Truthy(Peek(0))) ip += off;
          VM_NEXT();
        }
        VM_CASE(kLoop): {
          const uint16_t off = read_u16();
          ip -= off;
          VM_NEXT();
        }
        VM_CASE(kCall): {
          const int argc = *ip++;
          const int line = line_at();
          const VpValue callee = Peek(static_cast<size_t>(argc));
          frame->ip = ip;
          if (callee.IsHeapType(GcType::kClosure)) {
            Status s = PushFrame(callee, argc, line);
            if (!s.ok()) {
              err = AnnotateCallError(s, line);
              goto unwind;
            }
            refresh();
          } else {
            steps_used_ = steps;
            Status s = CallNonClosure(callee, argc, line);
            steps = steps_used_;
            refresh();  // reentrant callees may grow frames_
            if (!s.ok()) {
              err = AnnotateCallError(s, line);
              goto unwind;
            }
          }
          VM_NEXT();
        }
        VM_CASE(kInvoke): {
          const uint16_t name_idx = read_u16();
          const int argc = *ip++;
          const int line = line_at();
          auto* name =
              static_cast<GcString*>(proto->constants[name_idx].AsHeap());
          const VpValue receiver = Peek(static_cast<size_t>(argc));
          if (receiver.is_nullish()) {
            err = Raise(line, "cannot read property '" + name->text +
                                  "' of " + TypeName(receiver));
            goto unwind;
          }
          frame->ip = ip;
          VpValue callee = VpValue::Undefined();
          if (receiver.IsHeapType(GcType::kArray)) {
            const uint8_t method = ArrayMethodOf(name);
            if (method != kNoArrayMethod) {
              // Fused native dispatch: no bound-method allocation.
              VpValue invoke_out;
              steps_used_ = steps;
              Status s = InvokeArrayMethod(
                  static_cast<GcArray*>(receiver.AsHeap()), method, argc,
                  line, &invoke_out);
              steps = steps_used_;
              refresh();
              if (!s.ok()) {
                err = AnnotateCallError(s, line);
                goto unwind;
              }
              sp_ -= static_cast<size_t>(argc) + 1;
              Push(invoke_out);
              VM_NEXT();
            }
            auto r = GetPropertyVm(receiver, name, line);
            if (!r.ok()) {
              err = r.status();
              goto unwind;
            }
            callee = *r;
          } else if (receiver.IsHeapType(GcType::kObject)) {
            auto* o = static_cast<GcObject*>(receiver.AsHeap());
            VpValue* v = name->name_id != kNoNameId
                             ? o->FindInterned(name->name_id, name->text)
                             : o->Find(name->text);
            callee = v != nullptr ? *v : VpValue::Undefined();
          } else {
            auto r = GetPropertyVm(receiver, name, line);
            if (!r.ok()) {
              err = r.status();
              goto unwind;
            }
            callee = *r;
          }
          // Replace the receiver slot with the callee and dispatch.
          stack_[sp_ - static_cast<size_t>(argc) - 1] = callee;
          if (callee.IsHeapType(GcType::kClosure)) {
            Status s = PushFrame(callee, argc, line);
            if (!s.ok()) {
              err = AnnotateCallError(s, line);
              goto unwind;
            }
            refresh();
          } else {
            steps_used_ = steps;
            Status s = CallNonClosure(callee, argc, line);
            steps = steps_used_;
            refresh();
            if (!s.ok()) {
              err = AnnotateCallError(s, line);
              goto unwind;
            }
          }
          VM_NEXT();
        }
        VM_CASE(kClosure): {
          const uint16_t proto_idx = read_u16();
          const FunctionProto* fn = protos_[proto_idx].get();
          GcClosure* closure = NewClosure(fn);
          Push(VpValue::Heap(closure));
          closure->upvalues.reserve(fn->upvalues.size());
          for (const UpvalDesc& d : fn->upvalues) {
            closure->upvalues.push_back(
                d.from_local
                    ? CaptureUpvalue(&stack_[frame->base + d.index])
                    : frame->closure->upvalues[d.index]);
          }
          VM_NEXT();
        }
        VM_CASE(kCloseScope): {
          const uint16_t n = read_u16();
          CloseUpvalues(&stack_[sp_ - n]);
          sp_ -= n;
          VM_NEXT();
        }
        VM_CASE(kReturn):
        VM_CASE(kReturnUndef): {
          const VpValue result =
              op == Op::kReturn ? Pop() : VpValue::Undefined();
          CloseUpvalues(&stack_[frame->base]);
          while (!handlers_.empty() &&
                 handlers_.back().frame_index >= frames_.size() - 1) {
            handlers_.pop_back();
          }
          sp_ = frame->base;
          frames_.pop_back();
          if (frames_.size() == base_frames) {
            Push(result);
            steps_used_ = steps;
            return Status::Ok();
          }
          refresh();
          Push(result);
          VM_NEXT();
        }
        VM_CASE(kPushHandler): {
          const uint16_t off = read_u16();
          const size_t target =
              static_cast<size_t>(ip - proto->code.data()) + off;
          handlers_.push_back(Handler{frames_.size() - 1, sp_, target});
          VM_NEXT();
        }
        VM_CASE(kPopHandler):
          handlers_.pop_back();
          VM_NEXT();
        VM_CASE(kThrow): {
          const int line = line_at();
          const VpValue thrown = Pop();
          err = Raise(line, "uncaught: " + ToDisplayString(thrown));
          goto unwind;
        }
        VM_CASE(kForInInit): {
          const int line = line_at();
          const VpValue subject = Pop();
          if (subject.IsHeapType(GcType::kObject)) {
            auto* o = static_cast<GcObject*>(subject.AsHeap());
            GcArray* keys = NewArray();
            Push(VpValue::Heap(keys));
            keys->items.reserve(o->items.size());
            // Keys snapshot up-front: mutation during the loop does not
            // change the iteration.
            for (const auto& e : o->items) {
              keys->items.push_back(VpValue::Heap(NewString(e.key)));
            }
            Push(VpValue::Number(0));
          } else if (subject.IsHeapType(GcType::kArray)) {
            auto* arr = static_cast<GcArray*>(subject.AsHeap());
            GcArray* keys = NewArray();
            Push(VpValue::Heap(keys));
            keys->items.reserve(arr->items.size());
            for (size_t i = 0; i < arr->items.size(); ++i) {
              keys->items.push_back(
                  VpValue::Heap(NewString(Format("%zu", i))));
            }
            Push(VpValue::Number(0));
          } else {
            err = Raise(line, "for-in over a non-object");
            goto unwind;
          }
          VM_NEXT();
        }
        VM_CASE(kForInNext): {
          const uint16_t keys_slot = read_u16();
          const uint16_t exit_off = read_u16();
          auto* keys = static_cast<GcArray*>(
              stack_[frame->base + keys_slot].AsHeap());
          const double idx = stack_[frame->base + keys_slot + 1].AsNumber();
          if (static_cast<size_t>(idx) >= keys->items.size()) {
            ip += exit_off;
          } else {
            stack_[frame->base + keys_slot + 1] = VpValue::Number(idx + 1);
            Push(keys->items[static_cast<size_t>(idx)]);
          }
          VM_NEXT();
        }
        VM_CASE(kRuntimeError): {
          const uint16_t msg_idx = read_u16();
          auto* msg =
              static_cast<GcString*>(proto->constants[msg_idx].AsHeap());
          err = Raise(line_at(), msg->text);
          goto unwind;
        }
    }
    continue;

  unwind:
    // Everything except budget exhaustion is catchable (call-depth
    // errors included).
    if (err.code() != StatusCode::kResourceExhausted && !handlers_.empty() &&
        handlers_.back().frame_index >= base_frames) {
      const Handler h = handlers_.back();
      handlers_.pop_back();
      frames_.resize(h.frame_index + 1);
      CloseUpvalues(&stack_[h.sp]);
      sp_ = h.sp;
      GcObject* error_obj = NewObject();
      Push(VpValue::Heap(error_obj));
      error_obj->Set("message", VpValue::Heap(NewString(err.message())));
      error_obj->Set("code",
                     VpValue::Heap(NewString(StatusCodeName(err.code()))));
      frame = &frames_.back();
      proto = frame->closure->proto;
      ip = proto->code.data() + h.ip_offset;
      frame->ip = ip;
      err = Status::Ok();
      continue;
    }
    while (!handlers_.empty() &&
           handlers_.back().frame_index >= base_frames) {
      handlers_.pop_back();
    }
    frames_.resize(base_frames);
    steps_used_ = steps;
    return err;
  }
#undef VM_STEP
#undef VM_CASE
#undef VM_NEXT
}

// -------------------------------------------------------- program entry

uint16_t Vm::AdoptProto(std::unique_ptr<FunctionProto> proto) {
  protos_.push_back(std::move(proto));
  return static_cast<uint16_t>(protos_.size() - 1);
}

uint16_t Vm::GlobalSlot(const std::string& name) {
  const uint32_t id = Interner::Global().Intern(name);
  auto it = global_index_.find(id);
  if (it != global_index_.end()) return it->second;
  const uint16_t slot = static_cast<uint16_t>(globals_.size());
  globals_.push_back(GlobalSlotData{id, name});
  global_index_.emplace(id, slot);
  return slot;
}

void Vm::ImportGlobal(const std::string& name, const Value& v,
                      bool baseline) {
  const uint16_t slot = GlobalSlot(name);
  import_memo_.clear();
  globals_[slot].value = ImportValueRec(v);
  globals_[slot].is_const = false;
  globals_[slot].baseline = baseline;
}

Status Vm::RunTopLevel(const FunctionProto* top) {
  GcClosure* closure = NewClosure(top);
  const size_t base_frames = frames_.size();
  Push(VpValue::Heap(closure));
  depth_base_ = frames_.size() + 1;  // the script frame is depth 0
  Status s = PushFrame(VpValue::Heap(closure), 0, 0);
  if (s.ok()) s = Run(base_frames);
  if (!s.ok()) {
    CloseUpvalues(&stack_[0]);
    sp_ = 0;
    frames_.resize(base_frames);
    return s;
  }
  Pop();  // top-level result, discarded like Context::Load
  return Status::Ok();
}

// ---------------------------------------------------- host entry points

bool Vm::HasGlobal(const std::string& name) const {
  const uint32_t id = Interner::Global().Lookup(name);
  if (id == kNoNameId) return false;
  auto it = global_index_.find(id);
  return it != global_index_.end() && !globals_[it->second].value.is_empty();
}

bool Vm::GlobalIsFunction(const std::string& name) const {
  const uint32_t id = Interner::Global().Lookup(name);
  if (id == kNoNameId) return false;
  auto it = global_index_.find(id);
  return it != global_index_.end() && IsCallable(globals_[it->second].value);
}

Value Vm::GetGlobalBoxed(const std::string& name) {
  const uint32_t id = Interner::Global().Lookup(name);
  if (id == kNoNameId) return Value::Undefined();
  auto it = global_index_.find(id);
  if (it == global_index_.end()) return Value::Undefined();
  const VpValue v = globals_[it->second].value;
  if (v.is_empty()) return Value::Undefined();
  return VmToBoxed(v);
}

Result<Value> Vm::CallGlobal(const std::string& name,
                             std::vector<Value> args) {
  const auto not_found = [&name]() {
    return NotFound("no function '" + name + "' in module");
  };
  const uint32_t id = Interner::Global().Lookup(name);
  if (id == kNoNameId) return not_found();
  auto it = global_index_.find(id);
  if (it == global_index_.end()) return not_found();
  const VpValue fn = globals_[it->second].value;
  if (!IsCallable(fn)) return not_found();

  if (fn.IsHeapType(GcType::kHostFn)) {
    // A host function stored in a global: call it on boxed values
    // directly, no VM frame involved.
    auto r = static_cast<GcHostFn*>(fn.AsHeap())->host->fn(args);
    if (!r.ok()) return r.error();
    return *r;
  }

  const size_t entry_sp = sp_;
  const size_t base_frames = frames_.size();
  if (sp_ + args.size() + 1 > kStackCapacity) {
    return Error(StatusCode::kScriptError, "stack overflow");
  }
  Push(fn);
  import_memo_.clear();  // one conversion: boxed arg sharing preserved
  for (const Value& a : args) Push(ImportValueRec(a));
  depth_base_ = frames_.size();  // the called function is depth 1
  Status s;
  if (fn.IsHeapType(GcType::kClosure)) {
    s = PushFrame(fn, static_cast<int>(args.size()), 0);
    if (s.ok()) s = Run(base_frames);
  } else {
    s = CallNonClosure(fn, static_cast<int>(args.size()), 0);
  }
  if (!s.ok()) {
    CloseUpvalues(&stack_[entry_sp]);
    sp_ = entry_sp;
    frames_.resize(base_frames);
    return s.error();
  }
  return VmToBoxed(Pop());
}

json::Value Vm::SnapshotState() {
  json::Value snapshot = json::Value::MakeObject();
  // Slot order is definition order (hoisted functions first, then
  // vars — see CompileProgram).
  for (const GlobalSlotData& g : globals_) {
    if (g.baseline || g.value.is_empty() || g.value.is_undefined()) continue;
    if (IsCallable(g.value)) continue;
    auto j = ScriptToJson(VmToBoxed(g.value));
    if (!j.ok()) continue;  // non-serializable state is skipped
    snapshot[g.name] = std::move(*j);
  }
  return snapshot;
}

void Vm::RestoreState(const json::Value& snapshot) {
  for (const auto& [key, value] : snapshot.AsObject()) {
    const uint16_t slot = GlobalSlot(key);
    import_memo_.clear();
    globals_[slot].value = ImportValueRec(JsonToScript(value));
    globals_[slot].is_const = false;
  }
}

// ------------------------------------------------------ host conversion

VpValue Vm::BoxedToVm(const Value& v) {
  // The memo only lives for one conversion: collections happen solely
  // at instruction boundaries, never mid-conversion, so nothing in the
  // memo needs rooting — and a persistent memo would pin every payload
  // ever imported.
  import_memo_.clear();
  return ImportValueRec(v);
}

Value Vm::VmToBoxed(VpValue v) {
  std::unordered_map<const GcObj*, Value> memo;
  return ExportValueRec(v, memo);
}

VpValue Vm::ImportValueRec(const Value& v) {
  switch (v.type()) {
    case ValueType::kUndefined:
      return VpValue::Undefined();
    case ValueType::kNull:
      return VpValue::Null();
    case ValueType::kBool:
      return VpValue::Boolean(v.AsBool());
    case ValueType::kNumber:
      return VpValue::Number(v.AsNumber());
    case ValueType::kString:
      return VpValue::Heap(NewString(v.AsString()));
    case ValueType::kObject: {
      const void* identity = v.AsObject().get();
      auto it = import_memo_.find(identity);
      if (it != import_memo_.end()) return it->second;
      GcObject* obj = NewObject();
      const VpValue out = VpValue::Heap(obj);
      import_memo_.emplace(identity, out);  // before children: cycles
      for (const auto& e : v.AsObject()->items()) {
        obj->items.push_back(
            GcObject::Entry{e.key_id, e.key, ImportValueRec(e.value)});
      }
      return out;
    }
    case ValueType::kArray: {
      const void* identity = v.AsArray().get();
      auto it = import_memo_.find(identity);
      if (it != import_memo_.end()) return it->second;
      GcArray* arr = NewArray();
      const VpValue out = VpValue::Heap(arr);
      import_memo_.emplace(identity, out);
      for (const Value& item : *v.AsArray()) {
        arr->items.push_back(ImportValueRec(item));
      }
      return out;
    }
    case ValueType::kHostFunction:
      return VpValue::Heap(NewHostFn(v.AsHostFunction()));
  }
  return VpValue::Undefined();
}

Value Vm::ExportValueRec(VpValue v,
                         std::unordered_map<const GcObj*, Value>& memo) {
  if (v.is_number()) return Value(v.AsNumber());
  if (v.is_undefined() || v.is_empty()) return Value::Undefined();
  if (v.is_null()) return Value(nullptr);
  if (v.is_bool()) return Value(v.AsBool());
  GcObj* obj = v.AsHeap();
  auto it = memo.find(obj);
  if (it != memo.end()) return it->second;
  switch (obj->type) {
    case GcType::kString:
      return Value(static_cast<GcString*>(obj)->text);
    case GcType::kArray: {
      auto out = std::make_shared<ScriptArray>();
      Value result(out);
      memo.emplace(obj, result);
      for (VpValue item : static_cast<GcArray*>(obj)->items) {
        out->push_back(ExportValueRec(item, memo));
      }
      return result;
    }
    case GcType::kObject: {
      auto out = std::make_shared<ScriptObject>();
      Value result(out);
      memo.emplace(obj, result);
      for (const auto& e : static_cast<GcObject*>(obj)->items) {
        if (e.key_id != kNoNameId) {
          out->SetInterned(e.key_id, e.key, ExportValueRec(e.value, memo));
        } else {
          out->Set(e.key, ExportValueRec(e.value, memo));
        }
      }
      return result;
    }
    case GcType::kClosure:
    case GcType::kBoundMethod: {
      // The host-side shared_ptr is invisible to the collector: pin the
      // underlying object for the life of the Vm.
      escaped_.push_back(v);
      auto host = std::make_shared<HostFunctionValue>();
      host->name = obj->type == GcType::kClosure
                       ? static_cast<GcClosure*>(obj)->proto->name
                       : static_cast<GcBoundMethod*>(obj)->name;
      Vm* vm = this;
      const VpValue callee = v;
      host->fn = [vm, callee](std::vector<Value>& args) -> Result<Value> {
        std::vector<VpValue> vm_args;
        vm_args.reserve(args.size());
        vm->import_memo_.clear();
        for (const Value& a : args) {
          vm_args.push_back(vm->ImportValueRec(a));
        }
        auto r = vm->CallValue(callee, vm_args.data(),
                               static_cast<int>(vm_args.size()), 0);
        if (!r.ok()) return r.error();
        std::unordered_map<const GcObj*, Value> export_memo;
        return vm->ExportValueRec(*r, export_memo);
      };
      Value result(std::move(host));
      memo.emplace(obj, result);
      return result;
    }
    case GcType::kHostFn:
      // Identity round trip: the same shared host function crosses back
      // unchanged (Math.random keeps its seeded Rng).
      return Value(static_cast<GcHostFn*>(obj)->host);
    case GcType::kUpvalue:
      break;  // never escapes
  }
  return Value::Undefined();
}

}  // namespace vp::script
