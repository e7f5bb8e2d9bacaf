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
#include <cstdio>
#include <cstdlib>
#include <optional>

#include "common/strings.hpp"
#include "json/parse.hpp"

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

static_assert(kMaxValueDepth <= json::kMaxParseDepth,
              "everything ToJson emits must parse back");

// ----------------------------------------------------- GcObject lookup
// Insertion order (for-in and display iterate it). Entries stored
// without an id (dynamic keys, JSON) are matched by spelling and
// upgraded, so the next interned lookup is an integer compare.

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

constexpr uint8_t kNoMethod = 0xff;

/// The native method names of one receiver type, with their interned
/// ids: members read through resolved code compare integers.
template <size_t N>
class MethodTable {
 public:
  explicit MethodTable(std::array<const char*, N> names) : names_(names) {
    for (size_t i = 0; i < N; ++i) {
      ids_[i] = Interner::Global().Intern(names_[i]);
    }
  }

  /// Ordinal of `name`, or kNoMethod.
  uint8_t Find(const GcString* name) const {
    for (uint8_t i = 0; i < N; ++i) {
      if (name->name_id != kNoNameId ? ids_[i] == name->name_id
                                     : name->text == names_[i]) {
        return i;
      }
    }
    return kNoMethod;
  }
  const char* name(uint8_t i) const { return names_[i]; }

 private:
  std::array<const char*, N> names_;
  std::array<uint32_t, N> ids_{};
};

/// Array builtin ordinals, in ArrayMethods() order.
enum class ArrMethod : uint8_t {
  kPush, kPop, kShift, kUnshift, kSlice, kJoin, kIndexOf, kConcat,
  kMap, kFilter, kForEach, kReverse, kIncludes, kSort, kReduce,
};

const MethodTable<15>& ArrayMethods() {
  static const MethodTable<15> table({
      "push", "pop", "shift", "unshift", "slice", "join", "indexOf",
      "concat", "map", "filter", "forEach", "reverse", "includes", "sort",
      "reduce"});
  return table;
}

/// String builtin ordinals, in StringMethods() order.
enum class StrMethod : uint8_t {
  kSubstring, kSlice, kIndexOf, kSplit, kToUpperCase, kToLowerCase,
  kCharAt, kStartsWith, kEndsWith, kTrim, kReplace, kRepeat, kPadStart,
};

const MethodTable<13>& StringMethods() {
  static const MethodTable<13> table({
      "substring", "slice", "indexOf", "split", "toUpperCase",
      "toLowerCase", "charAt", "startsWith", "endsWith", "trim", "replace",
      "repeat", "padStart"});
  return table;
}

/// Native method ordinal for `name` on `receiver`, or kNoMethod.
uint8_t MethodOf(VpValue receiver, const GcString* name) {
  if (receiver.IsHeapType(GcType::kArray)) return ArrayMethods().Find(name);
  if (receiver.IsHeapType(GcType::kString)) {
    return StringMethods().Find(name);
  }
  return kNoMethod;
}

const char* MethodName(VpValue receiver, uint8_t method) {
  return receiver.IsHeapType(GcType::kArray) ? ArrayMethods().name(method)
                                             : StringMethods().name(method);
}

bool IsCallable(VpValue v) {
  return v.IsHeapType(GcType::kClosure) || v.IsHeapType(GcType::kHostFn) ||
         v.IsHeapType(GcType::kBoundMethod);
}

/// Script-visible type of a value: coercion rules and type names.
enum class Kind { kUndefined, kNull, kBool, kNumber, kString, kObject,
                  kArray, kFunction };

Kind KindOf(VpValue v) {
  if (v.is_number()) return Kind::kNumber;
  if (v.is_bool()) return Kind::kBool;
  if (v.is_null()) return Kind::kNull;
  if (v.is_heap()) {
    switch (v.AsHeap()->type) {
      case GcType::kString: return Kind::kString;
      case GcType::kArray: return Kind::kArray;
      case GcType::kObject: return Kind::kObject;
      case GcType::kClosure:
      case GcType::kHostFn:
      case GcType::kBoundMethod: return Kind::kFunction;
      case GcType::kUpvalue: break;  // never script-visible
    }
  }
  return Kind::kUndefined;  // undefined / empty sentinel
}

const char* TypeofName(VpValue v) {
  const Kind k = KindOf(v);
  if (k == Kind::kArray || k == Kind::kNull) return "object";
  return Vm::TypeName(v);
}

/// Number formatting: "NaN", "Infinity", integers up to 1e15 without
/// exponent, %g otherwise.
std::string NumberToString(double d) {
  if (std::isnan(d)) return "NaN";
  if (std::isinf(d)) return d > 0 ? "Infinity" : "-Infinity";
  if (d == std::floor(d) && std::abs(d) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(d));
    return buf;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%g", d);
  return buf;
}

Error StringTooLong() {
  return ScriptError(Format("string longer than %zu bytes", kMaxStringLength));
}

Error ArrayTooLong() {
  return ScriptError(
      Format("array longer than %zu elements", kMaxArrayLength));
}

/// Whether growing an array of `size` by `more` stays within the bound.
bool ArrayFits(size_t size, size_t more) {
  return size <= kMaxArrayLength && more <= kMaxArrayLength - size;
}

/// `ancestors` holds the containers enclosing the one being converted.
bool IsAncestor(const std::vector<const GcObj*>& ancestors,
                const GcObj* obj) {
  return std::find(ancestors.begin(), ancestors.end(), obj) !=
         ancestors.end();
}

/// Display of `v` nested inside a container, appended to `out`.
void AppendDisplay(std::string& out, VpValue v,
                   std::vector<const GcObj*>& ancestors) {
  if (out.size() > kMaxStringLength) return;
  if (v.is_string()) {
    out += '"';
    out += v.AsString();
    out += '"';
    return;
  }
  if (!v.IsHeapType(GcType::kArray) && !v.IsHeapType(GcType::kObject)) {
    out += Vm::ToDisplayString(v);
    return;
  }
  const GcObj* obj = v.AsHeap();
  if (ancestors.size() >= static_cast<size_t>(kMaxValueDepth) ||
      IsAncestor(ancestors, obj)) {
    out += "[...]";
    return;
  }
  ancestors.push_back(obj);
  bool first = true;
  if (obj->type == GcType::kObject) {
    out += '{';
    for (const auto& e : static_cast<const GcObject*>(obj)->items) {
      if (!first) out += ", ";
      first = false;
      out += e.key;
      out += ": ";
      AppendDisplay(out, e.value, ancestors);
      if (out.size() > kMaxStringLength) break;
    }
    out += '}';
  } else {
    out += '[';
    for (VpValue item : static_cast<const GcArray*>(obj)->items) {
      if (!first) out += ", ";
      first = false;
      AppendDisplay(out, item, ancestors);
      if (out.size() > kMaxStringLength) break;
    }
    out += ']';
  }
  ancestors.pop_back();
}

/// One bounded ToJson conversion (see kMaxConversionWork). Convert
/// recurses once per container level on the caller's (possibly fiber)
/// stack, so it writes into its output in place and leaves every
/// temporary to helpers: the recursive frame stays a few words.
class JsonConversion {
 public:
  /// Convert `v` into `*out` (null on entry); false once the
  /// conversion failed, with the reason in error().
  bool Convert(VpValue v, json::Value* out) {
    if (!Admit(v)) return false;
    if (v.IsHeapType(GcType::kArray)) {
      const auto& items = static_cast<const GcArray*>(v.AsHeap())->items;
      json::Value::Array& arr = MakeArray(out, items.size());
      for (size_t i = 0; i < items.size(); ++i) {
        if (!Convert(items[i], &arr[i])) return false;
      }
    } else if (v.IsHeapType(GcType::kObject)) {
      // A GcObject's keys are unique: append them, with no lookup.
      const auto& items = static_cast<const GcObject*>(v.AsHeap())->items;
      json::Value::Object& fields = MakeObject(out, items.size());
      for (const auto& e : items) {
        work_ += e.key.size();  // checked by the value's Admit
        if (!Convert(e.value, &fields.Append(e.key))) return false;
      }
    } else {
      SetScalar(v, out);
      return true;
    }
    ancestors_.pop_back();
    return true;
  }

  const Error& error() const { return *error_; }

 private:
  /// Charge `v`'s visit and check every bound; a container that passes
  /// is pushed on the ancestor chain.
  bool Admit(VpValue v) {
    work_ += 32 + (v.is_string() ? v.AsString().size() : 0);
    if (work_ > kMaxConversionWork) {
      return Fail("value too large to serialize to JSON");
    }
    if (!v.is_heap() || v.is_string()) return true;
    const GcObj* obj = v.AsHeap();
    if (obj->type != GcType::kArray && obj->type != GcType::kObject) {
      return Fail("cannot serialize a function to JSON");
    }
    if (ancestors_.size() >= static_cast<size_t>(kMaxValueDepth)) {
      return Fail(Format("cannot serialize JSON nested deeper than %d",
                         kMaxValueDepth));
    }
    if (IsAncestor(ancestors_, obj)) {
      return Fail("cannot serialize a cyclic value to JSON");
    }
    ancestors_.push_back(obj);
    return true;
  }

  bool Fail(std::string what) {
    error_.emplace(StatusCode::kScriptError, std::move(what));
    return false;
  }

  static json::Value::Array& MakeArray(json::Value* out, size_t size) {
    *out = json::Value(json::Value::Array(size));
    return out->AsArray();
  }
  static json::Value::Object& MakeObject(json::Value* out, size_t size) {
    *out = json::Value::MakeObject();
    json::Value::Object& fields = out->AsObject();
    fields.reserve(size);
    return fields;
  }
  static void SetScalar(VpValue v, json::Value* out) {
    if (v.is_number()) {
      *out = json::Value(v.AsNumber());
    } else if (v.is_bool()) {
      *out = json::Value(v.AsBool());
    } else if (v.is_string()) {
      *out = json::Value(v.AsString());
    }  // undefined and null stay null
  }

  std::vector<const GcObj*> ancestors_;
  size_t work_ = 0;
  std::optional<Error> error_;
};

/// ToNumber of a string: "" is 0, trailing spaces are tolerated, any
/// other junk is NaN.
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

GcHostFn* Vm::NewHostFn(std::string name, HostFunction fn) {
  auto* obj = new GcHostFn(std::move(name), std::move(fn));
  TrackAllocation(obj, ApproxSize(obj));
  return obj;
}

GcBoundMethod* Vm::NewBoundMethod(VpValue receiver, uint8_t method,
                                  const char* name) {
  auto* obj = new GcBoundMethod();
  obj->receiver = receiver;
  obj->method = method;
  obj->name = name;
  TrackAllocation(obj, ApproxSize(obj));
  return obj;
}

Result<VpValue> Vm::MakeString(std::string s) {
  if (s.size() > kMaxStringLength) return StringTooLong();
  return VpValue::Heap(NewString(std::move(s)));
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

int64_t Vm::ToInteger(VpValue v) {
  constexpr double kLimit = 9007199254740992.0;  // 2^53
  const double d = ToNumber(v);
  if (std::isnan(d)) return 0;
  return static_cast<int64_t>(std::clamp(std::trunc(d), -kLimit, kLimit));
}

bool Vm::StrictEquals(VpValue a, VpValue b) {
  if (a.is_number() || b.is_number()) {
    return a.is_number() && b.is_number() && a.AsNumber() == b.AsNumber();
  }
  if (a.is_string() && b.is_string()) return a.AsString() == b.AsString();
  return a.bits == b.bits;  // singletons; other heap values by identity
}

bool Vm::LooseEquals(VpValue a, VpValue b) {
  const Kind ka = KindOf(a);
  const Kind kb = KindOf(b);
  if (ka == kb) return StrictEquals(a, b);
  if (a.is_nullish() && b.is_nullish()) return true;
  if ((ka == Kind::kNumber && kb == Kind::kString) ||
      (ka == Kind::kString && kb == Kind::kNumber)) {
    return ToNumber(a) == ToNumber(b);
  }
  if (ka == Kind::kBool) {
    return LooseEquals(VpValue::Number(ToNumber(a)), b);
  }
  if (kb == Kind::kBool) {
    return LooseEquals(a, VpValue::Number(ToNumber(b)));
  }
  return false;
}

bool Vm::Compare(Op op, VpValue a, VpValue b) {
  if (a.is_string() && b.is_string()) {
    const int cmp = a.AsString().compare(b.AsString());
    return op == Op::kLt   ? cmp < 0
           : op == Op::kLe ? cmp <= 0
           : op == Op::kGt ? cmp > 0
                           : cmp >= 0;
  }
  const double x = ToNumber(a);
  const double y = ToNumber(b);
  return op == Op::kLt   ? x < y
         : op == Op::kLe ? x <= y
         : op == Op::kGt ? x > y
                         : x >= y;
}

const char* Vm::TypeName(VpValue v) {
  switch (KindOf(v)) {
    case Kind::kUndefined: return "undefined";
    case Kind::kNull: return "null";
    case Kind::kBool: return "boolean";
    case Kind::kNumber: return "number";
    case Kind::kString: return "string";
    case Kind::kObject: return "object";
    case Kind::kArray: return "array";
    case Kind::kFunction: return "function";
  }
  return "?";
}

std::string Vm::ToDisplayString(VpValue v) {
  if (v.is_number()) return NumberToString(v.AsNumber());
  if (v.is_undefined() || v.is_empty()) return "undefined";
  if (v.is_null()) return "null";
  if (v.is_bool()) return v.AsBool() ? "true" : "false";
  const GcObj* obj = v.AsHeap();
  switch (obj->type) {
    case GcType::kString:
      return v.AsString();
    case GcType::kObject:
    case GcType::kArray: {
      std::string out;
      std::vector<const GcObj*> ancestors;
      AppendDisplay(out, v, ancestors);
      return out;
    }
    case GcType::kClosure:
      return "function " + static_cast<const GcClosure*>(obj)->proto->name +
             "() { … }";
    case GcType::kHostFn:
      return "function " + static_cast<const GcHostFn*>(obj)->name +
             "() { [native] }";
    case GcType::kBoundMethod:
      return std::string("function ") +
             static_cast<const GcBoundMethod*>(obj)->name + "() { [native] }";
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
  VpValue out;
  if (callee.IsHeapType(GcType::kHostFn)) {
    const std::span<const VpValue> args(
        &stack_[sp_ - static_cast<size_t>(argc)], static_cast<size_t>(argc));
    auto r = static_cast<GcHostFn*>(callee.AsHeap())->fn(*this, args);
    if (!r.ok()) return r.status();
    out = *r;
  } else if (callee.IsHeapType(GcType::kBoundMethod)) {
    auto* bm = static_cast<GcBoundMethod*>(callee.AsHeap());
    Status s = InvokeMethod(bm->receiver, bm->method, argc, line, &out);
    if (!s.ok()) return s;
  } else {
    return Status(StatusCode::kScriptError,
                  std::string("attempt to call a ") + TypeName(callee));
  }
  sp_ -= static_cast<size_t>(argc) + 1;
  Push(out);
  return Status::Ok();
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

// ------------------------------------------------------ native methods
// Array and string builtins operate on VM values in place. Arguments
// live on the VM stack (rooted across reentrant callbacks).

Status Vm::InvokeMethod(VpValue receiver, uint8_t method, int argc,
                        int line, VpValue* out) {
  GcObj* target = receiver.AsHeap();
  if (target->type == GcType::kArray) {
    return InvokeArrayMethod(static_cast<GcArray*>(target), method, argc,
                             line, out);
  }
  return InvokeStringMethod(static_cast<GcString*>(target), method, argc,
                            out);
}

Status Vm::InvokeArrayMethod(GcArray* arr, uint8_t method, int argc,
                             int line, VpValue* out) {
  const size_t args_base = sp_ - static_cast<size_t>(argc);
  auto arg = [&](int i) { return stack_[args_base + static_cast<size_t>(i)]; };
  switch (static_cast<ArrMethod>(method)) {
    case ArrMethod::kPush: {
      if (!ArrayFits(arr->items.size(), static_cast<size_t>(argc))) {
        return Status(ArrayTooLong());
      }
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
      if (!ArrayFits(arr->items.size(), static_cast<size_t>(argc))) {
        return Status(ArrayTooLong());
      }
      arr->items.insert(arr->items.begin(), &stack_[args_base],
                        &stack_[args_base] + argc);
      *out = VpValue::Number(static_cast<double>(arr->items.size()));
      return Status::Ok();
    }
    case ArrMethod::kSlice: {
      int64_t n = static_cast<int64_t>(arr->items.size());
      int64_t a = argc > 0 ? ToInteger(arg(0)) : 0;
      int64_t b = argc > 1 ? ToInteger(arg(1)) : n;
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
        if (joined.size() > kMaxStringLength) return Status(StringTooLong());
      }
      auto r = MakeString(std::move(joined));
      if (!r.ok()) return r.status();
      *out = *r;
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
      size_t length = arr->items.size();
      for (int i = 0; i < argc; ++i) {
        const VpValue v = arg(i);
        const size_t more =
            v.IsHeapType(GcType::kArray)
                ? static_cast<GcArray*>(v.AsHeap())->items.size()
                : 1;
        if (!ArrayFits(length, more)) return Status(ArrayTooLong());
        length += more;
      }
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

Status Vm::InvokeStringMethod(const GcString* str, uint8_t method, int argc,
                              VpValue* out) {
  const std::string& s = str->text;
  const size_t args_base = sp_ - static_cast<size_t>(argc);
  auto arg = [&](int i) { return stack_[args_base + static_cast<size_t>(i)]; };
  auto text = [&](std::string t) {
    auto r = MakeString(std::move(t));
    if (r.ok()) *out = *r;
    return r.status();
  };
  const int64_t n = static_cast<int64_t>(s.size());
  switch (static_cast<StrMethod>(method)) {
    case StrMethod::kSubstring:
    case StrMethod::kSlice: {
      const bool is_slice = static_cast<StrMethod>(method) == StrMethod::kSlice;
      int64_t a = argc > 0 ? ToInteger(arg(0)) : 0;
      int64_t b = argc > 1 ? ToInteger(arg(1)) : n;
      if (is_slice) {  // negative indexes count from the end
        if (a < 0) a += n;
        if (b < 0) b += n;
      }
      a = std::clamp<int64_t>(a, 0, n);
      b = std::clamp<int64_t>(b, 0, n);
      if (!is_slice && a > b) std::swap(a, b);
      if (a >= b) return text(std::string());
      return text(s.substr(static_cast<size_t>(a), static_cast<size_t>(b - a)));
    }
    case StrMethod::kIndexOf: {
      const size_t pos =
          argc == 0 ? std::string::npos : s.find(ToDisplayString(arg(0)));
      *out = VpValue::Number(pos == std::string::npos
                                 ? -1.0
                                 : static_cast<double>(pos));
      return Status::Ok();
    }
    case StrMethod::kSplit: {
      GcArray* parts = NewArray();
      *out = VpValue::Heap(parts);
      if (argc == 0 || !arg(0).is_string() || arg(0).AsString().empty()) {
        parts->items.push_back(VpValue::Heap(NewString(s)));
        return Status::Ok();
      }
      const std::string& sep = arg(0).AsString();
      size_t start = 0;
      while (true) {
        if (parts->items.size() == kMaxArrayLength) {
          return Status(ArrayTooLong());
        }
        const size_t pos = s.find(sep, start);
        if (pos == std::string::npos) {
          parts->items.push_back(VpValue::Heap(NewString(s.substr(start))));
          return Status::Ok();
        }
        parts->items.push_back(
            VpValue::Heap(NewString(s.substr(start, pos - start))));
        start = pos + sep.size();
      }
    }
    case StrMethod::kToUpperCase:
    case StrMethod::kToLowerCase: {
      const bool upper =
          static_cast<StrMethod>(method) == StrMethod::kToUpperCase;
      std::string t = s;
      for (char& c : t) {
        c = static_cast<char>(upper ? std::toupper(static_cast<unsigned char>(c))
                                    : std::tolower(static_cast<unsigned char>(c)));
      }
      return text(std::move(t));
    }
    case StrMethod::kCharAt: {
      const int64_t i = argc > 0 ? ToInteger(arg(0)) : 0;
      if (i < 0 || i >= n) return text(std::string());
      return text(std::string(1, s[static_cast<size_t>(i)]));
    }
    case StrMethod::kStartsWith:
    case StrMethod::kEndsWith: {
      if (argc == 0) {
        *out = VpValue::Boolean(false);
        return Status::Ok();
      }
      const std::string p = ToDisplayString(arg(0));
      *out = VpValue::Boolean(
          static_cast<StrMethod>(method) == StrMethod::kStartsWith
              ? StartsWith(s, p)
              : EndsWith(s, p));
      return Status::Ok();
    }
    case StrMethod::kTrim:
      return text(std::string(Trim(s)));
    case StrMethod::kReplace: {  // first occurrence, plain-string pattern
      if (argc < 2) return text(s);
      const std::string pattern = ToDisplayString(arg(0));
      const std::string replacement = ToDisplayString(arg(1));
      const size_t pos = pattern.empty() ? std::string::npos : s.find(pattern);
      if (pos == std::string::npos) return text(s);
      if (s.size() - pattern.size() + replacement.size() > kMaxStringLength) {
        return Status(StringTooLong());
      }
      std::string t = s;
      t.replace(pos, pattern.size(), replacement);
      return text(std::move(t));
    }
    case StrMethod::kRepeat: {
      const int64_t count = argc > 0 ? ToInteger(arg(0)) : 0;
      if (count < 0) return Status(ScriptError("repeat count out of range"));
      if (s.empty()) return text(std::string());
      if (static_cast<uint64_t>(count) > kMaxStringLength / s.size()) {
        return Status(StringTooLong());
      }
      std::string t;
      t.reserve(s.size() * static_cast<size_t>(count));
      for (int64_t i = 0; i < count; ++i) t += s;
      return text(std::move(t));
    }
    case StrMethod::kPadStart: {
      const int64_t width = argc > 0 ? ToInteger(arg(0)) : 0;
      const std::string pad = argc > 1 ? ToDisplayString(arg(1)) : " ";
      if (pad.empty() || width <= n) return text(s);
      if (static_cast<uint64_t>(width) > kMaxStringLength) {
        return Status(StringTooLong());
      }
      std::string t;
      while (t.size() + s.size() < static_cast<size_t>(width)) t += pad;
      t.resize(static_cast<size_t>(width) - s.size());
      return text(t + s);
    }
  }
  return Status(ScriptError("unknown string method"));
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
  if (obj.IsHeapType(GcType::kArray) || obj.IsHeapType(GcType::kString)) {
    if (name->text == "length") {
      return VpValue::Number(static_cast<double>(
          obj.is_string() ? obj.AsString().size()
                          : static_cast<GcArray*>(obj.AsHeap())->items.size()));
    }
    const uint8_t method = MethodOf(obj, name);
    if (method != kNoMethod) {
      // Fresh per access: two reads are two distinct functions.
      return VpValue::Heap(
          NewBoundMethod(obj, method, MethodName(obj, method)));
    }
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
            if (std::isnan(ToNumber(index))) {
              err = Raise(line, "array index is NaN");
              goto unwind;
            }
            const int64_t i = ToInteger(index);
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
            const int64_t i =
                std::isnan(ToNumber(index)) ? -1 : ToInteger(index);
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
            const size_t i = static_cast<size_t>(ToInteger(index));
            if (i >= arr->items.size()) {
              if (i >= kMaxArrayLength) {
                err = Raise(line, ArrayTooLong().message());
                goto unwind;
              }
              arr->items.resize(i + 1);
            }
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
          } else if (a.is_string() || b.is_string()) {
            std::string joined = ToDisplayString(a);
            const std::string tail = ToDisplayString(b);
            if (joined.size() + tail.size() > kMaxStringLength) {
              err = Raise(line_at(), StringTooLong().message());
              goto unwind;
            }
            joined += tail;
            Push(VpValue::Heap(NewString(std::move(joined))));
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
          Push(VpValue::Boolean(Compare(op, a, b)));
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
          if (const uint8_t method = MethodOf(receiver, name);
              method != kNoMethod) {
            // Fused native dispatch: no bound-method allocation.
            VpValue invoke_out;
            steps_used_ = steps;
            Status s = InvokeMethod(receiver, method, argc, line, &invoke_out);
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
          if (receiver.IsHeapType(GcType::kObject)) {
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

void Vm::DefineGlobal(const std::string& name, VpValue v, bool baseline) {
  const uint16_t slot = GlobalSlot(name);
  globals_[slot].value = v;
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

bool Vm::GlobalIsFunction(const std::string& name) const {
  return IsCallable(GetGlobal(name));
}

VpValue Vm::GetGlobal(const std::string& name) const {
  const uint32_t id = Interner::Global().Lookup(name);
  if (id == kNoNameId) return VpValue::Undefined();
  auto it = global_index_.find(id);
  if (it == global_index_.end()) return VpValue::Undefined();
  const VpValue v = globals_[it->second].value;
  return v.is_empty() ? VpValue::Undefined() : v;
}

Result<VpValue> Vm::CallGlobal(const std::string& name,
                               std::span<const VpValue> args) {
  const VpValue fn = GetGlobal(name);
  if (!IsCallable(fn)) {
    return NotFound("no function '" + name + "' in module");
  }
  const size_t entry_sp = sp_;
  const size_t base_frames = frames_.size();
  if (sp_ + args.size() + 1 > kStackCapacity) {
    return Error(StatusCode::kScriptError, "stack overflow");
  }
  Push(fn);
  for (VpValue a : args) Push(a);
  depth_base_ = frames_.size();  // the called function is depth 1
  const int argc = static_cast<int>(args.size());
  Status s;
  if (fn.IsHeapType(GcType::kClosure)) {
    s = PushFrame(fn, argc, 0);
    if (s.ok()) s = Run(base_frames);
  } else {
    s = CallNonClosure(fn, argc, 0);
  }
  if (!s.ok()) {
    CloseUpvalues(&stack_[entry_sp]);
    sp_ = entry_sp;
    frames_.resize(base_frames);
    return s.error();
  }
  return Pop();
}

json::Value Vm::SnapshotState() {
  json::Value snapshot = json::Value::MakeObject();
  // Slot order is definition order (hoisted functions first, then
  // vars — see CompileProgram).
  for (const GlobalSlotData& g : globals_) {
    if (g.baseline || g.value.is_empty() || g.value.is_undefined()) continue;
    if (IsCallable(g.value)) continue;
    auto j = ToJson(g.value);
    if (!j.ok()) continue;  // non-serializable state is skipped
    snapshot[g.name] = std::move(*j);
  }
  return snapshot;
}

void Vm::RestoreState(const json::Value& snapshot) {
  for (const auto& [key, value] : snapshot.AsObject()) {
    const uint16_t slot = GlobalSlot(key);
    globals_[slot].value = FromJson(value);
    globals_[slot].is_const = false;
  }
}

// ---------------------------------------------------------------- JSON

Result<json::Value> Vm::ToJson(VpValue v) const {
  JsonConversion conversion;
  json::Value out;
  if (!conversion.Convert(v, &out)) return conversion.error();
  return out;
}

VpValue Vm::FromJson(const json::Value& j) {
  switch (j.type()) {
    case json::Type::kNull: return VpValue::Null();
    case json::Type::kBool: return VpValue::Boolean(j.AsBool());
    case json::Type::kNumber: return VpValue::Number(j.AsDouble());
    case json::Type::kString: return VpValue::Heap(NewString(j.AsString()));
    case json::Type::kArray: {
      GcArray* arr = NewArray();
      arr->items.reserve(j.AsArray().size());
      for (const json::Value& item : j.AsArray()) {
        arr->items.push_back(FromJson(item));
      }
      return VpValue::Heap(arr);
    }
    case json::Type::kObject: {
      GcObject* obj = NewObject();
      obj->items.reserve(j.AsObject().size());
      for (const auto& [key, item] : j.AsObject()) {
        obj->items.push_back(GcObject::Entry{kNoNameId, key, FromJson(item)});
      }
      return VpValue::Heap(obj);
    }
  }
  return VpValue::Null();
}

}  // namespace vp::script
