// vpscript runtime values.
//
// The boxed Value is the host-side representation: what host functions
// receive and return, what Context::Call/GetGlobal exchange with C++
// code, and what snapshots convert to and from JSON. Values have
// JavaScript-like semantics: numbers are doubles, objects and arrays
// are reference types (shared). Host functions let the VideoPipe
// runtime expose the paper's Table-1 API (call_service / call_module /
// …) to module code; script closures crossing to the host are wrapped
// as host functions too (vm.hpp).
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "common/error.hpp"
#include "script/intern.hpp"

namespace vp::script {

class Value;
class ScriptObject;

using ScriptArray = std::vector<Value>;

/// A C++ function exposed to scripts.
using HostFunction = std::function<Result<Value>(std::vector<Value>& args)>;

struct HostFunctionValue {
  std::string name;
  HostFunction fn;
};

enum class ValueType {
  kUndefined, kNull, kBool, kNumber, kString, kObject, kArray,
  kHostFunction,
};

const char* ValueTypeName(ValueType t);

/// Number formatting shared by the boxed and the VM value ("NaN",
/// "Infinity", integers up to 1e15 without exponent, %g otherwise) —
/// display output must not depend on which side formats it.
std::string NumberToString(double d);

class Value {
 public:
  Value() : data_(std::monostate{}) {}  // undefined
  Value(std::nullptr_t) : data_(nullptr) {}
  Value(bool b) : data_(b) {}
  Value(double d) : data_(d) {}
  Value(int i) : data_(static_cast<double>(i)) {}
  Value(const char* s) : data_(std::string(s)) {}
  Value(std::string s) : data_(std::move(s)) {}
  Value(std::shared_ptr<ScriptObject> o) : data_(std::move(o)) {}
  Value(std::shared_ptr<ScriptArray> a) : data_(std::move(a)) {}
  Value(std::shared_ptr<HostFunctionValue> h) : data_(std::move(h)) {}

  static Value Undefined() { return Value(); }
  static Value MakeObject() {
    return Value(std::make_shared<ScriptObject>());
  }
  static Value MakeArray() { return Value(std::make_shared<ScriptArray>()); }
  static Value MakeHostFunction(std::string name, HostFunction fn);

  /// The variant's alternatives are declared in ValueType order, so
  /// the tag maps straight through — keep both lists in sync.
  ValueType type() const { return static_cast<ValueType>(data_.index()); }
  bool is_undefined() const { return type() == ValueType::kUndefined; }
  bool is_null() const { return type() == ValueType::kNull; }
  bool is_nullish() const { return is_undefined() || is_null(); }
  bool is_bool() const { return type() == ValueType::kBool; }
  bool is_number() const { return type() == ValueType::kNumber; }
  bool is_string() const { return type() == ValueType::kString; }
  bool is_object() const { return type() == ValueType::kObject; }
  bool is_array() const { return type() == ValueType::kArray; }
  bool is_function() const { return type() == ValueType::kHostFunction; }

  bool AsBool() const { return std::get<bool>(data_); }
  double AsNumber() const { return std::get<double>(data_); }
  const std::string& AsString() const { return std::get<std::string>(data_); }
  const std::shared_ptr<ScriptObject>& AsObject() const {
    return std::get<std::shared_ptr<ScriptObject>>(data_);
  }
  const std::shared_ptr<ScriptArray>& AsArray() const {
    return std::get<std::shared_ptr<ScriptArray>>(data_);
  }
  const std::shared_ptr<HostFunctionValue>& AsHostFunction() const {
    return std::get<std::shared_ptr<HostFunctionValue>>(data_);
  }

  /// JS truthiness. Bool/number inline (loop conditions); the
  /// remaining types go out of line.
  bool Truthy() const {
    if (is_bool()) return AsBool();
    if (is_number()) {
      const double d = AsNumber();
      return d != 0.0 && d == d;  // NaN is falsy
    }
    return TruthySlow();
  }

  /// Abstract ToString (used by `+` concatenation and console.log).
  std::string ToDisplayString() const;

  /// ToNumber coercion: true→1, "12"→12, null→0, undefined→NaN, …
  double ToNumber() const {
    if (is_number()) return AsNumber();
    return ToNumberSlow();
  }

  /// Strict equality (===). Objects/arrays compare by identity.
  bool StrictEquals(const Value& o) const;

  /// Loose equality (==): strict, plus null == undefined and
  /// number/string cross-coercion.
  bool LooseEquals(const Value& o) const;

 private:
  bool TruthySlow() const;
  double ToNumberSlow() const;

  std::variant<std::monostate, std::nullptr_t, bool, double, std::string,
               std::shared_ptr<ScriptObject>, std::shared_ptr<ScriptArray>,
               std::shared_ptr<HostFunctionValue>>
      data_;
};

/// Insertion-ordered property map (for-in iterates in insertion order).
/// Properties written through resolved member accesses / object
/// literals carry an interned key id, so lookups from resolved code
/// compare integers; dynamically-computed keys (`obj[k] = v`, JSON
/// interop) stay plain strings and are matched by string comparison.
class ScriptObject {
 public:
  struct Entry {
    uint32_t key_id = kNoNameId;
    std::string key;
    Value value;
    Entry(uint32_t id, std::string k, Value v);
  };

  Value* Find(const std::string& key);
  const Value* Find(const std::string& key) const;
  /// Fast path for pre-interned keys. `key` is the spelling of
  /// `key_id`, used to match entries stored without an id.
  Value* FindInterned(uint32_t key_id, const std::string& key);
  void Set(const std::string& key, Value v);
  void SetInterned(uint32_t key_id, const std::string& key, Value v);
  bool Erase(const std::string& key);
  size_t size() const { return items_.size(); }
  const std::vector<Entry>& items() const { return items_; }

 private:
  std::vector<Entry> items_;
};

}  // namespace vp::script
