#include "script/value.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace vp::script {

const char* ValueTypeName(ValueType t) {
  switch (t) {
    case ValueType::kUndefined: return "undefined";
    case ValueType::kNull: return "null";
    case ValueType::kBool: return "boolean";
    case ValueType::kNumber: return "number";
    case ValueType::kString: return "string";
    case ValueType::kObject: return "object";
    case ValueType::kArray: return "array";
    case ValueType::kHostFunction: return "function";
  }
  return "?";
}

ScriptObject::Entry::Entry(uint32_t id, std::string k, Value v)
    : key_id(id), key(std::move(k)), value(std::move(v)) {}

Value* ScriptObject::Find(const std::string& key) {
  for (auto& e : items_) {
    if (e.key == key) return &e.value;
  }
  return nullptr;
}

const Value* ScriptObject::Find(const std::string& key) const {
  for (const auto& e : items_) {
    if (e.key == key) return &e.value;
  }
  return nullptr;
}

Value* ScriptObject::FindInterned(uint32_t key_id, const std::string& key) {
  for (auto& e : items_) {
    if (e.key_id == key_id) return &e.value;
    // Entry stored without an id (dynamic key / JSON interop): match by
    // spelling and upgrade so the next lookup is an integer compare.
    if (e.key_id == kNoNameId && e.key == key) {
      e.key_id = key_id;
      return &e.value;
    }
  }
  return nullptr;
}

void ScriptObject::Set(const std::string& key, Value v) {
  if (Value* existing = Find(key)) {
    *existing = std::move(v);
    return;
  }
  items_.emplace_back(kNoNameId, key, std::move(v));
}

void ScriptObject::SetInterned(uint32_t key_id, const std::string& key,
                               Value v) {
  if (Value* existing = FindInterned(key_id, key)) {
    *existing = std::move(v);
    return;
  }
  items_.emplace_back(key_id, key, std::move(v));
}

bool ScriptObject::Erase(const std::string& key) {
  for (auto it = items_.begin(); it != items_.end(); ++it) {
    if (it->key == key) {
      items_.erase(it);
      return true;
    }
  }
  return false;
}

Value Value::MakeHostFunction(std::string name, HostFunction fn) {
  auto hf = std::make_shared<HostFunctionValue>();
  hf->name = std::move(name);
  hf->fn = std::move(fn);
  return Value(std::move(hf));
}

bool Value::TruthySlow() const {
  switch (type()) {
    case ValueType::kUndefined:
    case ValueType::kNull:
      return false;
    case ValueType::kString:
      return !AsString().empty();
    default:
      return true;  // bool/number handled inline in Truthy()
  }
}

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

std::string Value::ToDisplayString() const {
  switch (type()) {
    case ValueType::kUndefined: return "undefined";
    case ValueType::kNull: return "null";
    case ValueType::kBool: return AsBool() ? "true" : "false";
    case ValueType::kNumber: return NumberToString(AsNumber());
    case ValueType::kString: return AsString();
    case ValueType::kObject: {
      std::string out = "{";
      bool first = true;
      for (const auto& e : AsObject()->items()) {
        if (!first) out += ", ";
        first = false;
        out += e.key + ": " +
               (e.value.is_string() ? "\"" + e.value.AsString() + "\""
                                    : e.value.ToDisplayString());
      }
      return out + "}";
    }
    case ValueType::kArray: {
      std::string out = "[";
      bool first = true;
      for (const auto& v : *AsArray()) {
        if (!first) out += ", ";
        first = false;
        out += v.is_string() ? "\"" + v.AsString() + "\""
                             : v.ToDisplayString();
      }
      return out + "]";
    }
    case ValueType::kHostFunction:
      return "function " + AsHostFunction()->name + "() { [native] }";
  }
  return "?";
}

double Value::ToNumberSlow() const {
  switch (type()) {
    case ValueType::kUndefined: return std::nan("");
    case ValueType::kNull: return 0.0;
    case ValueType::kBool: return AsBool() ? 1.0 : 0.0;
    case ValueType::kNumber: return AsNumber();  // unreachable via ToNumber()
    case ValueType::kString: {
      const std::string& s = AsString();
      if (s.empty()) return 0.0;
      char* end = nullptr;
      const double v = std::strtod(s.c_str(), &end);
      // Trailing whitespace is tolerated; other junk → NaN.
      while (end && *end == ' ') ++end;
      if (end != s.c_str() + s.size()) return std::nan("");
      return v;
    }
    default:
      return std::nan("");
  }
}

bool Value::StrictEquals(const Value& o) const {
  if (type() != o.type()) return false;
  switch (type()) {
    case ValueType::kUndefined:
    case ValueType::kNull:
      return true;
    case ValueType::kBool:
      return AsBool() == o.AsBool();
    case ValueType::kNumber:
      return AsNumber() == o.AsNumber();
    case ValueType::kString:
      return AsString() == o.AsString();
    case ValueType::kObject:
      return AsObject() == o.AsObject();
    case ValueType::kArray:
      return AsArray() == o.AsArray();
    case ValueType::kHostFunction:
      return AsHostFunction() == o.AsHostFunction();
  }
  return false;
}

bool Value::LooseEquals(const Value& o) const {
  if (type() == o.type()) return StrictEquals(o);
  if (is_nullish() && o.is_nullish()) return true;
  // number <-> string coercion
  if ((is_number() && o.is_string()) || (is_string() && o.is_number())) {
    return ToNumber() == o.ToNumber();
  }
  // bool coerces to number
  if (is_bool()) return Value(ToNumber()).LooseEquals(o);
  if (o.is_bool()) return LooseEquals(Value(o.ToNumber()));
  return false;
}

}  // namespace vp::script
