#include "json/value.hpp"

#include <cassert>
#include <tuple>

#include "json/write.hpp"

namespace vp::json {

const char* TypeName(Type t) {
  switch (t) {
    case Type::kNull: return "null";
    case Type::kBool: return "bool";
    case Type::kNumber: return "number";
    case Type::kString: return "string";
    case Type::kArray: return "array";
    case Type::kObject: return "object";
  }
  return "?";
}

Value& Value::Object::operator[](const std::string& key) {
  for (auto& [k, v] : items_) {
    if (k == key) return v;
  }
  items_.emplace_back(key, Value());
  return items_.back().second;
}

const Value* Value::Object::Find(const std::string& key) const {
  for (const auto& [k, v] : items_) {
    if (k == key) return &v;
  }
  return nullptr;
}

Value* Value::Object::Find(const std::string& key) {
  for (auto& [k, v] : items_) {
    if (k == key) return &v;
  }
  return nullptr;
}

Value& Value::Object::Append(std::string_view key) {
  assert(Find(std::string(key)) == nullptr && "Append: duplicate key");
  return items_
      .emplace_back(std::piecewise_construct, std::forward_as_tuple(key),
                    std::forward_as_tuple())
      .second;
}

bool Value::Object::Erase(const std::string& key) {
  for (auto it = items_.begin(); it != items_.end(); ++it) {
    if (it->first == key) {
      items_.erase(it);
      return true;
    }
  }
  return false;
}

bool Value::Object::operator==(const Object& o) const {
  return items_ == o.items_;
}

Type Value::type() const {
  switch (data_.index()) {
    case 0: return Type::kNull;
    case 1: return Type::kBool;
    case 2: return Type::kNumber;
    case 3: return Type::kString;
    case 4: return Type::kArray;
    default: return Type::kObject;
  }
}

bool Value::GetBool(const std::string& key, bool fallback) const {
  const Value* v = Find(key);
  return (v && v->is_bool()) ? v->AsBool() : fallback;
}

double Value::GetDouble(const std::string& key, double fallback) const {
  const Value* v = Find(key);
  return (v && v->is_number()) ? v->AsDouble() : fallback;
}

int64_t Value::GetInt(const std::string& key, int64_t fallback) const {
  const Value* v = Find(key);
  return (v && v->is_number()) ? v->AsInt() : fallback;
}

std::string Value::GetString(const std::string& key,
                             const std::string& fallback) const {
  const Value* v = Find(key);
  return (v && v->is_string()) ? v->AsString() : fallback;
}

const Value* Value::Find(const std::string& key) const {
  if (!is_object()) return nullptr;
  return AsObject().Find(key);
}

Value& Value::operator[](const std::string& key) {
  if (is_null()) data_ = Object{};
  return AsObject()[key];
}

void Value::PushBack(Value v) {
  if (is_null()) data_ = Array{};
  AsArray().push_back(std::move(v));
}

std::string Value::Dump() const { return Write(*this, /*indent=*/-1); }

}  // namespace vp::json
