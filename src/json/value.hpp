// JSON document model.
//
// `json::Value` is the lingua franca of VideoPipe: pipeline
// configuration files, module messages, service requests/responses and
// script-engine interop all use it. Objects preserve insertion order
// (configuration files read back the way they were written).
#pragma once

#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "common/error.hpp"

namespace vp::json {

enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

const char* TypeName(Type t);

class Value {
 public:
  using Array = std::vector<Value>;
  /// Insertion-ordered map.
  class Object {
   public:
    Value& operator[](const std::string& key);
    const Value* Find(const std::string& key) const;
    Value* Find(const std::string& key);
    bool Contains(const std::string& key) const { return Find(key) != nullptr; }
    bool Erase(const std::string& key);
    /// Append a member whose key the caller knows is new — checked in
    /// debug builds — without operator[]'s lookup.
    Value& Append(std::string_view key);
    void reserve(size_t n) { items_.reserve(n); }
    size_t size() const { return items_.size(); }
    bool empty() const { return items_.empty(); }
    auto begin() const { return items_.begin(); }
    auto end() const { return items_.end(); }
    auto begin() { return items_.begin(); }
    auto end() { return items_.end(); }
    bool operator==(const Object& o) const;

   private:
    std::vector<std::pair<std::string, Value>> items_;
  };

  // -- Constructors ---------------------------------------------------
  Value() : data_(nullptr) {}                       // null
  Value(std::nullptr_t) : data_(nullptr) {}
  Value(bool b) : data_(b) {}
  Value(double d) : data_(d) {}
  Value(int i) : data_(static_cast<double>(i)) {}
  Value(int64_t i) : data_(static_cast<double>(i)) {}
  Value(size_t i) : data_(static_cast<double>(i)) {}
  Value(const char* s) : data_(std::string(s)) {}
  Value(std::string s) : data_(std::move(s)) {}
  Value(Array a) : data_(std::move(a)) {}
  Value(Object o) : data_(std::move(o)) {}

  static Value MakeArray() { return Value(Array{}); }
  static Value MakeObject() { return Value(Object{}); }

  // -- Type inspection --------------------------------------------------
  Type type() const;
  bool is_null() const { return type() == Type::kNull; }
  bool is_bool() const { return type() == Type::kBool; }
  bool is_number() const { return type() == Type::kNumber; }
  bool is_string() const { return type() == Type::kString; }
  bool is_array() const { return type() == Type::kArray; }
  bool is_object() const { return type() == Type::kObject; }

  // -- Accessors (assert on wrong type) ---------------------------------
  bool AsBool() const { return std::get<bool>(data_); }
  double AsDouble() const { return std::get<double>(data_); }
  int64_t AsInt() const { return static_cast<int64_t>(std::get<double>(data_)); }
  const std::string& AsString() const { return std::get<std::string>(data_); }
  const Array& AsArray() const { return std::get<Array>(data_); }
  Array& AsArray() { return std::get<Array>(data_); }
  const Object& AsObject() const { return std::get<Object>(data_); }
  Object& AsObject() { return std::get<Object>(data_); }

  // -- Tolerant accessors with defaults ---------------------------------
  bool GetBool(const std::string& key, bool fallback = false) const;
  double GetDouble(const std::string& key, double fallback = 0.0) const;
  int64_t GetInt(const std::string& key, int64_t fallback = 0) const;
  std::string GetString(const std::string& key,
                        const std::string& fallback = {}) const;

  /// Object member lookup; nullptr when not an object / key missing.
  const Value* Find(const std::string& key) const;

  /// Object member write access (creates the member; value must be an
  /// object — call on a default-constructed Value to auto-vivify one).
  Value& operator[](const std::string& key);
  /// Array element access (asserts).
  const Value& operator[](size_t i) const { return AsArray()[i]; }

  void PushBack(Value v);

  bool operator==(const Value& o) const { return data_ == o.data_; }

  /// Compact single-line serialization. See write.hpp for pretty print.
  std::string Dump() const;

 private:
  std::variant<std::nullptr_t, bool, double, std::string, Array, Object> data_;
};

}  // namespace vp::json
