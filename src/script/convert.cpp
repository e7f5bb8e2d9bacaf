#include "script/convert.hpp"

namespace vp::script {

Value JsonToScript(const json::Value& v) {
  switch (v.type()) {
    case json::Type::kNull: return Value(nullptr);
    case json::Type::kBool: return Value(v.AsBool());
    case json::Type::kNumber: return Value(v.AsDouble());
    case json::Type::kString: return Value(v.AsString());
    case json::Type::kArray: {
      auto arr = std::make_shared<ScriptArray>();
      arr->reserve(v.AsArray().size());
      for (const auto& item : v.AsArray()) arr->push_back(JsonToScript(item));
      return Value(std::move(arr));
    }
    case json::Type::kObject: {
      auto obj = std::make_shared<ScriptObject>();
      for (const auto& [k, item] : v.AsObject()) {
        obj->Set(k, JsonToScript(item));
      }
      return Value(std::move(obj));
    }
  }
  return Value(nullptr);
}

Result<json::Value> ScriptToJson(const Value& v) {
  switch (v.type()) {
    case ValueType::kUndefined:
    case ValueType::kNull:
      return json::Value(nullptr);
    case ValueType::kBool:
      return json::Value(v.AsBool());
    case ValueType::kNumber:
      return json::Value(v.AsNumber());
    case ValueType::kString:
      return json::Value(v.AsString());
    case ValueType::kArray: {
      json::Value::Array arr;
      arr.reserve(v.AsArray()->size());
      for (const Value& item : *v.AsArray()) {
        auto j = ScriptToJson(item);
        if (!j.ok()) return j;
        arr.push_back(std::move(*j));
      }
      return json::Value(std::move(arr));
    }
    case ValueType::kObject: {
      json::Value::Object obj;
      for (const auto& entry : v.AsObject()->items()) {
        auto j = ScriptToJson(entry.value);
        if (!j.ok()) return j;
        obj[entry.key] = std::move(*j);
      }
      return json::Value(std::move(obj));
    }
    case ValueType::kHostFunction:
      return ScriptError("cannot serialize a function to JSON");
  }
  return ScriptError("unknown value type");
}

}  // namespace vp::script
