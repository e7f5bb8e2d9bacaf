// vpscript standard library: builtin string properties/methods, plus
// the global console / Math / JSON / Object / Array namespaces (array
// methods are native to the VM, vm.cpp). Kept deliberately close to
// the JavaScript surface that Duktape offers module authors.
#include <algorithm>
#include <cmath>

#include "common/rng.hpp"
#include "common/strings.hpp"
#include "json/parse.hpp"
#include "json/write.hpp"
#include "script/convert.hpp"
#include "script/stdlib.hpp"

namespace vp::script {
namespace {

using Args = std::vector<Value>;

Value Method(std::string name, HostFunction fn) {
  return Value::MakeHostFunction(std::move(name), std::move(fn));
}

}  // namespace

Value StringProperty(const std::string& s, const std::string& name) {
  if (name == "length") return Value(static_cast<double>(s.size()));
  if (name == "substring" || name == "slice") {
    const bool is_slice = name == "slice";
    return Method(name, [s, is_slice](Args& args) -> Result<Value> {
      int64_t n = static_cast<int64_t>(s.size());
      int64_t a = args.size() > 0 ? static_cast<int64_t>(args[0].ToNumber()) : 0;
      int64_t b = args.size() > 1 ? static_cast<int64_t>(args[1].ToNumber()) : n;
      if (is_slice) {  // negative indexes count from the end
        if (a < 0) a += n;
        if (b < 0) b += n;
      }
      a = std::clamp<int64_t>(a, 0, n);
      b = std::clamp<int64_t>(b, 0, n);
      if (!is_slice && a > b) std::swap(a, b);
      if (a >= b) return Value(std::string());
      return Value(s.substr(static_cast<size_t>(a), static_cast<size_t>(b - a)));
    });
  }
  if (name == "indexOf") {
    return Method(name, [s](Args& args) -> Result<Value> {
      if (args.empty()) return Value(-1.0);
      const size_t pos = s.find(args[0].ToDisplayString());
      return Value(pos == std::string::npos ? -1.0 : static_cast<double>(pos));
    });
  }
  if (name == "split") {
    return Method(name, [s](Args& args) -> Result<Value> {
      auto arr = std::make_shared<ScriptArray>();
      if (args.empty() || !args[0].is_string() || args[0].AsString().empty()) {
        arr->push_back(Value(s));
        return Value(std::move(arr));
      }
      const std::string& sep = args[0].AsString();
      size_t start = 0;
      while (true) {
        const size_t pos = s.find(sep, start);
        if (pos == std::string::npos) {
          arr->push_back(Value(s.substr(start)));
          break;
        }
        arr->push_back(Value(s.substr(start, pos - start)));
        start = pos + sep.size();
      }
      return Value(std::move(arr));
    });
  }
  if (name == "toUpperCase" || name == "toLowerCase") {
    const bool upper = name == "toUpperCase";
    return Method(name, [s, upper](Args&) -> Result<Value> {
      std::string out = s;
      for (char& c : out) {
        c = static_cast<char>(upper ? std::toupper(static_cast<unsigned char>(c))
                                    : std::tolower(static_cast<unsigned char>(c)));
      }
      return Value(std::move(out));
    });
  }
  if (name == "charAt") {
    return Method(name, [s](Args& args) -> Result<Value> {
      const auto i = args.empty() ? 0 : static_cast<int64_t>(args[0].ToNumber());
      if (i < 0 || static_cast<size_t>(i) >= s.size()) return Value("");
      return Value(std::string(1, s[static_cast<size_t>(i)]));
    });
  }
  if (name == "startsWith" || name == "endsWith") {
    const bool starts = name == "startsWith";
    return Method(name, [s, starts](Args& args) -> Result<Value> {
      if (args.empty()) return Value(false);
      const std::string p = args[0].ToDisplayString();
      return Value(starts ? StartsWith(s, p) : EndsWith(s, p));
    });
  }
  if (name == "trim") {
    return Method(name, [s](Args&) -> Result<Value> {
      return Value(std::string(Trim(s)));
    });
  }
  if (name == "replace") {  // first occurrence, plain-string pattern
    return Method(name, [s](Args& args) -> Result<Value> {
      if (args.size() < 2) return Value(s);
      const std::string pattern = args[0].ToDisplayString();
      const std::string replacement = args[1].ToDisplayString();
      if (pattern.empty()) return Value(s);
      const size_t pos = s.find(pattern);
      if (pos == std::string::npos) return Value(s);
      std::string out = s;
      out.replace(pos, pattern.size(), replacement);
      return Value(std::move(out));
    });
  }
  if (name == "repeat") {
    return Method(name, [s](Args& args) -> Result<Value> {
      const auto n = args.empty()
                         ? 0
                         : static_cast<int64_t>(args[0].ToNumber());
      if (n < 0 || static_cast<size_t>(n) * s.size() > 1 << 20) {
        return ScriptError("repeat count out of range");
      }
      std::string out;
      out.reserve(s.size() * static_cast<size_t>(n));
      for (int64_t i = 0; i < n; ++i) out += s;
      return Value(std::move(out));
    });
  }
  if (name == "padStart") {
    return Method(name, [s](Args& args) -> Result<Value> {
      const auto width = args.empty()
                             ? 0
                             : static_cast<int64_t>(args[0].ToNumber());
      const std::string pad =
          args.size() > 1 ? args[1].ToDisplayString() : " ";
      if (pad.empty() || width <= static_cast<int64_t>(s.size())) {
        return Value(s);
      }
      std::string out;
      while (out.size() + s.size() < static_cast<size_t>(width)) {
        out += pad;
      }
      out.resize(static_cast<size_t>(width) - s.size());
      return Value(out + s);
    });
  }
  return Value::Undefined();
}

GlobalList MakeStdlib(uint64_t seed, PrintFn print) {
  GlobalList globals;
  // ---- console ------------------------------------------------------
  auto console = std::make_shared<ScriptObject>();
  console->Set("log", Value::MakeHostFunction(
                          "log", [print](Args& args) -> Result<Value> {
                            std::string line;
                            for (size_t i = 0; i < args.size(); ++i) {
                              if (i) line += ' ';
                              line += args[i].ToDisplayString();
                            }
                            print(line);
                            return Value::Undefined();
                          }));
  globals.emplace_back("console", Value(console));

  // ---- Math ---------------------------------------------------------
  auto math = std::make_shared<ScriptObject>();
  auto unary = [](const char* name, double (*fn)(double)) {
    return Value::MakeHostFunction(
        name, [fn](Args& args) -> Result<Value> {
          return Value(fn(args.empty() ? std::nan("") : args[0].ToNumber()));
        });
  };
  math->Set("floor", unary("floor", std::floor));
  math->Set("ceil", unary("ceil", std::ceil));
  math->Set("round", unary("round", std::round));
  math->Set("abs", unary("abs", std::fabs));
  math->Set("sqrt", unary("sqrt", std::sqrt));
  math->Set("exp", unary("exp", std::exp));
  math->Set("log", unary("log", std::log));
  math->Set("sin", unary("sin", std::sin));
  math->Set("cos", unary("cos", std::cos));
  math->Set("trunc", unary("trunc", std::trunc));
  math->Set("log2", unary("log2", std::log2));
  math->Set("sign", Value::MakeHostFunction(
                        "sign", [](Args& args) -> Result<Value> {
                          const double v =
                              args.empty() ? std::nan("") : args[0].ToNumber();
                          if (std::isnan(v)) return Value(std::nan(""));
                          return Value(v > 0 ? 1.0 : v < 0 ? -1.0 : 0.0);
                        }));
  math->Set("min", Value::MakeHostFunction(
                       "min", [](Args& args) -> Result<Value> {
                         double best = INFINITY;
                         for (const Value& v : args) {
                           best = std::min(best, v.ToNumber());
                         }
                         return Value(best);
                       }));
  math->Set("max", Value::MakeHostFunction(
                       "max", [](Args& args) -> Result<Value> {
                         double best = -INFINITY;
                         for (const Value& v : args) {
                           best = std::max(best, v.ToNumber());
                         }
                         return Value(best);
                       }));
  math->Set("pow", Value::MakeHostFunction(
                       "pow", [](Args& args) -> Result<Value> {
                         if (args.size() < 2) return Value(std::nan(""));
                         return Value(std::pow(args[0].ToNumber(),
                                               args[1].ToNumber()));
                       }));
  math->Set("atan2", Value::MakeHostFunction(
                         "atan2", [](Args& args) -> Result<Value> {
                           if (args.size() < 2) return Value(std::nan(""));
                           return Value(std::atan2(args[0].ToNumber(),
                                                   args[1].ToNumber()));
                         }));
  math->Set("hypot", Value::MakeHostFunction(
                         "hypot", [](Args& args) -> Result<Value> {
                           double sum = 0.0;
                           for (const Value& v : args) {
                             sum += v.ToNumber() * v.ToNumber();
                           }
                           return Value(std::sqrt(sum));
                         }));
  // Deterministic Math.random (seeded per context) — simulation runs
  // must be reproducible.
  auto rng = std::make_shared<Rng>(seed);
  math->Set("random", Value::MakeHostFunction(
                          "random", [rng](Args&) -> Result<Value> {
                            return Value(rng->NextDouble());
                          }));
  math->Set("PI", Value(M_PI));
  math->Set("E", Value(M_E));
  globals.emplace_back("Math", Value(math));

  // ---- JSON ---------------------------------------------------------
  auto json_ns = std::make_shared<ScriptObject>();
  json_ns->Set("stringify",
               Value::MakeHostFunction(
                   "stringify", [](Args& args) -> Result<Value> {
                     if (args.empty()) return Value("undefined");
                     auto j = ScriptToJson(args[0]);
                     if (!j.ok()) return j.error();
                     return Value(json::Write(*j));
                   }));
  json_ns->Set("parse", Value::MakeHostFunction(
                            "parse", [](Args& args) -> Result<Value> {
                              if (args.empty() || !args[0].is_string()) {
                                return ScriptError("JSON.parse needs a string");
                              }
                              auto j = json::Parse(args[0].AsString());
                              if (!j.ok()) return j.error();
                              return JsonToScript(*j);
                            }));
  globals.emplace_back("JSON", Value(json_ns));

  // ---- Object / Array helpers ----------------------------------------
  auto object_ns = std::make_shared<ScriptObject>();
  object_ns->Set("keys", Value::MakeHostFunction(
                             "keys", [](Args& args) -> Result<Value> {
                               auto out = std::make_shared<ScriptArray>();
                               if (!args.empty() && args[0].is_object()) {
                                 for (const auto& entry :
                                      args[0].AsObject()->items()) {
                                   out->push_back(Value(entry.key));
                                 }
                               }
                               return Value(std::move(out));
                             }));
  globals.emplace_back("Object", Value(object_ns));

  auto array_ns = std::make_shared<ScriptObject>();
  array_ns->Set("isArray", Value::MakeHostFunction(
                               "isArray", [](Args& args) -> Result<Value> {
                                 return Value(!args.empty() &&
                                              args[0].is_array());
                               }));
  globals.emplace_back("Array", Value(array_ns));

  // ---- Primitive conversion helpers -----------------------------------
  globals.emplace_back("String", Value::MakeHostFunction(
                               "String", [](Args& args) -> Result<Value> {
                                 return Value(args.empty()
                                                  ? ""
                                                  : args[0].ToDisplayString());
                               }));
  globals.emplace_back("Number", Value::MakeHostFunction(
                               "Number", [](Args& args) -> Result<Value> {
                                 return Value(args.empty()
                                                  ? 0.0
                                                  : args[0].ToNumber());
                               }));
  globals.emplace_back("parseInt",
                 Value::MakeHostFunction(
                     "parseInt", [](Args& args) -> Result<Value> {
                       if (args.empty()) return Value(std::nan(""));
                       return Value(std::trunc(args[0].ToNumber()));
                     }));
  globals.emplace_back("parseFloat",
                 Value::MakeHostFunction(
                     "parseFloat", [](Args& args) -> Result<Value> {
                       if (args.empty()) return Value(std::nan(""));
                       return Value(args[0].ToNumber());
                     }));
  globals.emplace_back("isNaN", Value::MakeHostFunction(
                              "isNaN", [](Args& args) -> Result<Value> {
                                return Value(args.empty() ||
                                             std::isnan(args[0].ToNumber()));
                              }));
  return globals;
}

}  // namespace vp::script
