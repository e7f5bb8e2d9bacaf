// vpscript standard library: the global console / Math / JSON / Object
// / Array namespaces and the String/Number helpers, written directly
// against VM values. Kept deliberately close to the JavaScript surface
// that Duktape offers module authors.
#include "script/stdlib.hpp"

#include <cmath>
#include <utility>

#include "json/parse.hpp"
#include "json/write.hpp"

namespace vp::script {
namespace {

/// Argument `i` as a number; NaN when absent.
double NumArg(HostArgs args, size_t i) {
  return i < args.size() ? Vm::ToNumber(args[i]) : std::nan("");
}

HostFunction Unary(double (*fn)(double)) {
  return [fn](Vm&, HostArgs args) -> Result<VpValue> {
    return VpValue::Number(fn(NumArg(args, 0)));
  };
}

/// A namespace object (Math, JSON, …) under construction.
class Namespace {
 public:
  explicit Namespace(Vm& vm) : vm_(vm), obj_(vm.NewObject()) {}
  void Fn(const char* name, HostFunction fn) {
    obj_->Set(name, VpValue::Heap(vm_.NewHostFn(name, std::move(fn))));
  }
  void Number(const char* name, double d) {
    obj_->Set(name, VpValue::Number(d));
  }
  VpValue value() const { return VpValue::Heap(obj_); }

 private:
  Vm& vm_;
  GcObject* obj_;
};

}  // namespace

HostFunction LogFunction(PrintFn print) {
  return [print = std::move(print)](Vm&, HostArgs args) -> Result<VpValue> {
    std::string line;
    for (size_t i = 0; i < args.size() && line.size() <= kMaxStringLength;
         ++i) {
      if (i) line += ' ';
      line += Vm::ToDisplayString(args[i]);
    }
    print(line);
    return VpValue::Undefined();
  };
}

void InstallStdlib(Vm& vm, Rng& rng, const PrintFn& print) {
  auto global = [&vm](const char* name, VpValue v) {
    vm.DefineGlobal(name, v, /*baseline=*/true);
  };
  auto global_fn = [&vm, &global](const char* name, HostFunction fn) {
    global(name, VpValue::Heap(vm.NewHostFn(name, std::move(fn))));
  };

  // ---- console ------------------------------------------------------
  Namespace console(vm);
  console.Fn("log", LogFunction([&print](const std::string& line) {
               if (print) print(line);
             }));
  global("console", console.value());

  // ---- Math ---------------------------------------------------------
  Namespace math(vm);
  math.Fn("floor", Unary(std::floor));
  math.Fn("ceil", Unary(std::ceil));
  math.Fn("round", Unary(std::round));
  math.Fn("abs", Unary(std::fabs));
  math.Fn("sqrt", Unary(std::sqrt));
  math.Fn("exp", Unary(std::exp));
  math.Fn("log", Unary(std::log));
  math.Fn("sin", Unary(std::sin));
  math.Fn("cos", Unary(std::cos));
  math.Fn("trunc", Unary(std::trunc));
  math.Fn("log2", Unary(std::log2));
  math.Fn("sign", [](Vm&, HostArgs args) -> Result<VpValue> {
    const double v = NumArg(args, 0);
    if (std::isnan(v)) return VpValue::Number(std::nan(""));
    return VpValue::Number(v > 0 ? 1.0 : v < 0 ? -1.0 : 0.0);
  });
  math.Fn("min", [](Vm&, HostArgs args) -> Result<VpValue> {
    double best = INFINITY;
    for (VpValue v : args) best = std::min(best, Vm::ToNumber(v));
    return VpValue::Number(best);
  });
  math.Fn("max", [](Vm&, HostArgs args) -> Result<VpValue> {
    double best = -INFINITY;
    for (VpValue v : args) best = std::max(best, Vm::ToNumber(v));
    return VpValue::Number(best);
  });
  math.Fn("pow", [](Vm&, HostArgs args) -> Result<VpValue> {
    if (args.size() < 2) return VpValue::Number(std::nan(""));
    return VpValue::Number(std::pow(NumArg(args, 0), NumArg(args, 1)));
  });
  math.Fn("atan2", [](Vm&, HostArgs args) -> Result<VpValue> {
    if (args.size() < 2) return VpValue::Number(std::nan(""));
    return VpValue::Number(std::atan2(NumArg(args, 0), NumArg(args, 1)));
  });
  math.Fn("hypot", [](Vm&, HostArgs args) -> Result<VpValue> {
    double sum = 0.0;
    for (VpValue v : args) sum += Vm::ToNumber(v) * Vm::ToNumber(v);
    return VpValue::Number(std::sqrt(sum));
  });
  // Deterministic Math.random (seeded per context) — simulation runs
  // must be reproducible.
  math.Fn("random", [&rng](Vm&, HostArgs) -> Result<VpValue> {
    return VpValue::Number(rng.NextDouble());
  });
  math.Number("PI", M_PI);
  math.Number("E", M_E);
  global("Math", math.value());

  // ---- JSON ---------------------------------------------------------
  Namespace json_ns(vm);
  json_ns.Fn("stringify", [](Vm& vm, HostArgs args) -> Result<VpValue> {
    if (args.empty()) return vm.MakeString("undefined");
    auto j = vm.ToJson(args[0]);
    if (!j.ok()) return j.error();
    return vm.MakeString(json::Write(*j));
  });
  json_ns.Fn("parse", [](Vm& vm, HostArgs args) -> Result<VpValue> {
    if (args.empty() || !args[0].is_string()) {
      return ScriptError("JSON.parse needs a string");
    }
    auto j = json::Parse(args[0].AsString());
    if (!j.ok()) return j.error();
    return vm.FromJson(*j);
  });
  global("JSON", json_ns.value());

  // ---- Object / Array helpers ----------------------------------------
  Namespace object_ns(vm);
  object_ns.Fn("keys", [](Vm& vm, HostArgs args) -> Result<VpValue> {
    GcArray* keys = vm.NewArray();
    if (!args.empty() && args[0].IsHeapType(GcType::kObject)) {
      for (const auto& e : static_cast<GcObject*>(args[0].AsHeap())->items) {
        keys->items.push_back(VpValue::Heap(vm.NewString(e.key)));
      }
    }
    return VpValue::Heap(keys);
  });
  global("Object", object_ns.value());

  Namespace array_ns(vm);
  array_ns.Fn("isArray", [](Vm&, HostArgs args) -> Result<VpValue> {
    return VpValue::Boolean(!args.empty() &&
                            args[0].IsHeapType(GcType::kArray));
  });
  global("Array", array_ns.value());

  // ---- Primitive conversion helpers -----------------------------------
  global_fn("String", [](Vm& vm, HostArgs args) -> Result<VpValue> {
    return vm.MakeString(args.empty() ? "" : Vm::ToDisplayString(args[0]));
  });
  global_fn("Number", [](Vm&, HostArgs args) -> Result<VpValue> {
    return VpValue::Number(args.empty() ? 0.0 : Vm::ToNumber(args[0]));
  });
  global_fn("parseInt", [](Vm&, HostArgs args) -> Result<VpValue> {
    return VpValue::Number(std::trunc(NumArg(args, 0)));
  });
  global_fn("parseFloat", [](Vm&, HostArgs args) -> Result<VpValue> {
    return VpValue::Number(NumArg(args, 0));
  });
  global_fn("isNaN", [](Vm&, HostArgs args) -> Result<VpValue> {
    return VpValue::Boolean(std::isnan(NumArg(args, 0)));
  });
}

}  // namespace vp::script
