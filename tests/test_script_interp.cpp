// Tests for the vpscript language, standard library, contexts and
// JSON interop.
#include <gtest/gtest.h>

#include "json/parse.hpp"
#include "json/write.hpp"
#include "script/context.hpp"

namespace vp::script {
namespace {

/// Evaluate a script and return the value of global `result`.
Result<json::Value> Eval(const std::string& body, ContextOptions options = {}) {
  Context context(options);
  Status loaded = context.Load(body);
  if (!loaded.ok()) return loaded.error();
  return context.GetGlobal("result");
}

double Num(const std::string& body) {
  auto v = Eval(body);
  EXPECT_TRUE(v.ok()) << (v.ok() ? "" : v.error().ToString());
  EXPECT_TRUE(v.ok() && v->is_number()) << body;
  return v.ok() && v->is_number() ? v->AsDouble() : -9999;
}

std::string Str(const std::string& body) {
  auto v = Eval(body);
  EXPECT_TRUE(v.ok() && v->is_string()) << body;
  return v.ok() && v->is_string() ? v->AsString() : "<err>";
}

bool Boolean(const std::string& body) {
  auto v = Eval(body);
  EXPECT_TRUE(v.ok() && v->is_bool()) << body;
  return v.ok() && v->is_bool() && v->AsBool();
}

TEST(Interp, ArithmeticAndPrecedence) {
  EXPECT_DOUBLE_EQ(Num("var result = 2 + 3 * 4;"), 14);
  EXPECT_DOUBLE_EQ(Num("var result = (2 + 3) * 4;"), 20);
  EXPECT_DOUBLE_EQ(Num("var result = 7 % 3;"), 1);
  EXPECT_DOUBLE_EQ(Num("var result = -3 + 1;"), -2);
  EXPECT_DOUBLE_EQ(Num("var result = 10 / 4;"), 2.5);
}

TEST(Interp, StringConcatenation) {
  EXPECT_EQ(Str("var result = 'a' + 'b' + 1;"), "ab1");
  EXPECT_EQ(Str("var result = 1 + 2 + 'x';"), "3x");  // left assoc
}

TEST(Interp, ComparisonsAndEquality) {
  EXPECT_TRUE(Boolean("var result = 3 < 5;"));
  EXPECT_TRUE(Boolean("var result = 'abc' < 'abd';"));
  EXPECT_TRUE(Boolean("var result = 5 == '5';"));    // loose
  EXPECT_FALSE(Boolean("var result = 5 === '5';"));  // strict
  EXPECT_TRUE(Boolean("var result = null == undefined;"));
  EXPECT_FALSE(Boolean("var result = null === undefined;"));
  EXPECT_TRUE(Boolean("var result = [1] !== [1];"));  // identity
}

TEST(Interp, LogicalShortCircuitReturnsOperand) {
  EXPECT_DOUBLE_EQ(Num("var result = 0 || 7;"), 7);
  EXPECT_DOUBLE_EQ(Num("var result = 3 && 9;"), 9);
  EXPECT_DOUBLE_EQ(Num(R"(
    var calls = 0;
    function bump() { calls = calls + 1; return true; }
    var ignore = false && bump();
    var result = calls;
  )"),
                   0);
}

TEST(Interp, Ternary) {
  EXPECT_EQ(Str("var result = 3 > 2 ? 'yes' : 'no';"), "yes");
}

TEST(Interp, CompoundAssignAndUpdate) {
  EXPECT_DOUBLE_EQ(Num("var x = 10; x += 5; x -= 3; x *= 2; var result = x;"),
                   24);
  EXPECT_DOUBLE_EQ(Num("var x = 5; var result = x++;"), 5);
  EXPECT_DOUBLE_EQ(Num("var x = 5; var result = ++x;"), 6);
  EXPECT_DOUBLE_EQ(Num("var x = 5; x--; --x; var result = x;"), 3);
  EXPECT_DOUBLE_EQ(Num("var a = [1,2,3]; a[1] += 10; var result = a[1];"), 12);
}

TEST(Interp, WhileAndForLoops) {
  EXPECT_DOUBLE_EQ(Num(R"(
    var total = 0;
    for (var i = 1; i <= 10; i++) total += i;
    var result = total;
  )"),
                   55);
  EXPECT_DOUBLE_EQ(Num(R"(
    var n = 0;
    while (n < 100) { n += 7; }
    var result = n;
  )"),
                   105);
}

TEST(Interp, BreakAndContinue) {
  EXPECT_DOUBLE_EQ(Num(R"(
    var total = 0;
    for (var i = 0; i < 10; i++) {
      if (i == 3) continue;
      if (i == 6) break;
      total += i;
    }
    var result = total;  // 0+1+2+4+5
  )"),
                   12);
}

TEST(Interp, ForInIteratesKeysInOrder) {
  EXPECT_EQ(Str(R"(
    var o = { z: 1, a: 2, m: 3 };
    var keys = "";
    for (var k in o) keys = keys + k;
    var result = keys;
  )"),
            "zam");
}

TEST(Interp, FunctionsAndRecursion) {
  EXPECT_DOUBLE_EQ(Num(R"(
    function fib(n) { return n < 2 ? n : fib(n - 1) + fib(n - 2); }
    var result = fib(15);
  )"),
                   610);
}

TEST(Interp, ClosuresCaptureEnvironment) {
  EXPECT_DOUBLE_EQ(Num(R"(
    function make_counter() {
      var count = 0;
      return function () { count = count + 1; return count; };
    }
    var c1 = make_counter();
    var c2 = make_counter();
    c1(); c1(); c2();
    var result = c1() * 10 + c2();  // 3 and 2
  )"),
                   32);
}

TEST(Interp, FunctionsHoisted) {
  EXPECT_DOUBLE_EQ(Num("var result = later(); function later() { return 9; }"),
                   9);
}

TEST(Interp, MissingArgsAreUndefined) {
  EXPECT_TRUE(Boolean(R"(
    function f(a, b) { return b == undefined; }
    var result = f(1);
  )"));
}

TEST(Interp, ObjectsAndArrays) {
  EXPECT_DOUBLE_EQ(Num(R"(
    var o = { a: { b: [10, 20, 30] } };
    o.a.c = 5;
    var result = o.a.b[1] + o.a.c + o["a"]["b"][0];
  )"),
                   35);
  EXPECT_TRUE(Boolean("var a = []; a[3] = 1; var result = a.length == 4;"));
  EXPECT_TRUE(Boolean("var a = [1,2]; var result = a[9] == undefined;"));
}

TEST(Interp, TypeofQuirksPreserved) {
  EXPECT_EQ(Str("var result = typeof 1;"), "number");
  EXPECT_EQ(Str("var result = typeof 'x';"), "string");
  EXPECT_EQ(Str("var result = typeof undefined;"), "undefined");
  EXPECT_EQ(Str("var result = typeof null;"), "object");
  EXPECT_EQ(Str("var result = typeof [];"), "object");
  EXPECT_EQ(Str("var result = typeof function(){};"), "function");
}

// ------------------------------------------------------------- stdlib

TEST(Stdlib, MathFunctions) {
  EXPECT_DOUBLE_EQ(Num("var result = Math.floor(3.7);"), 3);
  EXPECT_DOUBLE_EQ(Num("var result = Math.max(1, 9, 4);"), 9);
  EXPECT_DOUBLE_EQ(Num("var result = Math.min(1, 9, -4);"), -4);
  EXPECT_DOUBLE_EQ(Num("var result = Math.abs(-2.5);"), 2.5);
  EXPECT_DOUBLE_EQ(Num("var result = Math.sqrt(16);"), 4);
  EXPECT_DOUBLE_EQ(Num("var result = Math.pow(2, 10);"), 1024);
  EXPECT_DOUBLE_EQ(Num("var result = Math.hypot(3, 4);"), 5);
  EXPECT_NEAR(Num("var result = Math.PI;"), 3.14159265, 1e-6);
}

TEST(Stdlib, MathRandomDeterministicPerSeed) {
  ContextOptions a;
  a.random_seed = 5;
  ContextOptions b;
  b.random_seed = 5;
  auto va = Eval("var result = Math.random();", a);
  auto vb = Eval("var result = Math.random();", b);
  ASSERT_TRUE(va.ok() && vb.ok());
  EXPECT_DOUBLE_EQ(va->AsDouble(), vb->AsDouble());
  EXPECT_GE(va->AsDouble(), 0.0);
  EXPECT_LT(va->AsDouble(), 1.0);
}

TEST(Stdlib, StringMethods) {
  EXPECT_DOUBLE_EQ(Num("var result = 'hello'.length;"), 5);
  EXPECT_EQ(Str("var result = 'hello'.substring(1, 3);"), "el");
  EXPECT_EQ(Str("var result = 'hello'.slice(-3);"), "llo");
  EXPECT_DOUBLE_EQ(Num("var result = 'hello'.indexOf('ll');"), 2);
  EXPECT_DOUBLE_EQ(Num("var result = 'hello'.indexOf('z');"), -1);
  EXPECT_EQ(Str("var result = 'a,b,c'.split(',')[1];"), "b");
  EXPECT_EQ(Str("var result = 'MiXeD'.toLowerCase();"), "mixed");
  EXPECT_EQ(Str("var result = 'MiXeD'.toUpperCase();"), "MIXED");
  EXPECT_EQ(Str("var result = '  x '.trim();"), "x");
  EXPECT_TRUE(Boolean("var result = 'module.js'.endsWith('.js');"));
  EXPECT_TRUE(Boolean("var result = 'tcp://x'.startsWith('tcp');"));
  EXPECT_EQ(Str("var result = 'abc'.charAt(1);"), "b");
  EXPECT_EQ(Str("var result = 'abc'[2];"), "c");
}

TEST(Stdlib, ArrayMethods) {
  EXPECT_DOUBLE_EQ(Num("var a = [1]; a.push(2, 3); var result = a.length;"),
                   3);
  EXPECT_DOUBLE_EQ(Num("var a = [1, 2]; var result = a.pop() + a.length;"), 3);
  EXPECT_DOUBLE_EQ(Num("var a = [5, 6]; var result = a.shift() * 10 + a.length;"),
                   51);
  EXPECT_DOUBLE_EQ(Num("var a = [2]; a.unshift(1); var result = a[0];"), 1);
  EXPECT_EQ(Str("var result = [1, 2, 3].join('-');"), "1-2-3");
  EXPECT_DOUBLE_EQ(Num("var result = [4, 5, 6].indexOf(6);"), 2);
  EXPECT_DOUBLE_EQ(Num("var result = [1, 2].concat([3, 4], 5).length;"), 5);
  EXPECT_DOUBLE_EQ(Num("var result = [1, 2, 3, 4].slice(1, 3).length;"), 2);
  EXPECT_DOUBLE_EQ(Num("var result = [1, 2, 3].map(function (x) { return x * 2; })[2];"),
                   6);
  EXPECT_DOUBLE_EQ(
      Num("var result = [1, 2, 3, 4].filter(function (x) { return x % 2 == 0; }).length;"),
      2);
  EXPECT_DOUBLE_EQ(
      Num("var result = [1, 2, 3].reduce(function (a, b) { return a + b; }, 10);"),
      16);
  EXPECT_DOUBLE_EQ(Num(R"(
    var total = 0;
    [1, 2, 3].forEach(function (x, i) { total += x * i; });
    var result = total;  // 0 + 2 + 6
  )"),
                   8);
}

TEST(Stdlib, JsonStringifyParse) {
  EXPECT_EQ(Str("var result = JSON.stringify({ a: [1, 'x', true, null] });"),
            R"({"a":[1,"x",true,null]})");
  EXPECT_DOUBLE_EQ(Num("var result = JSON.parse('{\"n\": 41}').n + 1;"), 42);
  EXPECT_FALSE(Eval("var result = JSON.parse('{bad');").ok());
  // NaN and ±Infinity stringify as null, as in JavaScript, so the text
  // parses back.
  EXPECT_EQ(Str("var result = JSON.stringify({ a: 0 / 0, b: [1 / 0, -1 / 0] });"),
            R"({"a":null,"b":[null,null]})");
  EXPECT_TRUE(Boolean(
      "var result = JSON.parse(JSON.stringify({ a: 0 / 0 })).a === null;"));
}

TEST(Stdlib, ObjectKeysAndArrayIsArray) {
  EXPECT_EQ(Str("var result = Object.keys({x: 1, y: 2}).join(',');"), "x,y");
  EXPECT_TRUE(Boolean("var result = Array.isArray([]);"));
  EXPECT_FALSE(Boolean("var result = Array.isArray({});"));
}

TEST(Stdlib, ConversionHelpers) {
  EXPECT_EQ(Str("var result = String(12.5);"), "12.5");
  EXPECT_DOUBLE_EQ(Num("var result = Number('3.5');"), 3.5);
  EXPECT_DOUBLE_EQ(Num("var result = parseInt(9.99);"), 9);
  EXPECT_TRUE(Boolean("var result = isNaN(Number('abc'));"));
}

TEST(Stdlib, ConsoleLogGoesToPrintHandler) {
  Context context;
  std::vector<std::string> lines;
  context.set_print_handler(
      [&](const std::string& line) { lines.push_back(line); });
  ASSERT_TRUE(context.Load("console.log('a', 1, [2]);").ok());
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0], "a 1 [2]");
}

// ------------------------------------------------------------- guards

TEST(Guards, StepBudgetStopsInfiniteLoop) {
  ContextOptions options;
  options.limits.max_steps = 10000;
  Context context(options);
  Status s = context.Load("while (true) {}");
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
}

TEST(Guards, BudgetResetsPerCall) {
  ContextOptions options;
  options.limits.max_steps = 50000;
  Context context(options);
  ASSERT_TRUE(context
                  .Load("function spin() { for (var i = 0; i < 1000; i++) {} "
                        "return 1; }")
                  .ok());
  // Each call gets a fresh budget — 100 calls of 1000 iterations would
  // blow a shared budget but must all succeed.
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(context.Call("spin", {}).ok()) << "call " << i;
  }
}

TEST(Guards, CallDepthLimit) {
  ContextOptions options;
  options.limits.max_call_depth = 32;
  Context context(options);
  ASSERT_TRUE(context.Load("function deep(n) { return deep(n + 1); }").ok());
  auto result = context.Call("deep", {json::Value(0.0)});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code(), StatusCode::kScriptError);
}

TEST(Guards, RuntimeErrors) {
  EXPECT_FALSE(Eval("var result = undefined_name;").ok());
  EXPECT_FALSE(Eval("var x = null; var result = x.field;").ok());
  EXPECT_FALSE(Eval("var result = (3)(4);").ok());  // calling a number
  EXPECT_FALSE(Eval("const c = 1; c = 2;").ok());
  EXPECT_FALSE(Eval("unbound = 3;").ok());  // no implicit globals
}

TEST(Guards, ErrorsIncludeLineNumbers) {
  auto result = Eval("var a = 1;\nvar b = missing;\n");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error().message().find("script:2"), std::string::npos);
}

// ------------------------------------------------------------- context

TEST(Context, HostFunctionsCallable) {
  Context context;
  double received = 0;
  context.RegisterHostFunction(
      "report", [&](Vm&, HostArgs args) -> Result<VpValue> {
        received = args.empty() ? -1 : Vm::ToNumber(args[0]);
        return VpValue::Number(received * 2);
      });
  ASSERT_TRUE(context.Load("var doubled = report(21);").ok());
  EXPECT_DOUBLE_EQ(received, 21);
  EXPECT_DOUBLE_EQ(context.GetGlobal("doubled").AsDouble(), 42);
}

TEST(Context, CallsNamedFunctionsWithArgs) {
  Context context;
  ASSERT_TRUE(context.Load("function add(a, b) { return a + b; }").ok());
  EXPECT_TRUE(context.HasFunction("add"));
  EXPECT_FALSE(context.HasFunction("sub"));
  auto result = context.Call("add", {json::Value(2.0), json::Value(3.0)});
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result->AsDouble(), 5);
  EXPECT_EQ(context.Call("sub", {}).code(), StatusCode::kNotFound);
}

TEST(Context, StatePersistsAcrossCalls) {
  Context context;
  ASSERT_TRUE(context
                  .Load("var count = 0;\n"
                        "function bump() { count = count + 1; return count; }")
                  .ok());
  EXPECT_DOUBLE_EQ(context.Call("bump", {})->AsDouble(), 1);
  EXPECT_DOUBLE_EQ(context.Call("bump", {})->AsDouble(), 2);
  EXPECT_DOUBLE_EQ(context.GetGlobal("count").AsDouble(), 2);
}

TEST(Context, IsolationBetweenContexts) {
  Context a;
  Context b;
  ASSERT_TRUE(a.Load("var shared = 'A';").ok());
  ASSERT_TRUE(b.Load("var shared = 'B';").ok());
  EXPECT_EQ(a.GetGlobal("shared").AsString(), "A");
  EXPECT_EQ(b.GetGlobal("shared").AsString(), "B");
}

// ------------------------------------------------------------- convert

TEST(Convert, JsonToVmToJsonRoundTrip) {
  const char* docs[] = {
      R"({"a":1,"b":[true,null,"x"],"c":{"d":2.5}})",
      "[]",
      "[[1],[2,[3]]]",
      "\"plain\"",
  };
  Vm vm;
  for (const char* doc : docs) {
    auto parsed = json::Parse(doc);
    ASSERT_TRUE(parsed.ok());
    auto back = vm.ToJson(vm.FromJson(*parsed));
    ASSERT_TRUE(back.ok()) << doc;
    EXPECT_EQ(*parsed, *back) << doc;
  }
}

TEST(Convert, FunctionsAreNotSerializable) {
  Context context;
  ASSERT_TRUE(context.Load("var f = function () {};").ok());
  Vm* vm = context.vm();
  EXPECT_FALSE(vm->ToJson(vm->GetGlobal("f")).ok());
  EXPECT_TRUE(context.GetGlobal("f").is_null());
}

TEST(Convert, UndefinedBecomesNull) {
  Vm vm;
  auto v = vm.ToJson(VpValue::Undefined());
  ASSERT_TRUE(v.ok());
  EXPECT_TRUE(v->is_null());
}

}  // namespace
}  // namespace vp::script
