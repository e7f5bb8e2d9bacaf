// Deep semantic tests for the vpscript engine: scoping, closures,
// coercions, reference semantics — the behaviours module authors rely
// on without thinking about them.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "script/context.hpp"

namespace vp::script {
namespace {

Result<json::Value> Eval(const std::string& body) {
  Context context;
  Status loaded = context.Load(body);
  if (!loaded.ok()) return loaded.error();
  return context.GetGlobal("result");
}

double Num(const std::string& body) {
  auto v = Eval(body);
  EXPECT_TRUE(v.ok() && v->is_number())
      << body << (v.ok() ? "" : " → " + v.error().ToString());
  return v.ok() && v->is_number() ? v->AsDouble() : -9999;
}

std::string Str(const std::string& body) {
  auto v = Eval(body);
  EXPECT_TRUE(v.ok() && v->is_string()) << body;
  return v.ok() && v->is_string() ? v->AsString() : "<err>";
}

// -------------------------------------------------------------- scoping

TEST(Scoping, BlocksShadowOuterVariables) {
  EXPECT_DOUBLE_EQ(Num(R"(
    var x = 1;
    { var x = 2; }
    var result = x;   // the block's x shadowed, outer unchanged
  )"),
                   1);
}

TEST(Scoping, LoopBodiesGetFreshScopes) {
  EXPECT_DOUBLE_EQ(Num(R"(
    var total = 0;
    for (var i = 0; i < 3; i++) {
      var local = i * 10;
      total += local;
    }
    var result = total;
  )"),
                   30);
}

TEST(Scoping, AssignmentWritesThroughToOuterScope) {
  EXPECT_DOUBLE_EQ(Num(R"(
    var x = 1;
    { x = 5; }          // no `var` → assignment, not shadowing
    var result = x;
  )"),
                   5);
}

TEST(Scoping, FunctionParamsShadowGlobals) {
  EXPECT_DOUBLE_EQ(Num(R"(
    var x = 100;
    function f(x) { x = x + 1; return x; }
    var result = f(1) * 1000 + x;  // 2 * 1000 + 100
  )"),
                   2100);
}

TEST(Scoping, InnerFunctionsHoistWithinBlocks) {
  EXPECT_DOUBLE_EQ(Num(R"(
    function outer() {
      return helper() + 1;
      function helper() { return 41; }
    }
    var result = outer();
  )"),
                   42);
}

TEST(Scoping, NestedBlocksShadowIndependently) {
  // Each block level introduces its own binding; exits restore the
  // outer one — exercised in function-local and captured scopes.
  EXPECT_EQ(Str(R"(
    function probe() {
      var x = "a";
      var out = x;
      {
        var x = "b";
        out = out + x;
        {
          var x = "c";
          out = out + x;
        }
        out = out + x;   // back to the middle binding
      }
      out = out + x;     // back to the outermost binding
      return out;
    }
    var result = probe();
  )"),
            "abcba");
}

TEST(Scoping, CatchParameterIsScopedToHandler) {
  // Thrown values reach the handler wrapped in an error object with
  // `message`/`code`; the catch binding shadows any same-named outer
  // binding and rebinding it leaves the outer one untouched.
  EXPECT_EQ(Str(R"(
    var e = "outer";
    var caught = "";
    try {
      throw "boom";
    } catch (e) {
      caught = e.message.indexOf("boom") >= 0 ? "boom" : "missing";
      e = "rebound";     // writes the catch binding, not the global
    }
    var result = caught + ":" + e;
  )"),
            "boom:outer");
}

TEST(Scoping, CatchScopeInsideFunction) {
  EXPECT_DOUBLE_EQ(Num(R"(
    function safeDiv(a, b) {
      try {
        if (b == 0) throw "div0";
        return a / b;
      } catch (err) {
        return -1;
      }
    }
    var result = safeDiv(10, 2) * 10 + safeDiv(1, 0);  // 50 - 1
  )"),
                   49);
}

TEST(Scoping, HoistedFunctionCanCallItself) {
  // A hoisted declaration must see its own binding even when the
  // recursive call happens before the textual declaration point.
  EXPECT_DOUBLE_EQ(Num(R"(
    var result = fib(10);
    function fib(n) { return n < 2 ? n : fib(n - 1) + fib(n - 2); }
  )"),
                   55);
}

// ------------------------------------------------------------- closures

TEST(Closures, CaptureByReferenceNotValue) {
  EXPECT_DOUBLE_EQ(Num(R"(
    var shared = 0;
    function make() {
      return function () { shared = shared + 1; return shared; };
    }
    var a = make();
    var b = make();
    a(); b(); a();
    var result = shared;  // all three calls mutated the same binding
  )"),
                   3);
}

TEST(Closures, LoopVariableIsSharedAcrossIterations) {
  // var (not let) semantics: all closures see the final value.
  EXPECT_DOUBLE_EQ(Num(R"(
    var fns = [];
    for (var i = 0; i < 3; i++) {
      fns.push(function () { return i; });
    }
    var result = fns[0]() + fns[1]() + fns[2]();  // 3 + 3 + 3
  )"),
                   9);
}

TEST(Closures, LoopBodyLocalsCapturedPerIteration) {
  // Loop bodies get a fresh scope each iteration, so a body-local
  // `var` captured by a closure is per-iteration state — unlike the
  // loop variable itself (see LoopVariableIsSharedAcrossIterations).
  EXPECT_DOUBLE_EQ(Num(R"(
    var fns = [];
    for (var i = 0; i < 3; i++) {
      var snapshot = i * 10;
      fns.push(function () { return snapshot; });
    }
    var result = fns[0]() + fns[1]() + fns[2]();  // 0 + 10 + 20
  )"),
                   30);
}

TEST(Closures, SurviveTheirDefiningCall) {
  EXPECT_DOUBLE_EQ(Num(R"(
    function adder(n) { return function (x) { return x + n; }; }
    var add5 = adder(5);
    var add7 = adder(7);
    var result = add5(10) * 100 + add7(10);
  )"),
                   1517);
}

TEST(Closures, RecursiveFunctionExpressions) {
  EXPECT_DOUBLE_EQ(Num(R"(
    var fact = function f(n) { return n <= 1 ? 1 : n * f(n - 1); };
    var result = fact(6);
  )"),
                   720);
}

// ---------------------------------------------------- reference types

TEST(References, ObjectsAreSharedOnAssignment) {
  EXPECT_DOUBLE_EQ(Num(R"(
    var a = { n: 1 };
    var b = a;
    b.n = 7;
    var result = a.n;
  )"),
                   7);
}

TEST(References, ArraysMutateThroughFunctionArguments) {
  EXPECT_DOUBLE_EQ(Num(R"(
    function push9(list) { list.push(9); }
    var data = [1];
    push9(data);
    var result = data.length * 10 + data[1];
  )"),
                   29);
}

TEST(References, SliceMakesACopy) {
  EXPECT_DOUBLE_EQ(Num(R"(
    var a = [1, 2, 3];
    var b = a.slice(0);
    b[0] = 99;
    var result = a[0];
  )"),
                   1);
}

TEST(References, NumbersAndStringsAreValues) {
  EXPECT_EQ(Str(R"(
    var a = "x";
    var b = a;
    b = b + "y";
    var result = a;
  )"),
            "x");
}

// ------------------------------------------------------------ coercion

TEST(Coercion, NaNPropagatesAndComparesFalse) {
  EXPECT_DOUBLE_EQ(Num("var result = isNaN(0 / 0) ? 1 : 0;"), 1);
  EXPECT_DOUBLE_EQ(Num("var result = (0 / 0 == 0 / 0) ? 1 : 0;"), 0);
  EXPECT_DOUBLE_EQ(Num("var result = (0 / 0 < 1) ? 1 : 0;"), 0);
}

TEST(Coercion, StringToNumber) {
  EXPECT_DOUBLE_EQ(Num("var result = '3' * '4';"), 12);
  EXPECT_DOUBLE_EQ(Num("var result = '3' - 1;"), 2);
  EXPECT_DOUBLE_EQ(Num("var result = isNaN('3x' * 1) ? 1 : 0;"), 1);
  EXPECT_DOUBLE_EQ(Num("var result = Number('') ;"), 0);
  EXPECT_DOUBLE_EQ(Num("var result = Number(null);"), 0);
  EXPECT_DOUBLE_EQ(Num("var result = isNaN(Number(undefined)) ? 1 : 0;"), 1);
}

TEST(Coercion, TruthinessTable) {
  EXPECT_EQ(Str(R"(
    var values = [0, 1, "", "a", null, undefined, [], {}];
    var bits = "";
    for (var i = 0; i < values.length; i++) {
      bits = bits + (values[i] ? "1" : "0");
    }
    var result = bits;
  )"),
            "01010011");  // [] and {} are truthy
}

TEST(Coercion, PlusFavorsStringsMinusFavorsNumbers) {
  EXPECT_EQ(Str("var result = '1' + 2;"), "12");
  EXPECT_DOUBLE_EQ(Num("var result = '5' - 2;"), 3);
  EXPECT_EQ(Str("var result = 1 + 2 + '3';"), "33");
  EXPECT_EQ(Str("var result = '1' + (2 + 3);"), "15");
}

TEST(Coercion, BooleansInArithmetic) {
  EXPECT_DOUBLE_EQ(Num("var result = true + true;"), 2);
  EXPECT_DOUBLE_EQ(Num("var result = false * 10 + true;"), 1);
}

// --------------------------------------------------------- corner cases

TEST(Corners, EmptyFunctionReturnsUndefined) {
  EXPECT_DOUBLE_EQ(Num(R"(
    function nothing() {}
    var result = nothing() == undefined ? 1 : 0;
  )"),
                   1);
}

TEST(Corners, ReturnWithoutValue) {
  EXPECT_DOUBLE_EQ(Num(R"(
    function bail(x) { if (x) return; return 5; }
    var result = (bail(true) == undefined ? 10 : 0) + bail(false);
  )"),
                   15);
}

TEST(Corners, NestedTernariesAssociateRight) {
  EXPECT_EQ(Str(R"(
    function grade(n) {
      return n > 90 ? "A" : n > 80 ? "B" : n > 70 ? "C" : "F";
    }
    var result = grade(95) + grade(85) + grade(75) + grade(10);
  )"),
            "ABCF");
}

TEST(Corners, ChainedAssignments) {
  EXPECT_DOUBLE_EQ(Num("var a; var b; a = b = 5; var result = a + b;"), 10);
}

TEST(Corners, CommaLessObjectKeyVariants) {
  EXPECT_DOUBLE_EQ(Num(R"(
    var o = { "quoted key": 1, plain: 2, 3: 4 };
    var result = o["quoted key"] + o.plain + o["3"];
  )"),
                   7);
}

TEST(Corners, DeleteViaObjectHelpers) {
  EXPECT_DOUBLE_EQ(Num(R"(
    var o = { a: 1, b: 2 };
    var keys = Object.keys(o);
    var result = keys.length;
  )"),
                   2);
}

TEST(Corners, WhileFalseNeverRuns) {
  EXPECT_DOUBLE_EQ(Num("var n = 0; while (false) n = 1; var result = n;"), 0);
}

TEST(Corners, ForInOverArrayGivesStringIndices) {
  EXPECT_EQ(Str(R"(
    var out = "";
    for (var k in ["a", "b"]) out = out + k;
    var result = out;
  )"),
            "01");
}

TEST(Corners, StringIndexOutOfRangeIsUndefined) {
  EXPECT_DOUBLE_EQ(Num("var result = 'ab'[5] == undefined ? 1 : 0;"), 1);
}

TEST(Corners, NegativeArrayIndexReadsUndefined) {
  EXPECT_DOUBLE_EQ(Num("var a = [1]; var result = a[-1] == undefined ? 1 : 0;"),
                   1);
}

TEST(Corners, ModuloWithDoubles) {
  EXPECT_DOUBLE_EQ(Num("var result = 5.5 % 2;"), 1.5);
  EXPECT_DOUBLE_EQ(Num("var result = -7 % 3;"), -1.0);  // fmod semantics
}

TEST(Corners, UpdateOperatorsOnMembers) {
  EXPECT_DOUBLE_EQ(Num(R"(
    var o = { n: 5 };
    o.n++;
    ++o.n;
    var a = [10];
    a[0]--;
    var result = o.n * 100 + a[0];
  )"),
                   709);
}

TEST(Corners, LogicalOperatorsReturnOperands) {
  EXPECT_EQ(Str("var result = null || 'fallback';"), "fallback");
  EXPECT_EQ(Str("var result = 'first' || 'second';"), "first");
  EXPECT_DOUBLE_EQ(Num("var result = (undefined && 5) == undefined ? 1 : 0;"),
                   1);
}

TEST(Corners, DeeplyNestedDataStructures) {
  EXPECT_DOUBLE_EQ(Num(R"(
    var tree = { left: { left: { value: 1 }, right: { value: 2 } },
                 right: { value: 3 } };
    function total(node) {
      if (node == undefined) return 0;
      var own = node.value == undefined ? 0 : node.value;
      return own + total(node.left) + total(node.right);
    }
    var result = total(tree);
  )"),
                   6);
}

TEST(Corners, JsonRoundTripInsideScript) {
  EXPECT_DOUBLE_EQ(Num(R"(
    var original = { poses: [[1, 2], [3, 4]], label: "squat" };
    var copy = JSON.parse(JSON.stringify(original));
    copy.poses[0][0] = 99;   // deep copy: original untouched
    var result = original.poses[0][0];
  )"),
                   1);
}

// ------------------------------------------------ resolver golden corpus
//
// The resolver (resolver.hpp) interns names and folds constants; it
// must never change what a program means. Expected outputs were frozen
// from runs on which resolved and unresolved execution agreed.

std::string EvalDisplay(const std::string& body) {
  Context context;
  Status loaded = context.Load(body);
  if (!loaded.ok()) return "load error: " + loaded.error().ToString();
  return Vm::ToDisplayString(context.vm()->GetGlobal("result"));
}

TEST(ResolverEquivalence, ResultsMatchGoldenCorpus) {
  const std::vector<std::pair<std::string, std::string>> cases = {
      // Shadowing across nested blocks.
      {R"(var x = 1; { var x = 2; { var x = 3; } } var result = x;)", "1"},
      // Closure over a loop variable (shared binding).
      {R"(var f = []; for (var i = 0; i < 3; i++) f.push(function () { return i; });
         var result = f[0]() + f[2]();)",
       "6"},
      // Catch binding shadows a global of the same name.
      {R"(var e = 7; try { throw 1; } catch (e) { e = e + 1; } var result = e;)",
       "7"},
      // Hoisted self-reference + recursion.
      {R"(var result = fact(5); function fact(n) { return n < 2 ? 1 : n * fact(n - 1); })",
       "120"},
      // Named function expression self-reference.
      {R"(var f = function g(n) { return n < 2 ? 1 : n * g(n - 1); }; var result = f(5);)",
       "120"},
      // Compound assignment / update operators on members and slots.
      {R"(var o = { n: 1 }; var t = 0; for (var i = 0; i < 4; i++) { o.n *= 2; t += o.n; }
         var result = t * 100 + o.n;)",
       "3016"},
      // Switch with fall-through and block-scoped cases.
      {R"(var out = ""; var k = 1;
         switch (k) { case 0: out += "a"; case 1: out += "b"; case 2: out += "c"; break;
                      default: out += "d"; }
         var result = out;)",
       "bc"},
      // String/number coercion through binary fast paths (folded).
      {R"(var result = "3" * "4" + ("1" + 2) + (0 / 0 == 0 / 0 ? "eq" : "ne");)",
       "1212ne"},
      // Array methods + length through the interned fast path.
      {R"(var a = [3, 1, 2]; a.sort(); a.push(9); var result = a.join("-") + ":" + a.length;)",
       "1-2-3-9:4"},
  };
  for (const auto& [program, expected] : cases) {
    EXPECT_EQ(EvalDisplay(program), expected) << program;
  }
}

TEST(ResolverEquivalence, ErrorsMatchGoldenCorpus) {
  const std::vector<std::pair<std::string, std::string>> cases = {
      // unbound identifier
      {"var result = missing;", "script:1: 'missing' is not defined"},
      // unbound call
      {"var result = missing();", "script:1: 'missing' is not defined"},
      // member of undefined
      {"var o = {}; var result = o.a.b;",
       "script:1: cannot read property 'b' of undefined"},
  };
  for (const auto& [program, expected] : cases) {
    Context context;
    const Status s = context.Load(program);
    EXPECT_EQ(s.code(), StatusCode::kScriptError) << program;
    EXPECT_EQ(s.message(), expected) << program;
  }
}

}  // namespace
}  // namespace vp::script
