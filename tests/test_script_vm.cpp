// Bytecode-VM tests, pinned by a golden corpus: results, error
// messages, state snapshots and Math.random bits below were frozen from
// runs on which the bytecode VM and the retired tree-walking
// interpreter (resolved and unresolved) agreed byte for byte.
#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "json/write.hpp"
#include "script/context.hpp"
#include "sim/fiber.hpp"

namespace vp::script {
namespace {

ContextOptions WithSeed(uint64_t seed) {
  ContextOptions options;
  options.random_seed = seed;
  return options;
}

std::string Eval(const std::string& body) {
  Context context;
  Status loaded = context.Load(body);
  if (!loaded.ok()) return "load error: " + loaded.error().ToString();
  return Vm::ToDisplayString(context.vm()->GetGlobal("result"));
}

/// "CODE|message" — the golden form of a failed Status.
std::string Describe(const Status& s) {
  return std::string(StatusCodeName(s.code())) + "|" + s.message();
}

TEST(VmEngine, PlainModuleRunsOnTheVm) {
  Context context;
  ASSERT_TRUE(context
                  .Load(R"(
    var xs = [];
    function make(n) { return function () { return n; }; }
    for (var i = 0; i < 3; i++) xs.push(make(i));
    function event_received(e) { return xs[1]() + e.v; }
  )")
                  .ok());
  ASSERT_NE(context.vm(), nullptr);
  EXPECT_TRUE(context.HasFunction("event_received"));
}

// ------------------------------------------------------ golden results

TEST(VmEquivalence, ResultsMatchGoldenCorpus) {
  const std::vector<std::pair<std::string, std::string>> cases = {
      // Shadowing across nested blocks.
      {R"(var x = 1; { var x = 2; { var x = 3; } } var result = x;)", "1"},
      // Closure over a loop variable (shared binding).
      {R"(var f = []; for (var i = 0; i < 3; i++) f.push(function () { return i; });
         var result = f[0]() + f[2]();)",
       "6"},
      // Per-iteration body locals captured independently.
      {R"(var f = []; for (var i = 0; i < 3; i++) { var k = i * 10; f.push(function () { return k; }); }
         var result = f[0]() + f[1]() + f[2]();)",
       "30"},
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
      // String/number coercion through binary fast paths.
      {R"(var result = "3" * "4" + ("1" + 2) + (0 / 0 == 0 / 0 ? "eq" : "ne");)",
       "1212ne"},
      // Array methods, callbacks re-entering the engine.
      {R"(var a = [5, 3, 8, 1]; var b = a.map(function (x) { return x * 2; })
            .filter(function (x) { return x > 4; });
         b.sort(function (x, y) { return x - y; });
         var result = b.join("-") + ":" + a.length;)",
       "6-10-16:4"},
      // reduce with and without seed, indexOf/includes/slice/concat.
      {R"(var a = [1, 2, 3, 4];
         var s1 = a.reduce(function (acc, x) { return acc + x; });
         var s2 = a.reduce(function (acc, x) { return acc + x; }, 100);
         var result = s1 + "," + s2 + "," + a.indexOf(3) + "," + a.includes(9)
                    + "," + a.slice(1, -1).join("") + "," + a.concat([9, [8]]).length;)",
       "10,110,2,false,23,6"},
      // for-in over objects and arrays, key snapshot semantics.
      {R"(var o = { a: 1, b: 2, c: 3 }; var keys = ""; var sum = 0;
         for (var k in o) { keys += k; sum += o[k]; }
         var arr = [10, 20]; for (var k in arr) keys += k;
         var result = keys + ":" + sum;)",
       "abc01:6"},
      // try/catch: catch object shape, nested handlers, rethrow.
      {R"(var log = "";
         try {
           try { missing(); } catch (e) { log += e.code + "|"; throw "boom"; }
         } catch (e) { log += e.message; }
         var result = log;)",
       "SCRIPT_ERROR|script:3: uncaught: boom"},
      // while / do-while / break / continue.
      {R"(var s = 0; var i = 0;
         while (true) { i++; if (i % 2 == 0) continue; if (i > 9) break; s += i; }
         var j = 0; do { j++; } while (j < 3);
         var result = s * 10 + j;)",
       "253"},
      // typeof, logical operators returning operands, ternary chains.
      {R"(var result = typeof [] + "," + typeof null + "," + typeof (function () {})
                    + "," + (0 || "x") + "," + (1 && "y") + "," + (undefined ? 1 : null ? 2 : 3);)",
       "object,object,function,x,y,3"},
      // String methods bound natively on the string receiver.
      {R"(var s = "  Video,Pipe  ";
         var result = s.trim().split(",").map(function (w) { return w.toUpperCase(); }).join("+")
                    + ":" + s.trim().length + ":" + "ab".repeat(3);)",
       "VIDEO+PIPE:10:ababab"},
      // Object/array display forms, nested structures.
      {R"(var result = { a: [1, "x", { b: null }], c: undefined };)",
       "{a: [1, \"x\", {b: null}], c: undefined}"},
      // JSON round trip + Object.keys + Math.
      {R"(var o = JSON.parse("{\"a\":[1,2],\"b\":{\"c\":3}}");
         o.b.d = Math.max(4, 2) + Math.floor(2.9);
         var result = JSON.stringify(o) + ":" + Object.keys(o).join("");)",
       "{\"a\":[1,2],\"b\":{\"c\":3,\"d\":6}}:ab"},
      // Deleting / overwriting keys via dynamic index writes.
      {R"(var o = {}; o["k" + 1] = 10; o.k1 += 5; var result = o.k1;)", "15"},
      // Increment/decrement on members, prefix and postfix.
      {R"(var o = { n: 5 }; var a = o.n++; var b = ++o.n; var result = a * 100 + b * 10 + o.n;)",
       "577"},
      // NaN-adjacent behaviours through the NaN-boxed representation.
      {R"(var n = 0 / 0;
         var result = (n == n) + ":" + (n != n) + ":" + NumberHole(n);
         function NumberHole(x) { return typeof x + ":" + (x ? "t" : "f"); })",
       "false:true:number:f"},
      // Negative zero, large integers, float formatting.
      {R"(var result = -0 + ":" + 1e15 + ":" + 0.1 + 0.2 + ":" + 123456789012345;)",
       "0:1e+15:0.10.2:123456789012345"},
      // Bound array method detached from its receiver.
      {R"(var a = [1]; var push = a.push; push(2, 3); var result = a.join("-");)",
       "1-2-3"},
  };
  for (const auto& [program, expected] : cases) {
    EXPECT_EQ(Eval(program), expected) << program;
  }
}

// ------------------------------------------------------- golden errors

TEST(VmEquivalence, ErrorsMatchGoldenCorpus) {
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"var result = missing;",
       "SCRIPT_ERROR|script:1: 'missing' is not defined"},
      {"var result = missing();",
       "SCRIPT_ERROR|script:1: 'missing' is not defined"},
      {"var o = {}; var result = o.a.b;",
       "SCRIPT_ERROR|script:1: cannot read property 'b' of undefined"},
      {"var result = null.x;",
       "SCRIPT_ERROR|script:1: cannot read property 'x' of null"},
      {"var result = (5)();", "SCRIPT_ERROR|script:1: attempt to call a number"},
      {"var a = [1]; var result = a[0 / 0];",
       "SCRIPT_ERROR|script:1: array index is NaN"},
      {"var a = [1]; a[-1] = 2; var result = 1;",
       "SCRIPT_ERROR|script:1: bad array index"},
      {"var result = 5[0];", "SCRIPT_ERROR|script:1: cannot index a number"},
      {"var n = 3; n.x = 1; var result = 1;",
       "SCRIPT_ERROR|script:1: cannot set property 'x' on a number"},
      {"const c = 1; c = 2; var result = c;",
       "SCRIPT_ERROR|script:1: assignment to const 'c'"},
      {"var result = undefined1 + undefined2;",
       "SCRIPT_ERROR|script:1: 'undefined1' is not defined"},
      {"for (var k in 5) {} var result = 1;",
       "SCRIPT_ERROR|script:1: for-in over a non-object"},
      {"function f() { return f(); } var result = f();",
       "SCRIPT_ERROR|script:1: call depth limit (128) exceeded"},
      {"throw { code: 9 }; var result = 1;",
       "SCRIPT_ERROR|script:1: uncaught: {code: 9}"},
      {"throw \"plain\"; var result = 1;",
       "SCRIPT_ERROR|script:1: uncaught: plain"},
  };
  for (const auto& [program, expected] : cases) {
    Context context;
    EXPECT_EQ(Describe(context.Load(program)), expected) << program;
  }
}

TEST(VmEquivalence, CallErrorsMatchGoldenCorpus) {
  const std::string module = R"(
    function boom() { return nope(); }
    function deep(n) { return n == 0 ? worse() : deep(n - 1); }
  )";
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"boom", "SCRIPT_ERROR|script:2: 'nope' is not defined"},
      {"deep", "SCRIPT_ERROR|script:3: 'worse' is not defined"},
      {"absent", "NOT_FOUND|no function 'absent' in module"},
  };
  for (const auto& [name, expected] : cases) {
    Context context;
    ASSERT_TRUE(context.Load(module).ok());
    auto r = context.Call(name, {json::Value(3.0)});
    ASSERT_FALSE(r.ok()) << name;
    EXPECT_EQ(Describe(Status(r.error())), expected) << name;
  }
}

TEST(VmEquivalence, BudgetAndDepthLimitsMatchGoldenCorpus) {
  ContextOptions options;
  options.limits.max_steps = 10'000;
  {
    Context context(options);
    EXPECT_EQ(Describe(context.Load("while (true) {}")),
              "RESOURCE_EXHAUSTED|script:1: step budget exceeded (10000 steps)");
  }
  {
    Context context(options);
    EXPECT_EQ(
        Describe(context.Load("function f(n) { return f(n + 1); } f(0);")),
        "SCRIPT_ERROR|script:1: call depth limit (128) exceeded");
  }
  // The depth limit is catchable — and the budget limit is not.
  EXPECT_EQ(Eval(R"(
    function f(n) { return f(n + 1); }
    var result = "no";
    try { f(0); } catch (e) { result = "caught"; }
  )"),
            "caught");
}

// ------------------------------------------------------- host boundary

TEST(VmEquivalence, HostFunctionsSeeBoxedArguments) {
  Context context;
  std::vector<std::string> seen;
  context.RegisterHostFunction(
      "record", [&seen](Vm&, HostArgs args) -> Result<VpValue> {
        std::string all;
        for (VpValue v : args) all += Vm::ToDisplayString(v) + ";";
        seen.push_back(all);
        return VpValue::Number(static_cast<double>(args.size()));
      });
  ASSERT_TRUE(context
                  .Load(R"(
    var n = record(1, "two", [3, { four: 4 }], null, undefined);
    function handler(e) { return record(e, e.nested); }
  )")
                  .ok());
  json::Value e = json::Value::MakeObject();
  e["nested"] = json::Value::MakeArray();
  e["k"] = json::Value(7.0);
  ASSERT_TRUE(context.Call("handler", {e}).ok());
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], "1;two;[3, {four: 4}];null;undefined;");
  EXPECT_EQ(seen[1], "{nested: [], k: 7};[];");
}

// --------------------------------------------------- checkpoint / restore

const char* kStatefulModule = R"(
  var counters = { events: 0, total: 0 };
  var history = [];
  var ratio = 0;
  function event_received(e) {
    counters.events += 1;
    counters.total += e.value;
    history.push(e.value * 2);
    if (history.length > 4) history.shift();
    ratio = counters.total / counters.events;
    return counters.events;
  }
)";

void Drive(Context& context, int from, int count) {
  for (int i = from; i < from + count; ++i) {
    json::Value e = json::Value::MakeObject();
    e["value"] = json::Value(static_cast<double>(i));
    ASSERT_TRUE(context.Call("event_received", {e}).ok());
  }
}

TEST(VmCheckpoint, SnapshotMatchesGoldenCorpus) {
  Context context;
  ASSERT_TRUE(context.Load(kStatefulModule).ok());
  Drive(context, 0, 7);
  EXPECT_EQ(json::Write(context.SnapshotState()),
            R"({"counters":{"events":7,"total":21},"history":[6,8,10,12],"ratio":3})");
}

TEST(VmCheckpoint, RestoreResumesLikeAnUninterruptedRun) {
  Context source;
  ASSERT_TRUE(source.Load(kStatefulModule).ok());
  Drive(source, 0, 5);
  const json::Value checkpoint = source.SnapshotState();
  EXPECT_EQ(json::Write(checkpoint),
            R"({"counters":{"events":5,"total":10},"history":[2,4,6,8],"ratio":2})");

  Context target;
  ASSERT_TRUE(target.Load(kStatefulModule).ok());
  ASSERT_TRUE(target.RestoreState(checkpoint).ok());
  Drive(target, 5, 5);
  const char* final10 =
      R"({"counters":{"events":10,"total":45},"history":[12,14,16,18],"ratio":4.5})";
  EXPECT_EQ(json::Write(target.SnapshotState()), final10);

  Context straight;
  ASSERT_TRUE(straight.Load(kStatefulModule).ok());
  Drive(straight, 0, 10);
  EXPECT_EQ(json::Write(straight.SnapshotState()), final10);
}

// ---------------------------------------------------- seeded determinism

uint64_t Fnv(uint64_t h, uint64_t bits) {
  for (int i = 0; i < 8; ++i) {
    h ^= (bits >> (8 * i)) & 0xff;
    h *= 0x100000001b3ull;
  }
  return h;
}

TEST(VmDeterminism, SeededRunsMatchGoldenBits) {
  const char* module = R"(
    var stats = { sum: 0, max: 0, picks: [] };
    function event_received(e) {
      var r = Math.random();
      stats.sum += r;
      if (r > stats.max) stats.max = r;
      if (stats.picks.length < 3) stats.picks.push(r);
      return r;
    }
  )";
  // Per seed: FNV-1a over the raw bits of the 50 Math.random results,
  // and the final snapshot.
  const std::vector<std::pair<uint64_t, std::string>> golden = {
      {0xabe21a2e0d09b7a8ull,
       R"({"stats":{"sum":24.983313663017768,"max":0.98224580838715392,"picks":[0.70292183315885048,0.52043661993885693,0.5741057000197225]}})"},
      {0x289c2a098a94ec80ull,
       R"({"stats":{"sum":24.592936166486577,"max":0.9978931422371724,"picks":[0.10217911323039464,0.72551728851515596,0.18396244547340834]}})"},
      {0x8fa6dea6dbf0088cull,
       R"({"stats":{"sum":26.458154381296286,"max":0.98072989523670995,"picks":[0.69063829511778796,0.6405810067354607,0.21826237328256315]}})"},
      {0x4c43bd246d34a41aull,
       R"({"stats":{"sum":24.212838977704067,"max":0.97755356277447147,"picks":[0.26343295837749359,0.91153034564263713,0.44336700255557693]}})"},
      {0x71139cd285fc14d1ull,
       R"({"stats":{"sum":27.22240995071785,"max":0.99852561798090256,"picks":[0.28841122817023568,0.60208233313201065,0.64954673055102219]}})"},
  };
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    Context context(WithSeed(seed));
    ASSERT_TRUE(context.Load(module).ok());
    uint64_t h = 0xcbf29ce484222325ull;
    for (int i = 0; i < 50; ++i) {
      auto r = context.Call("event_received", {json::Value::MakeObject()});
      ASSERT_TRUE(r.ok());
      const double d = r->AsDouble();
      uint64_t bits;
      std::memcpy(&bits, &d, sizeof(bits));
      h = Fnv(h, bits);
    }
    EXPECT_EQ(h, golden[seed - 1].first) << "seed " << seed;
    EXPECT_EQ(json::Write(context.SnapshotState()), golden[seed - 1].second)
        << "seed " << seed;
  }
}

// -------------------------------------------------------- stack limits

TEST(VmStackLimits, DeepFramesWithWideLiteralOverflowGracefully) {
  // Regression: pushes inside a frame used to be unchecked beyond a
  // fixed 4096-slot call-entry headroom, so recursion with fat frames
  // plus one wide array literal wrote past the end of the VM value
  // stack (heap corruption). The compiler now computes each proto's
  // worst-case stack depth and PushFrame rejects a call that cannot
  // fit, surfacing an ordinary catchable script error instead.
  std::string source = "function deep(n) {\n";
  for (int i = 0; i < 1200; ++i) {
    source += "  var l" + std::to_string(i) + " = n;\n";
  }
  source += "  if (n > 0) return deep(n - 1);\n  var wide = [";
  for (int i = 0; i < 8000; ++i) source += "0,";
  source += "0];\n  return wide.length;\n}\nvar result = deep(200);\n";

  Context context;
  Status loaded = context.Load(source);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.error().ToString().find("stack overflow"),
            std::string::npos)
      << loaded.error().ToString();
}

TEST(VmStackLimits, WideLiteralsBeyondTheOldHeadroomStillEvaluate) {
  // A single wide literal at shallow depth fits comfortably and must
  // not be rejected by the per-proto bound (6001 > the old 4096-slot
  // headroom, so this also exercises the unchecked-push path the
  // max_stack check now covers).
  std::string source = "var result = [";
  for (int i = 0; i < 6000; ++i) source += "1,";
  source += "1].length;\n";
  EXPECT_EQ(Eval(source), "6001");
}

// ------------------------------------------------------ compiler limits

std::string CallWithArgs(int n) {
  std::string args = "0";
  for (int i = 1; i < n; ++i) args += ", 0";
  return "function wide() { return 9; }\nvar result = wide(" + args + ");\n";
}

TEST(VmCompileLimits, TooManyCallArgumentsFailLoad) {
  EXPECT_EQ(Eval(CallWithArgs(255)), "9");
  Context context;
  const Status loaded = context.Load(CallWithArgs(256));
  EXPECT_EQ(Describe(loaded),
            "SCRIPT_ERROR|script compile: too many call arguments (max 255)");
}

TEST(VmCompileLimits, JumpOverSixtyFourKibFailsLoad) {
  // An if-body longer than a u16 jump offset can skip.
  std::string body;
  for (int i = 0; i < 12000; ++i) body += "x = x + 1; ";
  Context context;
  const Status loaded =
      context.Load("var x = 0; if (x) { " + body + "} var result = x;");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.code(), StatusCode::kScriptError);
  EXPECT_NE(loaded.message().find("(max 65535 bytes)"), std::string::npos)
      << loaded.message();
}

TEST(VmContextReload, RejectedReloadLeavesNoProgram) {
  // A reload replaces the whole program. One the compiler rejects must
  // not leave the previous program answering HasFunction / Call /
  // GetGlobal from its stale state.
  Context context;
  ASSERT_TRUE(
      context.Load("function probe() { return 1; } var result = 7;").ok());
  ASSERT_TRUE(context.HasFunction("probe"));

  const Status reloaded = context.Load(CallWithArgs(256));
  EXPECT_EQ(reloaded.code(), StatusCode::kScriptError);
  EXPECT_FALSE(context.HasFunction("probe"));
  EXPECT_FALSE(context.HasFunction("wide"));
  EXPECT_TRUE(context.GetGlobal("result").is_null());
  EXPECT_EQ(context.vm(), nullptr);
}

TEST(VmContextReload, UnloadedContextIsEmpty) {
  Context never;
  Context failed;
  ASSERT_FALSE(failed.Load("var = ;").ok());
  for (Context* context : {&never, &failed}) {
    EXPECT_FALSE(context->HasFunction("init"));
    auto r = context->Call("init", {});
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code(), StatusCode::kNotFound);
    EXPECT_TRUE(context->GetGlobal("result").is_null());
    EXPECT_EQ(json::Write(context->SnapshotState()), "{}");
  }
}

// ------------------------------------------------------- hostile values
// Module state is untrusted. Every case below brought the whole
// process down (stack overflow, std::bad_alloc) while conversions and
// display recursed without bounds; now each fails one conversion.

const char* kCyclicModule = R"(
  var a = { x: 1 };
  a.self = a;
  var b = [1];
  b.push(b);
  var keep = 2;
)";

/// Run `fn` to completion on a sim::Fiber: the 256 KiB heap stack,
/// without a guard page, that module handlers run on.
void OnFiber(std::function<void()> fn) {
  sim::Fiber* fiber = sim::Fiber::Spawn(std::move(fn));
  ASSERT_TRUE(fiber->finished());
  delete fiber;
}

/// `nest(n)`: n arrays, each the only element of the next.
const char* kNest = R"(
  function nest(n) { var a = []; for (var i = 1; i < n; i++) a = [a]; return a; }
)";

/// The display of global `result` after running `body` after kNest.
std::string EvalNested(const std::string& body) {
  return Eval(std::string(kNest) + body);
}

TEST(VmHostileValues, CyclicGlobalsAreLeftOutOfSnapshots) {
  Context context;
  ASSERT_TRUE(context.Load(kCyclicModule).ok());
  EXPECT_EQ(json::Write(context.SnapshotState()), R"({"keep":2})");
  EXPECT_TRUE(context.GetGlobal("a").is_null());
}

TEST(VmHostileValues, StringifyOfACycleIsACatchableError) {
  EXPECT_EQ(Eval(std::string(kCyclicModule) + R"(
    var result = "";
    try { JSON.stringify(a); } catch (e) { result += e.code + "|" + e.message; }
    try { JSON.stringify(b); } catch (e) { result += ";" + e.message; }
  )"),
            "SCRIPT_ERROR|script:9: cannot serialize a cyclic value to JSON;"
            "script:10: cannot serialize a cyclic value to JSON");
}

TEST(VmHostileValues, DisplayOfACyclePrintsAPlaceholder) {
  EXPECT_EQ(Eval(std::string(kCyclicModule) + R"(
    var result = "" + b + " " + String(a);
  )"),
            "[1, [...]] {x: 1, self: [...]}");
  Context context;
  std::vector<std::string> lines;
  context.set_print_handler(
      [&lines](const std::string& line) { lines.push_back(line); });
  ASSERT_TRUE(context.Load(std::string(kCyclicModule) + "console.log(b, a);")
                  .ok());
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0], "[1, [...]] {x: 1, self: [...]}");
}

TEST(VmHostileValues, SharedAcyclicValuesStillSerialize) {
  EXPECT_EQ(Eval(R"(
    var x = [1, { y: 2 }];
    var result = JSON.stringify({ a: x, b: x, c: [x, x] }) + " " + { a: x, b: x };
  )"),
            R"({"a":[1,{"y":2}],"b":[1,{"y":2}],"c":[[1,{"y":2}],[1,{"y":2}]]} )"
            R"({a: [1, {y: 2}], b: [1, {y: 2}]})");
}

TEST(VmHostileValues, HundredThousandDeepNestingIsLeftOutOfSnapshots) {
  OnFiber([] {
    Context context;
    ASSERT_TRUE(context
                    .Load(std::string(kNest) +
                          "var deep = nest(100000); var keep = 2;")
                    .ok());
    EXPECT_EQ(json::Write(context.SnapshotState()), R"({"keep":2})");
    EXPECT_TRUE(context.GetGlobal("deep").is_null());
  });
}

TEST(VmHostileValues, ExponentialSharingFailsFast) {
  const std::string doubling = R"(
    var a = [];
    for (var i = 0; i < 30; i++) a = [a, a];
    var keep = 2;
  )";
  Context context;
  ASSERT_TRUE(context.Load(doubling).ok());
  EXPECT_EQ(json::Write(context.SnapshotState()), R"({"keep":2})");
  EXPECT_EQ(Eval(doubling + R"(
    var result = "";
    try { JSON.stringify(a); } catch (e) { result += e.message; }
    try { result += "" + a; } catch (e) { result += ";" + e.message; }
  )"),
            "script:7: value too large to serialize to JSON;"
            "script:8: string longer than 1048576 bytes");
}

TEST(VmHostileValues, NestingBoundHoldsOnAHandlerFiber) {
  // At the bound: serializes, parses back and displays in full.
  const std::string at_limit = std::to_string(kMaxValueDepth);
  const std::string past_limit = std::to_string(kMaxValueDepth + 1);
  OnFiber([&] {
    EXPECT_EQ(EvalNested("var s = JSON.stringify(nest(" + at_limit + "));"
                         "var back = JSON.stringify(JSON.parse(s));"
                         "var shown = '' + nest(" + at_limit + ");"
                         "var result = (s == back) + ':' + s.length + ':' +"
                         "  shown.length + ':' + shown.indexOf('[...]');"),
              "true:" + std::to_string(2 * kMaxValueDepth) + ":" +
                  std::to_string(2 * kMaxValueDepth) + ":-1");
  });
  // One level deeper, and far deeper: a catchable error, a placeholder.
  for (const std::string& depth : {past_limit, std::string("2000")}) {
    OnFiber([&] {
      EXPECT_EQ(
          EvalNested("var result = '';"
                     "try { JSON.stringify(nest(" + depth + ")); }"
                     "catch (e) { result = e.message; }"
                     "var shown = '' + nest(" + depth + ");"
                     "result += ':' + shown.indexOf('[...]');"),
          "script:3: cannot serialize JSON nested deeper than " +
              std::to_string(kMaxValueDepth) + ":" +
              std::to_string(kMaxValueDepth));
    });
  }
}

// Array growth is bounded at every site a script grows an array; the
// bound is a catchable error, and the array keeps its contents.
const std::string kArrayAtBound =
    "var a = []; a[" + std::to_string(kMaxArrayLength - 1) +
    "] = 0; var result = '';";

TEST(VmHostileValues, IndexStorePastTheArrayBoundIsACatchableError) {
  EXPECT_EQ(Eval(R"(
    var a = [1];
    var result = "";
    try { a[1e12] = 1; } catch (e) { result = e.code + "|" + e.message; }
    a[1048575] = 2;
    result += "|" + a.length + "|" + a[0];
  )"),
            "SCRIPT_ERROR|script:4: array longer than 1048576 elements|"
            "1048576|1");
}

TEST(VmHostileValues, PushPastTheArrayBoundIsACatchableError) {
  EXPECT_EQ(Eval(kArrayAtBound + R"(
    try { a.push(1); } catch (e) { result = e.code + "|" + e.message; }
    result += "|" + a.length;
  )"),
            "SCRIPT_ERROR|script:2: array longer than 1048576 elements|"
            "1048576");
}

TEST(VmHostileValues, UnshiftPastTheArrayBoundIsACatchableError) {
  EXPECT_EQ(Eval(kArrayAtBound + R"(
    try { a.unshift(1); } catch (e) { result = e.code + "|" + e.message; }
    result += "|" + a.length + "|" + a[0];
  )"),
            "SCRIPT_ERROR|script:2: array longer than 1048576 elements|"
            "1048576|undefined");
}

TEST(VmHostileValues, DoublingConcatStopsAtTheArrayBound) {
  EXPECT_EQ(Eval(R"(
    var a = [1];
    var doublings = 0;
    var result = "";
    try {
      for (var i = 0; i < 40; i = i + 1) { a = a.concat(a); doublings++; }
    } catch (e) { result = e.code + "|" + e.message + "|" + doublings; }
    result += "|" + a.length;
  )"),
            "SCRIPT_ERROR|script:6: array longer than 1048576 elements|20|"
            "1048576");
}

TEST(VmHostileValues, SplitPastTheArrayBoundIsACatchableError) {
  EXPECT_EQ(Eval(R"(
    var s = ",".repeat(1048576);
    var result = "";
    try { s.split(","); } catch (e) { result = e.code + "|" + e.message; }
    result += "|" + ",".repeat(1048575).split(",").length;
  )"),
            "SCRIPT_ERROR|script:4: array longer than 1048576 elements|"
            "1048576");
}

TEST(VmHostileValues, HostArgumentsWithoutAJsonFormFailTheCall) {
  // The same bounded ToJson guards every host function that ships a
  // value: a cycle handed to one is a catchable script error.
  Context context;
  context.RegisterHostFunction(
      "ship", [](Vm& vm, HostArgs args) -> Result<VpValue> {
        auto j = vm.ToJson(args[0]);
        if (!j.ok()) return j.error();
        return VpValue::Boolean(true);
      });
  ASSERT_TRUE(context.Load(std::string(kCyclicModule) + R"(
    var result = "";
    try { ship(a); } catch (e) { result = e.code + "|" + e.message; }
  )").ok());
  EXPECT_EQ(Vm::ToDisplayString(context.vm()->GetGlobal("result")),
            "SCRIPT_ERROR|script:9: cannot serialize a cyclic value to JSON");
}

}  // namespace
}  // namespace vp::script
