// Microbenchmarks: the vpscript engine (our Duktape stand-in) — the
// per-event overhead every module pays.
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <memory>

#include "script/context.hpp"
#include "script/parser.hpp"

using namespace vp;

namespace {

const char* kModuleSource = R"JS(
var history = [];
function event_received(msg) {
  history.push(msg.value);
  if (history.length > 15) history.shift();
  var total = 0;
  for (var i = 0; i < history.length; i++) total += history[i];
  return total;
}
)JS";

void BM_ParseModule(benchmark::State& state) {
  for (auto _ : state) {
    auto program = script::ParseProgram(kModuleSource);
    benchmark::DoNotOptimize(program);
  }
}
BENCHMARK(BM_ParseModule);

void BM_ContextLoad(benchmark::State& state) {
  for (auto _ : state) {
    script::Context context;
    benchmark::DoNotOptimize(context.Load(kModuleSource));
  }
}
BENCHMARK(BM_ContextLoad);

void BM_EventDispatch(benchmark::State& state) {
  script::Context context;
  (void)context.Load(kModuleSource);
  json::Value message = json::Value::MakeObject();
  message["value"] = json::Value(1.5);
  for (auto _ : state) {
    auto result = context.Call("event_received", {message});
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_EventDispatch);

/// Host calls per script entry in the host-call measurements: enough
/// that the one Context::Call around them is noise.
constexpr int kHostCallsPerEntry = 1000;

/// A module that calls host function `sink` with a small object
/// argument `n` times. The host function reads the object in place on
/// the VM stack and returns a number; nothing is converted.
const char* kHostCallSource = R"JS(
function host_calls(n) {
  var total = 0;
  for (var i = 0; i < n; i++) total += sink({ x: i, y: 2 });
  return total;
}
)JS";

std::unique_ptr<script::Context> MakeHostCallContext() {
  auto context = std::make_unique<script::Context>();
  context->RegisterHostFunction(
      "sink",
      [](script::Vm&, script::HostArgs args) -> Result<script::VpValue> {
        return script::VpValue::Number(static_cast<double>(
            static_cast<script::GcObject*>(args[0].AsHeap())->items.size()));
      });
  if (!context->Load(kHostCallSource).ok()) std::abort();
  return context;
}

void BM_HostCall(benchmark::State& state) {
  auto context = MakeHostCallContext();
  const json::Value n(static_cast<double>(kHostCallsPerEntry));
  for (auto _ : state) {
    auto result = context->Call("host_calls", {n});
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * kHostCallsPerEntry);
}
BENCHMARK(BM_HostCall);

void BM_Fibonacci(benchmark::State& state) {
  script::Context context;
  (void)context.Load(
      "function fib(n) { return n < 2 ? n : fib(n-1) + fib(n-2); }");
  for (auto _ : state) {
    auto result = context.Call(
        "fib", {json::Value(static_cast<double>(state.range(0)))});
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_Fibonacci)->Arg(10)->Arg(15);

/// A pose-sized service response into the VM and back out: the
/// conversion every call_service pays on its response and request.
void BM_JsonVmRoundTrip(benchmark::State& state) {
  json::Value doc = json::Value::MakeObject();
  for (int i = 0; i < 17; ++i) {
    json::Value kp = json::Value::MakeObject();
    kp["x"] = json::Value(i * 1.5);
    kp["y"] = json::Value(i * 2.5);
    kp["detected"] = json::Value(true);
    doc["keypoints"].PushBack(std::move(kp));
  }
  script::Vm vm;
  for (auto _ : state) {
    const script::VpValue v = vm.FromJson(doc);
    auto back = vm.ToJson(v);
    benchmark::DoNotOptimize(back);
    // Nothing here is rooted: collect under the VM's own pressure rule.
    if (vm.bytes_allocated() > (1 << 20)) vm.CollectGarbage();
  }
}
BENCHMARK(BM_JsonVmRoundTrip);

}  // namespace
