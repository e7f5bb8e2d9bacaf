// Microbenchmarks: the vpscript engine (our Duktape stand-in) — the
// per-event overhead every module pays.
//
// Custom main(): VP_BENCH_SMOKE=1 skips google-benchmark and instead
// times event dispatch, Context::Load and one native host call,
// writing BENCH_script.json for CI to archive.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <vector>

#include "harness.hpp"
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

// ------------------------------------------------------- smoke mode

double NowUs() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Best-of-`rounds` wall time (µs) of `calls` invocations of `fn`.
/// Scheduler noise is strictly additive, so the minimum is unbiased.
template <typename Fn>
double BestUs(int rounds, int calls, Fn&& fn) {
  double best = 1e18;
  for (int r = 0; r < rounds; ++r) {
    const double start = NowUs();
    for (int i = 0; i < calls; ++i) fn();
    best = std::min(best, (NowUs() - start) / calls);
  }
  return best;
}

int SmokeMain() {
  // Best-of-9: more rounds tighten the minimum without biasing it.
  const int rounds = 9;

  // Per-event dispatch: one Context::Call of the module's handler.
  script::Context context;
  if (!context.Load(kModuleSource).ok()) std::abort();
  json::Value message = json::Value::MakeObject();
  message["value"] = json::Value(1.5);
  auto dispatch = [&] {
    auto result = context.Call("event_received", {message});
    benchmark::DoNotOptimize(result);
  };
  for (int i = 0; i < 2000; ++i) dispatch();  // warm caches
  const double dispatch_us = BestUs(rounds, 5000, dispatch);

  // Load: a fresh context linking the cached program + top level.
  const double load_us = BestUs(rounds, 300, [] {
    script::Context fresh;
    benchmark::DoNotOptimize(fresh.Load(kModuleSource));
  });

  // One native host call with a small object argument.
  auto host = MakeHostCallContext();
  const json::Value n(static_cast<double>(kHostCallsPerEntry));
  const double host_call_us =
      BestUs(rounds, 20, [&] {
        auto result = host->Call("host_calls", {n});
        benchmark::DoNotOptimize(result);
      }) /
      kHostCallsPerEntry;

  json::Value doc = json::Value::MakeObject();
  doc["bench"] = json::Value("micro_script");
  doc["dispatch_us_vm"] = json::Value(dispatch_us);
  doc["load_us"] = json::Value(load_us);
  doc["host_call_us"] = json::Value(host_call_us);
  bench::WriteBenchJson("script", doc);
  std::printf("dispatch %.2f us, load %.1f us, host call %.3f us\n",
              dispatch_us, load_us, host_call_us);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (vp::bench::SmokeMode()) return SmokeMain();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
