// Scale-to-zero lifecycle benchmark: the context bring-up ladder
// (cold / warm / hot starts), resident memory per hibernated pipeline,
// and a 100-pipeline burst wakeup under admission control.
//
//   cold  — parse + resolve + compile + Load into a fresh context
//           (program cache cleared before every Load);
//   warm  — Load served by the content-hash program cache: the
//           pre-compiled bytecode links into a fresh VM, no parser;
//   hot   — a pre-Loaded context drawn from the lifecycle warm pool:
//           no Load at all, just the handoff.
//
// The ladder is measured in real (wall-clock) microseconds — it is the
// one part of the system whose cost is host CPU, not simulated time.
// The memory and burst sections run in virtual time and are
// deterministic per seed.
//
// Exits non-zero unless all three gates pass: warm ≥ 5× cold,
// hibernated resident memory ≤ 50% of deployed-idle, zero interactive
// sheds in the burst. ctest runs the bench in smoke mode as the
// `bench_coldstart` entry, alone, because the ladder is wall-clock.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "harness.hpp"
#include "core/config.hpp"
#include "lifecycle/context_pool.hpp"
#include "lifecycle/hibernation.hpp"
#include "script/context.hpp"
#include "script/program_cache.hpp"

namespace vp {
namespace {

/// A representative module script: state, helpers, a frame handler —
/// enough code that the parser/compiler cost is realistic.
const char* kModuleSource = R"(
  var frames = 0;
  var events = 0;
  var window = [];
  var threshold = 0.35;
  function push_window(v) {
    window[window.length] = v;
    if (window.length > 16) {
      var trimmed = [];
      for (var i = 1; i < window.length; i = i + 1) {
        trimmed[trimmed.length] = window[i];
      }
      window = trimmed;
    }
  }
  function mean(xs) {
    if (xs.length == 0) { return 0; }
    var total = 0;
    for (var i = 0; i < xs.length; i = i + 1) { total = total + xs[i]; }
    return total / xs.length;
  }
  function score(msg) {
    var s = 0;
    if (msg.motion) { s = s + msg.motion; }
    if (msg.confidence) { s = s + msg.confidence * 0.5; }
    return s;
  }
  var ema = 0;
  var ema_alpha = 0.2;
  var histogram = [0, 0, 0, 0, 0, 0, 0, 0];
  var state = 0;
  var state_entered_ms = 0;
  var transitions = 0;
  var alerts = 0;
  var cooldown_until = 0;
  function clamp(v, lo, hi) {
    if (v < lo) { return lo; }
    if (v > hi) { return hi; }
    return v;
  }
  function bucket(v) {
    var b = clamp(v, 0, 0.999) * histogram.length;
    var idx = 0;
    while (idx + 1 <= b) { idx = idx + 1; }
    return clamp(idx, 0, histogram.length - 1);
  }
  function observe(v) {
    ema = ema_alpha * v + (1 - ema_alpha) * ema;
    histogram[bucket(v)] = histogram[bucket(v)] + 1;
  }
  function variance(xs) {
    if (xs.length < 2) { return 0; }
    var m = mean(xs);
    var total = 0;
    for (var i = 0; i < xs.length; i = i + 1) {
      var d = xs[i] - m;
      total = total + d * d;
    }
    return total / (xs.length - 1);
  }
  function advance_state(active, t) {
    var next = state;
    if (state == 0 && active) { next = 1; }
    if (state == 1) {
      if (!active) { next = 0; }
      if (active && t - state_entered_ms > 800) { next = 2; }
    }
    if (state == 2 && !active) { next = 0; }
    if (next != state) {
      state = next;
      state_entered_ms = t;
      transitions = transitions + 1;
    }
  }
  function maybe_alert(t) {
    if (state != 2) { return false; }
    if (t < cooldown_until) { return false; }
    if (ema < threshold * 1.5) { return false; }
    cooldown_until = t + 5000;
    alerts = alerts + 1;
    return true;
  }
  function summarize() {
    var top_bucket = 0;
    var top_count = -1;
    for (var i = 0; i < histogram.length; i = i + 1) {
      if (histogram[i] > top_count) {
        top_count = histogram[i];
        top_bucket = i;
      }
    }
    return {
      frames: frames, events: events, alerts: alerts,
      ema: ema, spread: variance(window), mode: top_bucket
    };
  }
  function event_received(msg) {
    frames = frames + 1;
    var t = 0;
    if (msg.t_ms) { t = msg.t_ms; }
    var s = score(msg);
    push_window(s);
    observe(s);
    var active = mean(window) > threshold;
    if (active) { events = events + 1; }
    advance_state(active, t);
    maybe_alert(t);
  }
)";

double ElapsedUs(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - start)
      .count();
}

struct Ladder {
  double cold_us = 0;
  double warm_us = 0;
  double hot_us = 0;
};

/// Best of `kBatches` timed batches (scheduler noise only ever
/// inflates a batch, so the minimum is the honest cost).
constexpr int kBatches = 3;

template <typename Fn>
double BestBatchUs(int iterations, Fn&& body,
                   const std::function<void()>& untimed_setup = nullptr) {
  double best = 0;
  for (int batch = 0; batch < kBatches; ++batch) {
    if (untimed_setup) untimed_setup();
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < iterations; ++i) body();
    const double us = ElapsedUs(start) / iterations;
    if (batch == 0 || us < best) best = us;
  }
  return best;
}

/// Per-context bring-up cost on each rung of the ladder.
Ladder MeasureLadder(int iterations) {
  Ladder ladder;
  script::ProgramCache::Global().Clear();

  // Cold: the cache is emptied before every Load, so each one pays the
  // full pipeline.
  auto cold_load = [] {
    script::ProgramCache::Global().Clear();
    script::Context context;
    if (!context.Load(kModuleSource).ok()) std::abort();
  };
  cold_load();  // untimed warmup (allocator, page faults)
  ladder.cold_us = BestBatchUs(iterations, cold_load);

  // Warm: one Load populates the cache, the timed ones link bytecode.
  auto warm_load = [] {
    script::Context context;
    if (!context.Load(kModuleSource).ok()) std::abort();
  };
  warm_load();  // untimed warmup; the entry is already cached
  ladder.warm_us = BestBatchUs(iterations, warm_load);

  // Hot: contexts pre-Loaded into the warm pool; the timed path is
  // what a wakeup pays — the pool handoff.
  {
    lifecycle::ContextPoolOptions pool_options;
    pool_options.capacity = static_cast<size_t>(iterations);
    lifecycle::ContextPool pool(pool_options);
    ladder.hot_us = BestBatchUs(
        iterations,
        [&] {
          if (pool.Acquire(kModuleSource, 1) == nullptr) std::abort();
        },
        // Refill is untimed: each batch starts with a full pool.
        [&] {
          while (pool.size() < static_cast<size_t>(iterations)) {
            if (!pool.Prewarm(kModuleSource, 1).ok()) std::abort();
          }
        });
  }
  return ladder;
}

core::PipelineSpec MakePipelineSpec(const std::string& name,
                                    const std::string& priority) {
  auto spec = core::ParsePipelineConfigText(R"CFG({
    "name": ")CFG" + name + R"CFG(",
    "priority": ")CFG" + priority + R"CFG(",
    "source": { "fps": 2, "width": 64, "height": 48 },
    "modules": [
      { "name": "cam", "type": "source", "next_module": ["analyze"] },
      { "name": "analyze", "signal_source": true,
        "code": ")CFG" + std::string(kModuleSource) + R"CFG(" }
    ]
  })CFG",
                                            core::MapResolver({}));
  if (!spec.ok()) {
    std::fprintf(stderr, "spec: %s\n", spec.error().ToString().c_str());
    std::abort();
  }
  return std::move(*spec);
}

core::PipelineDeployment* DeployNamed(bench::Session& session,
                                      const std::string& name,
                                      const std::string& priority,
                                      uint64_t seed) {
  core::Orchestrator::DeployArgs args;
  args.workload = apps::fitness::Workout();
  args.seed = seed;
  auto deployment = session.orchestrator->Deploy(
      MakePipelineSpec(name, priority), std::move(args));
  if (!deployment.ok()) {
    std::fprintf(stderr, "deploy %s: %s\n", name.c_str(),
                 deployment.error().ToString().c_str());
    std::abort();
  }
  session.pipelines.push_back(*deployment);
  return *deployment;
}

struct MemoryNumbers {
  size_t deployed_idle_bytes = 0;
  size_t hibernated_bytes = 0;
};

/// Resident script bytes for one pipeline: running-but-idle vs
/// hibernated past the drain window.
MemoryNumbers MeasureMemory() {
  core::OrchestratorOptions options;
  // Short drain window so the retired contexts free inside the run.
  options.retired_drain_window = Duration::Seconds(2);
  bench::Session session = bench::MakeSession(options);
  core::PipelineDeployment* pipeline =
      DeployNamed(session, "idle_home_cam", "normal", 7);
  lifecycle::HibernationManager manager(session.orchestrator.get());

  bench::Run(session, 10);
  pipeline->Stop();  // idle: deployed, camera quiet, contexts resident
  session.orchestrator->RunFor(Duration::Seconds(2));

  MemoryNumbers numbers;
  numbers.deployed_idle_bytes =
      lifecycle::HibernationManager::ResidentScriptBytes(*pipeline);
  if (!manager.Hibernate(pipeline).ok()) std::abort();
  // Run well past the drain window so ReclaimDrained frees the
  // retired contexts.
  session.orchestrator->RunFor(Duration::Seconds(8));
  numbers.hibernated_bytes =
      lifecycle::HibernationManager::ResidentScriptBytes(*pipeline);
  return numbers;
}

struct BurstNumbers {
  int pipelines = 0;
  int interactive = 0;
  uint64_t wakes = 0;
  uint64_t interactive_sheds = 0;
  uint64_t interactive_frames = 0;
  double p95_ms = 0;
  int peak_inflight = 0;
};

/// Hibernate `count` pipelines on one home, then ring every wake in
/// the same instant. Every 10th pipeline is interactive (fall
/// detection); the admission queue must wake those first and shed none.
BurstNumbers MeasureBurst(int count) {
  core::OrchestratorOptions options;
  options.frame_store_capacity = 256;
  bench::Session session = bench::MakeSession(options);
  lifecycle::HibernationOptions lifecycle_options;
  lifecycle_options.auto_hibernate = false;
  lifecycle_options.admission.total_concurrency = 8;
  lifecycle_options.admission.class_concurrency = {8, 4, 2};
  // Interactive wakes are never shed regardless of deadline; give the
  // background mass a horizon that covers the whole drained burst.
  lifecycle_options.default_wake_deadline = Duration::Seconds(30);
  lifecycle::HibernationManager manager(session.orchestrator.get(),
                                        lifecycle_options);

  BurstNumbers numbers;
  numbers.pipelines = count;
  std::vector<core::PipelineDeployment*> interactive;
  for (int i = 0; i < count; ++i) {
    const bool is_interactive = i % 10 == 0;
    core::PipelineDeployment* pipeline = DeployNamed(
        session, "burst" + std::to_string(i),
        is_interactive ? "interactive" : "background",
        static_cast<uint64_t>(100 + i));
    if (is_interactive) interactive.push_back(pipeline);
  }
  numbers.interactive = static_cast<int>(interactive.size());

  bench::Run(session, 2);
  for (core::PipelineDeployment* pipeline : session.pipelines) {
    if (!manager.Hibernate(pipeline).ok()) std::abort();
  }
  session.orchestrator->RunFor(Duration::Seconds(1));

  // The thundering herd: every doorbell rings at once.
  for (core::PipelineDeployment* pipeline : session.pipelines) {
    manager.RequestWake(pipeline->spec().name);
  }
  session.orchestrator->RunFor(Duration::Seconds(20));

  numbers.wakes = manager.stats().wakes;
  numbers.interactive_sheds = manager.admission().stats().shed_per_class[0];
  numbers.p95_ms = manager.admission().WakeLatencyP95Ms();
  numbers.peak_inflight = manager.admission().stats().peak_inflight;
  for (core::PipelineDeployment* pipeline : interactive) {
    const uint64_t completed = pipeline->metrics().frames_completed();
    numbers.interactive_frames += completed;
    if (pipeline->hibernated() || completed == 0) {
      std::fprintf(stderr, "interactive pipeline %s did not resume\n",
                   pipeline->spec().name.c_str());
      std::abort();
    }
  }
  return numbers;
}

}  // namespace
}  // namespace vp

int main() {
  using namespace vp;

  const int ladder_iterations = bench::SmokeMode() ? 20 : 200;
  const int burst_pipelines = bench::SmokeMode() ? 30 : 100;

  std::printf("== context bring-up ladder (%d iterations) ==\n",
              ladder_iterations);
  const Ladder ladder = MeasureLadder(ladder_iterations);
  const double warm_speedup =
      ladder.warm_us > 0 ? ladder.cold_us / ladder.warm_us : 0;
  const double hot_speedup =
      ladder.hot_us > 0 ? ladder.cold_us / ladder.hot_us : 0;
  std::printf("  cold  %8.1f us  (parse + resolve + compile + load)\n",
              ladder.cold_us);
  std::printf("  warm  %8.1f us  (program-cache link)     %6.1fx\n",
              ladder.warm_us, warm_speedup);
  std::printf("  hot   %8.1f us  (warm-pool handoff)      %6.1fx\n",
              ladder.hot_us, hot_speedup);

  std::printf("== resident script memory per idle pipeline ==\n");
  const MemoryNumbers memory = MeasureMemory();
  const double reduction =
      memory.deployed_idle_bytes > 0
          ? 1.0 - static_cast<double>(memory.hibernated_bytes) /
                      static_cast<double>(memory.deployed_idle_bytes)
          : 0;
  std::printf("  deployed-idle %8zu B   hibernated %8zu B   (-%.0f%%)\n",
              memory.deployed_idle_bytes, memory.hibernated_bytes,
              reduction * 100);

  std::printf("== %d-pipeline burst wakeup ==\n", burst_pipelines);
  const BurstNumbers burst = MeasureBurst(burst_pipelines);
  std::printf(
      "  woke %llu/%d  p95 %.1f ms  peak inflight %d  interactive %d  "
      "interactive sheds %llu  interactive frames %llu\n",
      static_cast<unsigned long long>(burst.wakes), burst.pipelines,
      burst.p95_ms, burst.peak_inflight, burst.interactive,
      static_cast<unsigned long long>(burst.interactive_sheds),
      static_cast<unsigned long long>(burst.interactive_frames));

  const bool gate_warm = warm_speedup >= 5.0;
  const bool gate_memory = reduction >= 0.5;
  const bool gate_burst = burst.interactive_sheds == 0 &&
                          burst.wakes == static_cast<uint64_t>(burst.pipelines);
  std::printf("gates: warm>=5x %s  memory>=50%% %s  burst-interactive %s\n",
              gate_warm ? "PASS" : "FAIL", gate_memory ? "PASS" : "FAIL",
              gate_burst ? "PASS" : "FAIL");

  return gate_warm && gate_memory && gate_burst ? 0 : 1;
}
