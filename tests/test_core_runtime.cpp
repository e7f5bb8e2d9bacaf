// Integration tests: full pipelines deployed on the simulated home,
// exercising the module runtime, flow control, co-location economics,
// service sharing and failure behaviour end-to-end.
#include <gtest/gtest.h>

#include "apps/fitness.hpp"
#include "apps/gesture.hpp"
#include "core/orchestrator.hpp"
#include "sim/cluster.hpp"

namespace vp::core {
namespace {

struct Deployed {
  std::unique_ptr<sim::Cluster> cluster;
  std::unique_ptr<Orchestrator> orchestrator;
  PipelineDeployment* pipeline = nullptr;
};

Deployed DeployFitness(PlacementPolicy policy, double fps = 20.0,
                       Duration run_for = Duration::Seconds(20)) {
  Deployed d;
  d.cluster = sim::MakeHomeTestbed();
  d.orchestrator = std::make_unique<Orchestrator>(d.cluster.get());
  auto spec = apps::fitness::Spec();
  EXPECT_TRUE(spec.ok());
  spec->source.fps = fps;
  Orchestrator::DeployArgs args;
  args.workload = apps::fitness::Workout();
  args.placement.policy = policy;
  auto deployment = d.orchestrator->Deploy(std::move(*spec), std::move(args));
  EXPECT_TRUE(deployment.ok())
      << (deployment.ok() ? "" : deployment.error().ToString());
  d.pipeline = *deployment;
  d.pipeline->Start();
  d.orchestrator->RunFor(run_for);
  return d;
}

TEST(Runtime, FitnessPipelineProcessesFrames) {
  Deployed d = DeployFitness(PlacementPolicy::kCoLocate);
  const PipelineMetrics& metrics = d.pipeline->metrics();
  EXPECT_GT(metrics.frames_completed(), 150u);
  EXPECT_GT(metrics.EndToEndFps(), 9.0);
  EXPECT_LT(metrics.EndToEndFps(), 12.5);

  // Every module ran cleanly.
  for (const char* module :
       {"pose_detection_module", "activity_detector_module",
        "rep_counter_module", "display_module"}) {
    ModuleRuntime* runtime = d.pipeline->FindModule(module);
    ASSERT_NE(runtime, nullptr) << module;
    EXPECT_GT(runtime->stats().events, 100u) << module;
    EXPECT_EQ(runtime->stats().script_errors, 0u) << module;
  }
}

TEST(Runtime, ApplicationLogicActuallyWorks) {
  Deployed d = DeployFitness(PlacementPolicy::kCoLocate, 20.0,
                             Duration::Seconds(42));
  // The display module's script state reflects the workout: squats,
  // jacks and lunges were recognized and reps counted.
  ModuleRuntime* display = d.pipeline->FindModule("display_module");
  const json::Value reps = display->context().GetGlobal("reps");
  ASSERT_TRUE(reps.is_number());
  EXPECT_GE(reps.AsDouble(), 8);   // ground truth is 15; k-means counter
  EXPECT_LE(reps.AsDouble(), 18);  // may miss a few across transitions
  const json::Value rendered =
      display->context().GetGlobal("frames_rendered");
  ASSERT_TRUE(rendered.is_number());
  EXPECT_GT(rendered.AsDouble(), 300);
}

TEST(Runtime, QueueFreeFlowControl) {
  Deployed d = DeployFitness(PlacementPolicy::kCoLocate, 30.0);
  const PipelineMetrics& metrics = d.pipeline->metrics();
  // 30 FPS source, ~11 FPS pipeline → most sensor frames dropped AT
  // THE SOURCE (§2.3), none inside the pipeline.
  EXPECT_GT(d.pipeline->camera().frames_dropped(),
            d.pipeline->camera().frames_emitted());
  for (const char* module :
       {"pose_detection_module", "activity_detector_module",
        "rep_counter_module"}) {
    EXPECT_EQ(d.pipeline->FindModule(module)->stats().dropped_replaced, 0u)
        << module << " dropped data mid-pipeline";
  }
  // At most one frame in flight: completions are spaced by at least
  // the pipeline service time, and each frame completes before the
  // next one starts its pose stage.
  const auto& traces = metrics.traces();
  const FrameTrace* previous = nullptr;
  for (const auto& [seq, trace] : traces) {
    if (!trace.completed) continue;
    if (previous != nullptr) {
      const auto it = trace.stages.find("pose_detection_module");
      if (it != trace.stages.end()) {
        EXPECT_GE(it->second.start, *previous->completed)
            << "frame " << seq << " overlapped its predecessor";
      }
    }
    previous = &trace;
  }
}

TEST(Runtime, VideoPipeBeatsBaseline) {
  Deployed vp = DeployFitness(PlacementPolicy::kCoLocate);
  Deployed bl = DeployFitness(PlacementPolicy::kSingleDevice);
  const auto& vpm = vp.pipeline->metrics();
  const auto& blm = bl.pipeline->metrics();

  // Table 2 shape at 20 FPS: VideoPipe ≈ 11, baseline ≈ 8.3.
  EXPECT_GT(vpm.EndToEndFps(), blm.EndToEndFps() + 1.0);
  // Fig. 6 shape: lower total latency, pose gap dominates.
  EXPECT_LT(vpm.TotalLatency().mean_ms, blm.TotalLatency().mean_ms - 10.0);
  EXPECT_LT(vpm.ModuleLatency("pose_detection_module").mean_ms,
            blm.ModuleLatency("pose_detection_module").mean_ms);
  EXPECT_LT(vpm.ModuleLatency("rep_counter_module").mean_ms,
            blm.ModuleLatency("rep_counter_module").mean_ms);
  EXPECT_LT(vpm.ModuleLatency("activity_detector_module").mean_ms,
            blm.ModuleLatency("activity_detector_module").mean_ms);
}

TEST(Runtime, LowSourceFpsIsNotThrottled) {
  Deployed d = DeployFitness(PlacementPolicy::kCoLocate, 5.0);
  // Table 2 row 1: at 5 FPS the pipeline keeps up (~4.5 observed).
  EXPECT_GT(d.pipeline->metrics().EndToEndFps(), 4.2);
  EXPECT_LE(d.pipeline->metrics().EndToEndFps(), 5.05);
  EXPECT_LT(d.pipeline->camera().frames_dropped(), 5u);
}

TEST(Runtime, TwoPipelinesShareThePoseService) {
  auto cluster = sim::MakeHomeTestbed();
  Orchestrator orchestrator(cluster.get());

  auto fitness_spec = apps::fitness::Spec();
  Orchestrator::DeployArgs fitness_args;
  fitness_args.workload = apps::fitness::Workout();
  auto fitness = orchestrator.Deploy(std::move(*fitness_spec),
                                     std::move(fitness_args));
  ASSERT_TRUE(fitness.ok());

  apps::IoTHub hub;
  auto gesture_spec = apps::gesture::Spec();
  auto gesture_args =
      apps::gesture::MakeDeployArgs(hub, &cluster->simulator());
  auto gesture = orchestrator.Deploy(std::move(*gesture_spec),
                                     std::move(gesture_args));
  ASSERT_TRUE(gesture.ok()) << gesture.error().ToString();

  // One pose_detector replica serves both pipelines (§5.2.2).
  EXPECT_EQ(
      orchestrator.registry().Replicas("desktop", "pose_detector").size(),
      1u);

  orchestrator.StartAll();
  orchestrator.RunFor(Duration::Seconds(15));

  EXPECT_GT((*fitness)->metrics().frames_completed(), 50u);
  EXPECT_GT((*gesture)->metrics().frames_completed(), 50u);
  // The shared replica served both pipelines' requests.
  EXPECT_GE(orchestrator.registry().RequestCount("desktop", "pose_detector"),
            (*fitness)->metrics().frames_completed() +
                (*gesture)->metrics().frames_completed());
}

TEST(Runtime, ManualServiceScalingAddsReplicas) {
  auto cluster = sim::MakeHomeTestbed();
  Orchestrator orchestrator(cluster.get());
  auto spec = apps::fitness::Spec();
  Orchestrator::DeployArgs args;
  args.workload = apps::fitness::Workout();
  auto deployment = orchestrator.Deploy(std::move(*spec), std::move(args));
  ASSERT_TRUE(deployment.ok());
  ASSERT_TRUE(orchestrator.ScaleService("desktop", "pose_detector").ok());
  EXPECT_EQ(
      orchestrator.registry().Replicas("desktop", "pose_detector").size(),
      2u);
  EXPECT_EQ(orchestrator.ScaleService("desktop", "teleporter").code(),
            StatusCode::kNotFound);
}

TEST(Runtime, ScriptErrorDoesNotKillThePipeline) {
  auto cluster = sim::MakeHomeTestbed();
  Orchestrator orchestrator(cluster.get());
  // A pipeline whose middle module throws on every 3rd frame.
  const char* flaky = R"JS(
    var n = 0;
    function event_received(msg) {
      n = n + 1;
      if (n % 3 == 0) {
        explode_undefined_function();
      }
      call_module("sink_module", { seq: msg.seq });
    }
  )JS";
  auto spec = ParsePipelineConfigText(R"CFG({
    "name": "flaky",
    "source": { "fps": 10, "width": 64, "height": 48 },
    "modules": [
      { "name": "cam", "type": "source", "next_module": ["flaky_module"] },
      { "name": "flaky_module", "include": "Flaky.js",
        "next_module": ["sink_module"] },
      { "name": "sink_module", "signal_source": true,
        "code": "var got = 0; function event_received(m) { got = got + 1; }" }
    ]
  })CFG",
                                      MapResolver({{"Flaky.js", flaky}}));
  ASSERT_TRUE(spec.ok()) << spec.error().ToString();

  Orchestrator::DeployArgs args;
  args.workload = apps::fitness::Workout();
  auto deployment = orchestrator.Deploy(std::move(*spec), std::move(args));
  ASSERT_TRUE(deployment.ok()) << deployment.error().ToString();
  (*deployment)->Start();
  orchestrator.RunFor(Duration::Seconds(10));

  ModuleRuntime* flaky_module = (*deployment)->FindModule("flaky_module");
  EXPECT_GT(flaky_module->stats().script_errors, 2u);
  // Lost frames cost a credit each; the camera watchdog regenerates it
  // and the pipeline keeps flowing.
  EXPECT_GT((*deployment)->camera().credit_timeouts(), 2u);
  EXPECT_GT((*deployment)->metrics().frames_completed(), 10u);
}

TEST(Runtime, ErroredFramesRecoverViaSinkSignal) {
  // When the sink itself errors, the credit must still return (the
  // runtime signals after the handler, error or not) — otherwise the
  // pipeline wedges. Verified by a sink erroring every 2nd frame.
  auto cluster = sim::MakeHomeTestbed();
  Orchestrator orchestrator(cluster.get());
  auto spec = ParsePipelineConfigText(R"CFG({
    "name": "grumpy",
    "source": { "fps": 10, "width": 64, "height": 48 },
    "modules": [
      { "name": "cam", "type": "source", "next_module": ["sink_module"] },
      { "name": "sink_module", "signal_source": true,
        "code": "var n = 0; function event_received(m) { n = n + 1; if (n % 2 == 0) { boom(); } }" }
    ]
  })CFG",
                                      MapResolver({}));
  ASSERT_TRUE(spec.ok());
  Orchestrator::DeployArgs args;
  args.workload = apps::fitness::Workout();
  auto deployment = orchestrator.Deploy(std::move(*spec), std::move(args));
  ASSERT_TRUE(deployment.ok());
  (*deployment)->Start();
  orchestrator.RunFor(Duration::Seconds(5));
  // ~10 fps for 5 s ≈ 50 frames, half of them erroring.
  EXPECT_GT((*deployment)->metrics().frames_completed(), 35u);
}

TEST(Runtime, UndeclaredServiceCallIsRejected) {
  auto cluster = sim::MakeHomeTestbed();
  Orchestrator orchestrator(cluster.get());
  auto spec = ParsePipelineConfigText(R"CFG({
    "name": "sneaky",
    "source": { "fps": 10, "width": 64, "height": 48 },
    "modules": [
      { "name": "cam", "type": "source", "next_module": ["sink_module"] },
      { "name": "sink_module", "signal_source": true, "service": [],
        "code": "var errors = 0; function event_received(m) { call_service('pose_detector', { frame_id: m.frame_id }); }" }
    ]
  })CFG",
                                      MapResolver({}));
  ASSERT_TRUE(spec.ok());
  Orchestrator::DeployArgs args;
  args.workload = apps::fitness::Workout();
  auto deployment = orchestrator.Deploy(std::move(*spec), std::move(args));
  ASSERT_TRUE(deployment.ok());
  (*deployment)->Start();
  orchestrator.RunFor(Duration::Seconds(2));
  // Calls to undeclared services fail as script errors (config is the
  // authority on the service surface, §3.1).
  EXPECT_GT((*deployment)->FindModule("sink_module")->stats().script_errors,
            5u);
}

TEST(Runtime, UndeclaredModuleEdgeIsRejected) {
  auto cluster = sim::MakeHomeTestbed();
  Orchestrator orchestrator(cluster.get());
  auto spec = ParsePipelineConfigText(R"CFG({
    "name": "offroad",
    "source": { "fps": 10, "width": 64, "height": 48 },
    "modules": [
      { "name": "cam", "type": "source", "next_module": ["a_module"] },
      { "name": "a_module", "signal_source": true,
        "code": "function event_received(m) { call_module('b_module', {}); }" },
      { "name": "b_module",
        "code": "function event_received(m) {}" }
    ]
  })CFG",
                                      MapResolver({}));
  // b exists but a has no declared edge to it → runtime rejects.
  ASSERT_TRUE(spec.ok());
  Orchestrator::DeployArgs args;
  args.workload = apps::fitness::Workout();
  auto deployment = orchestrator.Deploy(std::move(*spec), std::move(args));
  ASSERT_TRUE(deployment.ok());
  (*deployment)->Start();
  orchestrator.RunFor(Duration::Seconds(2));
  EXPECT_GT((*deployment)->FindModule("a_module")->stats().script_errors, 5u);
  EXPECT_EQ((*deployment)->FindModule("b_module")->stats().events, 0u);
}

TEST(Runtime, MetricsTracesAreInternallyConsistent) {
  Deployed d = DeployFitness(PlacementPolicy::kCoLocate, 10.0,
                             Duration::Seconds(10));
  for (const auto& [seq, trace] : d.pipeline->metrics().traces()) {
    if (!trace.completed) continue;
    EXPECT_GE(*trace.completed, trace.capture);
    for (const auto& [module, span] : trace.stages) {
      EXPECT_GE(span.start, trace.capture) << module;
      EXPECT_GE(span.end, span.start) << module;
      EXPECT_LE(span.end, *trace.completed + Duration::Millis(50)) << module;
    }
  }
  const auto total = d.pipeline->metrics().TotalLatency();
  EXPECT_GT(total.count, 0u);
  EXPECT_LE(total.min_ms, total.mean_ms);
  EXPECT_LE(total.mean_ms, total.max_ms);
  EXPECT_LE(total.p50_ms, total.p95_ms);
}

TEST(Runtime, DeterministicAcrossRuns) {
  auto run = [] {
    Deployed d = DeployFitness(PlacementPolicy::kCoLocate, 20.0,
                               Duration::Seconds(10));
    return std::make_pair(d.pipeline->metrics().frames_completed(),
                          d.pipeline->metrics().TotalLatency().mean_ms);
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a.first, b.first);
  EXPECT_DOUBLE_EQ(a.second, b.second);
}

TEST(Runtime, BusyMsHostFunctionChargesTheLane) {
  auto cluster = sim::MakeHomeTestbed();
  Orchestrator orchestrator(cluster.get());
  auto spec = ParsePipelineConfigText(R"CFG({
    "name": "busy",
    "source": { "fps": 10, "width": 64, "height": 48 },
    "modules": [
      { "name": "cam", "type": "source", "next_module": ["work_module"] },
      { "name": "work_module", "signal_source": true,
        "code": "function event_received(m) { busy_ms(40); }" }
    ]
  })CFG",
                                      MapResolver({}));
  ASSERT_TRUE(spec.ok());
  Orchestrator::DeployArgs args;
  args.workload = apps::fitness::Workout();
  auto deployment = orchestrator.Deploy(std::move(*spec), std::move(args));
  ASSERT_TRUE(deployment.ok());
  (*deployment)->Start();
  orchestrator.RunFor(Duration::Seconds(10));
  // 40 ms on the phone (speed 0.35) ≈ 114 ms handler.
  const auto latency =
      (*deployment)->metrics().ModuleLatency("work_module");
  EXPECT_GT(latency.mean_ms, 100.0);
  EXPECT_LT(latency.mean_ms, 140.0);
}

// ------------------------------------------ init() outside virtual time

// The fitness pipeline with `init` prepended to its first script
// module's source.
PipelineSpec FitnessWithInit(const std::string& init) {
  auto spec = apps::fitness::Spec();
  EXPECT_TRUE(spec.ok());
  for (ModuleSpec& m : spec->modules) {
    if (m.type != ModuleType::kScript) continue;
    m.code = init + "\n" + m.code;
    break;
  }
  return std::move(*spec);
}

// init() runs synchronously while a module starts, outside virtual
// time: a blocking host call there is refused with FAILED_PRECONDITION
// instead of stepping the simulator.
TEST(InitOutsideVirtualTime, BusyMsFailsTheDeployWithoutMovingTheClock) {
  auto cluster = sim::MakeHomeTestbed();
  Orchestrator orchestrator(cluster.get());
  Orchestrator::DeployArgs args;
  args.workload = apps::fitness::Workout();
  auto deployment = orchestrator.Deploy(
      FitnessWithInit("function init() { busy_ms(5); }"), std::move(args));
  ASSERT_FALSE(deployment.ok());
  EXPECT_EQ(deployment.error().code(), StatusCode::kFailedPrecondition)
      << deployment.error().ToString();
  EXPECT_EQ(cluster->Now(), TimePoint());
}

TEST(InitOutsideVirtualTime, CaughtServiceCallDeploysAndWakesInPlace) {
  auto cluster = sim::MakeHomeTestbed();
  Orchestrator orchestrator(cluster.get());
  Orchestrator::DeployArgs args;
  args.workload = apps::fitness::Workout();
  auto deployment = orchestrator.Deploy(FitnessWithInit(R"JS(
    var init_error = "none";
    function init() {
      try { call_service("pose_detector", {}); }
      catch (e) { init_error = e.code; }
    })JS"),
                                        std::move(args));
  ASSERT_TRUE(deployment.ok()) << deployment.error().ToString();
  EXPECT_EQ(cluster->Now(), TimePoint());
  PipelineDeployment* pipeline = *deployment;
  const json::Value error =
      pipeline->FindModule("pose_detection_module")
          ->context()
          .GetGlobal("init_error");
  ASSERT_TRUE(error.is_string());
  EXPECT_EQ(error.AsString(), "FAILED_PRECONDITION");

  // Handlers block as usual; a wake re-runs init() at the current
  // instant.
  pipeline->Start();
  orchestrator.RunFor(Duration::Seconds(2));
  EXPECT_GT(pipeline->metrics().frames_completed(), 0u);
  ASSERT_TRUE(orchestrator.HibernatePipeline(pipeline).ok());
  const TimePoint before = cluster->Now();
  ASSERT_TRUE(orchestrator.WakePipeline(pipeline).ok());
  EXPECT_EQ(cluster->Now(), before);
}

// ------------------------------------------------- hostile frame ids

// Script numbers that name no frame — out of range for a 64-bit id,
// negative, NaN, fractional, past 2^53 — must get exactly what a stale
// id (999999, never assigned) gets: a catchable NOT_FOUND from
// frame_info and call_service, and call_module's usual outcome (the
// id rides along to a same-device module; a remote one rejects it).
TEST(HostileFrameIds, GetWhatAStaleIdGets) {
  auto cluster = sim::MakeHomeTestbed();
  Orchestrator orchestrator(cluster.get());
  auto spec = ParsePipelineConfigText(R"CFG({
    "name": "hostile",
    "source": { "fps": 10, "width": 64, "height": 48 },
    "modules": [
      { "name": "cam", "type": "source", "next_module": ["probe"] },
      { "name": "probe", "signal_source": true, "device": "desktop",
        "service": ["pose_detector"], "next_module": ["near", "far"],
        "code": "
          var rows = [];
          function code_of(f) {
            try { f(); return 'ok'; } catch (e) { return e.code; }
          }
          function event_received(m) {
            if (rows.length > 0) return;
            var ids = [999999, 1e300, -1, 0/0, 0.5, 9007199254740994];
            for (var i = 0; i < ids.length; i++) {
              var id = ids[i];
              var near = { frame_id: id };
              var far = { frame_id: id };
              rows.push(code_of(function () { frame_info(id); }) + ',' +
                  code_of(function () {
                    call_service('pose_detector', { frame_id: id });
                  }) + ',' +
                  code_of(function () { call_module('near', near); }) + ',' +
                  code_of(function () { call_module('far', far); }));
            }
            frame_info(m.frame_id);
          }" },
      { "name": "near", "device": "desktop",
        "code": "function event_received(m) {}" },
      { "name": "far", "device": "tv",
        "code": "function event_received(m) {}" }
    ]
  })CFG",
                                      MapResolver({}));
  ASSERT_TRUE(spec.ok()) << spec.error().ToString();
  Orchestrator::DeployArgs args;
  args.workload = apps::fitness::Workout();
  auto deployment = orchestrator.Deploy(std::move(*spec), std::move(args));
  ASSERT_TRUE(deployment.ok()) << deployment.error().ToString();
  (*deployment)->Start();
  orchestrator.RunFor(Duration::Seconds(2));

  ModuleRuntime* probe = (*deployment)->FindModule("probe");
  EXPECT_EQ(probe->stats().script_errors, 0u);
  const json::Value rows = probe->context().GetGlobal("rows");
  ASSERT_TRUE(rows.is_array());
  ASSERT_EQ(rows.AsArray().size(), 6u);
  EXPECT_EQ(rows.AsArray()[0].AsString(),
            "NOT_FOUND,NOT_FOUND,ok,SCRIPT_ERROR");
  for (const json::Value& row : rows.AsArray()) {
    EXPECT_EQ(row.AsString(), rows.AsArray()[0].AsString());
  }
}

}  // namespace
}  // namespace vp::core
