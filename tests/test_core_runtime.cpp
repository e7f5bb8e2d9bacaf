// Integration tests: full pipelines deployed on the simulated home,
// exercising the module runtime, flow control, co-location economics,
// service sharing and failure behaviour end-to-end.
#include <gtest/gtest.h>

#include "apps/fitness.hpp"
#include "apps/gesture.hpp"
#include "core/orchestrator.hpp"
#include "invariants_hold.hpp"
#include "json/write.hpp"
#include "net/fabric.hpp"
#include "net/message.hpp"
#include "services/container.hpp"
#include "services/registry.hpp"
#include "sim/cluster.hpp"

namespace vp::core {
namespace {

using test_support::ExpectInvariantsHold;

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
  ExpectInvariantsHold(*d.orchestrator);
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
  ExpectInvariantsHold(*d.orchestrator);
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
  ExpectInvariantsHold(*d.orchestrator);
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
  ExpectInvariantsHold(*vp.orchestrator);
  ExpectInvariantsHold(*bl.orchestrator);
}

TEST(Runtime, LowSourceFpsIsNotThrottled) {
  Deployed d = DeployFitness(PlacementPolicy::kCoLocate, 5.0);
  // Table 2 row 1: at 5 FPS the pipeline keeps up (~4.5 observed).
  EXPECT_GT(d.pipeline->metrics().EndToEndFps(), 4.2);
  EXPECT_LE(d.pipeline->metrics().EndToEndFps(), 5.05);
  EXPECT_LT(d.pipeline->camera().frames_dropped(), 5u);
  ExpectInvariantsHold(*d.orchestrator);
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
  ExpectInvariantsHold(orchestrator);
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
  ExpectInvariantsHold(orchestrator);
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
  ExpectInvariantsHold(orchestrator);
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
  ExpectInvariantsHold(orchestrator);
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
  ExpectInvariantsHold(orchestrator);
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
  ExpectInvariantsHold(orchestrator);
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
  ExpectInvariantsHold(*d.orchestrator);
}

TEST(Runtime, DeterministicAcrossRuns) {
  auto run = [] {
    Deployed d = DeployFitness(PlacementPolicy::kCoLocate, 20.0,
                               Duration::Seconds(10));
    ExpectInvariantsHold(*d.orchestrator);
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
  ExpectInvariantsHold(orchestrator);
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
  ExpectInvariantsHold(orchestrator);
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
  ExpectInvariantsHold(orchestrator);
}

// A deploy whose module init() fails leaves nothing routed to the
// runtimes it built: the pose module's init() armed a timer, the
// activity module's init() fails, and neither a message for the pose
// module's port nor the timer finds a freed runtime. The configured
// ports are free for the next deploy.
TEST(InitOutsideVirtualTime, FailedDeployLeavesNothingRouted) {
  auto cluster = sim::MakeHomeTestbed();
  Orchestrator orchestrator(cluster.get());
  auto spec = apps::fitness::Spec();
  ASSERT_TRUE(spec.ok());
  std::vector<uint16_t> ports;
  for (ModuleSpec& m : spec->modules) {
    ports.push_back(m.endpoint.port);
    if (m.name == "pose_detection_module") {
      m.code = "function init() { set_timer(100); }\n" + m.code;
    } else if (m.name == "activity_detector_module") {
      m.code = "function init() { busy_ms(5); }\n" + m.code;
    }
  }
  Orchestrator::DeployArgs args;
  args.workload = apps::fitness::Workout();
  auto failed = orchestrator.Deploy(std::move(*spec), std::move(args));
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.error().code(), StatusCode::kFailedPrecondition)
      << failed.error().ToString();
  EXPECT_TRUE(orchestrator.pipelines().empty());
  EXPECT_EQ(orchestrator.undeployed_count(), 1u);
  for (sim::Device* device : cluster->devices()) {
    for (uint16_t port : ports) {
      EXPECT_FALSE(orchestrator.fabric().IsBound({device->name(), port}))
          << device->name() << ":" << port;
    }
  }

  net::Message frame("frame", json::Value::MakeObject());
  ASSERT_TRUE(orchestrator.fabric()
                  .Push("desktop", net::Address{"desktop", 5861},
                        std::move(frame))
                  .ok());
  orchestrator.RunFor(Duration::Seconds(1));

  Orchestrator::DeployArgs again;
  again.workload = apps::fitness::Workout();
  auto redeployed = orchestrator.Deploy(*apps::fitness::Spec(),
                                        std::move(again));
  ASSERT_TRUE(redeployed.ok()) << redeployed.error().ToString();
  EXPECT_EQ(*(*redeployed)->ModuleAddress("pose_detection_module"),
            (net::Address{"desktop", 5861}));
  (*redeployed)->Start();
  orchestrator.RunFor(Duration::Seconds(2));
  EXPECT_GT((*redeployed)->metrics().frames_completed(), 0u);
  ExpectInvariantsHold(orchestrator);
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
  ExpectInvariantsHold(orchestrator);
}

// -------------------------------------------------- shared payloads

/// A pose_detector stand-in that keeps the payload object of every
/// request handed to it. The first request outlasts the 1 s call
/// timeout, so the caller retries.
class PayloadRecorder : public services::Service {
 public:
  explicit PayloadRecorder(
      std::vector<std::shared_ptr<const json::Value>>* seen)
      : seen_(seen) {}
  std::string name() const override { return "pose_detector"; }
  Duration Cost(const services::ServiceRequest& request) const override {
    seen_->push_back(request.payload);
    return Duration::Millis(seen_->size() == 1 ? 1200 : 1);
  }
  Result<json::Value> Handle(const services::ServiceRequest&) override {
    return json::Value::MakeObject();
  }

 private:
  std::vector<std::shared_ptr<const json::Value>>* seen_;
};

/// Deploys, not yet started, a probe whose first event calls
/// pose_detector once and keeps "ok" or the caught error code in its
/// `result` global.
PipelineDeployment* DeploySharingProbe(Orchestrator& orchestrator,
                                       PlacementPolicy policy) {
  auto spec = ParsePipelineConfigText(R"CFG({
    "name": "sharing",
    "source": { "fps": 10, "width": 64, "height": 48 },
    "modules": [
      { "name": "cam", "type": "source", "next_module": ["probe"] },
      { "name": "probe", "service": ["pose_detector"], "signal_source": true,
        "code": "
          var result = 'none';
          function event_received(m) {
            if (result != 'none') return;
            try {
              call_service('pose_detector', { tag: 'shared', n: 1.25 });
              result = 'ok';
            } catch (e) { result = e.code; }
          }" }
    ]
  })CFG",
                                      MapResolver({}));
  EXPECT_TRUE(spec.ok()) << spec.error().ToString();
  if (!spec.ok()) return nullptr;
  Orchestrator::DeployArgs args;
  args.workload = apps::fitness::Workout();
  args.placement.policy = policy;
  auto deployment = orchestrator.Deploy(std::move(*spec), std::move(args));
  EXPECT_TRUE(deployment.ok()) << deployment.error().ToString();
  if (!deployment.ok()) return nullptr;
  const DeploymentPlan& plan = (*deployment)->plan();
  EXPECT_EQ(plan.module_device.at("probe") ==
                plan.service_device.at("pose_detector"),
            policy == PlacementPolicy::kCoLocate);
  return *deployment;
}

std::string ProbeResult(PipelineDeployment& probe) {
  return json::Write(probe.FindModule("probe")->context().GetGlobal("result"));
}

/// Runs the probe under `policy` against a PayloadRecorder in place of
/// the pose replica and returns the payload objects it was handed.
std::vector<std::shared_ptr<const json::Value>> RecordRetriedCall(
    PlacementPolicy policy) {
  std::vector<std::shared_ptr<const json::Value>> seen;
  auto cluster = sim::MakeHomeTestbed();
  sim::ExecutionLane lane(&cluster->simulator(), "svc:recorder", 1.0);
  OrchestratorOptions options;
  // The timed-out replica stays in balancing, so the retry reaches it.
  options.service_call.suspect_duration = Duration::Zero();
  Orchestrator orchestrator(cluster.get(), options);
  PipelineDeployment* probe = DeploySharingProbe(orchestrator, policy);
  if (probe == nullptr) return seen;
  const std::string host = probe->plan().service_device.at("pose_detector");

  services::ServiceRegistry& registry = orchestrator.registry();
  for (services::ServiceInstance* replica :
       registry.Replicas(host, "pose_detector")) {
    replica->Crash(cluster->Now());  // out of balancing for good
  }
  registry.Add(std::make_unique<services::ServiceInstance>(
      host, std::make_unique<PayloadRecorder>(&seen), &lane,
      /*native=*/false));

  probe->Start();
  orchestrator.RunFor(Duration::Seconds(5));
  EXPECT_EQ(ProbeResult(*probe), R"("ok")");
  ExpectInvariantsHold(orchestrator);
  return seen;
}

TEST(SharedPayload, CoLocatedRetryHandsTheReplicaOneObject) {
  const auto seen = RecordRetriedCall(PlacementPolicy::kCoLocate);
  ASSERT_EQ(seen.size(), 2u);  // timed out once, then answered
  ASSERT_NE(seen[0], nullptr);
  // Both attempts got the issued object itself, not copies of it (the
  // first is still held, so a copy could not reuse its address).
  EXPECT_EQ(seen[1].get(), seen[0].get());
  EXPECT_EQ(json::Write(*seen[0]), R"({"tag":"shared","n":1.25})");
}

TEST(SharedPayload, RemoteRetryHandsTheReplicaOneObject) {
  // The gateway hands the replica the object the request message
  // carried, so a remote retry reaches it uncopied too.
  const auto seen = RecordRetriedCall(PlacementPolicy::kSingleDevice);
  ASSERT_EQ(seen.size(), 2u);
  ASSERT_NE(seen[0], nullptr);
  EXPECT_EQ(seen[1].get(), seen[0].get());
  EXPECT_EQ(json::Write(*seen[0]), R"({"tag":"shared","n":1.25})");
}

TEST(SharedPayload, RemoteRequestMessageCarriesTheIssuedObject) {
  // No frame_id to strip and serving off: the request message itself
  // shares the caller's payload, on every attempt, and sizes exactly
  // as it encodes. A stand-in gateway keeps each request it receives;
  // it drops the first, so the caller retries, and answers the second.
  auto cluster = sim::MakeHomeTestbed();
  Orchestrator orchestrator(cluster.get());
  PipelineDeployment* probe =
      DeploySharingProbe(orchestrator, PlacementPolicy::kSingleDevice);
  ASSERT_NE(probe, nullptr);
  const net::Address gateway = orchestrator.ServiceGateway(
      probe->plan().service_device.at("pose_detector"), "pose_detector");
  ASSERT_FALSE(gateway.device.empty());
  std::vector<net::Message> requests;
  net::Fabric& fabric = orchestrator.fabric();
  fabric.Unbind(gateway);
  ASSERT_TRUE(fabric
                  .Bind(gateway,
                        [&requests](net::Message request,
                                    net::Responder respond) {
                          requests.push_back(request);  // shares the payload
                          if (requests.size() == 1) return;  // lost
                          json::Value reply = json::Value::MakeObject();
                          reply["ok"] = json::Value(true);
                          reply["result"] = json::Value::MakeObject();
                          respond(net::Message("reply", std::move(reply)));
                        })
                  .ok());

  probe->Start();
  orchestrator.RunFor(Duration::Seconds(5));
  EXPECT_EQ(ProbeResult(*probe), R"("ok")");
  ASSERT_EQ(requests.size(), 2u);
  const std::shared_ptr<const json::Value>& issued =
      requests[0].shared_payload();
  ASSERT_NE(issued, nullptr);
  // The first request is still held, so a per-attempt copy could not
  // reuse its address.
  EXPECT_EQ(requests[1].shared_payload(), issued);
  EXPECT_EQ(json::Write(*issued), R"({"tag":"shared","n":1.25})");
  for (const net::Message& request : requests) {
    EXPECT_TRUE(request.parts().empty());
    EXPECT_EQ(request.ByteSize(), request.Encode().size());
  }
  ExpectInvariantsHold(orchestrator);
}

}  // namespace
}  // namespace vp::core
