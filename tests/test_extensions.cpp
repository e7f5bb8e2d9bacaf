// Tests for the extension features: vpscript error handling + extra
// statements/stdlib, the object tracker, fabric PUB/SUB, the pipeline
// monitor and the latency-aware placement policy.
#include <gtest/gtest.h>

#include <algorithm>
#include <variant>

#include "apps/fitness.hpp"
#include "core/monitor.hpp"
#include "core/orchestrator.hpp"
#include "cv/tracker.hpp"
#include "invariants_hold.hpp"
#include "json/write.hpp"
#include "net/fabric.hpp"
#include "script/context.hpp"
#include "sim/cluster.hpp"

namespace vp {
namespace {

using test_support::ExpectInvariantsHold;

// ------------------------------------------------------ script extras

Result<json::Value> Eval(const std::string& body) {
  script::Context context;
  Status loaded = context.Load(body);
  if (!loaded.ok()) return loaded.error();
  return context.GetGlobal("result");
}

double Num(const std::string& body) {
  auto v = Eval(body);
  EXPECT_TRUE(v.ok() && v->is_number())
      << body << (v.ok() ? "" : ": " + v.error().ToString());
  return v.ok() && v->is_number() ? v->AsDouble() : -9999;
}

std::string Str(const std::string& body) {
  auto v = Eval(body);
  EXPECT_TRUE(v.ok() && v->is_string()) << body;
  return v.ok() && v->is_string() ? v->AsString() : "<err>";
}

TEST(ScriptTryCatch, CatchesThrownValues) {
  EXPECT_EQ(Str(R"(
    var result = "";
    try {
      throw "boom";
    } catch (e) {
      result = e.message;
    }
  )"),
            "script:4: uncaught: boom");
}

TEST(ScriptTryCatch, CatchesRuntimeErrorsWithCode) {
  EXPECT_EQ(Str(R"(
    var result = "";
    try {
      var x = null;
      x.field;
    } catch (e) {
      result = e.code;
    }
  )"),
            "SCRIPT_ERROR");
}

TEST(ScriptTryCatch, UncaughtRethrows) {
  auto v = Eval("throw 42;");
  ASSERT_FALSE(v.ok());
  EXPECT_NE(v.error().message().find("uncaught: 42"), std::string::npos);
}

TEST(ScriptTryCatch, HostErrorsAreCatchable) {
  script::Context context;
  context.RegisterHostFunction(
      "flaky", [](script::Vm&, script::HostArgs) -> Result<script::VpValue> {
        return Unavailable("service down");
      });
  ASSERT_TRUE(context
                  .Load(R"(
    var caught = "";
    function run() {
      try {
        flaky();
      } catch (e) {
        caught = e.message;
      }
      return caught;
    }
  )")
                  .ok());
  auto result = context.Call("run", {});
  ASSERT_TRUE(result.ok()) << result.error().ToString();
  EXPECT_NE(result->AsString().find("service down"), std::string::npos);
}

TEST(ScriptTryCatch, BudgetExhaustionIsNotCatchable) {
  script::ContextOptions options;
  options.limits.max_steps = 5000;
  script::Context context(options);
  Status s = context.Load(R"(
    try {
      while (true) {}
    } catch (e) {
      // must never get here
    }
  )");
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
}

TEST(ScriptSwitch, MatchFallthroughAndDefault) {
  EXPECT_DOUBLE_EQ(Num(R"(
    function classify(x) {
      var score = 0;
      switch (x) {
        case "wave":
          score += 1;
          break;
        case "clap":   // falls through to "snap"
        case "snap":
          score += 10;
          break;
        default:
          score = -1;
      }
      return score;
    }
    var result = classify("wave") * 1000 + classify("clap") * 100 +
                 classify("snap") * 10 + (classify("other") == -1 ? 1 : 0);
  )"),
                   1000 + 1000 + 100 + 1);
}

TEST(ScriptSwitch, StrictMatching) {
  EXPECT_DOUBLE_EQ(Num(R"(
    var result = 0;
    switch (5) {
      case "5": result = 1; break;   // no loose match
      case 5: result = 2; break;
      default: result = 3;
    }
  )"),
                   2);
}

TEST(ScriptDoWhile, RunsBodyAtLeastOnce) {
  EXPECT_DOUBLE_EQ(Num(R"(
    var n = 0;
    do { n = n + 1; } while (false);
    var result = n;
  )"),
                   1);
  EXPECT_DOUBLE_EQ(Num(R"(
    var n = 0;
    do { n = n + 1; } while (n < 5);
    var result = n;
  )"),
                   5);
}

TEST(ScriptStdlibExtras, StringMethods) {
  EXPECT_EQ(Str("var result = 'a-b-c'.replace('-', '+');"), "a+b-c");
  EXPECT_EQ(Str("var result = 'ab'.repeat(3);"), "ababab");
  EXPECT_EQ(Str("var result = '7'.padStart(3, '0');"), "007");
}

/// The message of the error `body` fails to load with ("" if it loads).
std::string LoadError(const std::string& body) {
  auto v = Eval(body);
  if (v.ok()) return "";
  EXPECT_EQ(v.error().code(), StatusCode::kScriptError) << body;
  return v.error().message();
}

TEST(ScriptStdlibExtras, StringGrowthIsBoundedBeforeItHappens) {
  // Each of these used to abort the process with std::bad_alloc (the
  // repeat count wrapped the old `n * size` guard to 0).
  const char* too_long = "string longer than 1048576 bytes";
  for (const char* body : {
           "var result = 'ab'.padStart(1e11);",
           "var result = 'abcd'.repeat(4611686018427387904);",
           "var s = 'x'; for (var i = 0; i < 40; i++) s = s + s;",
       }) {
    EXPECT_NE(LoadError(body).find(too_long), std::string::npos) << body;
  }
  // Every way a string grows checks the same bound: `+`, join,
  // replace, String(), JSON.stringify, padStart.
  const std::string big = "var big = 'x'.repeat(600000);\n";
  for (const char* grow : {
           "var result = big + big;",
           "var result = [big, big].join('');",
           "var result = big.replace('x', big);",
           "var result = String([big, big]);",
           "var result = JSON.stringify([big, big]);",
           "var result = big.padStart(1200000);",
       }) {
    EXPECT_EQ(LoadError(big + grow), std::string("script:2: ") + too_long)
        << grow;
  }
  // The bound is inclusive, and the error is catchable.
  EXPECT_DOUBLE_EQ(Num("var result = 'ab'.repeat(524288).length;"), 1048576);
  EXPECT_EQ(Str(R"(
    var result = "";
    try { "ab".repeat(524289); } catch (e) { result = e.code; }
  )"),
            "SCRIPT_ERROR");
}

TEST(ScriptStdlibExtras, IndexAndCountArgumentsClamp) {
  // NaN reads as 0; infinities and out-of-range doubles clamp instead of
  // hitting an undefined float-to-integer cast.
  EXPECT_EQ(Str("var result = 'abc'.charAt(1e300);"), "");
  EXPECT_EQ(Str("var result = 'abc'.charAt(-1e300);"), "");
  EXPECT_EQ(Str("var result = 'abc'.charAt(0 / 0);"), "a");
  EXPECT_EQ(Str("var result = 'abc'.substring(0 / 0);"), "abc");
  EXPECT_EQ(Str("var result = 'abc'.substring(1, 1 / 0);"), "bc");
  EXPECT_EQ(Str("var result = 'abc'.slice(-1e300, 1e300);"), "abc");
  EXPECT_EQ(Str("var result = 'ab'.repeat(0 / 0);"), "");
  EXPECT_EQ(Str("var result = ''.repeat(1e300);"), "");
  EXPECT_EQ(Str("var result = 'abc'.padStart(0 / 0);"), "abc");
  EXPECT_EQ(Str("var result = [1, 2, 3].slice(0 / 0, 1e300).join('');"),
            "123");
  EXPECT_EQ(Str("var result = typeof 'abc'[1e300] + typeof [1][-1e300];"),
            "undefinedundefined");
}

TEST(ScriptStdlibExtras, ArrayMethods) {
  EXPECT_EQ(Str("var result = [3, 1, 2].sort().join('');"), "123");
  EXPECT_EQ(Str(R"(
    var result = [1, 5, 3].sort(function (a, b) { return b - a; }).join('');
  )"),
            "531");
  EXPECT_EQ(Str("var result = [1, 2, 3].reverse().join('');"), "321");
  EXPECT_DOUBLE_EQ(Num("var result = [1, 2].includes(2) ? 1 : 0;"), 1);
  EXPECT_DOUBLE_EQ(Num("var result = [1, 2].includes('2') ? 1 : 0;"), 0);
}

TEST(ScriptStdlibExtras, MathExtras) {
  EXPECT_DOUBLE_EQ(Num("var result = Math.trunc(-3.7);"), -3);
  EXPECT_DOUBLE_EQ(Num("var result = Math.sign(-9) + Math.sign(4);"), 0);
  EXPECT_DOUBLE_EQ(Num("var result = Math.log2(1024);"), 10);
}

// ----------------------------------------------------------- Tracker

cv::DetectedObject Box(const char* cls, double x0, double y0, double x1,
                       double y1) {
  cv::DetectedObject det;
  det.class_name = cls;
  det.x0 = x0;
  det.y0 = y0;
  det.x1 = x1;
  det.y1 = y1;
  return det;
}

TEST(Tracker, IoUBasics) {
  EXPECT_DOUBLE_EQ(cv::IoU(0, 0, 10, 10, 0, 0, 10, 10), 1.0);
  EXPECT_DOUBLE_EQ(cv::IoU(0, 0, 10, 10, 20, 20, 30, 30), 0.0);
  EXPECT_NEAR(cv::IoU(0, 0, 10, 10, 5, 0, 15, 10), 50.0 / 150.0, 1e-9);
}

TEST(Tracker, TracksPersistAcrossFrames) {
  cv::TrackerState state;
  state = cv::UpdateTracks(std::move(state), {Box("cat", 10, 10, 30, 30)});
  ASSERT_EQ(state.tracks.size(), 1u);
  const int id = state.tracks[0].id;
  // The object moves a little each frame; the id must be stable.
  for (double shift = 2; shift <= 10; shift += 2) {
    state = cv::UpdateTracks(
        std::move(state),
        {Box("cat", 10 + shift, 10, 30 + shift, 30)});
    ASSERT_EQ(state.tracks.size(), 1u);
    EXPECT_EQ(state.tracks[0].id, id);
  }
  EXPECT_EQ(state.tracks[0].age, 5);
}

TEST(Tracker, NewObjectsGetNewIds) {
  cv::TrackerState state;
  state = cv::UpdateTracks(std::move(state), {Box("cat", 0, 0, 10, 10)});
  state = cv::UpdateTracks(std::move(state), {Box("cat", 0, 0, 10, 10),
                                              Box("dog", 50, 50, 70, 70)});
  ASSERT_EQ(state.tracks.size(), 2u);
  EXPECT_NE(state.tracks[0].id, state.tracks[1].id);
}

TEST(Tracker, ClassMismatchNeverMatches) {
  cv::TrackerState state;
  state = cv::UpdateTracks(std::move(state), {Box("cat", 0, 0, 10, 10)});
  state = cv::UpdateTracks(std::move(state), {Box("dog", 0, 0, 10, 10)});
  // The cat misses, the dog is a fresh track.
  ASSERT_EQ(state.tracks.size(), 2u);
  int misses_total = state.tracks[0].misses + state.tracks[1].misses;
  EXPECT_EQ(misses_total, 1);
}

TEST(Tracker, TracksRetireAfterMaxMisses) {
  cv::TrackerOptions options;
  options.max_misses = 2;
  cv::TrackerState state;
  state = cv::UpdateTracks(std::move(state), {Box("cat", 0, 0, 10, 10)},
                           options);
  for (int i = 0; i < 3; ++i) {
    state = cv::UpdateTracks(std::move(state), {}, options);
  }
  EXPECT_TRUE(state.tracks.empty());
}

TEST(Tracker, StateJsonRoundTrip) {
  cv::TrackerState state;
  state = cv::UpdateTracks(std::move(state), {Box("cat", 0, 0, 10, 10),
                                              Box("dog", 40, 40, 60, 60)});
  auto restored = cv::TrackerState::FromJson(state.ToJson());
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->next_id, state.next_id);
  ASSERT_EQ(restored->tracks.size(), state.tracks.size());
  EXPECT_EQ(restored->tracks[0].id, state.tracks[0].id);
  EXPECT_EQ(restored->tracks[1].class_name, state.tracks[1].class_name);
}

TEST(Tracker, GreedyPrefersHighestOverlap) {
  cv::TrackerState state;
  state = cv::UpdateTracks(std::move(state), {Box("cat", 0, 0, 10, 10),
                                              Box("cat", 12, 0, 22, 10)});
  const int left_id = state.tracks[0].id;
  // Detections shifted right: each should follow its nearest track.
  state = cv::UpdateTracks(std::move(state), {Box("cat", 2, 0, 12, 10),
                                              Box("cat", 14, 0, 24, 10)});
  ASSERT_EQ(state.tracks.size(), 2u);
  EXPECT_EQ(state.tracks[0].id, left_id);
  EXPECT_NEAR(state.tracks[0].x0, 2.0, 1e-9);
}

// ------------------------------------------------------------ PUB/SUB

TEST(PubSub, DeliversToAllSubscribers) {
  auto cluster = sim::MakeHomeTestbed();
  net::Fabric fabric(cluster.get());
  int tv_hits = 0;
  int desktop_hits = 0;
  fabric.Subscribe("telemetry", "tv",
                   [&](net::Message) { ++tv_hits; });
  fabric.Subscribe("telemetry", "desktop",
                   [&](net::Message) { ++desktop_hits; });
  EXPECT_EQ(fabric.subscriber_count("telemetry"), 2u);

  ASSERT_TRUE(fabric.Publish("phone", "telemetry", net::Message("x")).ok());
  cluster->simulator().RunUntilIdle();
  EXPECT_EQ(tv_hits, 1);
  EXPECT_EQ(desktop_hits, 1);
}

TEST(PubSub, TopicsAreIndependent) {
  auto cluster = sim::MakeHomeTestbed();
  net::Fabric fabric(cluster.get());
  int hits = 0;
  fabric.Subscribe("a", "tv", [&](net::Message) { ++hits; });
  ASSERT_TRUE(fabric.Publish("phone", "b", net::Message("x")).ok());
  cluster->simulator().RunUntilIdle();
  EXPECT_EQ(hits, 0);
}

TEST(PubSub, UnsubscribeStopsDelivery) {
  auto cluster = sim::MakeHomeTestbed();
  net::Fabric fabric(cluster.get());
  int hits = 0;
  const uint64_t token =
      fabric.Subscribe("a", "tv", [&](net::Message) { ++hits; });
  ASSERT_TRUE(fabric.Publish("phone", "a", net::Message("1")).ok());
  cluster->simulator().RunUntilIdle();
  fabric.Unsubscribe(token);
  ASSERT_TRUE(fabric.Publish("phone", "a", net::Message("2")).ok());
  cluster->simulator().RunUntilIdle();
  EXPECT_EQ(hits, 1);
  EXPECT_EQ(fabric.subscriber_count("a"), 0u);
}

TEST(PubSub, UnsubscribeMidFlightDropsSafely) {
  auto cluster = sim::MakeHomeTestbed();
  net::Fabric fabric(cluster.get());
  int hits = 0;
  const uint64_t token =
      fabric.Subscribe("a", "tv", [&](net::Message) { ++hits; });
  ASSERT_TRUE(fabric.Publish("phone", "a", net::Message("1")).ok());
  fabric.Unsubscribe(token);  // before delivery
  cluster->simulator().RunUntilIdle();
  EXPECT_EQ(hits, 0);
  EXPECT_EQ(fabric.dropped_messages(), 1u);
}

// ------------------------------------------------------------ Monitor

TEST(Monitor, SamplesPipelinesAndServices) {
  auto cluster = sim::MakeHomeTestbed();
  core::Orchestrator orchestrator(cluster.get());
  auto spec = apps::fitness::Spec();
  core::Orchestrator::DeployArgs args;
  args.workload = apps::fitness::Workout();
  auto deployment = orchestrator.Deploy(std::move(*spec), std::move(args));
  ASSERT_TRUE(deployment.ok());

  core::PipelineMonitor monitor(&orchestrator, Duration::Millis(500));
  monitor.WatchService("desktop", "pose_detector");
  monitor.Start();
  (*deployment)->Start();
  orchestrator.RunFor(Duration::Seconds(10));
  monitor.Stop();

  ASSERT_GE(monitor.samples().size(), 15u);
  const core::MonitorSample& sample = monitor.samples().back();
  const auto fps = sample.Number("pipeline_fps", {{"pipeline", "fitness"}});
  ASSERT_TRUE(fps.has_value());
  EXPECT_GT(*fps, 5.0);
  const core::Labels pose = {{"group", "desktop/pose_detector"}};
  ASSERT_TRUE(sample.Number("service_backlog", pose).has_value());
  EXPECT_EQ(sample.Number("service_replicas", pose).value_or(0), 1.0);
  EXPECT_GT(sample.Number("network_bytes").value_or(0), 100000.0);

  const std::string report = monitor.Report();
  EXPECT_NE(report.find("fitness"), std::string::npos);
  EXPECT_NE(report.find("pose_detector"), std::string::npos);
  ExpectInvariantsHold(orchestrator);
}

TEST(Monitor, PublishesTelemetryOverPubSub) {
  auto cluster = sim::MakeHomeTestbed();
  core::Orchestrator orchestrator(cluster.get());
  auto spec = apps::fitness::Spec();
  core::Orchestrator::DeployArgs args;
  args.workload = apps::fitness::Workout();
  auto deployment = orchestrator.Deploy(std::move(*spec), std::move(args));
  ASSERT_TRUE(deployment.ok());

  std::vector<double> observed_fps;
  orchestrator.fabric().Subscribe(
      "home/telemetry", "tv", [&](net::Message m) {
        const json::Value* fps = m.payload().Find("pipeline_fps");
        if (fps == nullptr) return;
        for (const json::Value& entry : fps->AsArray()) {
          if (entry.GetString("pipeline") == "fitness") {
            observed_fps.push_back(entry.GetDouble("value"));
          }
        }
      });

  core::PipelineMonitor monitor(&orchestrator, Duration::Millis(1000));
  monitor.PublishTo("desktop", "home/telemetry");
  monitor.Start();
  (*deployment)->Start();
  orchestrator.RunFor(Duration::Seconds(8));
  monitor.Stop();

  ASSERT_GE(observed_fps.size(), 6u);
  EXPECT_GT(observed_fps.back(), 5.0);
  ExpectInvariantsHold(orchestrator);
}

TEST(Monitor, JsonHoldsEveryReading) {
  // Serving on and a model-backed group watched, so the sample holds
  // scheduler, replica and model readings as well as the home's.
  auto cluster = sim::MakeHomeTestbed();
  core::OrchestratorOptions options;
  options.serving.enabled = true;
  core::Orchestrator orchestrator(cluster.get(), options);
  auto spec = apps::fitness::Spec();
  core::Orchestrator::DeployArgs args;
  args.workload = apps::fitness::Workout();
  auto deployment = orchestrator.Deploy(std::move(*spec), std::move(args));
  ASSERT_TRUE(deployment.ok());

  core::PipelineMonitor monitor(&orchestrator, Duration::Millis(500));
  monitor.WatchService("desktop", "pose_detector");
  for (const auto& [device, service] : orchestrator.rollout().groups()) {
    monitor.WatchService(device, service);
  }
  monitor.Start();
  (*deployment)->Start();
  orchestrator.RunFor(Duration::Seconds(3));
  monitor.Stop();

  ASSERT_NE(monitor.latest(), nullptr);
  const core::MonitorSample& sample = *monitor.latest();
  const json::Value doc = sample.ToJson();
  // A subscriber sees device load, replica counts and frame totals.
  for (const char* name :
       {"frames_completed", "service_replicas", "device_utilization",
        "scheduler_queue_depth", "model_version", "replica_model_version"}) {
    EXPECT_NE(doc.Find(name), nullptr) << name;
  }
  // Each reading is one entry under its name: its labels, and its
  // value or text.
  size_t entries = 0;
  for (const auto& [name, list] : doc.AsObject()) {
    if (list.is_array()) entries += list.AsArray().size();
  }
  EXPECT_EQ(entries, sample.readings.size());
  for (const core::Reading& r : sample.readings) {
    const json::Value* list = doc.Find(r.name);
    ASSERT_NE(list, nullptr) << r.name;
    json::Value want = json::Value::MakeObject();
    for (const auto& [label, value] : r.labels) {
      want[label] = json::Value(value);
    }
    if (const auto* text = std::get_if<std::string>(&r.value)) {
      want["text"] = json::Value(*text);
    } else {
      want["value"] = json::Value(std::get<double>(r.value));
    }
    const auto& found = list->AsArray();
    EXPECT_NE(std::find(found.begin(), found.end(), want), found.end())
        << r.name << ": " << json::Write(want, 0);
  }
  ExpectInvariantsHold(orchestrator);
}

// --------------------------------------------- Latency-aware placement

TEST(LatencyAwarePlacement, PicksFastDeviceOnTheHomeTestbed) {
  auto cluster = sim::MakeHomeTestbed();
  auto spec = apps::fitness::Spec();
  core::PlacementOptions options;
  options.policy = core::PlacementPolicy::kLatencyAware;
  auto plan = core::PlanDeployment(*spec, *cluster, options);
  ASSERT_TRUE(plan.ok()) << plan.error().ToString();
  // Desktop (speed 1.0) beats the TV (0.5) for every container service.
  EXPECT_EQ(plan->service_device.at("pose_detector"), "desktop");
  EXPECT_EQ(plan->service_device.at("rep_counter"), "desktop");
  // Display is still capability-bound to the TV.
  EXPECT_EQ(plan->service_device.at("display"), "tv");
}

TEST(LatencyAwarePlacement, PrefersNearDeviceWhenSpeedsAreClose) {
  // A hub next to the camera vs a slightly faster server far away
  // (slow link): frame-shipping services should stay on the hub.
  sim::Cluster cluster(7);
  sim::DeviceSpec camera;
  camera.name = "camera";
  camera.cpu_speed = 0.2;
  camera.capabilities = {"camera", "display"};
  (void)cluster.AddDevice(camera);
  sim::DeviceSpec hub;
  hub.name = "hub";
  hub.cpu_speed = 0.9;
  hub.supports_containers = true;
  hub.container_cores = 4;
  (void)cluster.AddDevice(hub);
  sim::DeviceSpec server;
  server.name = "server";
  server.cpu_speed = 1.0;
  server.supports_containers = true;
  server.container_cores = 8;
  (void)cluster.AddDevice(server);

  sim::LinkSpec near_link;
  near_link.latency = Duration::Millis(1);
  near_link.bandwidth_bps = 200e6;
  cluster.network().SetSymmetricLink("camera", "hub", near_link);
  sim::LinkSpec far_link;
  far_link.latency = Duration::Millis(25);
  far_link.bandwidth_bps = 10e6;
  cluster.network().SetSymmetricLink("camera", "server", far_link);

  auto spec = apps::fitness::Spec();
  core::PlacementOptions options;
  options.policy = core::PlacementPolicy::kLatencyAware;
  auto plan = core::PlanDeployment(*spec, cluster, options);
  ASSERT_TRUE(plan.ok()) << plan.error().ToString();
  // pose (frame-taking): 55/0.9=61.1 on hub+~1.2ms vs 55/1.0=55 on
  // server + 25ms lat + 16ms tx → hub wins.
  EXPECT_EQ(plan->service_device.at("pose_detector"), "hub");
  // But the default server-pick policy would have chosen the server.
  core::PlacementOptions colocate;
  colocate.policy = core::PlacementPolicy::kCoLocate;
  auto naive = core::PlanDeployment(*spec, cluster, colocate);
  ASSERT_TRUE(naive.ok());
  EXPECT_EQ(naive->service_device.at("pose_detector"), "server");
}

TEST(LatencyAwarePlacement, RunsEndToEnd) {
  auto cluster = sim::MakeHomeTestbed();
  core::Orchestrator orchestrator(cluster.get());
  auto spec = apps::fitness::Spec();
  core::Orchestrator::DeployArgs args;
  args.workload = apps::fitness::Workout();
  args.placement.policy = core::PlacementPolicy::kLatencyAware;
  auto deployment = orchestrator.Deploy(std::move(*spec), std::move(args));
  ASSERT_TRUE(deployment.ok()) << deployment.error().ToString();
  (*deployment)->Start();
  orchestrator.RunFor(Duration::Seconds(10));
  EXPECT_GT((*deployment)->metrics().EndToEndFps(), 9.0);
  ExpectInvariantsHold(orchestrator);
}

// ----------------------------------------- Tracker service end-to-end

TEST(TrackerService, TracksThroughThePipeline) {
  auto cluster = sim::MakeHomeTestbed();
  core::Orchestrator orchestrator(cluster.get());
  auto spec = core::ParsePipelineConfigText(R"CFG({
    "name": "tracking",
    "source": { "fps": 10, "width": 320, "height": 240 },
    "modules": [
      { "name": "cam", "type": "source", "next_module": ["track_module"] },
      { "name": "track_module", "service": ["object_tracker"],
        "signal_source": true,
        "code": "
          var state = null;
          var seen_ids = {};
          function event_received(msg) {
            var req = { frame_id: msg.frame_id,
                        classes: [ { name: 'lamp', r: 200, g: 160, b: 40 } ] };
            if (state != null) req.state = state;
            var res = call_service('object_tracker', req);
            state = res.state;
            for (var i = 0; i < res.tracks.length; i++) {
              seen_ids[res.tracks[i].id] = true;
            }
          }" }
    ]
  })CFG",
                                            core::MapResolver({}));
  ASSERT_TRUE(spec.ok()) << spec.error().ToString();
  core::Orchestrator::DeployArgs args;
  auto idle = media::MotionScript::Make({{"idle", 10.0, {}}});
  args.workload = std::move(*idle);
  args.scene.props.push_back(
      media::Prop{"lamp", 0.05, 0.1, 0.1, 0.25, media::Rgb{200, 160, 40}});
  auto deployment = orchestrator.Deploy(std::move(*spec), std::move(args));
  ASSERT_TRUE(deployment.ok()) << deployment.error().ToString();
  (*deployment)->Start();
  orchestrator.RunFor(Duration::Seconds(8));

  core::ModuleRuntime* module = (*deployment)->FindModule("track_module");
  EXPECT_EQ(module->stats().script_errors, 0u);
  // One static lamp → exactly one stable track id for the whole run.
  const json::Value ids = module->context().GetGlobal("seen_ids");
  ASSERT_TRUE(ids.is_object());
  EXPECT_EQ(ids.AsObject().size(), 1u);
  ExpectInvariantsHold(orchestrator);
}

}  // namespace
}  // namespace vp
