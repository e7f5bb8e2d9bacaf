// Tests for module timers, pipeline undeploy and PPM frame export.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "apps/fitness.hpp"
#include "apps/gesture.hpp"
#include "core/orchestrator.hpp"
#include "invariants_hold.hpp"
#include "media/ppm.hpp"
#include "media/renderer.hpp"
#include "sim/cluster.hpp"

namespace vp {
namespace {

using test_support::ExpectInvariantsHold;

// -------------------------------------------------------------- timers

TEST(ModuleTimers, FireAfterTheRequestedDelay) {
  auto cluster = sim::MakeHomeTestbed();
  core::Orchestrator orchestrator(cluster.get());
  auto spec = core::ParsePipelineConfigText(R"CFG({
    "name": "ticker",
    "source": { "fps": 5, "width": 64, "height": 48 },
    "modules": [
      { "name": "cam", "type": "source", "next_module": ["tick_module"] },
      { "name": "tick_module", "signal_source": true,
        "code": "
          var timer_fires = 0;
          var frames = 0;
          var last_fire_ms = -1;
          var armed = false;
          function event_received(msg) {
            if (msg.timer) {
              timer_fires = timer_fires + 1;
              last_fire_ms = now_ms();
              set_timer(500, { tag: msg.tag });
              return;
            }
            frames = frames + 1;
            if (!armed) {
              armed = true;
              set_timer(500, { tag: 'heartbeat' });
            }
          }" }
    ]
  })CFG",
                                            core::MapResolver({}));
  ASSERT_TRUE(spec.ok()) << spec.error().ToString();
  core::Orchestrator::DeployArgs args;
  args.workload = apps::fitness::Workout();
  auto deployment = orchestrator.Deploy(std::move(*spec), std::move(args));
  ASSERT_TRUE(deployment.ok());
  (*deployment)->Start();
  orchestrator.RunFor(Duration::Seconds(10));

  core::ModuleRuntime* module = (*deployment)->FindModule("tick_module");
  const double fires = module->context().GetGlobal("timer_fires").AsDouble();
  const double frames = module->context().GetGlobal("frames").AsDouble();
  // ~2 heartbeats per second once armed, alongside normal frames.
  EXPECT_GE(fires, 15);
  EXPECT_LE(fires, 21);
  EXPECT_GT(frames, 40);
  EXPECT_EQ(module->stats().script_errors, 0u);
  ExpectInvariantsHold(orchestrator);
}

TEST(ModuleTimers, TimerEventsCarryThePayload) {
  auto cluster = sim::MakeHomeTestbed();
  core::Orchestrator orchestrator(cluster.get());
  auto spec = core::ParsePipelineConfigText(R"CFG({
    "name": "payload",
    "source": { "fps": 5, "width": 64, "height": 48 },
    "modules": [
      { "name": "cam", "type": "source", "next_module": ["m"] },
      { "name": "m", "signal_source": true,
        "code": "
          var tag = '';
          var armed = false;
          function event_received(msg) {
            if (msg.timer) { tag = msg.tag; return; }
            if (!armed) { armed = true; set_timer(100, { tag: 'hello' }); }
          }" }
    ]
  })CFG",
                                            core::MapResolver({}));
  ASSERT_TRUE(spec.ok());
  core::Orchestrator::DeployArgs args;
  args.workload = apps::fitness::Workout();
  auto deployment = orchestrator.Deploy(std::move(*spec), std::move(args));
  ASSERT_TRUE(deployment.ok());
  (*deployment)->Start();
  orchestrator.RunFor(Duration::Seconds(3));
  EXPECT_EQ((*deployment)
                ->FindModule("m")
                ->context()
                .GetGlobal("tag")
                .AsString(),
            "hello");
  ExpectInvariantsHold(orchestrator);
}

TEST(ModuleTimers, InvalidArgumentsError) {
  auto cluster = sim::MakeHomeTestbed();
  core::Orchestrator orchestrator(cluster.get());
  auto spec = core::ParsePipelineConfigText(R"CFG({
    "name": "bad_timer",
    "source": { "fps": 5, "width": 64, "height": 48 },
    "modules": [
      { "name": "cam", "type": "source", "next_module": ["m"] },
      { "name": "m", "signal_source": true,
        "code": "function event_received(msg) { set_timer(-5); }" }
    ]
  })CFG",
                                            core::MapResolver({}));
  ASSERT_TRUE(spec.ok());
  core::Orchestrator::DeployArgs args;
  args.workload = apps::fitness::Workout();
  auto deployment = orchestrator.Deploy(std::move(*spec), std::move(args));
  ASSERT_TRUE(deployment.ok());
  (*deployment)->Start();
  orchestrator.RunFor(Duration::Seconds(2));
  EXPECT_GT((*deployment)->FindModule("m")->stats().script_errors, 3u);
  ExpectInvariantsHold(orchestrator);
}

// ------------------------------------------------------------ undeploy

TEST(Undeploy, StopsTrafficAndFreesThePipelineSlot) {
  auto cluster = sim::MakeHomeTestbed();
  core::Orchestrator orchestrator(cluster.get());
  auto spec = apps::fitness::Spec();
  core::Orchestrator::DeployArgs args;
  args.workload = apps::fitness::Workout();
  auto deployment = orchestrator.Deploy(std::move(*spec), std::move(args));
  ASSERT_TRUE(deployment.ok());
  (*deployment)->Start();
  orchestrator.RunFor(Duration::Seconds(5));
  const uint64_t completed = (*deployment)->metrics().frames_completed();
  EXPECT_GT(completed, 20u);
  EXPECT_EQ(orchestrator.pipelines().size(), 1u);

  ASSERT_TRUE(orchestrator.Undeploy(*deployment).ok());
  EXPECT_TRUE(orchestrator.pipelines().empty());
  // Double-undeploy is an error.
  EXPECT_EQ(orchestrator.Undeploy(*deployment).code(),
            StatusCode::kNotFound);

  orchestrator.RunFor(Duration::Seconds(5));
  // No further frames completed after teardown (in-flight remnants may
  // add at most a frame or two).
  EXPECT_LE((*deployment)->metrics().frames_completed(), completed + 2);
  ExpectInvariantsHold(orchestrator);
}

TEST(Undeploy, RedeploySameConfigReusesConfiguredPorts) {
  auto cluster = sim::MakeHomeTestbed();
  core::Orchestrator orchestrator(cluster.get());
  core::Orchestrator::DeployArgs args1;
  args1.workload = apps::fitness::Workout();
  auto first = orchestrator.Deploy(*apps::fitness::Spec(), std::move(args1));
  ASSERT_TRUE(first.ok());
  auto pose_address = (*first)->ModuleAddress("pose_detection_module");
  ASSERT_TRUE(pose_address.ok());
  EXPECT_EQ(pose_address->port, 5861);  // from the config

  ASSERT_TRUE(orchestrator.Undeploy(*first).ok());
  core::Orchestrator::DeployArgs args2;
  args2.workload = apps::fitness::Workout();
  auto second = orchestrator.Deploy(*apps::fitness::Spec(),
                                    std::move(args2));
  ASSERT_TRUE(second.ok());
  auto again = (*second)->ModuleAddress("pose_detection_module");
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->port, 5861);  // port was freed by the undeploy

  (*second)->Start();
  orchestrator.RunFor(Duration::Seconds(5));
  EXPECT_GT((*second)->metrics().frames_completed(), 20u);
  ExpectInvariantsHold(orchestrator);
}

TEST(Undeploy, SharedServicesSurviveForOtherPipelines) {
  auto cluster = sim::MakeHomeTestbed();
  core::Orchestrator orchestrator(cluster.get());
  core::Orchestrator::DeployArgs args1;
  args1.workload = apps::fitness::Workout();
  auto fitness = orchestrator.Deploy(*apps::fitness::Spec(),
                                     std::move(args1));
  ASSERT_TRUE(fitness.ok());
  apps::IoTHub hub;
  auto gesture = orchestrator.Deploy(
      *apps::gesture::Spec(),
      apps::gesture::MakeDeployArgs(hub, &cluster->simulator()));
  ASSERT_TRUE(gesture.ok());

  orchestrator.StartAll();
  orchestrator.RunFor(Duration::Seconds(5));
  ASSERT_TRUE(orchestrator.Undeploy(*fitness).ok());
  const uint64_t gesture_before = (*gesture)->metrics().frames_completed();
  orchestrator.RunFor(Duration::Seconds(10));
  // The gesture pipeline keeps running on the shared pose service —
  // faster now that it has the replica to itself.
  EXPECT_GT((*gesture)->metrics().frames_completed(), gesture_before + 80);
  ExpectInvariantsHold(orchestrator);
}

// ----------------------------------------------------------------- PPM

TEST(Ppm, WriteReadRoundTrip) {
  const media::Image original = media::RenderScene(
      media::Pose::Standing(), media::SceneOptions{}, 5);
  const std::string path = ::testing::TempDir() + "/vp_frame.ppm";
  ASSERT_TRUE(media::WritePpm(original, path).ok());
  auto loaded = media::ReadPpm(path);
  ASSERT_TRUE(loaded.ok()) << loaded.error().ToString();
  EXPECT_EQ(loaded->width(), original.width());
  EXPECT_EQ(loaded->height(), original.height());
  EXPECT_DOUBLE_EQ(original.MeanAbsDiff(*loaded), 0.0);
  std::remove(path.c_str());
}

TEST(Ppm, RejectsMissingAndMalformedFiles) {
  EXPECT_EQ(media::ReadPpm("/nonexistent/frame.ppm").code(),
            StatusCode::kNotFound);
  const std::string path = ::testing::TempDir() + "/vp_bad.ppm";
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    std::fputs("P6\n10 10\n255\nshort", f);
    std::fclose(f);
  }
  EXPECT_EQ(media::ReadPpm(path).code(), StatusCode::kParseError);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace vp
// (appended) ------------------------------------------------ tracing
#include "core/trace_export.hpp"
#include "json/parse.hpp"

namespace vp {
namespace {

TEST(TraceExport, ProducesValidChromeTraceJson) {
  auto cluster = sim::MakeHomeTestbed();
  core::Orchestrator orchestrator(cluster.get());
  auto spec = apps::fitness::Spec();
  core::Orchestrator::DeployArgs args;
  args.workload = apps::fitness::Workout();
  auto deployment = orchestrator.Deploy(std::move(*spec), std::move(args));
  ASSERT_TRUE(deployment.ok());
  (*deployment)->Start();
  orchestrator.RunFor(Duration::Seconds(5));

  const json::Value trace = core::ChromeTrace(**deployment);
  const json::Value* events = trace.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  // ~5 s at ~10 fps × (4 module slices + 1 capture) plus metadata.
  EXPECT_GT(events->AsArray().size(), 150u);

  size_t slices = 0;
  size_t metadata = 0;
  for (const json::Value& event : events->AsArray()) {
    const std::string ph = event.GetString("ph");
    if (ph == "X") {
      ++slices;
      EXPECT_GE(event.GetDouble("dur"), 0.0);
      EXPECT_GE(event.GetDouble("ts"), 0.0);
      EXPECT_GT(event.GetInt("tid"), 0);
    } else if (ph == "M") {
      ++metadata;
    }
  }
  EXPECT_GT(slices, 100u);
  EXPECT_GE(metadata, 4u);  // process + ≥3 device lanes

  // File round-trip stays parseable JSON.
  const std::string path = ::testing::TempDir() + "/vp_trace.json";
  ASSERT_TRUE(core::WriteChromeTrace(**deployment, path).ok());
  std::ifstream file(path);
  std::stringstream buffer;
  buffer << file.rdbuf();
  EXPECT_TRUE(json::Parse(buffer.str()).ok());
  std::remove(path.c_str());
  ExpectInvariantsHold(orchestrator);
}

}  // namespace
}  // namespace vp
