// Tests for module state snapshots and live module migration, plus a
// long multi-app soak run with chaos (lossy Wi-Fi + migrations).
#include <gtest/gtest.h>

#include "apps/fall.hpp"
#include "apps/fitness.hpp"
#include "apps/gesture.hpp"
#include "core/monitor.hpp"
#include "core/orchestrator.hpp"
#include "script/context.hpp"
#include "sim/cluster.hpp"

namespace vp {
namespace {

// ------------------------------------------------- snapshot / restore

TEST(StateSnapshot, CapturesModuleDefinedGlobalsOnly) {
  script::Context context;
  context.RegisterHostFunction(
      "host_fn", [](script::Vm&, script::HostArgs) -> Result<script::VpValue> {
        return script::VpValue::Number(1.0);
      });
  ASSERT_TRUE(context
                  .Load(R"(
    var count = 7;
    var history = [1, 2, { nested: "x" }];
    var name = "rep_counter";
    var fn = function () { return 1; };  // not serializable
    var nothing;                          // undefined → skipped
  )")
                  .ok());
  const json::Value snapshot = context.SnapshotState();
  EXPECT_EQ(snapshot.GetInt("count"), 7);
  EXPECT_EQ(snapshot.GetString("name"), "rep_counter");
  ASSERT_NE(snapshot.Find("history"), nullptr);
  EXPECT_EQ(snapshot.Find("history")->AsArray().size(), 3u);
  // Host functions, stdlib and script functions are excluded.
  EXPECT_EQ(snapshot.Find("host_fn"), nullptr);
  EXPECT_EQ(snapshot.Find("Math"), nullptr);
  EXPECT_EQ(snapshot.Find("console"), nullptr);
  EXPECT_EQ(snapshot.Find("fn"), nullptr);
  EXPECT_EQ(snapshot.Find("nothing"), nullptr);
}

TEST(StateSnapshot, RestoreResumesBehaviour) {
  const char* source = R"(
    var count = 0;
    function bump() { count = count + 1; return count; }
  )";
  script::Context original;
  ASSERT_TRUE(original.Load(source).ok());
  for (int i = 0; i < 5; ++i) (void)original.Call("bump", {});

  script::Context resumed;
  ASSERT_TRUE(resumed.Load(source).ok());
  ASSERT_TRUE(resumed.RestoreState(original.SnapshotState()).ok());
  auto result = resumed.Call("bump", {});
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result->AsDouble(), 6);  // continues from 5
}

TEST(StateSnapshot, RestoreRejectsNonObjects) {
  script::Context context;
  EXPECT_FALSE(context.RestoreState(json::Value(3.0)).ok());
}

// ---------------------------------------------------------- migration

TEST(Migration, MovesAModuleAndItsStateAcrossDevices) {
  auto cluster = sim::MakeHomeTestbed();
  core::Orchestrator orchestrator(cluster.get());
  auto spec = apps::fitness::Spec();
  core::Orchestrator::DeployArgs args;
  args.workload = apps::fitness::Workout();
  auto deployment = orchestrator.Deploy(std::move(*spec), std::move(args));
  ASSERT_TRUE(deployment.ok());
  core::PipelineDeployment& pipeline = **deployment;
  pipeline.Start();
  orchestrator.RunFor(Duration::Seconds(10));

  core::ModuleRuntime* before = pipeline.FindModule("rep_counter_module");
  ASSERT_EQ(before->device(), "desktop");
  const double reps_before =
      before->context().GetGlobal("state").is_null()
          ? -1
          : 0;  // state exists (non-null) after 10 s of squats
  EXPECT_EQ(reps_before, 0);

  // Move the rep counter module to the TV mid-run.
  ASSERT_TRUE(
      orchestrator.MigrateModule(pipeline, "rep_counter_module", "tv").ok());
  core::ModuleRuntime* after = pipeline.FindModule("rep_counter_module");
  EXPECT_NE(after, before);
  EXPECT_EQ(after->device(), "tv");
  EXPECT_EQ(pipeline.plan().module_device.at("rep_counter_module"), "tv");
  // The k-means state survived the move.
  EXPECT_FALSE(after->context().GetGlobal("state").is_null());

  const uint64_t completed_at_migration =
      pipeline.metrics().frames_completed();
  orchestrator.RunFor(Duration::Seconds(10));
  // Pipeline keeps completing frames after the cutover…
  EXPECT_GT(pipeline.metrics().frames_completed(),
            completed_at_migration + 60);
  // …and the migrated module handles events on the TV without errors.
  EXPECT_GT(after->stats().events, 50u);
  EXPECT_EQ(after->stats().script_errors, 0u);
}

TEST(Migration, RepCountContinuesAcrossTheMove) {
  auto cluster = sim::MakeHomeTestbed();
  core::Orchestrator orchestrator(cluster.get());
  auto spec = apps::fitness::Spec();
  core::Orchestrator::DeployArgs args;
  args.workload = apps::fitness::Workout();
  auto deployment = orchestrator.Deploy(std::move(*spec), std::move(args));
  ASSERT_TRUE(deployment.ok());
  core::PipelineDeployment& pipeline = **deployment;
  pipeline.Start();
  // Run through most of the squat block, then migrate mid-workout.
  orchestrator.RunFor(Duration::Seconds(12));
  core::ModuleRuntime* display = pipeline.FindModule("display_module");
  const double reps_before_move =
      display->context().GetGlobal("reps").AsDouble();
  ASSERT_TRUE(
      orchestrator.MigrateModule(pipeline, "rep_counter_module", "tv").ok());
  orchestrator.RunFor(Duration::Seconds(29));
  const double reps_after = display->context().GetGlobal("reps").AsDouble();
  // Counting resumed from the migrated state, not from zero.
  EXPECT_GE(reps_after, reps_before_move + 5);
  EXPECT_GE(reps_after, 10);
}

TEST(Migration, RejectsUnknownTargets) {
  auto cluster = sim::MakeHomeTestbed();
  core::Orchestrator orchestrator(cluster.get());
  auto spec = apps::fitness::Spec();
  core::Orchestrator::DeployArgs args;
  args.workload = apps::fitness::Workout();
  auto deployment = orchestrator.Deploy(std::move(*spec), std::move(args));
  ASSERT_TRUE(deployment.ok());
  EXPECT_EQ(orchestrator.MigrateModule(**deployment, "rep_counter_module",
                                       "mainframe")
                .code(),
            StatusCode::kNotFound);
  EXPECT_EQ(orchestrator.MigrateModule(**deployment, "ghost_module", "tv")
                .code(),
            StatusCode::kNotFound);
  // Migrating to the current device is a no-op success.
  EXPECT_TRUE(orchestrator.MigrateModule(**deployment, "rep_counter_module",
                                         "desktop")
                  .ok());
}

TEST(Migration, CoLocationFollowsTheModule) {
  // After migrating the pose module OFF the desktop, its pose_detector
  // calls become remote — measurably slower. Placement matters, live.
  auto run_segment = [](bool migrate) {
    auto cluster = sim::MakeHomeTestbed();
    core::Orchestrator orchestrator(cluster.get());
    auto spec = apps::fitness::Spec();
    core::Orchestrator::DeployArgs args;
    args.workload = apps::fitness::Workout();
    auto deployment = orchestrator.Deploy(std::move(*spec),
                                          std::move(args));
    EXPECT_TRUE(deployment.ok());
    (*deployment)->Start();
    orchestrator.RunFor(Duration::Seconds(5));
    if (migrate) {
      EXPECT_TRUE(orchestrator
                      .MigrateModule(**deployment, "pose_detection_module",
                                     "tv")
                      .ok());
    }
    orchestrator.RunFor(Duration::Seconds(15));
    return (*deployment)->metrics().EndToEndFps();
  };
  const double colocated_fps = run_segment(false);
  const double displaced_fps = run_segment(true);
  EXPECT_LT(displaced_fps, colocated_fps - 0.5)
      << "remote pose calls after displacement must cost throughput";
}

// --------------------------------------------------------------- soak

TEST(Soak, ThreeAppsLossyWifiMigrationsAndAutoscaling) {
  auto cluster = sim::MakeHomeTestbed();
  sim::LinkSpec flaky;
  flaky.latency = Duration::Millis(3.5);
  flaky.bandwidth_bps = 80e6;
  flaky.jitter = Duration::Millis(1.0);
  flaky.loss = 0.02;
  cluster->network().set_default_link(flaky);

  core::OrchestratorOptions options;
  options.autoscaler_options.backlog_high_water = 1.1;
  // Off-round sampling period so checks don't phase-lock with the
  // pipelines' own cadence.
  options.autoscaler_options.check_interval = Duration::Millis(170);
  core::Orchestrator orchestrator(cluster.get(), options);

  core::Orchestrator::DeployArgs fitness_args;
  fitness_args.workload = apps::fitness::Workout();
  auto fitness =
      orchestrator.Deploy(*apps::fitness::Spec(), std::move(fitness_args));
  ASSERT_TRUE(fitness.ok());

  apps::IoTHub hub;
  auto gesture = orchestrator.Deploy(
      *apps::gesture::Spec(),
      apps::gesture::MakeDeployArgs(hub, &cluster->simulator()));
  ASSERT_TRUE(gesture.ok());

  apps::fall::AlertLog alerts;
  auto fall = orchestrator.Deploy(
      *apps::fall::Spec(),
      apps::fall::MakeDeployArgs(alerts, &cluster->simulator()));
  ASSERT_TRUE(fall.ok());

  orchestrator.autoscaler().Watch("desktop", "pose_detector");
  orchestrator.autoscaler().Start();
  core::PipelineMonitor monitor(&orchestrator, Duration::Millis(2000));
  monitor.Start();

  orchestrator.StartAll();
  // 3 virtual minutes with periodic module migrations.
  for (int minute = 0; minute < 3; ++minute) {
    orchestrator.RunFor(Duration::Seconds(25));
    ASSERT_TRUE(orchestrator
                    .MigrateModule(**fitness, "rep_counter_module",
                                   minute % 2 == 0 ? "tv" : "desktop")
                    .ok());
    orchestrator.RunFor(Duration::Seconds(35));
  }
  monitor.Stop();
  orchestrator.autoscaler().Stop();

  // Liveness: every pipeline kept processing end to end. (Three
  // pipelines share one desktop; per-pipeline rate sits near 4-6 FPS
  // until the autoscaler kicks in.)
  EXPECT_GT((*fitness)->metrics().frames_completed(), 600u);
  EXPECT_GT((*gesture)->metrics().frames_completed(), 600u);
  EXPECT_GT((*fall)->metrics().frames_completed(), 600u);
  // Stability: bounded memory (stores capped), recent fps healthy.
  for (const auto& pipeline : orchestrator.pipelines()) {
    EXPECT_GT(pipeline->metrics().EndToEndFps(), 3.0)
        << pipeline->spec().name;
  }
  EXPECT_LE(orchestrator.store("desktop").size(),
            orchestrator.store("desktop").capacity());
  EXPECT_GE(monitor.samples().size(), 80u);
  // The workload demanded a second pose replica at some point.
  EXPECT_GE(orchestrator.registry()
                .Replicas("desktop", "pose_detector")
                .size(),
            2u);
}

}  // namespace
}  // namespace vp
