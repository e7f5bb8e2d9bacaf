// Tests for module state snapshots, live module migration and the one
// module start path (deploy, migrate, restore, wake), plus a long
// multi-app soak run with chaos (lossy Wi-Fi + migrations).
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "apps/fall.hpp"
#include "apps/fitness.hpp"
#include "apps/gesture.hpp"
#include "core/monitor.hpp"
#include "core/orchestrator.hpp"
#include "lifecycle/hibernation.hpp"
#include "script/context.hpp"
#include "sim/cluster.hpp"
#include "sim/fault_injector.hpp"
#include "invariants_hold.hpp"

namespace vp {
namespace {

using test_support::ExpectInvariantsHold;

/// The fitness pipeline with `code` prepended to `module`'s source.
core::PipelineSpec FitnessWith(const std::string& module,
                               const std::string& code) {
  auto spec = apps::fitness::Spec();
  EXPECT_TRUE(spec.ok());
  for (core::ModuleSpec& m : spec->modules) {
    if (m.name == module) m.code = code + "\n" + m.code;
  }
  return std::move(*spec);
}

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
  ExpectInvariantsHold(orchestrator);
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
  ExpectInvariantsHold(orchestrator);
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
  ExpectInvariantsHold(orchestrator);
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
    ExpectInvariantsHold(orchestrator);
    return (*deployment)->metrics().EndToEndFps();
  };
  const double colocated_fps = run_segment(false);
  const double displaced_fps = run_segment(true);
  EXPECT_LT(displaced_fps, colocated_fps - 0.5)
      << "remote pose calls after displacement must cost throughput";
}

// A migration whose start fails on the target (init() refuses the TV)
// leaves the module where it was: same runtime, address, epoch and
// state, still bound and still counting reps.
TEST(Migration, FailedStartLeavesTheModuleWhereItWas) {
  auto cluster = sim::MakeHomeTestbed();
  core::Orchestrator orchestrator(cluster.get());
  core::Orchestrator::DeployArgs args;
  args.workload = apps::fitness::Workout();
  auto deployment = orchestrator.Deploy(
      FitnessWith("rep_counter_module", R"JS(
        function init() {
          if (DEVICE_NAME == "tv") { throw "no room on the tv"; }
        })JS"),
      std::move(args));
  ASSERT_TRUE(deployment.ok()) << deployment.error().ToString();
  core::PipelineDeployment& pipeline = **deployment;
  pipeline.Start();
  orchestrator.RunFor(Duration::Seconds(10));

  const std::string module = "rep_counter_module";
  core::ModuleRuntime* runtime = pipeline.FindModule(module);
  ASSERT_NE(runtime, nullptr);
  const net::Address address{"desktop", 5863};
  ASSERT_EQ(*pipeline.ModuleAddress(module), address);
  const json::Value state = runtime->context().SnapshotState();
  const uint64_t events = runtime->stats().events;

  const Status migrated = orchestrator.MigrateModule(pipeline, module, "tv");
  ASSERT_FALSE(migrated.ok());
  EXPECT_NE(migrated.message().find("no room on the tv"), std::string::npos)
      << migrated.ToString();
  EXPECT_EQ(pipeline.FindModule(module), runtime);
  EXPECT_EQ(*pipeline.ModuleAddress(module), address);
  EXPECT_TRUE(orchestrator.fabric().IsBound(address));
  EXPECT_EQ(pipeline.plan().module_device.at(module), "desktop");
  EXPECT_EQ(pipeline.module_epoch(module), 1u);
  EXPECT_EQ(runtime->epoch(), 1u);
  EXPECT_EQ(runtime->context().SnapshotState(), state);

  orchestrator.RunFor(Duration::Seconds(3));
  EXPECT_GT(runtime->stats().events, events);
  ExpectInvariantsHold(orchestrator);
}

// ------------------------------------------------ one module start path

/// Fitness whose activity module's init() throws while `init_allowed`
/// is false (a host function reads it).
struct GatedInitRig {
  std::unique_ptr<sim::Cluster> cluster = sim::MakeHomeTestbed();
  core::Orchestrator orchestrator{cluster.get()};
  bool init_allowed = true;
  core::PipelineDeployment* pipeline = nullptr;
  std::vector<std::string> modules;  // the script modules

  GatedInitRig() {
    core::Orchestrator::DeployArgs args;
    args.workload = apps::fitness::Workout();
    args.extra_host_functions["activity_detector_module"].emplace_back(
        "init_allowed",
        [this](script::Vm&, script::HostArgs) -> Result<script::VpValue> {
          return script::VpValue::Boolean(init_allowed);
        });
    auto deployment = orchestrator.Deploy(
        FitnessWith("activity_detector_module", R"JS(
          function init() {
            if (!init_allowed()) { throw "init refused"; }
          })JS"),
        std::move(args));
    EXPECT_TRUE(deployment.ok()) << deployment.error().ToString();
    pipeline = *deployment;
    for (const auto& runtime : pipeline->modules()) {
      modules.push_back(runtime->name());
    }
    pipeline->Start();
    orchestrator.RunFor(Duration::Seconds(3));
  }

  /// Asleep with nothing started: no runtime, no bound module address
  /// (doorbells aside), every module at epoch 1.
  void ExpectAsleep(bool doorbells) {
    EXPECT_TRUE(pipeline->hibernated());
    EXPECT_TRUE(pipeline->modules().empty());
    for (const std::string& module : modules) {
      EXPECT_EQ(orchestrator.fabric().IsBound(
                    *pipeline->ModuleAddress(module)),
                doorbells)
          << module;
      EXPECT_EQ(pipeline->module_epoch(module), 1u) << module;
    }
    ExpectInvariantsHold(orchestrator);
  }
};

// A wake whose init() fails starts nothing: the pipeline stays
// hibernated at its old epochs with its checkpoints, so a later wake
// restores them.
TEST(FailedStart, WakeLeavesThePipelineHibernatedAndWakeable) {
  GatedInitRig rig;
  ASSERT_EQ(rig.modules.size(), 4u);
  ASSERT_TRUE(rig.orchestrator.HibernatePipeline(rig.pipeline).ok());
  rig.init_allowed = false;
  for (int attempt = 0; attempt < 2; ++attempt) {
    const Status woken = rig.orchestrator.WakePipeline(rig.pipeline);
    ASSERT_FALSE(woken.ok());
    EXPECT_NE(woken.message().find("init refused"), std::string::npos)
        << woken.ToString();
    rig.ExpectAsleep(/*doorbells=*/false);
  }

  rig.init_allowed = true;
  const core::PipelineMetrics& metrics = rig.pipeline->metrics();
  const uint64_t restored = metrics.checkpoints_restored();
  ASSERT_TRUE(rig.orchestrator.WakePipeline(rig.pipeline).ok());
  EXPECT_EQ(metrics.checkpoints_restored(), restored + rig.modules.size());
  EXPECT_EQ(metrics.checkpoints_rejected_stale(), 0u);
  for (const std::string& module : rig.modules) {
    EXPECT_EQ(rig.pipeline->module_epoch(module), 2u) << module;
  }
  const uint64_t completed = metrics.frames_completed();
  rig.orchestrator.RunFor(Duration::Seconds(2));
  EXPECT_GT(metrics.frames_completed(), completed);
  ExpectInvariantsHold(rig.orchestrator);
}

// The same failure through the lifecycle manager: the failed wake
// re-arms a doorbell on every module address, and the next frame at
// one wakes the pipeline once init() succeeds.
TEST(FailedStart, RequestedWakeReArmsEveryDoorbell) {
  GatedInitRig rig;
  lifecycle::HibernationOptions options;
  options.auto_hibernate = false;
  lifecycle::HibernationManager manager(&rig.orchestrator, options);
  manager.Start();
  ASSERT_TRUE(manager.Hibernate(rig.pipeline).ok());
  rig.orchestrator.RunFor(Duration::Seconds(1));
  rig.init_allowed = false;
  Status wake_status(StatusCode::kInternal, "pending");
  manager.RequestWake(rig.pipeline->spec().name,
                      [&](const Status& s) { wake_status = s; });
  rig.orchestrator.RunFor(Duration::Seconds(1));
  EXPECT_FALSE(wake_status.ok());
  EXPECT_EQ(manager.stats().failed_wakes, 1u);
  rig.ExpectAsleep(/*doorbells=*/true);

  rig.init_allowed = true;
  net::Message frame("frame", json::Value::MakeObject());
  ASSERT_TRUE(rig.orchestrator.fabric()
                  .Push(rig.pipeline->source_device(),
                        *rig.pipeline->ModuleAddress(rig.modules.front()),
                        std::move(frame))
                  .ok());
  rig.orchestrator.RunFor(Duration::Seconds(3));
  EXPECT_FALSE(rig.pipeline->hibernated());
  EXPECT_EQ(manager.stats().doorbell_wakes, 1u);
  EXPECT_GT(rig.pipeline->metrics().frames_completed(), 0u);
  ExpectInvariantsHold(rig.orchestrator);
}

/// Fitness with a `marker` global in the rep counter, on a home whose
/// devices can crash (the nuc takes over the desktop's containers).
struct StartRig {
  static constexpr const char* kModule = "rep_counter_module";
  std::unique_ptr<sim::Cluster> cluster = sim::MakeExtendedTestbed();
  core::Orchestrator orchestrator{cluster.get()};
  sim::FaultInjector injector{&cluster->simulator(), &cluster->network()};
  core::PipelineDeployment* pipeline = nullptr;
  TimePoint crashed_at;

  StartRig() { orchestrator.RegisterDevicesForFaults(injector); }

  Status Deploy() {
    core::Orchestrator::DeployArgs args;
    args.workload = apps::fitness::Workout();
    auto deployment = orchestrator.Deploy(
        FitnessWith(kModule, "var marker = \"initial\";"), std::move(args));
    if (!deployment.ok()) return deployment.status();
    pipeline = *deployment;
    return Status::Ok();
  }
  void DeployAndRun() {
    ASSERT_TRUE(Deploy().ok());
    pipeline->Start();
    orchestrator.RunFor(Duration::Seconds(3));
  }
  void Mark(const char* marker) {
    json::Value state = json::Value::MakeObject();
    state["marker"] = json::Value(marker);
    ASSERT_TRUE(
        pipeline->FindModule(kModule)->context().RestoreState(state).ok());
  }
  void HibernateAndWake() {
    ASSERT_TRUE(orchestrator.HibernatePipeline(pipeline).ok());
    ASSERT_TRUE(orchestrator.WakePipeline(pipeline).ok());
    orchestrator.RunFor(Duration::Seconds(2));
  }
  void CrashDesktop() {
    crashed_at = cluster->Now() + Duration::Millis(100);
    ASSERT_TRUE(
        injector.ScheduleDeviceCrash("desktop", crashed_at, Duration::Zero())
            .ok());
    orchestrator.RunFor(Duration::Seconds(1));
  }
  /// Offer the store a checkpoint of the rep counter taken at
  /// placement epoch `epoch`, then recover from the desktop's loss.
  Status Recover(uint64_t epoch) {
    json::Value state = json::Value::MakeObject();
    state["marker"] = json::Value("checkpoint");
    (void)orchestrator.AdmitCheckpoint(
        *pipeline, kModule,
        core::ModuleCheckpoint{std::move(state), cluster->Now(), epoch});
    return orchestrator.RecoverFromDeviceFailure("desktop", crashed_at,
                                                 "phone");
  }
};

// What each caller of the one start path decides. `marker` names the
// state the module starts from: "initial" (none), "live" (the running
// instance's, by snapshot or sleep snapshot) or "checkpoint" (the one
// offered to the store). `rejected` counts offers the store refused.
enum class Port { kConfigured, kNew, kSame };
struct StartCase {
  const char* caller;
  std::function<void(StartRig&)> prepare;
  std::function<Status(StartRig&)> start;
  Port port;
  uint64_t epoch_step;
  const char* marker;
  bool bound_at_once;
  uint64_t restored;
  uint64_t rejected;
};

TEST(ModuleStart, EachCallerKeepsItsPolicy) {
  const std::vector<StartCase> cases = {
      {"deploy", [](StartRig&) {},
       [](StartRig& rig) { return rig.Deploy(); }, Port::kConfigured, 0,
       "initial", true, 0, 0},
      {"migrate",
       [](StartRig& rig) {
         rig.DeployAndRun();
         rig.Mark("live");
       },
       [](StartRig& rig) {
         return rig.orchestrator.MigrateModule(*rig.pipeline,
                                               StartRig::kModule, "tv");
       },
       Port::kNew, 0, "live", false, 0, 0},
      {"restore",
       [](StartRig& rig) {
         rig.DeployAndRun();
         rig.Mark("live");
         rig.CrashDesktop();
       },
       [](StartRig& rig) { return rig.Recover(1); }, Port::kNew, 1,
       "checkpoint", false, 1, 0},
      // The wake moved the sleep snapshots to epoch 2, so an epoch-1
      // checkpoint is superseded: the store refuses it, and the
      // desktop's three script modules restore their sleep snapshots.
      {"restore after a wake, offered a superseded checkpoint",
       [](StartRig& rig) {
         rig.DeployAndRun();
         rig.Mark("live");
         rig.HibernateAndWake();
         rig.CrashDesktop();
       },
       [](StartRig& rig) { return rig.Recover(1); }, Port::kNew, 1, "live",
       false, 3, 1},
      {"wake",
       [](StartRig& rig) {
         rig.DeployAndRun();
         rig.Mark("live");
         ASSERT_TRUE(rig.orchestrator.HibernatePipeline(rig.pipeline).ok());
         rig.orchestrator.RunFor(Duration::Seconds(1));
       },
       [](StartRig& rig) {
         return rig.orchestrator.WakePipeline(rig.pipeline);
       },
       Port::kSame, 1, "live", true, 4, 0},
  };
  for (const StartCase& c : cases) {
    SCOPED_TRACE(c.caller);
    StartRig rig;
    c.prepare(rig);
    const char* module = StartRig::kModule;
    const bool deployed = rig.pipeline != nullptr;
    const net::Address before =
        deployed ? *rig.pipeline->ModuleAddress(module) : net::Address{};
    const uint64_t epoch = deployed ? rig.pipeline->module_epoch(module) : 1;
    const uint64_t restored =
        deployed ? rig.pipeline->metrics().checkpoints_restored() : 0;
    const uint64_t rejected =
        deployed ? rig.pipeline->metrics().checkpoints_rejected_stale() : 0;

    const Status started = c.start(rig);
    ASSERT_TRUE(started.ok()) << started.ToString();
    core::PipelineDeployment& pipeline = *rig.pipeline;
    const net::Address address = *pipeline.ModuleAddress(module);
    switch (c.port) {
      case Port::kConfigured:
        EXPECT_EQ(address, (net::Address{"desktop", 5863}));
        break;
      case Port::kNew:
        EXPECT_NE(address, before);
        EXPECT_GE(address.port, 20000);
        break;
      case Port::kSame:
        EXPECT_EQ(address, before);
        break;
    }
    core::ModuleRuntime* runtime = pipeline.FindModule(module);
    ASSERT_NE(runtime, nullptr);
    EXPECT_EQ(runtime->address(), address);
    EXPECT_EQ(runtime->epoch(), epoch + c.epoch_step);
    EXPECT_EQ(pipeline.module_epoch(module), epoch + c.epoch_step);
    EXPECT_EQ(runtime->context().GetGlobal("marker"), json::Value(c.marker));
    EXPECT_EQ(rig.orchestrator.fabric().IsBound(address), c.bound_at_once);
    EXPECT_EQ(pipeline.metrics().checkpoints_restored() - restored,
              c.restored);
    EXPECT_EQ(pipeline.metrics().checkpoints_rejected_stale() - rejected,
              c.rejected);

    // Bound on arrival at the latest, and serving.
    pipeline.Start();
    const uint64_t completed = pipeline.metrics().frames_completed();
    rig.orchestrator.RunFor(Duration::Seconds(5));
    EXPECT_TRUE(rig.orchestrator.fabric().IsBound(address));
    EXPECT_EQ(pipeline.FindModule(module), runtime);
    EXPECT_GT(runtime->stats().events, 0u);
    EXPECT_GT(pipeline.metrics().frames_completed(), completed);
    ExpectInvariantsHold(rig.orchestrator);
  }
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
  ExpectInvariantsHold(orchestrator);
}

}  // namespace
}  // namespace vp
