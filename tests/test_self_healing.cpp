// Device failure detection and automatic pipeline self-healing.
//
// Seed-sweepable: set VP_TEST_SEED to vary the cluster / workload /
// jitter seeds (the CI seed-sweep job runs 1..5); default 42.
#include <gtest/gtest.h>

#include <cstdlib>

#include "apps/fitness.hpp"
#include "core/monitor.hpp"
#include "core/orchestrator.hpp"
#include "core/self_healing.hpp"
#include "json/write.hpp"
#include "lifecycle/hibernation.hpp"
#include "script/context.hpp"
#include "sim/cluster.hpp"
#include "sim/fault_injector.hpp"
#include "invariants_hold.hpp"

namespace vp {
namespace {

using test_support::ExpectInvariantsHold;

uint64_t TestSeed() {
  const char* env = std::getenv("VP_TEST_SEED");
  return env != nullptr ? std::strtoull(env, nullptr, 10) : 42;
}

// Detector settings used throughout: tight enough that tests stay
// fast, loose enough that Wi-Fi jitter cannot false-positive.
core::SelfHealingOptions FastHealing() {
  core::SelfHealingOptions options;
  options.detector.heartbeat_interval = Duration::Millis(100);
  options.detector.suspect_after = Duration::Millis(250);
  options.detector.suspicion_window = Duration::Millis(400);
  options.checkpoint_interval = Duration::Seconds(1);
  // The controller is a single point of coordination; the default
  // election would pick the desktop, which these scenarios kill. Pin
  // it to the TV, which every scenario here keeps alive.
  options.detector.controller_device = "tv";
  return options;
}

struct HealRig {
  std::unique_ptr<sim::Cluster> cluster;
  std::unique_ptr<core::Orchestrator> orchestrator;
  std::unique_ptr<sim::FaultInjector> injector;
  std::unique_ptr<core::SelfHealer> healer;
  core::PipelineDeployment* pipeline = nullptr;
};

HealRig MakeRig(Result<core::PipelineSpec> spec,
                core::OrchestratorOptions options = {},
                core::SelfHealingOptions healing = FastHealing()) {
  HealRig rig;
  rig.cluster = sim::MakeExtendedTestbed(TestSeed());
  options.seed = TestSeed();
  rig.orchestrator =
      std::make_unique<core::Orchestrator>(rig.cluster.get(), options);
  EXPECT_TRUE(spec.ok()) << spec.status().ToString();
  core::Orchestrator::DeployArgs args;
  args.workload = apps::fitness::Workout();
  args.seed = TestSeed();
  auto deployment =
      rig.orchestrator->Deploy(std::move(*spec), std::move(args));
  EXPECT_TRUE(deployment.ok()) << deployment.status().ToString();
  rig.pipeline = *deployment;

  rig.injector = std::make_unique<sim::FaultInjector>(
      &rig.cluster->simulator(), &rig.cluster->network(), TestSeed());
  rig.orchestrator->RegisterReplicasForFaults(*rig.injector);
  rig.orchestrator->RegisterDevicesForFaults(*rig.injector);
  rig.healer = std::make_unique<core::SelfHealer>(rig.orchestrator.get(),
                                                  healing);
  EXPECT_TRUE(rig.healer->Start().ok());
  return rig;
}

/// A pipeline whose `counter` module counts frames, co-located with
/// the pose service on the desktop: its count is the state a restore
/// must carry over.
Result<core::PipelineSpec> CountingSpec() {
  return core::ParsePipelineConfigText(R"CFG({
    "name": "counting",
    "source": { "fps": 20, "width": 64, "height": 48 },
    "modules": [
      { "name": "cam", "type": "source", "next_module": ["counter"] },
      { "name": "counter", "service": ["pose_detector"],
        "next_module": ["sink"],
        "code": "var count = 0; function event_received(m) { try { call_service('pose_detector', { frame_id: m.frame_id }); } catch (e) {} count = count + 1; call_module('sink', { seq: m.seq, count: count }); }" },
      { "name": "sink", "signal_source": true,
        "code": "var last = 0; function event_received(m) { last = m.count; }" }
    ]
  })CFG",
                                       core::MapResolver({}));
}

/// The counter module's count in `pipeline` (-1 when it has none).
double CountOf(core::PipelineDeployment& pipeline) {
  core::ModuleRuntime* counter = pipeline.FindModule("counter");
  EXPECT_NE(counter, nullptr);
  if (counter == nullptr) return -1;
  return counter->context().SnapshotState().GetDouble("count", -1);
}

// ------------------------------------------------ failure detection

TEST(FailureDetector, LossyWifiDoesNotFalsePositive) {
  auto cluster = sim::MakeExtendedTestbed(TestSeed());
  sim::LinkSpec lossy;
  lossy.latency = Duration::Millis(3.5);
  lossy.bandwidth_bps = 80e6;
  lossy.jitter = Duration::Millis(0.8);
  lossy.loss = 0.10;  // every tenth transmission needs a retransmit
  cluster->network().set_default_link(lossy);

  core::Orchestrator orchestrator(cluster.get());
  core::SelfHealer healer(&orchestrator, FastHealing());
  ASSERT_TRUE(healer.Start().ok());
  orchestrator.RunFor(Duration::Seconds(30));

  const core::FailureDetector* detector = healer.detector();
  EXPECT_GT(detector->stats().heartbeats_received, 1000u);
  EXPECT_EQ(detector->stats().failures_declared, 0u);
  EXPECT_EQ(healer.stats().recoveries, 0u);
  for (const auto& [device, health] : detector->snapshot()) {
    EXPECT_EQ(health, core::DeviceHealth::kHealthy) << device;
  }
  // Retransmits did happen — the window absorbed them.
  EXPECT_GT(cluster->network().stats().retransmits, 50u);
  ExpectInvariantsHold(orchestrator);
}

TEST(FailureDetector, CrashIsDeclaredWithinSuspicionWindow) {
  auto rig = MakeRig(apps::fitness::Spec());
  rig.pipeline->Start();
  ASSERT_TRUE(rig.injector
                  ->ScheduleDeviceCrash("nuc",
                                        TimePoint() + Duration::Seconds(5),
                                        Duration::Zero())
                  .ok());
  rig.orchestrator->RunFor(Duration::Seconds(10));

  const core::FailureDetector* detector = rig.healer->detector();
  EXPECT_EQ(detector->health("nuc"), core::DeviceHealth::kDown);
  EXPECT_GE(detector->stats().failures_declared, 1u);
  // last_heard is within one heartbeat interval of the crash, so the
  // detector's knowledge is honest (no side-channel peeking).
  const double heard_ms = detector->last_heard("nuc").millis();
  EXPECT_GE(heard_ms, 4900.0);
  EXPECT_LE(heard_ms, 5000.0);
  ExpectInvariantsHold(*rig.orchestrator);
}

// ------------------------------------------------ full self-healing

TEST(SelfHealing, NonSourceDeviceCrashRecoversWithinBound) {
  auto rig = MakeRig(apps::fitness::Spec());
  rig.pipeline->Start();

  // Warm up, then kill the desktop — it hosts all three containerized
  // services and their co-located modules.
  ASSERT_TRUE(rig.injector
                  ->ScheduleDeviceCrash("desktop",
                                        TimePoint() + Duration::Seconds(10),
                                        Duration::Zero())
                  .ok());
  rig.orchestrator->RunFor(Duration::Seconds(9.5));
  const uint64_t before = rig.pipeline->metrics().frames_completed();
  EXPECT_GT(before, 60u);
  rig.orchestrator->RunFor(Duration::Seconds(20.5));

  const core::PipelineMetrics& metrics = rig.pipeline->metrics();
  EXPECT_EQ(rig.injector->stats().device_crashes, 1u);
  EXPECT_EQ(metrics.device_failures(), 1u);
  EXPECT_EQ(metrics.recoveries(), 1u);
  EXPECT_EQ(rig.healer->stats().recoveries, 1u);

  // MTTR bound from the issue: detection + recovery < 2x the
  // suspicion window (400 ms here).
  EXPECT_GT(metrics.detection_latency_ms(), 0.0);
  EXPECT_LT(metrics.recovery_time_ms(), 800.0);
  EXPECT_GE(metrics.recovery_time_ms(), metrics.detection_latency_ms());

  // The lost pieces moved to the surviving container device.
  EXPECT_EQ(rig.pipeline->plan().service_device.at("pose_detector"), "nuc");
  EXPECT_EQ(rig.pipeline->plan().module_device.at("pose_detection_module"),
            "nuc");
  // Stateful modules were restored from controller-held checkpoints…
  EXPECT_GE(metrics.checkpoints_restored(), 1u);
  EXPECT_GT(metrics.checkpoint_staleness_ms(), 0.0);
  // …the in-flight frame was written off rather than leaked…
  EXPECT_GE(metrics.frames_lost_to_failure(), 1u);
  // …and the pipeline kept completing frames on the new placement.
  EXPECT_GT(metrics.frames_completed(), before + 80);
  EXPECT_FALSE(rig.pipeline->paused());
  ExpectInvariantsHold(*rig.orchestrator);
}

TEST(SelfHealing, CheckpointedCounterResumesInsteadOfResetting) {
  // The counter is co-located with the pose service on the desktop.
  // After the desktop dies the counter must continue from its last
  // checkpoint — never restart from zero — and end within a few
  // checkpoint intervals of a fault-free run.
  struct Counts {
    double mid;   // t = 9.5 s, just before the crash
    double post;  // t = 12.0 s, shortly after recovery completes
    double end;   // t = 25.0 s
  };
  auto run = [&](bool crash) {
    auto rig = MakeRig(CountingSpec());
    if (crash) {
      EXPECT_TRUE(rig.injector
                      ->ScheduleDeviceCrash(
                          "desktop", TimePoint() + Duration::Seconds(10),
                          Duration::Zero())
                      .ok());
    }
    auto count_now = [&rig] { return CountOf(*rig.pipeline); };
    rig.pipeline->Start();
    rig.orchestrator->RunFor(Duration::Seconds(9.5));
    Counts counts;
    counts.mid = count_now();
    rig.orchestrator->RunFor(Duration::Seconds(2.5));
    counts.post = count_now();
    rig.orchestrator->RunFor(Duration::Seconds(13));
    counts.end = count_now();
    ExpectInvariantsHold(*rig.orchestrator);
    return counts;
  };

  const Counts fault_free = run(false);
  const Counts faulted = run(true);

  // Same seed, same workload: identical up to the crash.
  EXPECT_EQ(faulted.mid, fault_free.mid);
  EXPECT_GT(fault_free.mid, 100.0);
  // Resumed from the checkpoint: strictly past the pre-crash count
  // (never reset to zero) …
  EXPECT_GT(faulted.post, faulted.mid * 0.8);
  EXPECT_GT(faulted.end, faulted.post);
  // … and 2 s after the crash the shortfall vs fault-free is only the
  // rolled-back checkpoint age (<= 1 s cadence) plus the detection
  // outage (~0.5 s), both at ~20 fps — the recovery itself lost no
  // more than that.
  EXPECT_LE(fault_free.post - faulted.post, 45.0);
  // By the end the pipeline has also been running on the slower
  // surviving device (nuc at 0.8x vs desktop at 1.0x) for 15 s, so the
  // gap widens by the hardware rate delta (~3.5 fps * 15 s ≈ 50) on
  // top of the rollback — but it must never widen past that, which
  // would mean recovery left the pipeline degraded beyond physics.
  EXPECT_LE(fault_free.end - faulted.end, 110.0);
}

TEST(SelfHealing, CheckpointRestoreResumesToGoldenState) {
  // Checkpoints carry module state between devices. A snapshot restored
  // into a fresh context must resume to exactly the state an
  // uninterrupted context reaches; both are pinned to a golden corpus
  // frozen from runs on which the bytecode VM and the retired
  // tree-walking interpreter (resolved and unresolved) agreed.
  const std::string source = R"JS(
    var count = 0;
    var history = [];
    var stats = { sum: 0, max: -1 };
    function event_received(n) {
      count = count + 1;
      stats.sum += n;
      if (n > stats.max) stats.max = n;
      history.push(n * 2);
      return count;
    }
    function state_string() {
      return count + "|" + stats.sum + "|" + stats.max + "|" +
             history.join(",");
    }
  )JS";

  auto make_context = [&]() {
    auto context = std::make_unique<script::Context>();
    EXPECT_TRUE(context->Load(source).ok());
    return context;
  };
  auto drive = [](script::Context& context, int from, int to) {
    for (int i = from; i < to; ++i) {
      auto r = context.Call("event_received",
                            {json::Value(static_cast<double>(i * 3))});
      ASSERT_TRUE(r.ok()) << r.error().ToString();
    }
  };
  auto state_of = [](script::Context& context) {
    auto r = context.Call("state_string", {});
    EXPECT_TRUE(r.ok());
    return r.ok() && r->is_string() ? r->AsString() : "<err>";
  };

  auto first = make_context();
  drive(*first, 0, 7);
  const json::Value snapshot = first->SnapshotState();
  EXPECT_EQ(json::Write(snapshot),
            R"({"count":7,"history":[0,6,12,18,24,30,36],)"
            R"("stats":{"sum":63,"max":18}})");

  auto second = make_context();
  EXPECT_TRUE(second->RestoreState(snapshot).ok());
  drive(*second, 7, 12);
  drive(*first, 7, 12);
  const char* golden = "12|198|33|0,6,12,18,24,30,36,42,48,54,60,66";
  EXPECT_EQ(state_of(*first), golden);
  EXPECT_EQ(state_of(*second), golden);
}

TEST(SelfHealing, HostileModuleStateSurvivesEverySnapshotPath) {
  // A module whose globals include a self-referencing object and a
  // 100 000-deep array. Every path that snapshots module state —
  // shipped checkpoints, hibernation, live migration and failure
  // restore (RestoreModule) — must leave both out instead of taking
  // the process down, and the pipeline must keep completing frames.
  const char* spec_text = R"CFG({
    "name": "hostile",
    "source": { "fps": 10, "width": 64, "height": 48 },
    "modules": [
      { "name": "cam", "type": "source", "next_module": ["holder"] },
      { "name": "holder", "next_module": ["sink"],
        "code": "
          var count = 0;
          var refused = '';
          var cyclic = { name: 'loop' };
          cyclic.self = cyclic;
          var deep = [];
          for (var i = 0; i < 100000; i++) deep = [deep];
          function init() { set_timer(50); }
          function event_received(m) {
            if (m.timer) {
              try { call_module('sink', cyclic); } catch (e) { refused = e.code; }
              call_module('sink', cyclic);
              return;
            }
            count = count + 1;
            call_module('sink', { seq: m.seq, count: count });
          }" },
      { "name": "sink", "signal_source": true,
        "code": "var last = 0; function event_received(m) { last = m.count; }" }
    ]
  })CFG";
  auto rig = MakeRig(
      core::ParsePipelineConfigText(spec_text, core::MapResolver({})));
  lifecycle::HibernationOptions sleep;
  sleep.auto_hibernate = false;
  lifecycle::HibernationManager manager(rig.orchestrator.get(), sleep);
  manager.Start();

  auto holder = [&rig] { return rig.pipeline->FindModule("holder"); };
  auto expect_clean = [](const json::Value& state, const char* where) {
    EXPECT_NE(state.Find("count"), nullptr) << where;
    EXPECT_EQ(state.Find("cyclic"), nullptr) << where;
    EXPECT_EQ(state.Find("deep"), nullptr) << where;
  };
  uint64_t completed = 0;
  auto expect_progress = [&](const char* phase) {
    const uint64_t now = rig.pipeline->metrics().frames_completed();
    EXPECT_GT(now, completed + 10) << phase;
    completed = now;
  };

  rig.pipeline->Start();
  rig.orchestrator->RunFor(Duration::Seconds(3));
  expect_progress("deployed");
  // The timer handler's call_module(next, cyclic) failed with a script
  // error, once caught and once counted.
  EXPECT_EQ(holder()->context().GetGlobal("refused").AsString(),
            "SCRIPT_ERROR");
  EXPECT_EQ(holder()->stats().script_errors, 1u);
  expect_clean(holder()->context().SnapshotState(), "live");
  ASSERT_EQ(rig.pipeline->checkpoints().count("holder"), 1u);
  expect_clean(rig.pipeline->checkpoints().at("holder").state,
               "shipped checkpoint");

  ASSERT_TRUE(manager.Hibernate(rig.pipeline).ok());
  expect_clean(rig.pipeline->checkpoints().at("holder").state,
               "hibernation");
  Status woke(StatusCode::kInternal, "pending");
  manager.RequestWake("hostile", [&woke](const Status& s) { woke = s; });
  rig.orchestrator->RunFor(Duration::Seconds(3));
  ASSERT_TRUE(woke.ok()) << woke.ToString();
  expect_progress("woken");

  const std::string from = rig.pipeline->plan().module_device.at("holder");
  const std::string to = from == "nuc" ? "desktop" : "nuc";
  ASSERT_TRUE(
      rig.orchestrator->MigrateModule(*rig.pipeline, "holder", to).ok());
  rig.orchestrator->RunFor(Duration::Seconds(3));
  expect_progress("migrated");

  // Failure restore: the healer re-places the module from its last
  // shipped checkpoint.
  ASSERT_TRUE(rig.injector
                  ->ScheduleDeviceCrash(
                      to,
                      rig.cluster->simulator().Now() + Duration::Millis(100),
                      Duration::Zero())
                  .ok());
  rig.orchestrator->RunFor(Duration::Seconds(5));
  EXPECT_GE(rig.pipeline->metrics().checkpoints_restored(), 1u);
  EXPECT_NE(rig.pipeline->plan().module_device.at("holder"), to);
  expect_progress("restored");
  expect_clean(holder()->context().SnapshotState(), "restored");
  ExpectInvariantsHold(*rig.orchestrator);
}

TEST(SelfHealing, SourceDeviceCrashPausesThenRebootResumes) {
  auto rig = MakeRig(apps::fitness::Spec());
  rig.pipeline->Start();

  // The phone (camera host) loses power for 4 s.
  ASSERT_TRUE(rig.injector
                  ->ScheduleDeviceCrash("phone",
                                        TimePoint() + Duration::Seconds(8),
                                        Duration::Seconds(4))
                  .ok());
  rig.orchestrator->RunFor(Duration::Seconds(10));
  // Detected and paused: the camera is the phone's sensor — there is
  // nowhere to move it, so the pipeline waits for the reboot.
  EXPECT_TRUE(rig.pipeline->paused());
  const uint64_t during = rig.pipeline->metrics().frames_completed();

  rig.orchestrator->RunFor(Duration::Seconds(1.5));
  // Still paused, still quiescent (no watchdog churn, no errors).
  EXPECT_TRUE(rig.pipeline->paused());
  EXPECT_LE(rig.pipeline->metrics().frames_completed(), during + 1);

  rig.orchestrator->RunFor(Duration::Seconds(13.5));  // reboot at t=12 s
  EXPECT_FALSE(rig.pipeline->paused());
  EXPECT_EQ(rig.injector->stats().device_reboots, 1u);
  EXPECT_GE(rig.healer->detector()->stats().revivals, 1u);
  EXPECT_EQ(rig.healer->stats().resumes, 1u);
  // Frames flow again after the resume (≈11 s of healthy run).
  EXPECT_GT(rig.pipeline->metrics().frames_completed(), during + 60);
  EXPECT_EQ(rig.healer->detector()->health("phone"),
            core::DeviceHealth::kHealthy);
  ExpectInvariantsHold(*rig.orchestrator);
}

// ----------------------------------------- monitor health surfaces

TEST(SelfHealing, MonitorSurfacesDeviceAndReplicaHealth) {
  auto rig = MakeRig(apps::fitness::Spec());
  core::PipelineMonitor monitor(rig.orchestrator.get(),
                                Duration::Millis(500));
  monitor.WatchDetector(rig.healer->detector());
  const std::string& pose_device =
      rig.pipeline->plan().service_device.at("pose_detector");
  monitor.WatchService(pose_device, "pose_detector");
  monitor.Start();
  rig.pipeline->Start();

  ASSERT_TRUE(rig.injector
                  ->ScheduleDeviceCrash("nuc",
                                        TimePoint() + Duration::Seconds(3),
                                        Duration::Zero())
                  .ok());
  rig.orchestrator->RunFor(Duration::Seconds(6));

  ASSERT_FALSE(monitor.samples().empty());
  const core::MonitorSample& first = monitor.samples().front();
  const core::MonitorSample& last = monitor.samples().back();
  EXPECT_EQ(first.Text("device_health", {{"device", "nuc"}}), "healthy");
  EXPECT_EQ(last.Text("device_health", {{"device", "nuc"}}), "down");
  EXPECT_EQ(last.Text("device_health", {{"device", "desktop"}}), "healthy");
  const auto replica = last.Text(
      "replica_health",
      {{"group", pose_device + "/pose_detector"}, {"replica", "0"}});
  ASSERT_TRUE(replica.has_value());
  EXPECT_EQ(*replica, "healthy");
  // Both surfaces serialize into the telemetry JSON.
  const std::string json = json::Write(last.ToJson());
  EXPECT_NE(json.find("device_health"), std::string::npos);
  EXPECT_NE(json.find("replica_health"), std::string::npos);
  ExpectInvariantsHold(*rig.orchestrator);
}

// ------------------------------- undeploy / redeploy + reclamation

TEST(Lifecycle, UndeployRedeployReusesReplicasWithoutLeaks) {
  core::OrchestratorOptions options;
  options.retired_drain_window = Duration::Seconds(2);
  auto cluster = sim::MakeHomeTestbed(TestSeed());
  core::Orchestrator orchestrator(cluster.get(), options);

  auto deploy = [&]() {
    auto spec = apps::fitness::Spec();
    EXPECT_TRUE(spec.ok());
    core::Orchestrator::DeployArgs args;
    args.workload = apps::fitness::Workout();
    args.seed = TestSeed();
    auto deployment = orchestrator.Deploy(std::move(*spec), std::move(args));
    EXPECT_TRUE(deployment.ok()) << deployment.status().ToString();
    return *deployment;
  };

  core::PipelineDeployment* first = deploy();
  first->Start();
  orchestrator.RunFor(Duration::Seconds(5));
  const uint64_t completed_first = first->metrics().frames_completed();
  EXPECT_GT(completed_first, 30u);
  const size_t replicas = orchestrator.registry().AllReplicas().size();
  const size_t gateways = orchestrator.gateway_count();

  ASSERT_TRUE(orchestrator.Undeploy(first).ok());
  EXPECT_EQ(orchestrator.undeployed_count(), 1u);

  core::PipelineDeployment* second = deploy();
  // Shared replicas were reused and no gateway ports leaked.
  EXPECT_EQ(orchestrator.registry().AllReplicas().size(), replicas);
  EXPECT_EQ(orchestrator.gateway_count(), gateways);

  second->Start();
  orchestrator.RunFor(Duration::Seconds(5));
  // The fresh deployment reaches the fault-free frame rate.
  EXPECT_GT(second->metrics().frames_completed(),
            completed_first * 8 / 10);
  // And the drained first deployment was reclaimed (2 s window).
  EXPECT_EQ(orchestrator.undeployed_count(), 0u);
  ExpectInvariantsHold(orchestrator);
}

// A checkpoint belongs to the deployment whose runtime took it. A
// successor deployed under the same name is another lineage: it starts
// clean from a failure before it ships a checkpoint of its own, whether
// the predecessor's last checkpoint landed before the undeploy or was
// still in flight at the redeploy (it is dropped on arrival).
TEST(SelfHealing, RedeployUnderTheSameNameStartsClean) {
  for (const bool in_flight : {false, true}) {
    SCOPED_TRACE(in_flight ? "predecessor's checkpoint in flight"
                           : "predecessor's checkpoint stored");
    auto rig = MakeRig(CountingSpec());
    const core::SelfHealingStats& stats = rig.healer->stats();
    rig.pipeline->Start();
    // Checkpoints ship every second: stop between two, or just past
    // the t = 4 s one with its transfers still on the wire.
    rig.orchestrator->RunFor(in_flight
                                 ? Duration::Seconds(4) + Duration::Micros(1)
                                 : Duration::Seconds(4.5));
    ASSERT_EQ(rig.pipeline->checkpoints().count("counter"), 1u);
    const uint64_t landed =
        stats.checkpoints_stored + stats.checkpoints_rejected_stale;
    ASSERT_EQ(stats.checkpoints_shipped > landed, in_flight);
    const double predecessor = CountOf(*rig.pipeline);
    ASSERT_GT(predecessor, 40);

    ASSERT_TRUE(rig.orchestrator->Undeploy(rig.pipeline).ok());
    auto spec = CountingSpec();
    ASSERT_TRUE(spec.ok()) << spec.status().ToString();
    core::Orchestrator::DeployArgs args;
    args.workload = apps::fitness::Workout();
    args.seed = TestSeed();
    auto deployment =
        rig.orchestrator->Deploy(std::move(*spec), std::move(args));
    ASSERT_TRUE(deployment.ok()) << deployment.status().ToString();
    core::PipelineDeployment& successor = **deployment;
    ASSERT_EQ(successor.plan().module_device.at("counter"), "desktop");
    successor.Start();

    // The desktop dies before the next checkpoint tick, so the
    // successor never ships one from there.
    ASSERT_TRUE(rig.injector
                    ->ScheduleDeviceCrash(
                        "desktop", rig.cluster->Now() + Duration::Millis(300),
                        Duration::Zero())
                    .ok());
    const uint64_t stored = stats.checkpoints_stored;
    rig.orchestrator->RunFor(Duration::Millis(250));
    EXPECT_EQ(stats.checkpoints_stored, stored);
    EXPECT_TRUE(successor.checkpoints().empty());

    rig.orchestrator->RunFor(Duration::Seconds(2));
    EXPECT_EQ(stats.recoveries, 1u);
    EXPECT_NE(successor.plan().module_device.at("counter"), "desktop");
    EXPECT_EQ(successor.metrics().checkpoints_restored(), 0u);
    EXPECT_GE(CountOf(successor), 0);
    EXPECT_LT(CountOf(successor), predecessor);
    ExpectInvariantsHold(*rig.orchestrator);
  }
}

TEST(Lifecycle, RetiredMigrationRuntimesAreReclaimedAfterDrain) {
  core::OrchestratorOptions options;
  options.retired_drain_window = Duration::Seconds(2);
  auto cluster = sim::MakeHomeTestbed(TestSeed());
  core::Orchestrator orchestrator(cluster.get(), options);
  auto spec = apps::fitness::Spec();
  ASSERT_TRUE(spec.ok());
  core::Orchestrator::DeployArgs args;
  args.workload = apps::fitness::Workout();
  args.seed = TestSeed();
  auto deployment = orchestrator.Deploy(std::move(*spec), std::move(args));
  ASSERT_TRUE(deployment.ok());
  (*deployment)->Start();
  orchestrator.RunFor(Duration::Seconds(3));

  ASSERT_TRUE(orchestrator
                  .MigrateModule(**deployment, "rep_counter_module", "tv")
                  .ok());
  EXPECT_EQ((*deployment)->retired_module_count(), 1u);
  orchestrator.RunFor(Duration::Seconds(5));  // well past the window
  EXPECT_EQ((*deployment)->retired_module_count(), 0u);
  // The migrated pipeline still completes frames.
  const uint64_t completed = (*deployment)->metrics().frames_completed();
  orchestrator.RunFor(Duration::Seconds(2));
  EXPECT_GT((*deployment)->metrics().frames_completed(), completed + 10);
  ExpectInvariantsHold(orchestrator);
}

}  // namespace
}  // namespace vp
