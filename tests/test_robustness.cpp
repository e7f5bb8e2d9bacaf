// Robustness: failure injection and randomized (fuzz-ish) round-trip
// properties across the wire formats.
//
// Seed-sweepable: set VP_TEST_SEED to vary the cluster / injector
// seeds (the CI seed-sweep job runs 1..5); default 42.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <limits>

#include "apps/fitness.hpp"
#include "core/orchestrator.hpp"
#include "core/self_healing.hpp"
#include "json/parse.hpp"
#include "json/write.hpp"
#include "media/codec.hpp"
#include "media/frame_store.hpp"
#include "net/message.hpp"
#include "script/parser.hpp"
#include "sim/cluster.hpp"
#include "sim/fault_injector.hpp"
#include "invariants_hold.hpp"

namespace vp {
namespace {

uint64_t TestSeed() {
  const char* env = std::getenv("VP_TEST_SEED");
  return env != nullptr ? std::strtoull(env, nullptr, 10) : 42;
}

using test_support::ExpectInvariantsHold;

// --------------------------------------------------- failure injection

TEST(FailureInjection, PipelineSurvivesLossyWifi) {
  auto cluster = sim::MakeHomeTestbed(TestSeed());
  sim::LinkSpec lossy;
  lossy.latency = Duration::Millis(3.5);
  lossy.bandwidth_bps = 80e6;
  lossy.jitter = Duration::Millis(0.8);
  lossy.loss = 0.05;  // 5% of messages need at least one retransmit
  cluster->network().set_default_link(lossy);

  core::Orchestrator orchestrator(cluster.get());
  auto spec = apps::fitness::Spec();
  core::Orchestrator::DeployArgs args;
  args.workload = apps::fitness::Workout();
  auto deployment = orchestrator.Deploy(std::move(*spec), std::move(args));
  ASSERT_TRUE(deployment.ok());
  (*deployment)->Start();
  orchestrator.RunFor(Duration::Seconds(20));

  // Retransmits happened, yet the pipeline kept a healthy rate.
  EXPECT_GT(cluster->network().stats().retransmits, 10u);
  EXPECT_GT((*deployment)->metrics().frames_completed(), 120u);
  EXPECT_GT((*deployment)->metrics().EndToEndFps(), 7.0);
  ExpectInvariantsHold(orchestrator);
}

TEST(FailureInjection, DeadLinkDeliversLateInsteadOfHanging) {
  sim::Simulator sim;
  sim::Network network(&sim, 1);
  sim::LinkSpec dead;
  dead.latency = Duration::Millis(2);
  dead.jitter = Duration::Zero();
  dead.loss = 1.0;  // every transmission "lost"
  network.SetSymmetricLink("a", "b", dead);
  bool delivered = false;
  network.Send("a", "b", 100, [&] { delivered = true; });
  sim.RunUntilIdle();  // must terminate (capped ARQ), not spin forever
  EXPECT_TRUE(delivered);
  EXPECT_GE(network.stats().retransmits, 16u);
}

TEST(FailureInjection, SlowServiceTriggersWatchdogNotWedge) {
  // A pipeline whose only module busy-loops longer than the camera's
  // credit timeout: the watchdog refills credits and frames keep
  // flowing (late), rather than the pipeline stopping after frame 1.
  auto cluster = sim::MakeHomeTestbed(TestSeed());
  core::OrchestratorOptions options;
  options.camera_options.credit_timeout = Duration::Millis(400);
  core::Orchestrator orchestrator(cluster.get(), options);
  auto spec = core::ParsePipelineConfigText(R"CFG({
    "name": "sluggish",
    "source": { "fps": 10, "width": 64, "height": 48 },
    "modules": [
      { "name": "cam", "type": "source", "next_module": ["slow_module"] },
      { "name": "slow_module", "signal_source": true,
        "code": "function event_received(m) { busy_ms(300); }" }
    ]
  })CFG",
                                            core::MapResolver({}));
  ASSERT_TRUE(spec.ok());
  core::Orchestrator::DeployArgs args;
  args.workload = apps::fitness::Workout();
  auto deployment = orchestrator.Deploy(std::move(*spec), std::move(args));
  ASSERT_TRUE(deployment.ok());
  (*deployment)->Start();
  orchestrator.RunFor(Duration::Seconds(10));
  // 300 ms ref on the phone ≈ 857 ms actual — over the 400 ms timeout.
  EXPECT_GT((*deployment)->camera().credit_timeouts(), 3u);
  EXPECT_GT((*deployment)->metrics().frames_completed(), 8u);
  ExpectInvariantsHold(orchestrator);
}

// ------------------------------------------- fault-tolerant service calls

// Service-call options tightened for fault tests: a vanished replica
// costs a couple hundred virtual ms per frame, not seconds.
core::OrchestratorOptions FastRecoveryOptions() {
  core::OrchestratorOptions options;
  options.service_call.timeout = Duration::Millis(200);
  options.service_call.remote_slack = Duration::Millis(100);
  options.service_call.max_retries = 2;
  options.service_call.backoff_base = Duration::Millis(10);
  options.service_call.suspect_duration = Duration::Millis(300);
  return options;
}

struct FaultRig {
  std::unique_ptr<sim::Cluster> cluster;
  std::unique_ptr<core::Orchestrator> orchestrator;
  core::PipelineDeployment* pipeline = nullptr;
};

FaultRig MakeRig(Result<core::PipelineSpec> spec,
                 core::OrchestratorOptions options) {
  FaultRig rig;
  rig.cluster = sim::MakeHomeTestbed(TestSeed());
  rig.orchestrator =
      std::make_unique<core::Orchestrator>(rig.cluster.get(), options);
  EXPECT_TRUE(spec.ok()) << spec.status().ToString();
  core::Orchestrator::DeployArgs args;
  args.workload = apps::fitness::Workout();
  auto deployment =
      rig.orchestrator->Deploy(std::move(*spec), std::move(args));
  EXPECT_TRUE(deployment.ok()) << deployment.status().ToString();
  rig.pipeline = *deployment;
  return rig;
}

std::string LabelOf(const sim::FaultInjector& injector,
                    const std::string& service) {
  for (const std::string& label : injector.replica_labels()) {
    if (label.find(service) != std::string::npos) return label;
  }
  return {};
}

TEST(FaultTolerance, ReplicaCrashMidPipelineRecovers) {
  auto rig = MakeRig(apps::fitness::Spec(), FastRecoveryOptions());
  sim::FaultInjector injector(&rig.cluster->simulator(),
                              &rig.cluster->network(), TestSeed() + 99);
  rig.orchestrator->RegisterReplicasForFaults(injector);
  const std::string label = LabelOf(injector, "pose_detector");
  ASSERT_FALSE(label.empty());

  // Kill the pose replica at t=3s for one second.
  ASSERT_TRUE(injector
                  .ScheduleCrash(label, TimePoint() + Duration::Seconds(3),
                                 Duration::Seconds(1))
                  .ok());
  rig.pipeline->Start();
  rig.orchestrator->RunFor(Duration::Seconds(3.5));
  const uint64_t mid = rig.pipeline->metrics().frames_completed();
  rig.orchestrator->RunFor(Duration::Seconds(16.5));

  const core::PipelineMetrics& metrics = rig.pipeline->metrics();
  EXPECT_EQ(injector.stats().crashes, 1u);
  EXPECT_EQ(injector.stats().restarts, 1u);
  // During the outage frames were dropped gracefully, with retries.
  EXPECT_GT(metrics.frames_abandoned(), 5u);
  EXPECT_GT(metrics.retries(), 0u);
  EXPECT_GE(metrics.replica_downtime_ms(), 900.0);
  // And after the restart the pipeline returned to a healthy rate.
  EXPECT_GT(metrics.frames_completed(), mid + 80);
  ExpectInvariantsHold(*rig.orchestrator);
}

TEST(FaultTolerance, WedgedReplicaTimesOutInsteadOfStallingPipeline) {
  auto rig = MakeRig(apps::fitness::Spec(), FastRecoveryOptions());
  sim::FaultInjector injector(&rig.cluster->simulator(),
                              &rig.cluster->network(), TestSeed() + 7);
  rig.orchestrator->RegisterReplicasForFaults(injector);
  const std::string label = LabelOf(injector, "pose_detector");
  ASSERT_FALSE(label.empty());

  // The replica hangs (accepts requests, never answers) for 1.5s.
  ASSERT_TRUE(injector
                  .ScheduleWedge(label, TimePoint() + Duration::Seconds(5),
                                 Duration::Millis(1500))
                  .ok());
  rig.pipeline->Start();
  rig.orchestrator->RunFor(Duration::Seconds(7));
  const uint64_t mid = rig.pipeline->metrics().frames_completed();
  rig.orchestrator->RunFor(Duration::Seconds(13));

  const core::PipelineMetrics& metrics = rig.pipeline->metrics();
  EXPECT_EQ(injector.stats().wedges, 1u);
  EXPECT_EQ(injector.stats().unwedges, 1u);
  // Calls into the hung replica resolved by timeout, not by waiting
  // forever; the swallowed requests are visible on the replica.
  EXPECT_GT(metrics.call_timeouts(), 0u);
  EXPECT_GT(metrics.frames_abandoned(), 2u);
  const std::string& device =
      rig.pipeline->plan().service_device.at("pose_detector");
  auto replicas = rig.orchestrator->registry().Replicas(device,
                                                        "pose_detector");
  ASSERT_FALSE(replicas.empty());
  EXPECT_GT(replicas.front()->stats().swallowed, 0u);
  // Steady-state recovery after the wedge clears.
  EXPECT_GT(metrics.frames_completed(), mid + 80);
  ExpectInvariantsHold(*rig.orchestrator);
}

TEST(FaultTolerance, RetryExhaustionDropsFrameAndReturnsCredit) {
  // proc calls a service and does NOT catch failures; sink only signals
  // credits. When the only replica dies permanently, every frame must
  // be abandoned promptly (credit returned by the runtime), not leak
  // through one camera-watchdog period each.
  auto spec = core::ParsePipelineConfigText(R"CFG({
    "name": "drops",
    "source": { "fps": 20, "width": 64, "height": 48 },
    "modules": [
      { "name": "cam", "type": "source", "next_module": ["proc"] },
      { "name": "proc", "service": ["pose_detector"],
        "next_module": ["sink"],
        "code": "function event_received(m) { var p = call_service('pose_detector', { frame_id: m.frame_id }); call_module('sink', { seq: m.seq }); }" },
      { "name": "sink", "signal_source": true,
        "code": "function event_received(m) {}" }
    ]
  })CFG",
                                            core::MapResolver({}));
  auto rig = MakeRig(std::move(spec), FastRecoveryOptions());
  sim::FaultInjector injector(&rig.cluster->simulator(),
                              &rig.cluster->network(), TestSeed() + 3);
  rig.orchestrator->RegisterReplicasForFaults(injector);
  const std::string label = LabelOf(injector, "pose_detector");
  ASSERT_FALSE(label.empty());

  // Crash with no restart: the outage is permanent.
  ASSERT_TRUE(injector
                  .ScheduleCrash(label, TimePoint() + Duration::Seconds(2),
                                 Duration::Zero())
                  .ok());
  rig.pipeline->Start();
  rig.orchestrator->RunFor(Duration::Seconds(2));
  const uint64_t completed_before = rig.pipeline->metrics().frames_completed();
  EXPECT_GT(completed_before, 20u);
  rig.orchestrator->RunFor(Duration::Seconds(8));

  const core::PipelineMetrics& metrics = rig.pipeline->metrics();
  // No frame completes without the service…
  EXPECT_LE(metrics.frames_completed(), completed_before + 2);
  // …but the source kept flowing: each frame died by fast abandonment
  // (credit returned by the runtime), not by 1s watchdog write-offs.
  EXPECT_GT(metrics.frames_abandoned(), 50u);
  EXPECT_GT(rig.pipeline->camera().frames_emitted(), 120u);
  EXPECT_LE(rig.pipeline->camera().credit_timeouts(), 2u);
  ExpectInvariantsHold(*rig.orchestrator);
}

TEST(FaultTolerance, ScriptCanCatchServiceFailureAndRecover) {
  // The vpscript surface of the tentpole: call_service() failures after
  // retry exhaustion are ordinary catchable errors with a code.
  auto spec = core::ParsePipelineConfigText(R"CFG({
    "name": "catcher",
    "source": { "fps": 20, "width": 64, "height": 48 },
    "modules": [
      { "name": "cam", "type": "source", "next_module": ["proc"] },
      { "name": "proc", "service": ["pose_detector"], "signal_source": true,
        "code": "var failures = 0; var last_code = ''; function event_received(m) { try { call_service('pose_detector', { frame_id: m.frame_id }); } catch (e) { failures = failures + 1; last_code = e.code; } }" }
    ]
  })CFG",
                                            core::MapResolver({}));
  auto rig = MakeRig(std::move(spec), FastRecoveryOptions());
  sim::FaultInjector injector(&rig.cluster->simulator(),
                              &rig.cluster->network(), TestSeed() + 11);
  rig.orchestrator->RegisterReplicasForFaults(injector);
  const std::string label = LabelOf(injector, "pose_detector");
  ASSERT_FALSE(label.empty());
  ASSERT_TRUE(injector
                  .ScheduleCrash(label, TimePoint() + Duration::Seconds(2),
                                 Duration::Zero())
                  .ok());
  rig.pipeline->Start();
  rig.orchestrator->RunFor(Duration::Seconds(8));

  // The module caught every failure and kept completing frames (it is
  // the sink), so nothing was abandoned on its behalf.
  const core::PipelineMetrics& metrics = rig.pipeline->metrics();
  EXPECT_EQ(metrics.frames_abandoned(), 0u);
  EXPECT_GT(metrics.frames_completed(), 80u);
  core::ModuleRuntime* proc = rig.pipeline->FindModule("proc");
  ASSERT_NE(proc, nullptr);
  const json::Value state = proc->context().SnapshotState();
  EXPECT_GT(state.GetDouble("failures", 0), 20.0);
  EXPECT_EQ(state.GetString("last_code", ""), "UNAVAILABLE");
  ExpectInvariantsHold(*rig.orchestrator);
}

TEST(FaultTolerance, RandomFaultTimelineIsDeterministic) {
  auto run = [](uint64_t seed) {
    auto rig = MakeRig(apps::fitness::Spec(), FastRecoveryOptions());
    sim::FaultInjector injector(&rig.cluster->simulator(),
                                &rig.cluster->network(), seed);
    rig.orchestrator->RegisterReplicasForFaults(injector);
    sim::RandomFaultOptions faults;
    faults.crash_probability = 0.03;
    faults.crash_downtime = Duration::Millis(400);
    faults.wedge_probability = 0.01;
    faults.wedge_duration = Duration::Millis(300);
    injector.StartRandomFaults(faults);
    rig.pipeline->Start();
    rig.orchestrator->RunFor(Duration::Seconds(15));
    const core::PipelineMetrics& m = rig.pipeline->metrics();
    return std::tuple<uint64_t, uint64_t, uint64_t, uint64_t, uint64_t>(
        injector.stats().crashes, injector.stats().wedges,
        m.frames_completed(), m.frames_abandoned(), m.retries());
  };
  const auto a = run(1234);
  const auto b = run(1234);
  const auto c = run(4321);
  EXPECT_EQ(a, b);  // bit-for-bit reproducible under a fixed seed
  EXPECT_NE(a, c);  // and the seed, not a constant, drives the faults
  EXPECT_GT(std::get<0>(a) + std::get<1>(a), 0u);  // faults happened
  EXPECT_GT(std::get<2>(a), 100u);  // and the pipeline survived them
}

// --------------------------------------- flow-control credit staleness

TEST(FlowControl, StaleCreditCannotDoubleAdmit) {
  // Regression: frame A's credit arrives AFTER the watchdog already
  // wrote A off and minted a replacement. Honoring it would put two
  // frames in flight (§2.3 single-slot invariant).
  sim::Simulator sim;
  sim::ExecutionLane lane(&sim, "cam", 1.0);
  core::PipelineMetrics metrics;
  std::vector<uint64_t> emitted;
  core::CameraOptions options;
  options.credit_timeout = Duration::Millis(100);
  core::CameraDriver camera(
      &sim, &lane,
      media::SyntheticVideoSource(apps::fitness::Workout(), 20.0,
                                  media::SceneOptions{}, 5),
      &metrics,
      [&emitted](uint64_t seq, TimePoint, Bytes) { emitted.push_back(seq); },
      options);

  camera.Start();
  sim.RunUntil(TimePoint() + Duration::Millis(60));
  ASSERT_EQ(emitted.size(), 1u);  // frame A out, credit outstanding
  const uint64_t frame_a = emitted[0];

  // Watchdog fires at 100ms, mints a replacement credit → frame B.
  sim.RunUntil(TimePoint() + Duration::Millis(160));
  ASSERT_EQ(emitted.size(), 2u);
  EXPECT_EQ(camera.credit_timeouts(), 1u);

  // The late credit for A must be ignored: no third admission while
  // B's credit is still outstanding.
  camera.OnCredit(frame_a);
  sim.RunUntil(TimePoint() + Duration::Millis(195));
  EXPECT_EQ(emitted.size(), 2u);
  EXPECT_EQ(camera.stale_credits(), 1u);

  // B's own credit still works.
  camera.OnCredit(emitted[1]);
  sim.RunUntil(TimePoint() + Duration::Millis(260));
  EXPECT_EQ(emitted.size(), 3u);
  EXPECT_EQ(camera.stale_credits(), 1u);
}

// ----------------------------------------------- bounded bookkeeping

TEST(FrameStoreBounds, PutReleaseChurnKeepsTheIndexBounded) {
  media::FrameStore store(8);
  const Bytes wire = media::EncodeFrame(media::Frame{});
  for (int i = 0; i < 5000; ++i) {
    auto put = store.Put(wire);
    ASSERT_TRUE(put.ok());
    ASSERT_EQ(store.size(), 1u);
    put->reset();
    // Released on the spot: the index holds the live frames only, so
    // churn cannot grow it.
    EXPECT_EQ(store.size(), 0u);
  }
  EXPECT_EQ(store.evictions(), 0u);
}

TEST(FrameStoreBounds, MixedChurnStaysBoundedAndResolvable) {
  media::FrameStore store(16);
  const Bytes wire = media::EncodeFrame(media::Frame{});
  std::vector<media::FrameRef> resident;
  for (int i = 0; i < 3000; ++i) {
    auto put = store.Put(wire);
    ASSERT_TRUE(put.ok());
    resident.push_back(*put);
    if (resident.size() > 4) resident.erase(resident.begin());
    EXPECT_EQ(store.size(), resident.size());
  }
  for (const media::FrameRef& frame : resident) {
    EXPECT_TRUE(store.Get(frame->id()).ok());
  }
}

// ------------------------------------------------------ frame lifetime
//
// A frame stays in its device's store while a handler, a same-device
// message or a queued service request holds it, and leaves when the
// last holder goes. Whichever way a frame's work ends, nothing may keep
// it: once the cameras stop and the fabric drains, every store is
// empty.

/// Stop the cameras, let everything in flight finish, and expect every
/// device's store to hold no frame.
void ExpectStoresDrain(sim::Cluster& cluster,
                       core::Orchestrator& orchestrator) {
  for (const auto& pipeline : orchestrator.pipelines()) pipeline->Stop();
  orchestrator.RunFor(Duration::Seconds(5));
  for (const sim::Device* device : cluster.devices()) {
    EXPECT_EQ(orchestrator.store(device->name()).size(), 0u)
        << device->name();
  }
}

/// Register a 4×4 frame in `device`'s store; the caller holds it.
media::FrameRef PutTestFrame(core::Orchestrator& orchestrator,
                             const std::string& device) {
  media::Frame frame;
  frame.image = media::Image(4, 4);
  auto put = orchestrator.store(device).Put(media::EncodeFrame(frame));
  EXPECT_TRUE(put.ok());
  return put.ok() ? *put : nullptr;
}

TEST(FrameLifetime, BranchFinishingAfterTheSinkStillResolvesItsFrame) {
  // split fans each frame out to the sink, which returns the credit at
  // once, and to a slow branch that reads the frame ~100 ms later. The
  // slow branch also overflows its parked slot, so replaced messages
  // must release their frames too.
  auto rig = MakeRig(core::ParsePipelineConfigText(R"CFG({
    "name": "fanout",
    "source": { "fps": 20, "width": 64, "height": 48 },
    "modules": [
      { "name": "cam", "type": "source", "next_module": ["split"] },
      { "name": "split", "device": "desktop",
        "next_module": ["sink", "slow"],
        "code": "function event_received(m) { call_module('sink', { frame_id: m.frame_id }); call_module('slow', { frame_id: m.frame_id }); }" },
      { "name": "sink", "device": "desktop", "signal_source": true,
        "code": "function event_received(m) {}" },
      { "name": "slow", "device": "desktop", "service": ["pose_detector"],
        "code": "var resolved = 0; var failed = 0; function event_received(m) { busy_ms(40); try { frame_info(m.frame_id); call_service('pose_detector', { frame_id: m.frame_id }); resolved = resolved + 1; } catch (e) { failed = failed + 1; } }" }
    ]
  })CFG",
                                                   core::MapResolver({})),
                     core::OrchestratorOptions{});
  rig.pipeline->Start();
  rig.orchestrator->RunFor(Duration::Seconds(5));

  core::ModuleRuntime* slow = rig.pipeline->FindModule("slow");
  ASSERT_NE(slow, nullptr);
  const json::Value state = slow->context().SnapshotState();
  EXPECT_GT(state.GetDouble("resolved", 0), 20.0);
  EXPECT_EQ(state.GetDouble("failed", -1), 0.0);
  EXPECT_GT(slow->stats().dropped_replaced, 0u);
  // The sink ran ahead of the slow branch the whole time.
  EXPECT_GT(rig.pipeline->FindModule("sink")->stats().events,
            slow->stats().events + 20);
  ExpectStoresDrain(*rig.cluster, *rig.orchestrator);
}

TEST(FrameLifetime, UndecodableFramesAndHandlerErrorsRelease) {
  auto rig = MakeRig(core::ParsePipelineConfigText(R"CFG({
    "name": "errors",
    "source": { "fps": 20, "width": 64, "height": 48 },
    "modules": [
      { "name": "cam", "type": "source", "next_module": ["proc"] },
      { "name": "proc", "device": "desktop", "next_module": ["sink"],
        "code": "function event_received(m) { call_module('sink', { frame_id: m.frame_id }); if (m.seq % 2 == 0) { throw 'boom'; } }" },
      { "name": "sink", "device": "desktop", "signal_source": true,
        "code": "function event_received(m) { frame_info(m.frame_id); }" }
    ]
  })CFG",
                                                   core::MapResolver({})),
                     core::OrchestratorOptions{});
  rig.pipeline->Start();
  rig.orchestrator->RunFor(Duration::Seconds(2));
  // Frames whose bytes do not decode never enter the store.
  auto proc_address = rig.pipeline->ModuleAddress("proc");
  ASSERT_TRUE(proc_address.ok());
  for (int i = 0; i < 5; ++i) {
    net::Message garbage("frame");
    garbage.set_sender("cam");
    garbage.AddPart(Bytes{1, 2, 3, 4, 5});
    ASSERT_TRUE(rig.orchestrator->fabric()
                    .Push("desktop", *proc_address, std::move(garbage))
                    .ok());
    rig.orchestrator->RunFor(Duration::Millis(150));
  }
  rig.orchestrator->RunFor(Duration::Seconds(2));

  core::ModuleRuntime* proc = rig.pipeline->FindModule("proc");
  ASSERT_NE(proc, nullptr);
  EXPECT_GT(proc->stats().script_errors, 20u);
  EXPECT_EQ(rig.pipeline->FindModule("sink")->stats().script_errors, 0u);
  ExpectStoresDrain(*rig.cluster, *rig.orchestrator);
}

TEST(FrameLifetime, RequestQueuedPastItsCallersTimeoutHoldsItsFrame) {
  // The caller gives up after 20 ms; the ~55 ms pose replica works
  // through a queue of abandoned requests, each still holding its frame
  // until it is served.
  core::OrchestratorOptions options = FastRecoveryOptions();
  options.service_call.timeout = Duration::Millis(20);
  options.service_call.max_retries = 0;
  options.serving.enabled = true;
  auto rig = MakeRig(core::ParsePipelineConfigText(R"CFG({
    "name": "impatient",
    "source": { "fps": 20, "width": 64, "height": 48 },
    "modules": [
      { "name": "cam", "type": "source", "next_module": ["proc"] },
      { "name": "proc", "device": "desktop", "signal_source": true,
        "service": ["pose_detector"],
        "code": "var timeouts = 0; function event_received(m) { try { call_service('pose_detector', { frame_id: m.frame_id }); } catch (e) { if (e.code == 'TIMEOUT') timeouts = timeouts + 1; } }" }
    ]
  })CFG",
                                                   core::MapResolver({})),
                     options);
  ASSERT_EQ(rig.pipeline->plan().service_device.at("pose_detector"),
            "desktop");
  rig.pipeline->Start();
  size_t most_held = 0;
  for (int i = 0; i < 40; ++i) {
    rig.orchestrator->RunFor(Duration::Millis(100));
    most_held = std::max(most_held, rig.orchestrator->store("desktop").size());
  }
  core::ModuleRuntime* proc = rig.pipeline->FindModule("proc");
  ASSERT_NE(proc, nullptr);
  EXPECT_GT(proc->context().SnapshotState().GetDouble("timeouts", 0), 20.0);
  // More frames resident than the one handler could hold: the queued
  // requests hold the rest.
  EXPECT_GT(most_held, 2u);
  ExpectStoresDrain(*rig.cluster, *rig.orchestrator);
  ExpectInvariantsHold(*rig.orchestrator);
}

TEST(FrameLifetime, HibernateAndUndeployRelease) {
  auto rig = MakeRig(apps::fitness::Spec(), core::OrchestratorOptions{});
  rig.pipeline->Start();
  rig.orchestrator->RunFor(Duration::Seconds(3));
  const std::string device =
      rig.pipeline->plan().module_device.at("pose_detection_module");

  // Hibernation clears the store at once: ids stop resolving, though a
  // holder keeps its frame.
  media::FrameRef held = PutTestFrame(*rig.orchestrator, device);
  ASSERT_NE(held, nullptr);
  ASSERT_TRUE(rig.orchestrator->HibernatePipeline(rig.pipeline).ok());
  EXPECT_EQ(rig.orchestrator->store(device).Get(held->id()).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(held->width(), 4);
  held.reset();
  rig.orchestrator->RunFor(Duration::Seconds(2));
  ASSERT_TRUE(rig.orchestrator->WakePipeline(rig.pipeline).ok());
  rig.pipeline->Start();
  rig.orchestrator->RunFor(Duration::Seconds(3));
  EXPECT_GT(rig.pipeline->metrics().frames_completed(), 40u);
  ExpectStoresDrain(*rig.cluster, *rig.orchestrator);

  // Undeploy mid-stream: the stores are not cleared, but every frame
  // in flight is released as its holders finish or are dropped.
  rig.pipeline->Start();
  rig.orchestrator->RunFor(Duration::Seconds(2));
  ASSERT_TRUE(rig.orchestrator->Undeploy(rig.pipeline).ok());
  rig.orchestrator->RunFor(Duration::Seconds(5));
  for (const sim::Device* d : rig.cluster->devices()) {
    EXPECT_EQ(rig.orchestrator->store(d->name()).size(), 0u) << d->name();
  }
}

core::SelfHealingOptions LifetimeHealing() {
  core::SelfHealingOptions options;
  options.detector.heartbeat_interval = Duration::Millis(100);
  options.detector.suspect_after = Duration::Millis(250);
  options.detector.suspicion_window = Duration::Millis(400);
  options.checkpoint_interval = Duration::Seconds(1);
  options.detector.controller_device = "tv";
  return options;
}

struct HealingRig {
  std::unique_ptr<sim::Cluster> cluster;
  std::unique_ptr<core::Orchestrator> orchestrator;
  std::unique_ptr<sim::FaultInjector> injector;
  std::unique_ptr<core::SelfHealer> healer;
  core::PipelineDeployment* pipeline = nullptr;
};

HealingRig MakeHealingRig() {
  HealingRig rig;
  rig.cluster = sim::MakeExtendedTestbed(TestSeed());
  core::OrchestratorOptions options;
  options.seed = TestSeed();
  rig.orchestrator =
      std::make_unique<core::Orchestrator>(rig.cluster.get(), options);
  core::Orchestrator::DeployArgs args;
  args.workload = apps::fitness::Workout();
  args.seed = TestSeed();
  auto deployment =
      rig.orchestrator->Deploy(*apps::fitness::Spec(), std::move(args));
  EXPECT_TRUE(deployment.ok()) << deployment.status().ToString();
  rig.pipeline = *deployment;
  rig.injector = std::make_unique<sim::FaultInjector>(
      &rig.cluster->simulator(), &rig.cluster->network(), TestSeed());
  rig.orchestrator->RegisterReplicasForFaults(*rig.injector);
  rig.orchestrator->RegisterDevicesForFaults(*rig.injector);
  rig.healer = std::make_unique<core::SelfHealer>(rig.orchestrator.get(),
                                                  LifetimeHealing());
  EXPECT_TRUE(rig.healer->Start().ok());
  return rig;
}

TEST(FrameLifetime, DeviceCrashClearsAtOnceAndDeadLanesRelease) {
  // a and b share the desktop's module lane: a's busy_ms holds it, so
  // b's next event waits on the lane for most of every cycle — a crash
  // then finds b's frame admitted but not yet handled.
  auto rig = MakeRig(core::ParsePipelineConfigText(R"CFG({
    "name": "crashy",
    "source": { "fps": 20, "width": 64, "height": 48 },
    "modules": [
      { "name": "cam", "type": "source", "next_module": ["a"] },
      { "name": "a", "device": "desktop", "next_module": ["b"],
        "code": "function event_received(m) { call_module('b', { frame_id: m.frame_id }); busy_ms(80); }" },
      { "name": "b", "device": "desktop", "signal_source": true,
        "code": "function event_received(m) { frame_info(m.frame_id); }" }
    ]
  })CFG",
                                                   core::MapResolver({})),
                     core::OrchestratorOptions{});
  sim::FaultInjector injector(&rig.cluster->simulator(),
                              &rig.cluster->network(), TestSeed());
  rig.orchestrator->RegisterDevicesForFaults(injector);
  rig.pipeline->Start();
  rig.orchestrator->RunFor(Duration::Seconds(3));
  core::ModuleRuntime* b = rig.pipeline->FindModule("b");
  ASSERT_NE(b, nullptr);
  ASSERT_GT(b->stats().events, 10u);

  media::FrameRef held = PutTestFrame(*rig.orchestrator, "desktop");
  ASSERT_NE(held, nullptr);
  ASSERT_TRUE(injector.CrashDeviceNow("desktop", Duration::Seconds(1)).ok());
  // Same event: the crash wiped the store; the holder keeps its frame.
  EXPECT_EQ(rig.orchestrator->store("desktop").Get(held->id()).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(held->height(), 4);
  held.reset();
  rig.orchestrator->RunFor(Duration::Seconds(3));
  EXPECT_GT(b->stats().dropped_device_down, 0u);
  ExpectStoresDrain(*rig.cluster, *rig.orchestrator);
}

TEST(FrameLifetime, StaleEpochFenceReleases) {
  // The partitioned desktop keeps running its stale runtimes; what
  // they send after recovery bumped the epochs is fenced and dropped.
  auto rig = MakeHealingRig();
  rig.pipeline->Start();
  rig.injector->SchedulePartition({{"desktop"}, {"phone", "tv", "nuc"}},
                                  TimePoint() + Duration::Seconds(5),
                                  Duration::Seconds(3));
  rig.orchestrator->RunFor(Duration::Seconds(20));
  EXPECT_GT(rig.pipeline->metrics().zombies_fenced(), 0u);
  ExpectStoresDrain(*rig.cluster, *rig.orchestrator);
}

TEST(MetricsRetention, EvictedTracesFoldIntoSummaries) {
  core::PipelineMetrics m;
  m.set_trace_retention(32);
  for (uint64_t s = 0; s < 1000; ++s) {
    const TimePoint t0 =
        TimePoint() + Duration::Micros(static_cast<int64_t>(s) * 50000);
    m.OnCaptured(s, t0);
    m.OnStageStart(s, "mod", t0 + Duration::Millis(1));
    m.OnStageEnd(s, "mod",
                 t0 + Duration::Millis(6 + static_cast<double>(s % 10)));
    m.OnCompleted(s, t0 + Duration::Millis(20));
  }
  EXPECT_LE(m.traces().size(), 32u);
  EXPECT_EQ(m.traces_evicted(), 968u);
  // Counters are exact even though most raw traces are gone.
  EXPECT_EQ(m.frames_captured(), 1000u);
  EXPECT_EQ(m.frames_completed(), 1000u);
  const core::LatencySummary lat = m.ModuleLatency("mod");
  EXPECT_EQ(lat.count, 1000u);
  EXPECT_NEAR(lat.mean_ms, 9.5, 0.01);  // 5 + mean(0..9)
  EXPECT_DOUBLE_EQ(lat.min_ms, 5.0);
  EXPECT_DOUBLE_EQ(lat.max_ms, 14.0);
  const core::LatencySummary total = m.TotalLatency();
  EXPECT_EQ(total.count, 1000u);
  EXPECT_DOUBLE_EQ(total.mean_ms, 20.0);
  EXPECT_NEAR(total.p50_ms, 20.0, 1e-9);
  EXPECT_NEAR(total.p95_ms, 20.0, 1e-9);
}

// ----------------------------------------------------------- fuzzing

// A number from every branch of the writer: small integers, fractions,
// exponent forms, integers either side of the 1e15 cutoff, ±0,
// subnormals, the extremes and non-finite values.
double RandomNumber(Rng& rng) {
  using Limits = std::numeric_limits<double>;
  const double sign = rng.NextBool() ? 1.0 : -1.0;
  switch (rng.NextInt(0, 7)) {
    case 0: return static_cast<double>(rng.NextInt(-1000000, 1000000));
    case 1: return rng.NextGaussian(0, 1e6);
    case 2:
      return sign * rng.NextDouble() *
             std::pow(10.0, static_cast<double>(rng.NextInt(-300, 300)));
    case 3: return sign * (1e15 + 0.5 * static_cast<double>(rng.NextInt(-4, 4)));
    case 4:
      return sign * Limits::denorm_min() *
             static_cast<double>(rng.NextInt(0, 1 << 20));
    case 5: {  // any finite bit pattern
      double d;
      do d = std::bit_cast<double>(rng.NextU64());
      while (!std::isfinite(d));
      return d;
    }
    case 6: return sign * (rng.NextBool() ? Limits::max() : Limits::min());
    default:
      return rng.NextBool() ? Limits::quiet_NaN() : sign * Limits::infinity();
  }
}

json::Value RandomJson(Rng& rng, int depth) {
  const int kind = static_cast<int>(rng.NextInt(0, depth <= 0 ? 3 : 5));
  switch (kind) {
    case 0: return json::Value(nullptr);
    case 1: return json::Value(rng.NextBool());
    case 2: return json::Value(RandomNumber(rng));
    case 3: {
      std::string s;
      const int64_t length = rng.NextInt(0, 24);
      for (int64_t i = 0; i < length; ++i) {
        s += static_cast<char>(rng.NextInt(1, 126));  // incl controls
      }
      return json::Value(std::move(s));
    }
    case 4: {
      json::Value::Array arr;
      const int64_t n = rng.NextInt(0, 5);
      for (int64_t i = 0; i < n; ++i) arr.push_back(RandomJson(rng, depth - 1));
      return json::Value(std::move(arr));
    }
    default: {
      json::Value::Object obj;
      const int64_t n = rng.NextInt(0, 5);
      for (int64_t i = 0; i < n; ++i) {
        obj["k" + std::to_string(rng.NextInt(0, 99))] =
            RandomJson(rng, depth - 1);
      }
      return json::Value(std::move(obj));
    }
  }
}

// `parsed` is Parse(Write(original)): every finite number comes back
// bit for bit (-0 writes as the integer 0), every non-finite one as null.
void ExpectSameNumbers(const json::Value& original, const json::Value& parsed) {
  switch (original.type()) {
    case json::Type::kNumber: {
      const double d = original.AsDouble();
      if (!std::isfinite(d)) {
        EXPECT_TRUE(parsed.is_null()) << d;
      } else {
        ASSERT_TRUE(parsed.is_number()) << d;
        EXPECT_EQ(std::bit_cast<uint64_t>(parsed.AsDouble()),
                  std::bit_cast<uint64_t>(d == 0 ? 0.0 : d))
            << d;
      }
      break;
    }
    case json::Type::kArray:
      ASSERT_TRUE(parsed.is_array());
      ASSERT_EQ(parsed.AsArray().size(), original.AsArray().size());
      for (size_t i = 0; i < original.AsArray().size(); ++i) {
        ExpectSameNumbers(original[i], parsed[i]);
      }
      break;
    case json::Type::kObject:
      ASSERT_TRUE(parsed.is_object());
      for (const auto& [key, value] : original.AsObject()) {
        const json::Value* other = parsed.Find(key);
        ASSERT_NE(other, nullptr) << key;
        ExpectSameNumbers(value, *other);
      }
      break;
    default:
      EXPECT_EQ(parsed, original);
  }
}

class JsonFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(JsonFuzz, WriteParseIdentity) {
  Rng rng(GetParam());
  for (int i = 0; i < 50; ++i) {
    const json::Value doc = RandomJson(rng, 4);
    const std::string text = json::Write(doc);
    EXPECT_EQ(json::WrittenSize(doc), text.size());
    auto parsed = json::Parse(text);
    ASSERT_TRUE(parsed.ok()) << text;
    EXPECT_TRUE(json::Validate(text).ok()) << text;
    // Numbers round-trip through %.17g; compare re-serialized text.
    EXPECT_EQ(json::Write(*parsed), text);
    ExpectSameNumbers(doc, *parsed);
  }
}

// Parse's verdict and error for `text` must be Validate's, to the byte.
void ExpectValidateAgrees(const std::string& text) {
  const auto parsed = json::Parse(text);
  const Status valid = json::Validate(text);
  ASSERT_EQ(valid.ok(), parsed.ok()) << text;
  if (!parsed.ok()) {
    EXPECT_EQ(valid.error().ToString(), parsed.error().ToString()) << text;
  }
}

TEST_P(JsonFuzz, ValidateAgreesWithParse) {
  // Written documents (compact or pretty), then up to four byte edits
  // drawn from JSON's own alphabet: most edits break the text
  // somewhere, at every depth and in every token kind.
  Rng rng(GetParam() * 7919);
  static constexpr char kAlphabet[] =
      "{}[]:,\"\\/ \n\t0123456789.eE+-truefalsnu";
  int rejected = 0;
  for (int i = 0; i < 300; ++i) {
    std::string text =
        json::Write(RandomJson(rng, 4), rng.NextBool() ? -1 : 2);
    const int64_t edits = rng.NextInt(0, 4);
    for (int64_t k = 0; k < edits && !text.empty(); ++k) {
      const auto at = static_cast<size_t>(
          rng.NextInt(0, static_cast<int64_t>(text.size()) - 1));
      const char c = kAlphabet[rng.NextInt(0, sizeof kAlphabet - 2)];
      switch (rng.NextInt(0, 3)) {
        case 0: text.erase(at, 1); break;
        case 1: text.insert(at, 1, c); break;
        case 2: text[at] = c; break;
        default: text.resize(at); break;
      }
    }
    ExpectValidateAgrees(text);
    rejected += json::Validate(text).ok() ? 0 : 1;
  }
  EXPECT_GT(rejected, 50);
}

TEST(JsonValidate, AgreesWithParseOnEdgeCases) {
  const std::string deep(static_cast<size_t>(json::kMaxParseDepth), '[');
  const std::string undeep(static_cast<size_t>(json::kMaxParseDepth), ']');
  for (const std::string& text : std::vector<std::string>{
           "", " ", "// only a comment", "{}", "[]", "[1,]", "{\"a\":1,}",
           "1e999", "-", "--5", "1.2.3", "01", "\"\\u12\"", "\"\\uZZZZ\"",
           "\"\\x\"", "\"abc", "tru", "nul", "{\"a\" 1}", "{1:2}", "[1 2]",
           "{} extra", "{\"a\":1}\n// trailing comment\n", deep + undeep,
           "[" + deep + undeep + "]", deep, std::string(200000, '[')}) {
    ExpectValidateAgrees(text);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JsonFuzz,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

class MessageFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MessageFuzz, EncodeDecodeIdentity) {
  Rng rng(GetParam() * 977);
  for (int i = 0; i < 30; ++i) {
    net::Message m("t" + std::to_string(rng.NextInt(0, 9)));
    m.set_sender("module" + std::to_string(rng.NextInt(0, 9)));
    m.set_seq(rng.NextU64());
    m.set_payload(RandomJson(rng, 3));
    const int64_t parts = rng.NextInt(0, 3);
    for (int64_t p = 0; p < parts; ++p) {
      Bytes blob(static_cast<size_t>(rng.NextInt(0, 2000)));
      for (auto& b : blob) b = static_cast<uint8_t>(rng.NextU64());
      m.AddPart(std::move(blob));
    }
    const size_t predicted = m.ByteSize();
    const Bytes wire = m.Encode();
    EXPECT_EQ(wire.size(), predicted);
    auto decoded = net::Message::Decode(wire);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded->type(), m.type());
    EXPECT_EQ(decoded->seq(), m.seq());
    EXPECT_EQ(decoded->parts(), m.parts());
    EXPECT_EQ(json::Write(decoded->payload()), json::Write(m.payload()));
    ExpectSameNumbers(m.payload(), decoded->payload());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MessageFuzz, ::testing::Values(1, 2, 3, 4));

TEST(NegativeFuzz, RandomBytesNeverCrashDecoders) {
  Rng rng(4242);
  for (int i = 0; i < 300; ++i) {
    Bytes garbage(static_cast<size_t>(rng.NextInt(0, 400)));
    for (auto& b : garbage) b = static_cast<uint8_t>(rng.NextU64());
    // Must return errors, not crash. (Valid decodes are conceivable
    // but astronomically unlikely without the magic prefix.)
    auto message = net::Message::Decode(garbage);
    auto frame = media::DecodeFrame(garbage);
    if (garbage.size() >= 4) {
      EXPECT_FALSE(message.ok() && frame.ok());
    }
  }
}

TEST(NegativeFuzz, TruncatedRealMessagesAlwaysError) {
  net::Message m("frame");
  m.payload()["frame_id"] = json::Value(3);
  m.AddPart(Bytes(257, 9));
  const Bytes wire = m.Encode();
  for (size_t cut = 0; cut < wire.size(); cut += 7) {
    auto truncated =
        Bytes(wire.begin(), wire.begin() + static_cast<ptrdiff_t>(cut));
    EXPECT_FALSE(net::Message::Decode(truncated).ok()) << cut;
  }
}

TEST(ScriptFuzz, DeepNestingParsesOrFailsCleanly) {
  // 200-deep parenthesised expression: must not smash the stack.
  std::string source = "var x = ";
  for (int i = 0; i < 200; ++i) source += "(1 + ";
  source += "0";
  for (int i = 0; i < 200; ++i) source += ")";
  source += ";";
  auto program = script::ParseProgram(source);
  EXPECT_TRUE(program.ok());
}

TEST(ScriptFuzz, GarbageSourcesErrorCleanly) {
  Rng rng(77);
  for (int i = 0; i < 200; ++i) {
    std::string source;
    const int64_t length = rng.NextInt(0, 80);
    const char alphabet[] = "var fn(){}[];=+-*/<>!&|.\"'123abc \n";
    for (int64_t c = 0; c < length; ++c) {
      source += alphabet[rng.NextInt(0, sizeof(alphabet) - 2)];
    }
    auto program = script::ParseProgram(source);  // ok() either way;
    (void)program;                                // just must not crash
  }
}

}  // namespace
}  // namespace vp
