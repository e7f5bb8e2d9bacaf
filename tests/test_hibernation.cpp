// Scale-to-zero lifecycle: program cache, warm pool, hibernation,
// rehydration, burst wakeup admission.
//
// Seed-sweepable: set VP_TEST_SEED (CI runs 1..5); default 42.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "apps/fitness.hpp"
#include "core/invariants.hpp"
#include "core/monitor.hpp"
#include "core/orchestrator.hpp"
#include "core/self_healing.hpp"
#include "fleet/fleet.hpp"
#include "lifecycle/context_pool.hpp"
#include "lifecycle/hibernation.hpp"
#include "script/context.hpp"
#include "script/program_cache.hpp"
#include "serving/wakeup_admission.hpp"
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

// ------------------------------------------------- program cache

TEST(ProgramCache, HitMissAndSharing) {
  script::ProgramCache::Global().Clear();
  const auto before = script::ProgramCache::Global().stats();
  const std::string source = R"(
    var calls = 0;
    function bump(n) { calls = calls + n; return calls; }
  )";
  script::ScriptLimits limits;
  auto first = script::ProgramCache::Global().Acquire(source, limits);
  ASSERT_TRUE(first.ok());
  ASSERT_NE(*first, nullptr);
  auto second = script::ProgramCache::Global().Acquire(source, limits);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->get(), second->get());  // same shared entry

  const auto after = script::ProgramCache::Global().stats();
  EXPECT_EQ(after.misses, before.misses + 1);
  EXPECT_EQ(after.hits, before.hits + 1);
}

TEST(ProgramCache, ContextsShareCompiledProgramsButNotState) {
  script::ProgramCache::Global().Clear();
  const std::string source = R"(
    var counter = 0;
    function tick() { counter = counter + 1; return counter; }
  )";
  script::Context a;
  script::Context b;
  ASSERT_TRUE(a.Load(source).ok());
  ASSERT_TRUE(b.Load(source).ok());
  const auto stats = script::ProgramCache::Global().stats();
  EXPECT_GE(stats.hits, 1u);  // b linked a's compiled program

  // Shared bytecode, isolated globals.
  ASSERT_TRUE(a.Call("tick", {}).ok());
  ASSERT_TRUE(a.Call("tick", {}).ok());
  ASSERT_TRUE(b.Call("tick", {}).ok());
  EXPECT_EQ(a.GetGlobal("counter").AsDouble(), 2.0);
  EXPECT_EQ(b.GetGlobal("counter").AsDouble(), 1.0);
}

TEST(ProgramCache, RejectedSourceIsNotCached) {
  script::ProgramCache::Global().Clear();
  // 256 call arguments exceed the compiler's u8 argc operand.
  std::string args = "0";
  for (int i = 1; i < 256; ++i) args += ", 0";
  const std::string rejected = "function f() {} f(" + args + ");";
  script::ScriptLimits limits;
  const auto before = script::ProgramCache::Global().stats();
  for (int attempt = 0; attempt < 2; ++attempt) {
    auto r = script::ProgramCache::Global().Acquire(rejected, limits);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code(), StatusCode::kScriptError);
  }
  const auto after = script::ProgramCache::Global().stats();
  EXPECT_EQ(after.entries, 0u);
  EXPECT_EQ(after.hits, before.hits);
  EXPECT_EQ(after.misses, before.misses + 2);  // retried, never memoized

  // The cache still serves valid sources.
  script::Context context;
  ASSERT_TRUE(context.Load("var x = 1;").ok());
  EXPECT_EQ(context.GetGlobal("x").AsDouble(), 1.0);
}

// ---------------------------------------------------- context pool

TEST(ContextPool, AcquireMatchesSourceAndSeed) {
  lifecycle::ContextPool pool;
  const std::string source = "var ready = 1;";
  ASSERT_TRUE(pool.Prewarm(source, 7).ok());
  EXPECT_EQ(pool.size(), 1u);

  EXPECT_EQ(pool.Acquire(source, 8), nullptr);        // wrong seed
  EXPECT_EQ(pool.Acquire("var other = 1;", 7), nullptr);  // wrong code
  auto context = pool.Acquire(source, 7);
  ASSERT_NE(context, nullptr);
  EXPECT_EQ(context->GetGlobal("ready").AsDouble(), 1.0);
  EXPECT_EQ(pool.size(), 0u);  // consumed

  const auto stats = pool.stats();
  EXPECT_EQ(stats.prewarmed, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 2u);
}

// ------------------------------------------------------ hibernation

struct LifecycleRig {
  std::unique_ptr<sim::Cluster> cluster;
  std::unique_ptr<core::Orchestrator> orchestrator;
  std::unique_ptr<lifecycle::HibernationManager> manager;
  core::PipelineDeployment* pipeline = nullptr;
};

/// One stateful single-module pipeline: `counter` accumulates across
/// frames, so hibernate→wake state equivalence is directly readable.
LifecycleRig MakeRig(const std::string& name, double fps = 5,
                     lifecycle::HibernationOptions lifecycle_options = {},
                     core::OrchestratorOptions options = {}) {
  LifecycleRig rig;
  rig.cluster = sim::MakeHomeTestbed(TestSeed());
  options.seed = TestSeed();
  // Short drain window so released contexts actually free inside
  // test-sized runs.
  options.retired_drain_window = Duration::Seconds(2);
  rig.orchestrator =
      std::make_unique<core::Orchestrator>(rig.cluster.get(), options);
  auto spec = core::ParsePipelineConfigText(R"CFG({
    "name": ")CFG" + name + R"CFG(",
    "source": { "fps": )CFG" + std::to_string(fps) + R"CFG(, "width": 64, "height": 48 },
    "modules": [
      { "name": "cam", "type": "source", "next_module": ["m"] },
      { "name": "m", "signal_source": true,
        "code": "
          var counter = 0;
          function event_received(msg) { counter = counter + 1; }" }
    ]
  })CFG",
                                            core::MapResolver({}));
  EXPECT_TRUE(spec.ok()) << spec.status().ToString();
  core::Orchestrator::DeployArgs args;
  args.workload = apps::fitness::Workout();
  args.seed = TestSeed();
  auto deployment =
      rig.orchestrator->Deploy(std::move(*spec), std::move(args));
  EXPECT_TRUE(deployment.ok()) << deployment.status().ToString();
  rig.pipeline = *deployment;
  rig.manager = std::make_unique<lifecycle::HibernationManager>(
      rig.orchestrator.get(), lifecycle_options);
  return rig;
}

TEST(Hibernation, IdleDetectionHibernatesAndReleasesResources) {
  lifecycle::HibernationOptions options;
  options.idle_window = Duration::Seconds(3);
  options.check_interval = Duration::Millis(500);
  auto rig = MakeRig("idle_test", 5, options);
  rig.manager->Start();
  rig.pipeline->Start();
  rig.orchestrator->RunFor(Duration::Seconds(5));
  ASSERT_GT(rig.pipeline->metrics().frames_completed(), 10u);
  const size_t resident_running =
      lifecycle::HibernationManager::ResidentScriptBytes(*rig.pipeline);

  // Stop the camera: no more progress → the idle loop must hibernate.
  rig.pipeline->Stop();
  rig.orchestrator->RunFor(Duration::Seconds(8));
  EXPECT_TRUE(rig.pipeline->hibernated());
  EXPECT_EQ(rig.orchestrator->hibernated_count(), 1u);
  EXPECT_EQ(rig.orchestrator->hibernations(), 1u);
  EXPECT_EQ(rig.manager->stats().hibernations, 1u);

  // The snapshot was taken before release.
  ASSERT_EQ(rig.pipeline->checkpoints().count("m"), 1u);

  // Resource release: no live modules, retired contexts drained (the
  // run went well past the 2 s drain window), script heap at zero.
  EXPECT_TRUE(rig.pipeline->modules().empty());
  EXPECT_EQ(rig.pipeline->retired_module_count(), 0u);
  EXPECT_EQ(lifecycle::HibernationManager::ResidentScriptBytes(
                *rig.pipeline),
            0u);
  EXPECT_GT(resident_running, 0u);
  EXPECT_LT(lifecycle::HibernationManager::ResidentScriptBytes(*rig.pipeline),
            resident_running / 2);
  // Exclusive frame stores cleared.
  const std::string device = rig.pipeline->plan().module_device.at("m");
  EXPECT_EQ(rig.orchestrator->store(device).size(), 0u);
  // Start() on a hibernated pipeline is a no-op — only a wake revives.
  rig.pipeline->Start();
  EXPECT_FALSE(rig.pipeline->camera().running());
  ExpectInvariantsHold(*rig.orchestrator);
}

TEST(Hibernation, StateSurvivesHibernateAndWake) {
  lifecycle::HibernationOptions options;
  options.auto_hibernate = false;
  auto rig = MakeRig("stateful", 5, options);
  rig.manager->Start();
  rig.pipeline->Start();
  rig.orchestrator->RunFor(Duration::Seconds(5));

  core::ModuleRuntime* module = rig.pipeline->FindModule("m");
  ASSERT_NE(module, nullptr);
  const double counter_before =
      module->context().GetGlobal("counter").AsDouble();
  ASSERT_GT(counter_before, 10);
  const uint64_t completed_before =
      rig.pipeline->metrics().frames_completed();

  ASSERT_TRUE(rig.manager->Hibernate(rig.pipeline).ok());
  EXPECT_TRUE(rig.pipeline->hibernated());
  // Sleep for a while: nothing moves.
  rig.orchestrator->RunFor(Duration::Seconds(5));
  EXPECT_EQ(rig.pipeline->metrics().frames_completed(), completed_before);

  Status wake_status(StatusCode::kInternal, "pending");
  rig.manager->RequestWake("stateful",
                           [&](const Status& s) { wake_status = s; });
  rig.orchestrator->RunFor(Duration::Seconds(5));
  EXPECT_TRUE(wake_status.ok()) << wake_status.ToString();
  EXPECT_FALSE(rig.pipeline->hibernated());
  EXPECT_EQ(rig.orchestrator->wakes(), 1u);
  EXPECT_EQ(rig.manager->stats().wakes, 1u);

  // State continuity: the counter resumed from its pre-sleep value
  // (restore) and kept growing (frames flow again).
  module = rig.pipeline->FindModule("m");
  ASSERT_NE(module, nullptr);
  const double counter_after =
      module->context().GetGlobal("counter").AsDouble();
  EXPECT_GE(counter_after, counter_before);
  EXPECT_GT(rig.pipeline->metrics().frames_completed(), completed_before);
  EXPECT_EQ(module->stats().script_errors, 0u);

  // The wake was a warm start: the pool context prewarmed at
  // hibernate time was consumed.
  EXPECT_GE(rig.manager->pool().stats().hits, 1u);

  // Credit conservation survived the cycle.
  ExpectInvariantsHold(*rig.orchestrator);
}

TEST(Hibernation, DoorbellFrameWakesThePipeline) {
  lifecycle::HibernationOptions options;
  options.auto_hibernate = false;
  auto rig = MakeRig("doorbell", 5, options);
  rig.manager->Start();
  rig.pipeline->Start();
  rig.orchestrator->RunFor(Duration::Seconds(3));
  ASSERT_TRUE(rig.manager->Hibernate(rig.pipeline).ok());
  rig.orchestrator->RunFor(Duration::Seconds(2));

  // First arriving frame: push a frame message at the module's old
  // address (e.g. a motion sensor edge re-entering the data plane).
  auto address = rig.pipeline->ModuleAddress("m");
  ASSERT_TRUE(address.ok());
  net::Message frame("frame", json::Value::MakeObject());
  ASSERT_TRUE(rig.orchestrator->fabric()
                  .Push(rig.pipeline->source_device(), *address,
                        std::move(frame))
                  .ok());
  rig.orchestrator->RunFor(Duration::Seconds(3));

  EXPECT_FALSE(rig.pipeline->hibernated());
  EXPECT_EQ(rig.manager->stats().doorbell_wakes, 1u);
  EXPECT_EQ(rig.manager->stats().wakes, 1u);
  EXPECT_GT(rig.pipeline->metrics().frames_completed(), 0u);
  ExpectInvariantsHold(*rig.orchestrator);
}

TEST(Hibernation, HibernateDuringInflightHandlerIsGraceful) {
  lifecycle::HibernationOptions options;
  options.auto_hibernate = false;
  // 20 fps with a slow handler: hibernating at an arbitrary instant
  // almost certainly catches a handler mid-flight.
  auto rig = MakeRig("inflight", 20, options);
  rig.manager->Start();
  rig.pipeline->Start();
  rig.orchestrator->RunFor(Duration::Millis(3141.5));  // mid-frame

  ASSERT_TRUE(rig.manager->Hibernate(rig.pipeline).ok());
  EXPECT_TRUE(rig.pipeline->hibernated());
  // Let the retired runtime finish its in-flight handler and drain.
  rig.orchestrator->RunFor(Duration::Seconds(5));
  EXPECT_EQ(rig.pipeline->retired_module_count(), 0u);

  Status wake_status(StatusCode::kInternal, "pending");
  rig.manager->RequestWake("inflight",
                           [&](const Status& s) { wake_status = s; });
  rig.orchestrator->RunFor(Duration::Seconds(3));
  EXPECT_TRUE(wake_status.ok()) << wake_status.ToString();
  EXPECT_FALSE(rig.pipeline->hibernated());

  ExpectInvariantsHold(*rig.orchestrator);
}

TEST(Hibernation, WakeRacingDeviceFailureStaysHibernatedThenRetries) {
  lifecycle::HibernationOptions options;
  options.auto_hibernate = false;
  auto rig = MakeRig("racing", 5, options);
  rig.manager->Start();
  rig.pipeline->Start();
  rig.orchestrator->RunFor(Duration::Seconds(3));
  ASSERT_TRUE(rig.manager->Hibernate(rig.pipeline).ok());

  // Kill the module's device while asleep.
  const std::string device = rig.pipeline->plan().module_device.at("m");
  sim::FaultInjector injector(&rig.cluster->simulator(),
                              &rig.cluster->network(), TestSeed());
  rig.orchestrator->RegisterDevicesForFaults(injector);
  ASSERT_TRUE(injector
                  .ScheduleDeviceCrash(device,
                                       rig.cluster->Now() +
                                           Duration::Millis(100),
                                       Duration::Zero())
                  .ok());
  rig.orchestrator->RunFor(Duration::Seconds(1));

  // The wake must fail its preflight and leave the pipeline asleep.
  Status wake_status(StatusCode::kInternal, "pending");
  rig.manager->RequestWake("racing",
                           [&](const Status& s) { wake_status = s; });
  rig.orchestrator->RunFor(Duration::Seconds(2));
  EXPECT_FALSE(wake_status.ok());
  EXPECT_EQ(wake_status.code(), StatusCode::kFailedPrecondition)
      << wake_status.ToString();
  EXPECT_TRUE(rig.pipeline->hibernated());
  EXPECT_EQ(rig.manager->stats().failed_wakes, 1u);

  // Device comes back → the retried wake succeeds.
  ASSERT_TRUE(injector
                  .ScheduleDeviceReboot(device, rig.cluster->Now() +
                                                    Duration::Millis(100))
                  .ok());
  rig.orchestrator->RunFor(Duration::Seconds(1));
  rig.manager->RequestWake("racing",
                           [&](const Status& s) { wake_status = s; });
  rig.orchestrator->RunFor(Duration::Seconds(3));
  EXPECT_TRUE(wake_status.ok()) << wake_status.ToString();
  EXPECT_FALSE(rig.pipeline->hibernated());
  EXPECT_EQ(rig.manager->stats().wakes, 1u);
  ExpectInvariantsHold(*rig.orchestrator);
}

TEST(Hibernation, UndeployAfterHibernateLeavesNothingResident) {
  lifecycle::HibernationOptions options;
  options.auto_hibernate = false;
  auto rig = MakeRig("stranding", 5, options);
  rig.manager->Start();
  rig.pipeline->Start();
  rig.orchestrator->RunFor(Duration::Seconds(3));

  ASSERT_TRUE(rig.manager->Hibernate(rig.pipeline).ok());
  const std::string device = rig.pipeline->plan().module_device.at("m");
  auto module_address = rig.pipeline->ModuleAddress("m");
  ASSERT_TRUE(module_address.ok());
  core::PipelineDeployment* pipeline = rig.pipeline;

  ASSERT_TRUE(rig.orchestrator->Undeploy(pipeline).ok());
  EXPECT_EQ(rig.orchestrator->pipelines().size(), 0u);
  EXPECT_EQ(rig.orchestrator->undeployed_count(), 1u);
  // Past the drain window, the undeployed pipeline itself reclaims.
  rig.orchestrator->RunFor(Duration::Seconds(6));
  EXPECT_EQ(rig.orchestrator->undeployed_count(), 0u);
  // No stranded frame-store slots or endpoints.
  EXPECT_EQ(rig.orchestrator->store(device).size(), 0u);
  EXPECT_FALSE(rig.orchestrator->fabric().IsBound(*module_address));
  ExpectInvariantsHold(*rig.orchestrator);
}

TEST(Hibernation, SleepingPipelineKeepsItsConfiguredAddresses) {
  // A hibernated pipeline has released its endpoints but wakes at the
  // same addresses, so a second pipeline from the same template must
  // not take them. Undeploying either one then leaves the other's
  // endpoints alone.
  for (const bool undeploy_sleeper : {true, false}) {
    SCOPED_TRACE(undeploy_sleeper ? "undeploy the woken one"
                                  : "undeploy the newcomer");
    auto cluster = sim::MakeHomeTestbed(TestSeed());
    core::OrchestratorOptions options;
    options.seed = TestSeed();
    core::Orchestrator orchestrator(cluster.get(), options);
    auto deploy = [&](const std::string& name) {
      auto spec = apps::fitness::Spec();
      EXPECT_TRUE(spec.ok()) << spec.status().ToString();
      spec->name = name;
      core::Orchestrator::DeployArgs args;
      args.workload = apps::fitness::Workout();
      args.seed = TestSeed();
      auto deployment = orchestrator.Deploy(std::move(*spec), std::move(args));
      EXPECT_TRUE(deployment.ok()) << deployment.status().ToString();
      return deployment.ok() ? *deployment : nullptr;
    };
    const std::string pose = "pose_detection_module";

    core::PipelineDeployment* a = deploy("a");
    ASSERT_NE(a, nullptr);
    const net::Address configured = *a->ModuleAddress(pose);
    ASSERT_EQ(configured.port, 5861);
    a->Start();
    orchestrator.RunFor(Duration::Seconds(3));
    ASSERT_TRUE(orchestrator.HibernatePipeline(a).ok());
    EXPECT_FALSE(orchestrator.fabric().IsBound(configured));

    core::PipelineDeployment* b = deploy("b");
    ASSERT_NE(b, nullptr);
    for (const core::ModuleSpec& m : a->spec().modules) {
      if (m.type != core::ModuleType::kScript) continue;
      EXPECT_NE(a->ModuleAddress(m.name)->ToString(),
                b->ModuleAddress(m.name)->ToString());
    }
    b->Start();
    ASSERT_TRUE(orchestrator.WakePipeline(a).ok());
    EXPECT_EQ(a->ModuleAddress(pose)->ToString(), configured.ToString());
    orchestrator.RunFor(Duration::Seconds(3));

    core::PipelineDeployment* gone = undeploy_sleeper ? a : b;
    core::PipelineDeployment* kept = undeploy_sleeper ? b : a;
    const uint64_t before = kept->metrics().frames_completed();
    EXPECT_GT(before, 10u);
    ASSERT_TRUE(orchestrator.Undeploy(gone).ok());
    orchestrator.RunFor(Duration::Seconds(3));
    EXPECT_GT(kept->metrics().frames_completed(), before + 10);
    EXPECT_TRUE(orchestrator.fabric().IsBound(*kept->ModuleAddress(pose)));

    ExpectInvariantsHold(orchestrator);
  }
}

// ------------------------------------------------ burst admission

TEST(WakeupAdmission, BurstRespectsPriorityConcurrencyAndDeadlines) {
  sim::Simulator sim;
  serving::WakeupAdmissionOptions options;
  options.total_concurrency = 4;
  options.class_concurrency = {4, 2, 1};
  options.wake_cost = Duration::Millis(25);
  std::vector<int> completion_order;

  auto run_burst = [&](serving::WakeupAdmission& admission) {
    // 100 wakes in one instant: 20 interactive, 40 normal (tight
    // deadlines — some must shed), 40 background.
    for (int i = 0; i < 100; ++i) {
      const int cls = i < 20 ? 0 : (i < 60 ? 1 : 2);
      const auto deadline =
          sim.Now() + (cls == 1 ? Duration::Millis(120)
                                : Duration::Seconds(30));
      admission.Submit("wake" + std::to_string(i), cls, deadline,
                       [&completion_order, i]() -> Status {
                         completion_order.push_back(i);
                         return Status::Ok();
                       });
    }
    sim.RunUntil(sim.Now() + Duration::Seconds(10));
  };

  serving::WakeupAdmission admission(&sim, options);
  run_burst(admission);

  const serving::WakeupStats& stats = admission.stats();
  EXPECT_EQ(stats.submitted, 100u);
  // Interactive NEVER sheds, all 20 complete — and before any other
  // class gets a slot (strict priority, shared total_concurrency).
  EXPECT_EQ(stats.admitted_per_class[0], 20u);
  EXPECT_EQ(stats.shed_per_class[0], 0u);
  for (int i = 0; i < 20; ++i) {
    EXPECT_LT(completion_order[i], 20) << "non-interactive wake beat "
                                          "an interactive one";
  }
  // Tight-deadline normal wakes shed once the pipe saturates.
  EXPECT_GT(stats.shed_per_class[1], 0u);
  EXPECT_EQ(stats.completed + stats.shed_deadline + stats.failed, 100u);
  EXPECT_LE(stats.peak_inflight, options.total_concurrency);
  EXPECT_GT(admission.WakeLatencyP95Ms(), 0.0);
}

TEST(WakeupAdmission, BurstIsDeterministic) {
  auto run = [] {
    sim::Simulator sim;
    serving::WakeupAdmissionOptions options;
    options.total_concurrency = 3;
    serving::WakeupAdmission admission(&sim, options);
    std::vector<std::string> order;
    for (int i = 0; i < 30; ++i) {
      admission.Submit("w" + std::to_string(i), i % 3,
                       sim.Now() + Duration::Millis(200 + 10 * (i % 7)),
                       [&order, i]() -> Status {
                         order.push_back("w" + std::to_string(i));
                         return Status::Ok();
                       });
    }
    sim.RunUntil(sim.Now() + Duration::Seconds(5));
    return order;
  };
  EXPECT_EQ(run(), run());
}

TEST(Hibernation, BurstWakeAdmitsInteractiveFirst) {
  // Six pipelines on one home, one interactive. Hibernate all, ring
  // all wakes in the same instant: every wake completes, zero sheds
  // of the interactive class, and the interactive pipeline wakes no
  // later than any other.
  lifecycle::HibernationOptions options;
  options.auto_hibernate = false;
  options.admission.total_concurrency = 2;
  options.admission.class_concurrency = {2, 1, 1};

  auto cluster = sim::MakeHomeTestbed(TestSeed());
  core::OrchestratorOptions orchestrator_options;
  orchestrator_options.seed = TestSeed();
  core::Orchestrator orchestrator(cluster.get(), orchestrator_options);
  std::vector<core::PipelineDeployment*> pipelines;
  for (int i = 0; i < 6; ++i) {
    const std::string name = "burst" + std::to_string(i);
    const std::string priority = i == 0 ? "interactive" : "background";
    auto spec = core::ParsePipelineConfigText(R"CFG({
      "name": ")CFG" + name + R"CFG(",
      "priority": ")CFG" + priority + R"CFG(",
      "source": { "fps": 2, "width": 64, "height": 48 },
      "modules": [
        { "name": "cam", "type": "source", "next_module": ["m"] },
        { "name": "m", "signal_source": true,
          "code": "function event_received(msg) {}" }
      ]
    })CFG",
                                              core::MapResolver({}));
    ASSERT_TRUE(spec.ok()) << spec.status().ToString();
    core::Orchestrator::DeployArgs args;
    args.workload = apps::fitness::Workout();
    args.seed = TestSeed() + i;
    auto deployment = orchestrator.Deploy(std::move(*spec), std::move(args));
    ASSERT_TRUE(deployment.ok()) << deployment.status().ToString();
    pipelines.push_back(*deployment);
  }
  lifecycle::HibernationManager manager(&orchestrator, options);
  manager.Start();
  orchestrator.StartAll();
  orchestrator.RunFor(Duration::Seconds(2));
  for (core::PipelineDeployment* pipeline : pipelines) {
    ASSERT_TRUE(manager.Hibernate(pipeline).ok());
  }
  EXPECT_EQ(orchestrator.hibernated_count(), 6u);

  std::vector<std::string> wake_order;
  for (core::PipelineDeployment* pipeline : pipelines) {
    const std::string name = pipeline->spec().name;
    manager.RequestWake(name, [&wake_order, name](const Status& s) {
      if (s.ok()) wake_order.push_back(name);
    });
  }
  orchestrator.RunFor(Duration::Seconds(10));

  EXPECT_EQ(orchestrator.hibernated_count(), 0u);
  EXPECT_EQ(manager.stats().wakes, 6u);
  EXPECT_EQ(manager.admission().stats().shed_per_class[0], 0u);
  ASSERT_EQ(wake_order.size(), 6u);
  EXPECT_EQ(wake_order.front(), "burst0");  // interactive first
  EXPECT_LE(manager.admission().stats().peak_inflight, 2);
  ExpectInvariantsHold(orchestrator);
}

// -------------------------------------- chaos + invariants ride-along

TEST(Hibernation, SurvivesDeviceChaosWithInvariantsIntact) {
  lifecycle::HibernationOptions options;
  options.idle_window = Duration::Seconds(2);
  options.check_interval = Duration::Millis(500);
  auto rig = MakeRig("chaotic", 5, options);

  sim::FaultInjector injector(&rig.cluster->simulator(),
                              &rig.cluster->network(), TestSeed());
  rig.orchestrator->RegisterDevicesForFaults(injector);
  core::InvariantChecker checker(rig.orchestrator.get(),
                                 Duration::Millis(100));
  checker.Start();
  rig.manager->Start();
  rig.pipeline->Start();
  rig.orchestrator->RunFor(Duration::Seconds(3));

  // Idle → hibernate; then crash + reboot a non-source device while
  // asleep; then wake and keep running. Invariants (credit
  // conservation, split-brain exclusion) must hold throughout.
  rig.pipeline->Stop();
  rig.orchestrator->RunFor(Duration::Seconds(5));
  ASSERT_TRUE(rig.pipeline->hibernated());
  std::string victim;
  for (sim::Device* device : rig.cluster->devices()) {
    if (device->name() != rig.pipeline->source_device()) {
      victim = device->name();
      break;
    }
  }
  ASSERT_FALSE(victim.empty());
  ASSERT_TRUE(injector
                  .ScheduleDeviceCrash(victim,
                                       rig.cluster->Now() +
                                           Duration::Millis(200),
                                       Duration::Seconds(1))
                  .ok());
  rig.orchestrator->RunFor(Duration::Seconds(4));

  Status wake_status(StatusCode::kInternal, "pending");
  rig.manager->RequestWake("chaotic",
                           [&](const Status& s) { wake_status = s; });
  rig.orchestrator->RunFor(Duration::Seconds(5));
  EXPECT_TRUE(wake_status.ok()) << wake_status.ToString();
  EXPECT_FALSE(rig.pipeline->hibernated());
  EXPECT_GT(rig.pipeline->metrics().frames_completed(), 0u);
  EXPECT_EQ(checker.total_violations(), 0u) << checker.Report();
  ExpectInvariantsHold(*rig.orchestrator);
}

// ------------------------------------------------ fleet determinism

struct HomeFingerprint {
  uint64_t completed = 0;
  uint64_t hibernations = 0;
  uint64_t wakes = 0;
  double counter = 0;
};

HomeFingerprint RunFleetWithHibernation(int homes, int probe_home) {
  fleet::FleetOptions fleet_options;
  fleet_options.homes = homes;
  fleet_options.seed = TestSeed();
  fleet::Fleet fleet(fleet_options);
  std::vector<std::unique_ptr<lifecycle::HibernationManager>> managers;
  for (int id = 0; id < fleet.size(); ++id) {
    fleet::Home& home = fleet.home(id);
    auto spec = core::ParsePipelineConfigText(R"CFG({
      "name": "fleet_pipe",
      "source": { "fps": 5, "width": 64, "height": 48 },
      "modules": [
        { "name": "cam", "type": "source", "next_module": ["m"] },
        { "name": "m", "signal_source": true,
          "code": "
            var counter = 0;
            function event_received(msg) { counter = counter + 1; }" }
      ]
    })CFG",
                                              core::MapResolver({}));
    EXPECT_TRUE(spec.ok());
    core::Orchestrator::DeployArgs args;
    args.workload = apps::fitness::Workout();
    auto deployment =
        home.orchestrator->Deploy(std::move(*spec), std::move(args));
    EXPECT_TRUE(deployment.ok()) << deployment.status().ToString();
    home.pipelines.push_back(*deployment);
    lifecycle::HibernationOptions lifecycle_options;
    lifecycle_options.idle_window = Duration::Seconds(2);
    lifecycle_options.check_interval = Duration::Millis(500);
    managers.push_back(std::make_unique<lifecycle::HibernationManager>(
        home.orchestrator.get(), lifecycle_options));
    managers.back()->Start();
  }
  fleet.StartAll();
  fleet.RunFor(Duration::Seconds(3));
  // Everyone goes quiet → hibernates; then everyone wakes.
  for (int id = 0; id < fleet.size(); ++id) {
    fleet.home(id).pipelines[0]->Stop();
  }
  fleet.RunFor(Duration::Seconds(5));
  for (int id = 0; id < fleet.size(); ++id) {
    managers[id]->RequestWake("fleet_pipe");
  }
  fleet.RunFor(Duration::Seconds(4));
  for (int id = 0; id < fleet.size(); ++id) {
    ExpectInvariantsHold(*fleet.home(id).orchestrator);
  }

  fleet::Home& probe = fleet.home(probe_home);
  HomeFingerprint fp;
  fp.completed = probe.pipelines[0]->metrics().frames_completed();
  fp.hibernations = probe.orchestrator->hibernations();
  fp.wakes = probe.orchestrator->wakes();
  core::ModuleRuntime* module = probe.pipelines[0]->FindModule("m");
  if (module != nullptr) {
    fp.counter = module->context().GetGlobal("counter").AsDouble();
  }
  return fp;
}

TEST(Hibernation, FleetSizeDoesNotPerturbHibernatingHomes) {
  const HomeFingerprint in3 = RunFleetWithHibernation(3, 1);
  const HomeFingerprint in5 = RunFleetWithHibernation(5, 1);
  EXPECT_EQ(in3.hibernations, 1u);
  EXPECT_EQ(in3.wakes, 1u);
  EXPECT_EQ(in3.completed, in5.completed);
  EXPECT_EQ(in3.hibernations, in5.hibernations);
  EXPECT_EQ(in3.wakes, in5.wakes);
  EXPECT_EQ(in3.counter, in5.counter);
}

// ------------------------------------- monitor and checkpoint store

TEST(Hibernation, MonitorCountsHibernatedPipelines) {
  lifecycle::HibernationOptions options;
  options.auto_hibernate = false;
  auto rig = MakeRig("monitored", 5, options);
  core::PipelineMonitor monitor(rig.orchestrator.get(),
                                Duration::Millis(500));
  monitor.Start();
  rig.manager->Start();
  rig.pipeline->Start();
  rig.orchestrator->RunFor(Duration::Seconds(2));
  ASSERT_TRUE(rig.manager->Hibernate(rig.pipeline).ok());
  rig.orchestrator->RunFor(Duration::Seconds(2));

  const core::MonitorSample* latest = monitor.latest();
  ASSERT_NE(latest, nullptr);
  EXPECT_EQ(latest->Number("hibernated_pipelines"), 1.0);
  EXPECT_EQ(latest->Number("hibernations"), 1.0);
  // The sample's JSON, which a fleet controller exports per home,
  // carries the lifecycle readings for fleet dashboards.
  const json::Value doc = latest->ToJson();
  const json::Value* hibernated = doc.Find("hibernated_pipelines");
  ASSERT_NE(hibernated, nullptr);
  EXPECT_EQ(hibernated->AsArray().at(0).GetDouble("value"), 1.0);
  ExpectInvariantsHold(*rig.orchestrator);
}

TEST(Hibernation, SleepSnapshotSupersedesTheShippedCheckpoint) {
  lifecycle::HibernationOptions options;
  options.auto_hibernate = false;
  auto rig = MakeRig("healed", 5, options);
  core::SelfHealingOptions healing;
  healing.checkpoint_interval = Duration::Seconds(1);
  core::SelfHealer healer(rig.orchestrator.get(), healing);
  ASSERT_TRUE(healer.Start().ok());
  rig.manager->Start();
  rig.pipeline->Start();
  // Checkpoints ship every second: stop just past the t = 3 s one,
  // with its transfer still on the wire.
  rig.orchestrator->RunFor(Duration::Seconds(3) + Duration::Micros(1));
  ASSERT_EQ(rig.pipeline->checkpoints().count("m"), 1u);
  const TimePoint shipped_at = rig.pipeline->checkpoints().at("m").taken_at;
  const core::SelfHealingStats& stats = healer.stats();
  ASSERT_EQ(stats.checkpoints_shipped,
            stats.checkpoints_stored + stats.checkpoints_rejected_stale + 1);

  core::ModuleRuntime* module = rig.pipeline->FindModule("m");
  const double counter = module->context().GetGlobal("counter").AsDouble();
  ASSERT_TRUE(rig.manager->Hibernate(rig.pipeline).ok());

  // The pipeline's one store holds the sleep snapshot, not the older
  // shipped one: its counter matches the moment of hibernation.
  const core::ModuleCheckpoint& stored = rig.pipeline->checkpoints().at("m");
  EXPECT_GT(stored.taken_at, shipped_at);
  const json::Value* stored_counter = stored.state.Find("counter");
  ASSERT_NE(stored_counter, nullptr);
  EXPECT_EQ(stored_counter->AsDouble(), counter);

  // The snapshot shipped before the sleep lands after it, an older
  // capture at the same epoch: the store refuses it.
  const uint64_t stored_before = stats.checkpoints_stored;
  const uint64_t rejected_before = stats.checkpoints_rejected_stale;
  rig.orchestrator->RunFor(Duration::Seconds(3));
  EXPECT_EQ(stats.checkpoints_stored, stored_before);
  EXPECT_EQ(stats.checkpoints_rejected_stale, rejected_before + 1);
  EXPECT_EQ(rig.pipeline->checkpoints().at("m").taken_at, stored.taken_at);
  ExpectInvariantsHold(*rig.orchestrator);
}

// A device failure right after a wake, before any checkpoint has
// shipped since: the module resumes from the sleep snapshot, which the
// wake moved to the new epoch, instead of starting clean.
TEST(Hibernation, CrashAfterWakeRestoresTheSleepSnapshot) {
  auto cluster = sim::MakeExtendedTestbed(TestSeed());
  core::OrchestratorOptions orchestrator_options;
  orchestrator_options.seed = TestSeed();
  core::Orchestrator orchestrator(cluster.get(), orchestrator_options);
  // A counter co-located with the pose service on the desktop.
  auto spec = core::ParsePipelineConfigText(R"CFG({
    "name": "wake_then_crash",
    "source": { "fps": 20, "width": 64, "height": 48 },
    "modules": [
      { "name": "cam", "type": "source", "next_module": ["counter"] },
      { "name": "counter", "service": ["pose_detector"],
        "signal_source": true,
        "code": "var count = 0; function event_received(m) { try { call_service('pose_detector', { frame_id: m.frame_id }); } catch (e) {} count = count + 1; }" }
    ]
  })CFG",
                                            core::MapResolver({}));
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  core::Orchestrator::DeployArgs args;
  args.workload = apps::fitness::Workout();
  args.seed = TestSeed();
  auto deployment = orchestrator.Deploy(std::move(*spec), std::move(args));
  ASSERT_TRUE(deployment.ok()) << deployment.status().ToString();
  core::PipelineDeployment& pipeline = **deployment;
  ASSERT_EQ(pipeline.plan().module_device.at("counter"), "desktop");
  auto count = [&pipeline] {
    return pipeline.FindModule("counter")->context().GetGlobal("count")
        .AsDouble();
  };

  sim::FaultInjector injector(&cluster->simulator(), &cluster->network(),
                              TestSeed());
  orchestrator.RegisterReplicasForFaults(injector);
  orchestrator.RegisterDevicesForFaults(injector);
  // No checkpoint ships within the scenario: the sleep snapshot is the
  // only one the store can hold.
  core::SelfHealingOptions healing;
  healing.detector.heartbeat_interval = Duration::Millis(100);
  healing.detector.suspect_after = Duration::Millis(250);
  healing.detector.suspicion_window = Duration::Millis(400);
  healing.detector.controller_device = "tv";
  healing.checkpoint_interval = Duration::Seconds(60);
  core::SelfHealer healer(&orchestrator, healing);
  ASSERT_TRUE(healer.Start().ok());
  lifecycle::HibernationOptions options;
  options.auto_hibernate = false;
  lifecycle::HibernationManager manager(&orchestrator, options);
  manager.Start();

  pipeline.Start();
  orchestrator.RunFor(Duration::Seconds(3));
  const double at_sleep = count();
  ASSERT_GT(at_sleep, 20);
  ASSERT_TRUE(manager.Hibernate(&pipeline).ok());
  orchestrator.RunFor(Duration::Seconds(1));

  double at_wake = -1;
  Status woke(StatusCode::kInternal, "pending");
  manager.RequestWake("wake_then_crash", [&](const Status& s) {
    woke = s;
    if (s.ok()) at_wake = count();
  });
  orchestrator.RunFor(Duration::Millis(200));
  ASSERT_TRUE(woke.ok()) << woke.ToString();
  EXPECT_EQ(at_wake, at_sleep);
  EXPECT_EQ(pipeline.module_epoch("counter"), 2u);
  EXPECT_EQ(pipeline.checkpoints().at("counter").epoch, 2u);

  const core::PipelineMetrics& metrics = pipeline.metrics();
  const uint64_t restored = metrics.checkpoints_restored();
  const uint64_t rejected = metrics.checkpoints_rejected_stale();
  ASSERT_TRUE(injector
                  .ScheduleDeviceCrash("desktop",
                                       cluster->Now() + Duration::Millis(100),
                                       Duration::Zero())
                  .ok());
  orchestrator.RunFor(Duration::Seconds(2));

  EXPECT_EQ(healer.stats().recoveries, 1u);
  EXPECT_NE(pipeline.plan().module_device.at("counter"), "desktop");
  EXPECT_EQ(pipeline.module_epoch("counter"), 3u);
  EXPECT_EQ(metrics.checkpoints_restored(), restored + 1);
  EXPECT_EQ(metrics.checkpoints_rejected_stale(), rejected);
  EXPECT_GE(count(), at_wake);
  ExpectInvariantsHold(orchestrator);
}

}  // namespace
}  // namespace vp
