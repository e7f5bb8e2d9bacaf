// Chaos soak: randomized partitions, crashes, wedges and adversarial
// link behavior against a self-healing deployment, with the
// InvariantChecker asserting the §2.3 credit invariant, effectively-
// once frame accounting, split-brain exclusion and zombie fencing the
// whole way through.
//
// Seed-sweepable: VP_TEST_SEED varies the fault timeline (CI's
// chaos-soak job runs 1..3; the acceptance soak runs 5 seeds).
// VP_CHAOS_HORIZON_S shortens/stretches the soak (default 40 s).
#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>

#include "apps/fitness.hpp"
#include "core/invariants.hpp"
#include "core/monitor.hpp"
#include "core/orchestrator.hpp"
#include "core/self_healing.hpp"
#include "json/write.hpp"
#include "lifecycle/hibernation.hpp"
#include "sim/chaos.hpp"
#include "sim/cluster.hpp"
#include "sim/fault_injector.hpp"

namespace vp {
namespace {

uint64_t TestSeed() {
  const char* env = std::getenv("VP_TEST_SEED");
  return env != nullptr ? std::strtoull(env, nullptr, 10) : 42;
}

double ChaosHorizonSeconds() {
  const char* env = std::getenv("VP_CHAOS_HORIZON_S");
  return env != nullptr ? std::strtod(env, nullptr) : 40.0;
}

core::SelfHealingOptions FastHealing() {
  core::SelfHealingOptions options;
  options.detector.heartbeat_interval = Duration::Millis(100);
  options.detector.suspect_after = Duration::Millis(250);
  options.detector.suspicion_window = Duration::Millis(400);
  options.checkpoint_interval = Duration::Seconds(1);
  // The controller is the single point of coordination; pin it to the
  // TV, which the chaos schedules protect.
  options.detector.controller_device = "tv";
  return options;
}

struct ChaosRig {
  std::unique_ptr<sim::Cluster> cluster;
  std::unique_ptr<core::Orchestrator> orchestrator;
  std::unique_ptr<sim::FaultInjector> injector;
  std::unique_ptr<core::SelfHealer> healer;
  std::unique_ptr<core::InvariantChecker> checker;
  core::PipelineDeployment* pipeline = nullptr;
};

ChaosRig MakeRig(core::OrchestratorOptions options = {},
                 core::SelfHealingOptions healing = FastHealing()) {
  ChaosRig rig;
  rig.cluster = sim::MakeExtendedTestbed(TestSeed());
  options.seed = TestSeed();
  rig.orchestrator =
      std::make_unique<core::Orchestrator>(rig.cluster.get(), options);
  auto spec = apps::fitness::Spec();
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
  rig.checker =
      std::make_unique<core::InvariantChecker>(rig.orchestrator.get());
  rig.checker->set_detector(rig.healer->detector());
  return rig;
}

/// First script module of the rig's pipeline (checkpointable).
std::string FirstScriptModule(const ChaosRig& rig) {
  for (const core::ModuleSpec& m : rig.pipeline->spec().modules) {
    if (m.type == core::ModuleType::kScript) return m.name;
  }
  return "";
}

// ------------------------------------------------------------ the soak

TEST(Chaos, RandomizedSoakHoldsInvariants) {
  auto rig = MakeRig();
  rig.pipeline->Start();
  rig.checker->Start();

  sim::ChaosOptions chaos_options;
  chaos_options.horizon = Duration::Seconds(ChaosHorizonSeconds());
  chaos_options.quiet_tail = Duration::Seconds(10);
  // The controller must stay able to coordinate — protect it from
  // crashes and keep it on the majority side of every partition. The
  // phone stays too: it is the camera (pipelines pause without it,
  // which is legal but makes the soak vacuous).
  chaos_options.protected_devices = {"tv", "phone"};
  sim::ChaosSchedule chaos(&rig.cluster->simulator(), rig.injector.get(),
                           TestSeed(), chaos_options);
  ASSERT_TRUE(chaos.Arm().ok());
  ASSERT_GT(chaos.episodes().size(), 3u)
      << "horizon too short to exercise anything:\n" << chaos.Describe();

  rig.orchestrator->RunFor(chaos_options.horizon);

  rig.checker->CheckNow();
  const Status converged = rig.checker->CheckConvergence();
  EXPECT_TRUE(converged.ok())
      << converged.ToString() << "\ntimeline:\n" << chaos.Describe();
  EXPECT_EQ(rig.checker->violations().size(), 0u)
      << rig.checker->Report() << "timeline:\n" << chaos.Describe();
  EXPECT_GT(rig.checker->checks_run(), 100u);
  // The pipeline made progress despite the weather.
  EXPECT_GT(rig.pipeline->metrics().frames_completed(), 50u);
}

TEST(Chaos, HibernationChurnDuringSoakHoldsInvariants) {
  // Same randomized weather as the main soak, with the pipeline cycled
  // through hibernate/wake the whole time: checkpoints, context
  // teardown, doorbell bindings and admission-queued rehydration all
  // race the partitions and crashes, and the invariants must hold.
  auto rig = MakeRig();
  rig.pipeline->Start();
  rig.checker->Start();

  lifecycle::HibernationOptions lifecycle_options;
  lifecycle_options.auto_hibernate = false;  // churned explicitly below
  lifecycle::HibernationManager manager(rig.orchestrator.get(),
                                        lifecycle_options);

  sim::ChaosOptions chaos_options;
  chaos_options.horizon = Duration::Seconds(ChaosHorizonSeconds());
  chaos_options.quiet_tail = Duration::Seconds(10);
  chaos_options.protected_devices = {"tv", "phone"};
  sim::ChaosSchedule chaos(&rig.cluster->simulator(), rig.injector.get(),
                           TestSeed(), chaos_options);
  ASSERT_TRUE(chaos.Arm().ok());

  // Alternate hibernate/wake every 3 s until the quiet tail, then a
  // final wake so convergence is judged on an awake pipeline. Either
  // step may legitimately refuse mid-fault (wake in flight, module
  // device down) — the churn just tries again next cycle.
  sim::Simulator& simulator = rig.cluster->simulator();
  const std::string name = rig.pipeline->spec().name;
  const Duration churn_stop =
      chaos_options.horizon - Duration::Seconds(12);
  std::function<void(bool)> churn = [&](bool hibernate) {
    if (simulator.Now() - TimePoint() >= churn_stop) {
      manager.RequestWake(name);
      return;
    }
    if (hibernate) {
      (void)manager.Hibernate(rig.pipeline);
    } else {
      manager.RequestWake(name);
    }
    simulator.After(Duration::Seconds(3),
                    [&churn, hibernate] { churn(!hibernate); });
  };
  simulator.After(Duration::Seconds(3), [&churn] { churn(true); });

  rig.orchestrator->RunFor(chaos_options.horizon);

  rig.checker->CheckNow();
  const Status converged = rig.checker->CheckConvergence();
  EXPECT_TRUE(converged.ok())
      << converged.ToString() << "\ntimeline:\n" << chaos.Describe();
  EXPECT_EQ(rig.checker->violations().size(), 0u)
      << rig.checker->Report() << "timeline:\n" << chaos.Describe();
  EXPECT_GT(manager.stats().hibernations, 0u);
  EXPECT_GT(manager.stats().wakes, 0u);
  EXPECT_FALSE(rig.pipeline->hibernated());
  EXPECT_GT(rig.pipeline->metrics().frames_completed(), 50u);
}

// ------------------------------------------- split-brain and fencing

TEST(Chaos, PartitionedDeviceIsFencedOnHeal) {
  auto rig = MakeRig();
  rig.pipeline->Start();
  rig.checker->Start();

  // Isolate the desktop (which hosts the containerized services and
  // their co-located modules) from everyone else. It never crashes —
  // its runtimes keep executing into the void. The detector declares
  // it dead, recovery re-places its modules on survivors at a bumped
  // epoch, and at heal the stale incarnations must be fenced, not
  // allowed to double-serve.
  rig.injector->SchedulePartition({{"desktop"}, {"phone", "tv", "nuc"}},
                                  TimePoint() + Duration::Seconds(5),
                                  Duration::Seconds(3));
  rig.orchestrator->RunFor(Duration::Seconds(20));

  EXPECT_EQ(rig.injector->stats().partitions, 1u);
  EXPECT_EQ(rig.injector->stats().partition_heals, 1u);
  EXPECT_GE(rig.healer->stats().recoveries, 1u);
  // The desktop's stale runtimes were fenced at heal...
  EXPECT_GT(rig.pipeline->metrics().zombies_fenced(), 0u);
  // ...and never served a frame past their epoch.
  EXPECT_EQ(rig.pipeline->metrics().zombies_served(), 0u);
  EXPECT_EQ(rig.pipeline->metrics().duplicate_completions(), 0u);
  // The detector saw the desktop leave and come back: generation 2.
  EXPECT_EQ(rig.healer->detector()->generation("desktop"), 2u);
  EXPECT_EQ(rig.healer->detector()->health("desktop"),
            core::DeviceHealth::kHealthy);

  rig.checker->CheckNow();
  const Status converged = rig.checker->CheckConvergence();
  EXPECT_TRUE(converged.ok()) << converged.ToString();
  EXPECT_EQ(rig.checker->violations().size(), 0u) << rig.checker->Report();
}

TEST(Chaos, FencingDisabledCountsZombieServes) {
  // Ablation: with epoch_fencing off the same split-brain scenario
  // lets the stale desktop runtimes process frames that reach them —
  // the zombies_served counter is the measurable cost fencing removes.
  core::OrchestratorOptions options;
  options.epoch_fencing = false;
  auto rig = MakeRig(options);
  rig.pipeline->Start();

  rig.injector->SchedulePartition({{"desktop"}, {"phone", "tv", "nuc"}},
                                  TimePoint() + Duration::Seconds(5),
                                  Duration::Seconds(3));
  rig.orchestrator->RunFor(Duration::Seconds(20));

  EXPECT_GE(rig.healer->stats().recoveries, 1u);
  // Nothing is fenced; stale-epoch traffic is served and counted.
  EXPECT_EQ(rig.pipeline->metrics().zombies_fenced(), 0u);
}

// --------------------------------------------- stale checkpoint race

TEST(Chaos, StaleCheckpointFromHealedPartitionIsRejected) {
  // Regression for the SelfHealer trusting any arriving checkpoint: a
  // checkpoint shipped at epoch 1 but delayed in flight past a
  // recovery (which bumps the module to epoch 2) must not overwrite
  // the store. We fake the delay with a 3 s latency fault on the
  // desktop↔tv link — which also delays heartbeats, so the detector
  // declares the desktop dead and recovery runs while the epoch-1
  // checkpoint is still in the air: exactly the partition-heal race.
  core::SelfHealingOptions healing = FastHealing();
  healing.checkpoint_interval = Duration::Millis(250);
  auto rig = MakeRig({}, healing);
  rig.pipeline->Start();

  sim::LinkSpec slow = rig.cluster->network().link("desktop", "tv");
  slow.latency = Duration::Seconds(3);
  rig.injector->ScheduleLinkFault("desktop", "tv",
                                  TimePoint() + Duration::Seconds(3.4),
                                  Duration::Seconds(3), slow);
  rig.orchestrator->RunFor(Duration::Seconds(12));

  EXPECT_GE(rig.healer->stats().recoveries, 1u);
  EXPECT_GE(rig.healer->stats().checkpoints_rejected_stale, 1u);
  // The store converged to the new lineage, not the zombie's.
  const std::string module = FirstScriptModule(rig);
  ASSERT_FALSE(module.empty());
  ASSERT_EQ(rig.pipeline->checkpoints().count(module), 1u);
  const core::ModuleCheckpoint& stored = rig.pipeline->checkpoints().at(module);
  EXPECT_EQ(stored.epoch, rig.pipeline->module_epoch(module));
  EXPECT_GE(stored.epoch, 2u);
  rig.checker->CheckNow();
  EXPECT_EQ(rig.checker->violations().size(), 0u) << rig.checker->Report();
}

// ------------------------------------------ adversarial credit links

TEST(Chaos, DuplicatedAndReorderedLinksKeepCreditInvariant) {
  // Every link duplicates and reorders aggressively. Credit-return
  // messages arriving twice must not mint a second admission slot
  // (§2.3 single-slot invariant), and no frame may complete twice.
  auto rig = MakeRig();
  std::vector<std::string> names;
  for (sim::Device* device : rig.cluster->devices()) {
    names.push_back(device->name());
  }
  for (const std::string& a : names) {
    for (const std::string& b : names) {
      if (a == b) continue;
      sim::LinkSpec spec = rig.cluster->network().link(a, b);
      spec.duplicate = 0.4;
      spec.reorder = 0.3;
      rig.cluster->network().SetLink(a, b, spec);
    }
  }
  rig.pipeline->Start();
  rig.checker->Start();
  rig.orchestrator->RunFor(Duration::Seconds(15));

  EXPECT_EQ(rig.checker->violations().size(), 0u) << rig.checker->Report();
  EXPECT_GT(rig.checker->checks_run(), 100u);
  // The faults actually fired and the dedup layer absorbed them.
  EXPECT_GT(rig.cluster->network().stats().duplicates_delivered, 100u);
  EXPECT_GT(rig.orchestrator->fabric().dedup_stats().duplicates_dropped,
            100u);
  EXPECT_EQ(rig.pipeline->metrics().duplicate_completions(), 0u);
  EXPECT_GT(rig.pipeline->metrics().frames_completed(), 100u);
}

// --------------------------------------------------- fault telemetry

TEST(Chaos, MonitorExposesFaultCounters) {
  auto rig = MakeRig();
  rig.pipeline->Start();
  core::PipelineMonitor monitor(rig.orchestrator.get(),
                                Duration::Millis(500));
  monitor.WatchDetector(rig.healer->detector());
  monitor.WatchInjector(rig.injector.get());
  monitor.Start();

  sim::LinkSpec adversarial = rig.cluster->network().link("phone", "desktop");
  adversarial.duplicate = 0.5;
  adversarial.reorder = 0.3;
  adversarial.corrupt = 0.2;
  rig.cluster->network().SetSymmetricLink("phone", "desktop", adversarial);
  rig.injector->SchedulePartition({{"nuc"}, {"phone", "desktop", "tv"}},
                                  TimePoint() + Duration::Seconds(2),
                                  Duration::Seconds(1));
  rig.orchestrator->RunFor(Duration::Seconds(6));

  ASSERT_FALSE(monitor.samples().empty());
  const core::MonitorSample& last = monitor.samples().back();
  EXPECT_EQ(last.partitions, 1u);
  EXPECT_GT(last.duplicates_delivered, 0u);
  EXPECT_GT(last.reorders, 0u);
  EXPECT_GT(last.corruptions_dropped, 0u);

  const std::string json = json::Write(last.ToJson());
  EXPECT_NE(json.find("\"faults\""), std::string::npos);
  EXPECT_NE(json.find("\"partitions\""), std::string::npos);
  EXPECT_NE(json.find("\"corruptions_dropped\""), std::string::npos);
  EXPECT_NE(json.find("\"zombies_fenced\""), std::string::npos);
}

}  // namespace
}  // namespace vp
