// Fleet-scale control plane (src/fleet): many homes on one engine,
// shared model registry, shared cloud tier, staged rollout waves with
// fleet-level gating and blast-radius containment.
//
// Seed-sweepable: set VP_TEST_SEED to vary the fleet seed; default 42.
// The per-home determinism contract must hold under every seed.
#include <gtest/gtest.h>

#include <cstdlib>
#include <set>
#include <string>
#include <vector>

#include "apps/fitness.hpp"
#include "core/invariants.hpp"
#include "core/monitor.hpp"
#include "fleet/cloud.hpp"
#include "fleet/controller.hpp"
#include "fleet/fleet.hpp"
#include "fleet/trace.hpp"
#include "json/write.hpp"
#include "modelreg/registry.hpp"
#include "sim/fault_injector.hpp"

namespace vp {
namespace {

uint64_t TestSeed() {
  const char* env = std::getenv("VP_TEST_SEED");
  return env != nullptr ? std::strtoull(env, nullptr, 10) : 42;
}

/// Fast gates so rollout decisions land inside short test runs.
modelreg::RolloutPolicy FastPolicy() {
  modelreg::RolloutPolicy policy;
  policy.canary_fraction = 0.5;
  policy.traffic_share = 0.3;
  policy.probe_interval = Duration::Millis(40);
  policy.evaluate_interval = Duration::Millis(200);
  policy.decision_window = Duration::Seconds(2.5);
  policy.min_probes = 8;
  policy.accuracy_margin = 0.15;
  policy.latency_inflation = 4.0;
  return policy;
}

core::PipelineDeployment* DeployFitness(fleet::Home& home, double fps) {
  auto spec = apps::fitness::Spec();
  EXPECT_TRUE(spec.ok()) << spec.status().ToString();
  spec->source.fps = fps;
  core::Orchestrator::DeployArgs args;
  args.workload = apps::fitness::Workout();
  args.placement.policy = core::PlacementPolicy::kCoLocate;
  auto deployment =
      home.orchestrator->Deploy(std::move(*spec), std::move(args));
  EXPECT_TRUE(deployment.ok()) << deployment.status().ToString();
  home.pipelines.push_back(*deployment);
  return *deployment;
}

/// Every home's steady-state invariants hold: credit conservation, one
/// live lineage per module, no duplicate completions and no
/// zombie-served frames. CheckNow() only — a periodic sweep would add
/// simulator events to the run.
void ExpectInvariantsHold(fleet::Fleet& fleet) {
  for (int id = 0; id < fleet.size(); ++id) {
    core::InvariantChecker checker(fleet.home(id).orchestrator.get());
    checker.CheckNow();
    EXPECT_EQ(checker.total_violations(), 0u)
        << fleet.home(id).name << "\n" << checker.Report();
  }
}

/// One model registry for every fleet in this binary that counts no
/// trainings. Training is a pure function of the recipe and runs
/// outside virtual time, so sharing it moves no simulated result and
/// trains each recipe once per binary instead of once per fleet.
modelreg::ModelRegistry& SharedTestRegistry() {
  static modelreg::ModelRegistry registry;
  return registry;
}

fleet::FleetOptions ServingFleetOptions(int homes) {
  fleet::FleetOptions options;
  options.homes = homes;
  options.seed = TestSeed();
  options.orchestrator.serving.enabled = true;
  options.orchestrator.models.rollout = FastPolicy();
  options.orchestrator.models.registry = &SharedTestRegistry();
  return options;
}

// ------------------------------------------------------------ seeds

TEST(Fleet, HomeSeedsAreStableAndDistinct) {
  const uint64_t seed = TestSeed();
  std::set<uint64_t> seen;
  for (int id = 0; id < 64; ++id) {
    const uint64_t s = fleet::HomeSeed(seed, id);
    // Growing the fleet must never re-seed an existing home.
    EXPECT_EQ(s, fleet::HomeSeed(seed, id));
    EXPECT_TRUE(seen.insert(s).second) << "seed collision at home " << id;
  }
  // Distinct fleet seeds give distinct home streams.
  EXPECT_NE(fleet::HomeSeed(seed, 0), fleet::HomeSeed(seed + 1, 0));
}

TEST(Fleet, HomesGetDerivedSeedsAndSharedRegistry) {
  fleet::Fleet fleet(ServingFleetOptions(2));
  ASSERT_EQ(fleet.size(), 2);
  EXPECT_EQ(fleet.home(0).orchestrator->options().seed,
            fleet::HomeSeed(TestSeed(), 0));
  EXPECT_EQ(fleet.home(1).orchestrator->options().seed,
            fleet::HomeSeed(TestSeed(), 1));
  EXPECT_FALSE(fleet.home(0).cluster->owns_simulator());
  EXPECT_EQ(&fleet.home(0).cluster->simulator(),
            &fleet.home(1).cluster->simulator());
  ExpectInvariantsHold(fleet);
}

// ------------------------------------------------- registry dedupe

TEST(Fleet, SharedRegistryTrainsEachRecipeOnce) {
  // The fleet's own registry: this test counts its trainings.
  fleet::FleetOptions options = ServingFleetOptions(2);
  options.orchestrator.models.registry = nullptr;
  fleet::Fleet fleet(options);
  DeployFitness(fleet.home(0), 10);
  const uint64_t after_first = fleet.models().trainings();
  EXPECT_GE(after_first, 1u);  // v0 activity model trained for home 0

  DeployFitness(fleet.home(1), 10);
  // Home 1 runs the same pipeline: identical recipes, zero new
  // trainings, every request answered from the shared cache.
  EXPECT_EQ(fleet.models().trainings(), after_first);
  EXPECT_GE(fleet.models().dedupe_hits(), 1u);
  ExpectInvariantsHold(fleet);
}

TEST(Fleet, CallersRegistryServesEveryHome) {
  modelreg::ModelRegistry registry;
  fleet::FleetOptions options = ServingFleetOptions(2);
  options.orchestrator.models.registry = &registry;
  fleet::Fleet fleet(options);
  EXPECT_EQ(&fleet.models(), &registry);
  for (int id = 0; id < fleet.size(); ++id) {
    EXPECT_EQ(&fleet.home(id).orchestrator->models(), &registry);
  }
  DeployFitness(fleet.home(0), 10);
  EXPECT_GE(registry.trainings(), 1u);
  ExpectInvariantsHold(fleet);
}

// ---------------------------------------------------- determinism

struct HomeFingerprint {
  uint64_t completed = 0;
  uint64_t captured = 0;
  double fps = 0;
  uint64_t sheds = 0;
};

HomeFingerprint RunFleetAndFingerprint(int homes, int probe_home,
                                       double seconds) {
  fleet::Fleet fleet(ServingFleetOptions(homes));
  for (int id = 0; id < fleet.size(); ++id) {
    DeployFitness(fleet.home(id), 10);
  }
  fleet.StartAll();
  fleet.RunFor(Duration::Seconds(seconds));
  ExpectInvariantsHold(fleet);
  const auto& metrics = fleet.home(probe_home).pipelines[0]->metrics();
  HomeFingerprint fp;
  fp.completed = metrics.frames_completed();
  fp.captured = metrics.frames_captured();
  fp.fps = metrics.EndToEndFps();
  fp.sheds = metrics.requests_shed();
  return fp;
}

TEST(Fleet, HomeMetricsIndependentOfFleetSize) {
  // Home 1 must be bit-identical whether the fleet has 3 or 5 homes:
  // every per-home RNG stream derives from (fleet seed, home id) and
  // fleet components only read home state.
  const HomeFingerprint in3 = RunFleetAndFingerprint(3, 1, 6.0);
  const HomeFingerprint in5 = RunFleetAndFingerprint(5, 1, 6.0);
  EXPECT_EQ(in3.completed, in5.completed);
  EXPECT_EQ(in3.captured, in5.captured);
  EXPECT_EQ(in3.fps, in5.fps);  // exact: same virtual timestamps
  EXPECT_EQ(in3.sheds, in5.sheds);
}

TEST(Fleet, SingleHomeFleetMatchesDirectOrchestrator) {
  const double seconds = 6.0;
  const HomeFingerprint fleet_fp = RunFleetAndFingerprint(1, 0, seconds);

  // The same home driven directly, without the fleet wrapper: own
  // cluster + orchestrator on the derived seed, isolated registry.
  modelreg::ModelRegistry registry;
  auto cluster = sim::MakeHomeTestbed(fleet::HomeSeed(TestSeed(), 0));
  core::OrchestratorOptions options;
  options.serving.enabled = true;
  options.models.rollout = FastPolicy();
  options.models.registry = &registry;
  options.seed = fleet::HomeSeed(TestSeed(), 0);
  core::Orchestrator orch(cluster.get(), options);
  auto spec = apps::fitness::Spec();
  ASSERT_TRUE(spec.ok());
  spec->source.fps = 10;
  core::Orchestrator::DeployArgs args;
  args.workload = apps::fitness::Workout();
  args.placement.policy = core::PlacementPolicy::kCoLocate;
  auto deployment = orch.Deploy(std::move(*spec), std::move(args));
  ASSERT_TRUE(deployment.ok());
  orch.StartAll();
  orch.RunFor(Duration::Seconds(seconds));

  EXPECT_EQ(fleet_fp.completed, (*deployment)->metrics().frames_completed());
  EXPECT_EQ(fleet_fp.captured, (*deployment)->metrics().frames_captured());
  EXPECT_EQ(fleet_fp.fps, (*deployment)->metrics().EndToEndFps());
}

// ------------------------------------------------- staged rollout

TEST(Fleet, StagedRolloutPromotesWaveByWave) {
  fleet::Fleet fleet(ServingFleetOptions(3));
  for (int id = 0; id < fleet.size(); ++id) DeployFitness(fleet.home(id), 12);

  fleet::FleetController controller(&fleet, "activity_classifier",
                                    Duration::Millis(400));
  fleet.StartAll();
  fleet.RunFor(Duration::Seconds(1));

  modelreg::ModelSpec candidate = modelreg::DefaultActivitySpec();
  candidate.train_seed = 4242;  // same quality, distinct version
  fleet::FleetRolloutOptions rollout;
  rollout.policy = FastPolicy();
  ASSERT_TRUE(controller.BeginFleetRollout(candidate, rollout).ok());
  // N=3: the wave fractions plan 3 waves of 1, 2 and 3 homes.
  ASSERT_EQ(controller.waves().size(), 3u);

  for (int i = 0; i < 60 && !controller.rollout_done() &&
                  !controller.halted();
       ++i) {
    fleet.RunFor(Duration::Seconds(1));
  }
  EXPECT_TRUE(controller.rollout_done());
  EXPECT_FALSE(controller.halted());
  for (const auto& wave : controller.waves()) {
    EXPECT_EQ(wave.state, fleet::FleetController::WaveState::kPassed)
        << "wave " << wave.index;
    EXPECT_EQ(wave.promoted, static_cast<int>(wave.members.size()));
  }
  // Every home ends on the candidate.
  for (int id = 0; id < fleet.size(); ++id) {
    const auto& orch = *fleet.home(id).orchestrator;
    for (const auto& [device, service] : orch.rollout().groups()) {
      if (service != "activity_classifier") continue;
      EXPECT_EQ(orch.rollout().stable_version(device, service),
                controller.candidate_version())
          << fleet.home(id).name;
    }
  }
  ExpectInvariantsHold(fleet);
}

TEST(Fleet, PoisonedWaveHaltsRollbackAndBoundsBlastRadius) {
  fleet::Fleet fleet(ServingFleetOptions(5));
  for (int id = 0; id < fleet.size(); ++id) DeployFitness(fleet.home(id), 12);

  fleet::FleetController controller(&fleet, "activity_classifier",
                                    Duration::Millis(400));
  controller.RegisterModelHooks(*fleet.home(0).injector);
  fleet.StartAll();
  fleet.RunFor(Duration::Seconds(1));

  // Supply-chain poison lands exactly when wave 1 (the second wave)
  // starts: its members stage the poisoned variant; earlier waves saw
  // the clean candidate.
  controller.on_wave_start = [&](int wave) {
    if (wave == 1) {
      ASSERT_TRUE(fleet.home(0)
                      .injector->PoisonModelNow("fleet/activity_classifier")
                      .ok());
    }
  };

  modelreg::ModelSpec candidate = modelreg::DefaultActivitySpec();
  candidate.train_seed = 4242;
  fleet::FleetRolloutOptions rollout;
  rollout.policy = FastPolicy();
  ASSERT_TRUE(controller.BeginFleetRollout(candidate, rollout).ok());
  // N=5: waves of 1, 1, 1 and 2 homes.
  ASSERT_EQ(controller.waves().size(), 4u);

  for (int i = 0; i < 60 && !controller.rollout_done() &&
                  !controller.halted();
       ++i) {
    fleet.RunFor(Duration::Seconds(1));
  }
  // Let the halt-path reverts settle.
  fleet.RunFor(Duration::Seconds(2));

  ASSERT_TRUE(controller.halted());
  EXPECT_FALSE(controller.rollout_done());
  EXPECT_TRUE(controller.poisoned());

  const auto& waves = controller.waves();
  EXPECT_EQ(waves[0].state, fleet::FleetController::WaveState::kPassed);
  EXPECT_EQ(waves[1].state, fleet::FleetController::WaveState::kFailed);
  // Waves after the failed one never start.
  EXPECT_EQ(waves[2].state, fleet::FleetController::WaveState::kPending);
  EXPECT_EQ(waves[3].state, fleet::FleetController::WaveState::kPending);

  // The poisoned version differs from the clean candidate and was only
  // ever live in the failed wave's members: blast radius == wave size.
  const std::string& poisoned = waves[1].staged_version;
  ASSERT_FALSE(poisoned.empty());
  EXPECT_NE(poisoned, controller.candidate_version());
  const std::vector<int> exposed = fleet.HomesExposedTo(poisoned);
  EXPECT_EQ(exposed, waves[1].members);

  // Wave 0 was promoted to the clean candidate and must be back on its
  // baseline after the halt.
  EXPECT_GE(controller.reverted_homes(), 1);
  for (int id : waves[0].members) {
    const auto& orch = *fleet.home(id).orchestrator;
    for (const auto& [device, service] : orch.rollout().groups()) {
      if (service != "activity_classifier") continue;
      EXPECT_NE(orch.rollout().stable_version(device, service),
                controller.candidate_version());
      EXPECT_NE(orch.rollout().stable_version(device, service), poisoned);
    }
  }
  ExpectInvariantsHold(fleet);
}

// ------------------------------------------------------ wave gate

/// A gate window of `hits` hits in `probes` probes and `samples`
/// latencies of `latency_ms` each.
modelreg::GateWindow Window(int hits, int probes, double latency_ms,
                            int samples) {
  modelreg::GateWindow window;
  for (int i = 0; i < probes; ++i) window.hits.push_back(i < hits);
  window.latency_ms.assign(static_cast<size_t>(samples), latency_ms);
  return window;
}

/// A member's last canary view: the two windows its gate read.
modelreg::RolloutController::GroupView CanaryView(
    modelreg::GateWindow stable, modelreg::GateWindow candidate) {
  modelreg::RolloutController::GroupView view;
  view.phase = modelreg::RolloutPhase::kCanary;
  view.stable_window = std::move(stable);
  view.candidate_window = std::move(candidate);
  return view;
}

// The wave gate pools the members' windows sample by sample, so a
// member weighs as much as the samples its windows hold, however many
// probes it sent since its rollout began. Each row pools a member that
// canaried long (say 1000 probes per version) and looks clean with one
// that canaried briefly (10 probes) and regressed: weighted by those
// probe counts, the row would clear the gate.
TEST(FleetWaveGate, PoolsTheMembersWindowsSampleBySample) {
  const modelreg::RolloutPolicy policy;  // the wave's 0.08 and x1.6
  const auto long_run =
      CanaryView(Window(60, 64, 10.0, 20), Window(60, 64, 10.0, 20));

  // Latency: the brief member's candidate p95 is 100 ms against 10.
  // Weighted, (10·1000 + 100·10) / 1010 ≈ 10.9 ms is under 16; the
  // pooled p95 is 100 ms.
  const fleet::WaveWindows slow = fleet::PoolCanaryWindows(
      {long_run,
       CanaryView(Window(60, 64, 10.0, 20), Window(60, 64, 100.0, 20))});
  EXPECT_LT((10.0 * 1000 + 100.0 * 10) / 1010,
            10.0 * policy.latency_inflation);
  EXPECT_EQ(slow.candidate.latency_ms.size(), 40u);
  EXPECT_EQ(slow.stable.p95_ms(), 10.0);
  EXPECT_EQ(slow.candidate.p95_ms(), 100.0);
  EXPECT_EQ(slow.candidate.accuracy(), slow.stable.accuracy());
  EXPECT_TRUE(
      modelreg::CandidateRegressed(slow.stable, slow.candidate, policy));

  // Accuracy: the brief member's candidate hits 4 of 64 probes.
  // Weighted, 0.929 is within 0.08 of 0.9375; pooled, 64/128 = 0.5
  // against 120/128 = 0.9375.
  const fleet::WaveWindows wrong = fleet::PoolCanaryWindows(
      {long_run,
       CanaryView(Window(60, 64, 10.0, 20), Window(4, 64, 10.0, 20))});
  EXPECT_GE((60.0 / 64 * 1000 + 4.0 / 64 * 10) / 1010,
            60.0 / 64 - policy.accuracy_margin);
  EXPECT_EQ(wrong.candidate.accuracy(), 0.5);
  EXPECT_EQ(wrong.stable.accuracy(), 0.9375);
  EXPECT_TRUE(
      modelreg::CandidateRegressed(wrong.stable, wrong.candidate, policy));

  // The clean member alone clears the gate, and so does a wave with no
  // canary windows at all.
  const fleet::WaveWindows clean = fleet::PoolCanaryWindows({long_run});
  EXPECT_FALSE(modelreg::CandidateRegressed(clean.stable, clean.candidate,
                                            policy));
  const fleet::WaveWindows none = fleet::PoolCanaryWindows({});
  EXPECT_FALSE(
      modelreg::CandidateRegressed(none.stable, none.candidate, policy));
}

// Fewer than 8 latency samples on either side cannot fail the latency
// gate: one outlier must not decide a wave any more than a canary.
TEST(FleetWaveGate, LatencyNeedsEightPooledSamplesPerSide) {
  const modelreg::RolloutPolicy policy;
  const auto member =
      CanaryView(Window(20, 20, 10.0, 4), Window(20, 20, 100.0, 4));
  const fleet::WaveWindows one = fleet::PoolCanaryWindows({member});
  EXPECT_FALSE(modelreg::CandidateRegressed(one.stable, one.candidate, policy));
  const fleet::WaveWindows two = fleet::PoolCanaryWindows({member, member});
  EXPECT_TRUE(modelreg::CandidateRegressed(two.stable, two.candidate, policy));
}

// ------------------------------------------------------ cloud tier

TEST(Cloud, StrideFairShareSplitsCapacityEvenly) {
  sim::Simulator sim;
  fleet::CloudOptions options;
  options.slots = 2;
  options.speed = 1.0;
  fleet::CloudTier cloud(&sim, options);
  cloud.RegisterTenant("home0");
  cloud.RegisterTenant("home1");
  cloud.RegisterTenant("home2");

  // Unequal demand, equal weights: while everyone is backlogged the
  // stride scan keeps served counts in lockstep.
  for (int i = 0; i < 120; ++i) {
    ASSERT_TRUE(cloud.Submit("home0", Duration::Millis(100)).ok());
  }
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(cloud.Submit("home1", Duration::Millis(100)).ok());
  }
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(cloud.Submit("home2", Duration::Millis(100)).ok());
  }
  // Capacity: 2 slots × 10 jobs/s = 20 jobs/s. 6 s serves ~120 jobs.
  sim.RunUntil(TimePoint() + Duration::Seconds(6));
  const auto s0 = cloud.tenant_stats("home0");
  const auto s1 = cloud.tenant_stats("home1");
  const auto s2 = cloud.tenant_stats("home2");
  // ~40 each; allow ±2 for slot-boundary effects.
  EXPECT_NEAR(static_cast<double>(s0.served), 40.0, 2.0);
  EXPECT_NEAR(static_cast<double>(s1.served), 40.0, 2.0);
  EXPECT_NEAR(static_cast<double>(s2.served), 40.0, 2.0);

  // Once the equal-share tenants drain, the backlogged one absorbs the
  // spare capacity (work-conserving without a quota).
  sim.RunUntil(TimePoint() + Duration::Seconds(20));
  EXPECT_EQ(cloud.tenant_stats("home0").served, 120u);
  EXPECT_EQ(cloud.tenant_stats("home0").backlog, 0);
}

TEST(Cloud, WeightsSkewTheShare) {
  sim::Simulator sim;
  fleet::CloudOptions options;
  options.slots = 1;
  options.speed = 1.0;
  fleet::CloudTier cloud(&sim, options);
  cloud.RegisterTenant("heavy", 3);
  cloud.RegisterTenant("light", 1);
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(cloud.Submit("heavy", Duration::Millis(50)).ok());
    ASSERT_TRUE(cloud.Submit("light", Duration::Millis(50)).ok());
  }
  sim.RunUntil(TimePoint() + Duration::Seconds(8));  // 160 jobs served
  const auto heavy = cloud.tenant_stats("heavy");
  const auto light = cloud.tenant_stats("light");
  ASSERT_GT(light.served, 0u);
  const double ratio = static_cast<double>(heavy.served) /
                       static_cast<double>(light.served);
  EXPECT_NEAR(ratio, 3.0, 0.2);
}

TEST(Cloud, HardQuotaCapsATenantEvenWithIdleSlots) {
  sim::Simulator sim;
  fleet::CloudOptions options;
  options.slots = 2;
  options.speed = 1.0;
  options.quota_share = 0.25;  // ≤ 25% of pool capacity per tenant
  options.quota_window = Duration::Millis(100);
  fleet::CloudTier cloud(&sim, options);
  cloud.RegisterTenant("noisy");
  cloud.RegisterTenant("quiet");

  // Only the noisy tenant submits: without a quota it would own both
  // slots; the hard quota caps it at 25% of capacity and the rest of
  // the pool idles.
  for (int i = 0; i < 400; ++i) {
    ASSERT_TRUE(cloud.Submit("noisy", Duration::Millis(100)).ok());
  }
  const double seconds = 10.0;
  sim.RunUntil(TimePoint() + Duration::Seconds(seconds));
  const auto noisy = cloud.tenant_stats("noisy");
  // Capacity = slots × speed = 2 cost-s/s; quota = 0.5 cost-s/s → ~5
  // cost-seconds in 10 s (+ the initial burst allowance).
  const double cap_cost_s =
      options.quota_share * 2.0 * seconds +
      options.quota_share * 2.0 * options.quota_window.seconds() *
          fleet::kQuotaBurstWindows;
  EXPECT_LE(noisy.served_cost_seconds, cap_cost_s + 0.11);
  EXPECT_GE(noisy.served_cost_seconds, 0.5 * cap_cost_s);
  EXPECT_GT(noisy.backlog, 0);  // throttled, not starved of demand
}

TEST(Cloud, DeterministicAcrossRuns) {
  auto run = []() {
    sim::Simulator sim;
    fleet::CloudOptions options;
    options.slots = 3;
    options.speed = 2.0;
    options.quota_share = 0.4;
    fleet::CloudTier cloud(&sim, options);
    cloud.RegisterTenant("a");
    cloud.RegisterTenant("b", 2);
    std::vector<std::string> completions;
    for (int i = 0; i < 50; ++i) {
      (void)cloud.Submit("a", Duration::Millis(70),
                         [&]() { completions.push_back("a"); });
      (void)cloud.Submit("b", Duration::Millis(90),
                         [&]() { completions.push_back("b"); });
    }
    sim.RunUntil(TimePoint() + Duration::Seconds(4));
    return completions;
  };
  EXPECT_EQ(run(), run());
}

// ------------------------------------------------ telemetry labels

TEST(Fleet, TraceAndRollupsCarryHomeLabels) {
  fleet::Fleet fleet(ServingFleetOptions(2));
  for (int id = 0; id < fleet.size(); ++id) DeployFitness(fleet.home(id), 10);
  fleet::FleetController controller(&fleet, "activity_classifier",
                                    Duration::Millis(400));
  controller.Start();
  fleet.StartAll();
  fleet.RunFor(Duration::Seconds(3));

  // Merged Chrome trace: per-home process prefixes, disjoint pids.
  const std::string trace = json::Write(fleet::FleetChromeTrace(fleet), 0);
  EXPECT_NE(trace.find("home0/pipeline:fitness"), std::string::npos);
  EXPECT_NE(trace.find("home1/pipeline:fitness"), std::string::npos);
  EXPECT_NE(trace.find("home0/serving"), std::string::npos);
  EXPECT_NE(trace.find("home1/serving"), std::string::npos);

  // MonitorSample::ToJson carries the home label when asked.
  ASSERT_NE(fleet.home(1).monitor->latest(), nullptr);
  const std::string labelled =
      json::Write(fleet.home(1).monitor->latest()->ToJson("home1"), 0);
  EXPECT_NE(labelled.find("\"home\""), std::string::npos);
  EXPECT_NE(labelled.find("home1"), std::string::npos);

  // Controller rollups: bounded aggregates, one per home, labelled.
  EXPECT_GE(controller.rollups_collected(), 2u);
  ASSERT_EQ(controller.rollups().size(), 2u);
  const core::MonitorRollup& rollup = controller.rollups().at(0);
  EXPECT_GT(rollup.pipelines, 0);
  EXPECT_GT(rollup.frames_completed, 0u);
  const std::string doc = json::Write(controller.ToJson(), 0);
  EXPECT_NE(doc.find("\"fleet\""), std::string::npos);
  EXPECT_NE(doc.find("\"waves\""), std::string::npos);
  EXPECT_NE(doc.find("home0"), std::string::npos);
  EXPECT_NE(doc.find("home1"), std::string::npos);
  ExpectInvariantsHold(fleet);
}

}  // namespace
}  // namespace vp
