// Model lifecycle subsystem (src/modelreg): versioned content-addressed
// registry, warm hot-swap behind the serving scheduler, canary rollout
// with live accuracy/latency gates and automatic rollback.
//
// Seed-sweepable: set VP_TEST_SEED to vary cluster and training seeds;
// default 42. Content addressing must hold under every seed.
#include <gtest/gtest.h>

#include <bit>
#include <cstdlib>
#include <string>
#include <vector>

#include "apps/fitness.hpp"
#include "core/monitor.hpp"
#include "core/orchestrator.hpp"
#include "core/trace_export.hpp"
#include "cv/dataset.hpp"
#include "invariants_hold.hpp"
#include "json/write.hpp"
#include "media/codec.hpp"
#include "media/renderer.hpp"
#include "modelreg/registry.hpp"
#include "modelreg/rollout.hpp"
#include "serving/request_scheduler.hpp"
#include "services/container.hpp"
#include "services/registry.hpp"
#include "sim/cluster.hpp"
#include "sim/fault_injector.hpp"

namespace vp {
namespace {

using test_support::ExpectInvariantsHold;

uint64_t TestSeed() {
  const char* env = std::getenv("VP_TEST_SEED");
  return env != nullptr ? std::strtoull(env, nullptr, 10) : 42;
}

// ------------------------------------------------------------ registry

TEST(ModelRegistry, ContentAddressingIsDeterministic) {
  modelreg::ModelSpec spec = modelreg::DefaultActivitySpec();
  spec.train_seed = 100 + TestSeed();  // sweepable recipe

  // Two independent registries training the same spec must converge on
  // the same content id AND bit-identical evaluation results.
  modelreg::ModelRegistry first;
  modelreg::ModelRegistry second;
  auto a = first.TrainOrGet(spec);
  auto b = second.TrainOrGet(spec);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_EQ((*a)->id, (*b)->id);
  EXPECT_EQ((*a)->id, spec.ContentId());
  EXPECT_EQ((*a)->test_accuracy, (*b)->test_accuracy);
  EXPECT_FALSE((*a)->holdout.empty());
  ASSERT_TRUE((*a)->activity.has_value());

  // The registry dedupes by content id: re-requesting the same spec
  // returns the already-trained artifact without retraining.
  auto again = first.TrainOrGet(spec);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->get(), a->get());
  EXPECT_EQ(first.trainings(), 1u);
  EXPECT_TRUE(first.Contains(spec.ContentId()));

  // Any recipe change is a new version.
  modelreg::ModelSpec more_neighbors = spec;
  more_neighbors.k = spec.k + 2;
  EXPECT_NE(more_neighbors.ContentId(), spec.ContentId());
  modelreg::ModelSpec other_data = spec;
  other_data.train_seed += 1;
  EXPECT_NE(other_data.ContentId(), spec.ContentId());
}

TEST(ModelRegistry, PoisonedVariantIsADistinctWorseVersion) {
  modelreg::ModelRegistry registry;
  const modelreg::ModelSpec good = modelreg::DefaultActivitySpec();
  const modelreg::ModelSpec bad = modelreg::PoisonedVariant(good);
  EXPECT_NE(bad.ContentId(), good.ContentId());

  auto good_artifact = registry.TrainOrGet(good);
  auto bad_artifact = registry.TrainOrGet(bad);
  ASSERT_TRUE(good_artifact.ok());
  ASSERT_TRUE(bad_artifact.ok());
  EXPECT_GT((*good_artifact)->test_accuracy, 0.9);
  // 60% label noise wrecks the kNN vote: the withheld-set accuracy
  // already exposes the poison before it ever serves traffic.
  EXPECT_LT((*bad_artifact)->test_accuracy,
            (*good_artifact)->test_accuracy - 0.2);
  // …and it is slower (cost multiplier flows into the replica cost).
  EXPECT_GT((*bad_artifact)->InferenceCost(),
            (*good_artifact)->InferenceCost() * 2);
  EXPECT_EQ(registry.trainings(), 2u);
}

/// FNV-1a over each window's label (with its terminator), feature
/// count and feature bit patterns, in order.
uint64_t WindowsFingerprint(const std::vector<cv::LabeledWindow>& windows) {
  uint64_t hash = 0xCBF29CE484222325ULL;
  auto mix = [&hash](const void* data, size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < size; ++i) {
      hash = (hash ^ bytes[i]) * 0x100000001B3ULL;
    }
  };
  for (const cv::LabeledWindow& window : windows) {
    mix(window.label.c_str(), window.label.size() + 1);
    const uint64_t count = window.features.size();
    mix(&count, sizeof(count));
    for (double feature : window.features) {
      const auto bits = std::bit_cast<uint64_t>(feature);
      mix(&bits, sizeof(bits));
    }
  }
  return hash;
}

TEST(ModelRegistry, GoldenTrainingFingerprint) {
  // Frozen from the detector's full-image path: any change to the
  // synthetic dataset, the split or the training shows up here, even
  // one that two registries in the same process would agree on.
  const modelreg::ModelSpec activity = modelreg::DefaultActivitySpec();
  cv::DatasetOptions options;
  options.samples_per_label = activity.samples_per_label;
  options.seed = activity.train_seed;
  const std::vector<cv::LabeledWindow> dataset =
      cv::GenerateActivityDataset(options);
  EXPECT_EQ(dataset.size(), 84u);
  EXPECT_EQ(WindowsFingerprint(dataset), 0xF1D23D3ACB496661ULL);

  modelreg::ModelRegistry registry;
  auto activity_artifact = registry.TrainOrGet(activity);
  auto image_artifact = registry.TrainOrGet(modelreg::DefaultImageSpec());
  ASSERT_TRUE(activity_artifact.ok());
  ASSERT_TRUE(image_artifact.ok());
  EXPECT_EQ((*activity_artifact)->test_accuracy, 19.0 / 21.0);
  EXPECT_EQ((*image_artifact)->test_accuracy, 1.0);
  EXPECT_EQ((*activity_artifact)->holdout.size(), 21u);
  EXPECT_EQ(WindowsFingerprint((*activity_artifact)->holdout),
            0x86A1AF1F245A7994ULL);
}

TEST(ModelRegistry, ImageSpecTrainsTheImageKind) {
  modelreg::ModelRegistry registry;
  auto artifact = registry.TrainOrGet(modelreg::DefaultImageSpec());
  ASSERT_TRUE(artifact.ok()) << artifact.status().ToString();
  ASSERT_TRUE((*artifact)->image.has_value());
  EXPECT_FALSE((*artifact)->activity.has_value());
  EXPECT_GT((*artifact)->test_accuracy, 0.8);
}

// ------------------------------------- scheduler drain + traffic split

media::FrameRef MakeFrame(uint64_t seed) {
  media::Frame frame;
  frame.seq = seed;
  frame.image =
      media::RenderScene(media::Pose::Standing(), media::SceneOptions{}, seed);
  auto encoded = media::EncodedFrame::Parse(media::EncodeFrame(frame));
  return std::make_shared<const media::EncodedFrame>(std::move(*encoded));
}

std::shared_ptr<const modelreg::ModelArtifact> FakeArtifact(
    const std::string& id) {
  auto artifact = std::make_shared<modelreg::ModelArtifact>();
  artifact->id = id;
  return artifact;
}

class SchedulerModelTest : public ::testing::Test {
 protected:
  SchedulerModelTest()
      : cluster_(sim::MakeHomeTestbed(TestSeed())),
        catalog_(services::ServiceCatalog::WithBuiltins()),
        runtime_(cluster_.get(), &catalog_),
        registry_(cluster_.get()) {}

  sim::Simulator& sim() { return cluster_->simulator(); }

  services::ServiceInstance* AddReplica(const std::string& version = "") {
    auto instance = runtime_.Launch("desktop", "pose_detector");
    EXPECT_TRUE(instance.ok()) << instance.status().ToString();
    services::ServiceInstance* raw = instance->get();
    registry_.Add(std::move(*instance));
    if (!version.empty()) {
      raw->BindModel(
          std::make_shared<modelreg::ModelHandle>(FakeArtifact(version)));
    }
    sim().RunUntilIdle();  // drain container startup
    return raw;
  }

  serving::SchedulerRequest Req(const std::string& label) {
    serving::SchedulerRequest request;
    request.request.frame = MakeFrame(1 + completions_.size());
    request.done = [this, label](Result<json::Value> result) {
      completions_.push_back(label);
      ok_[label] = result.ok();
    };
    return request;
  }

  std::unique_ptr<sim::Cluster> cluster_;
  services::ServiceCatalog catalog_;
  services::ContainerRuntime runtime_;
  services::ServiceRegistry registry_;
  std::vector<std::string> completions_;
  std::map<std::string, bool> ok_;
};

TEST_F(SchedulerModelTest, QuiesceWaitsForInflightBatchThenExcludes) {
  services::ServiceInstance* replica = AddReplica();
  serving::RequestScheduler sched(&sim(), &registry_, "desktop",
                                  "pose_detector");
  sched.Submit(Req("a"));
  sim().RunUntil(sim().Now() + sched.options().batch_window);  // dispatch "a"
  ASSERT_EQ(sched.stats().batches, 1u);
  ASSERT_TRUE(completions_.empty());  // in flight

  bool drained = false;
  sched.Quiesce(replica, [&] { drained = true; });
  EXPECT_FALSE(drained);  // must wait for the in-flight batch
  sched.Submit(Req("b"));
  sim().RunUntilIdle();

  // The batch completed (drain fired), but "b" cannot dispatch: the
  // only replica is held out until Release. Zero requests lost — "b"
  // is queued, not dropped.
  EXPECT_TRUE(drained);
  EXPECT_TRUE(ok_.at("a"));
  EXPECT_EQ(completions_.size(), 1u);
  EXPECT_EQ(sched.queue_depth(), 1);
  EXPECT_EQ(sched.draining_count(), 1u);

  sched.Release(replica);
  sim().RunUntilIdle();
  EXPECT_TRUE(ok_.at("b"));
  EXPECT_EQ(sched.queue_depth(), 0);
  EXPECT_EQ(sched.draining_count(), 0u);
}

TEST_F(SchedulerModelTest, QuiesceOnIdleReplicaFiresImmediately) {
  services::ServiceInstance* replica = AddReplica();
  serving::RequestScheduler sched(&sim(), &registry_, "desktop",
                                  "pose_detector");
  bool drained = false;
  sched.Quiesce(replica, [&] { drained = true; });
  EXPECT_TRUE(drained);
  EXPECT_EQ(sched.draining_count(), 1u);  // still excluded until Release
  sched.Release(replica);
  EXPECT_EQ(sched.draining_count(), 0u);
}

TEST_F(SchedulerModelTest, QuiescedReplicaRetiredByScaleDownIsPurged) {
  // Regression: a replica quiesced for a model swap can be retired by
  // the autoscaler before the rollout controller ever calls Release.
  // Its draining_ entry used to stay forever — and since the key is a
  // raw pointer, whichever future replica reused the freed address
  // would have been permanently excluded from dispatch.
  services::ServiceInstance* doomed = AddReplica();  // first in group order
  AddReplica();
  serving::RequestScheduler sched(&sim(), &registry_, "desktop",
                                  "pose_detector");
  bool drained = false;
  sched.Quiesce(doomed, [&] { drained = true; });
  EXPECT_TRUE(drained);  // idle → fires immediately
  EXPECT_EQ(sched.draining_count(), 1u);

  // Scale-down picks the first idle member — the quiesced replica.
  ASSERT_TRUE(
      registry_.RetireIdleReplica("desktop", "pose_detector", 1, sim().Now()));
  for (services::ServiceInstance* live :
       registry_.Replicas("desktop", "pose_detector")) {
    ASSERT_NE(live, doomed);
  }
  EXPECT_EQ(sched.draining_count(), 1u);  // tombstone still present

  // The next pump purges the tombstone; dispatch proceeds normally on
  // the surviving replica.
  sched.Submit(Req("after"));
  sim().RunUntilIdle();
  EXPECT_EQ(sched.draining_count(), 0u);
  EXPECT_TRUE(ok_.at("after"));
  EXPECT_EQ(sched.stats().dispatched, 1u);
}

TEST_F(SchedulerModelTest, RetiredMidBatchDrainWaitsForCompletion) {
  // Regression: a replica retired while its batch was still in flight
  // used to have its drain callback fired by the purge (while frames
  // were in flight) and its busy entry dropped (so the later batch
  // completion could evict an address-reusing successor's entry). The
  // drain must wait for the completion callback, which InvokeBatch
  // always delivers — even for crashed replicas.
  services::ServiceInstance* a = AddReplica();
  services::ServiceInstance* b = AddReplica();
  serving::SchedulerOptions options;
  options.max_batch_size = 1;  // one batch per replica → both go busy
  serving::RequestScheduler sched(&sim(), &registry_, "desktop",
                                  "pose_detector", options);
  sched.Submit(Req("a1"));
  sched.Submit(Req("b1"));
  ASSERT_EQ(sched.stats().batches, 2u);
  ASSERT_TRUE(completions_.empty());  // both in flight

  bool drained_a = false;
  bool drained_b = false;
  // Release from inside the drain re-enters Pump → purge; with two
  // simultaneous drains this used to advance an invalidated iterator.
  sched.Quiesce(a, [&] {
    drained_a = true;
    sched.Release(a);
  });
  sched.Quiesce(b, [&] {
    drained_b = true;
    sched.Release(b);
  });
  EXPECT_FALSE(drained_a);
  EXPECT_FALSE(drained_b);

  // Device death retires both replicas mid-batch. The next pump must
  // NOT fire the drains: their batches have not completed yet.
  registry_.RetireDevice("desktop", sim().Now());
  sched.Submit(Req("stranded"));  // pumps (and purges)
  EXPECT_FALSE(drained_a);
  EXPECT_FALSE(drained_b);
  EXPECT_EQ(sched.draining_count(), 2u);

  // The crashed batches complete (epoch mismatch); only then do the
  // drains fire, each Release-ing reentrantly.
  sim().RunUntilIdle();
  EXPECT_TRUE(drained_a);
  EXPECT_TRUE(drained_b);
  EXPECT_EQ(sched.draining_count(), 0u);
  EXPECT_EQ(sched.inflight_requests(), 0);
  EXPECT_FALSE(ok_.at("a1"));
  EXPECT_FALSE(ok_.at("b1"));
  EXPECT_EQ(sched.queue_depth(), 1);  // "stranded": no replicas left
}

TEST_F(SchedulerModelTest, TrafficSplitRoutesExactShareToCanary) {
  AddReplica("vStable");
  AddReplica("vCanary");
  serving::RequestScheduler sched(&sim(), &registry_, "desktop",
                                  "pose_detector");
  sched.SetTrafficSplit("vCanary", 0.25);
  EXPECT_TRUE(sched.traffic_split_active());

  // One batch per request (idle gaps between submissions), so the
  // stride counters are exact: 10 of 40 batches hit the canary.
  for (int i = 0; i < 40; ++i) {
    sched.Submit(Req("r" + std::to_string(i)));
    sim().RunUntilIdle();
  }
  int canary = 0;
  int stable = 0;
  for (const serving::BatchSpan& span : sched.spans()) {
    if (span.model_version == "vCanary") ++canary;
    if (span.model_version == "vStable") ++stable;
  }
  EXPECT_EQ(canary, 10);
  EXPECT_EQ(stable, 30);

  // After the split is lifted, routing is pure least-backlog again.
  sched.ClearTrafficSplit();
  EXPECT_FALSE(sched.traffic_split_active());
  for (int i = 0; i < 4; ++i) {
    sched.Submit(Req("post" + std::to_string(i)));
    sim().RunUntilIdle();
  }
  EXPECT_EQ(static_cast<int>(sched.spans().size()), 44);
}

TEST_F(SchedulerModelTest, SplitFallsBackWhenPoolIsEmpty) {
  AddReplica("vStable");  // no canary replica exists
  serving::RequestScheduler sched(&sim(), &registry_, "desktop",
                                  "pose_detector");
  sched.SetTrafficSplit("vCanary", 0.5);
  for (int i = 0; i < 6; ++i) {
    sched.Submit(Req("r" + std::to_string(i)));
    sim().RunUntilIdle();
  }
  // Nothing stalls: every batch lands on the stable replica.
  EXPECT_EQ(sched.stats().batches, 6u);
  for (const auto& [label, delivered] : ok_) EXPECT_TRUE(delivered);
}

// --------------------------------------------------------- end to end

struct Rig {
  std::unique_ptr<sim::Cluster> cluster;
  modelreg::ModelRegistry models;
  std::unique_ptr<core::Orchestrator> orchestrator;
  core::PipelineDeployment* pipeline = nullptr;
  std::string device;   // where activity_classifier landed
  std::string service = "activity_classifier";

  explicit Rig(modelreg::RolloutPolicy policy = {}) {
    cluster = sim::MakeHomeTestbed(TestSeed());
    core::OrchestratorOptions options;
    options.serving.enabled = true;
    options.models.registry = &models;
    options.models.rollout = policy;
    orchestrator = std::make_unique<core::Orchestrator>(cluster.get(),
                                                        options);
    auto spec = apps::fitness::Spec();
    core::Orchestrator::DeployArgs args;
    args.workload = apps::fitness::Workout();
    auto deployment =
        orchestrator->Deploy(std::move(*spec), std::move(args));
    EXPECT_TRUE(deployment.ok()) << deployment.status().ToString();
    pipeline = *deployment;
    for (const auto& [d, s] : orchestrator->rollout().groups()) {
      if (s == service) device = d;
    }
    EXPECT_FALSE(device.empty()) << "activity_classifier group not managed";
  }
};

/// Fast gates so a decision lands well inside a short test run.
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

TEST(ModelLifecycle, DeployAdoptsStableVersionEverywhere) {
  Rig rig;
  const std::string v0 =
      rig.orchestrator->rollout().stable_version(rig.device, rig.service);
  EXPECT_EQ(v0, modelreg::DefaultActivitySpec().ContentId());
  EXPECT_EQ(rig.orchestrator->rollout().phase(rig.device, rig.service),
            modelreg::RolloutPhase::kStable);
  const auto versions =
      rig.orchestrator->registry().LiveModelVersions(rig.device, rig.service);
  ASSERT_EQ(versions.size(), 1u);
  EXPECT_EQ(versions[0], v0);
  // The registry trained v0 exactly once, shared by all replicas.
  EXPECT_EQ(rig.models.trainings(), 1u);
  ExpectInvariantsHold(*rig.orchestrator);
}

TEST(ModelLifecycle, HotSwapUpgradeDropsZeroFrames) {
  Rig rig;
  rig.pipeline->Start();
  rig.orchestrator->RunFor(Duration::Seconds(4));
  const uint64_t completed_before = rig.pipeline->metrics().frames_completed();
  EXPECT_GT(completed_before, 20u);

  const std::string v0 =
      rig.orchestrator->rollout().stable_version(rig.device, rig.service);
  modelreg::ModelSpec next = modelreg::DefaultActivitySpec();
  next.train_seed = 500 + TestSeed();  // retrain off the hot path
  auto candidate = rig.models.TrainOrGet(next);
  ASSERT_TRUE(candidate.ok());
  ASSERT_NE((*candidate)->id, v0);

  ASSERT_TRUE(rig.orchestrator->rollout()
                  .UpgradeStable(rig.device, rig.service, *candidate)
                  .ok());
  rig.orchestrator->RunFor(Duration::Seconds(6));

  // The swap went through: every replica runs the new version…
  EXPECT_EQ(rig.orchestrator->rollout().stable_version(rig.device,
                                                       rig.service),
            (*candidate)->id);
  const auto versions =
      rig.orchestrator->registry().LiveModelVersions(rig.device, rig.service);
  ASSERT_EQ(versions.size(), 1u);
  EXPECT_EQ(versions[0], (*candidate)->id);
  EXPECT_GE(rig.orchestrator->rollout().stats().swaps, 1u);

  // …and not a single admitted frame was lost to it: nothing abandoned,
  // nothing shed, and the pipeline kept completing frames throughout.
  EXPECT_EQ(rig.pipeline->metrics().frames_abandoned(), 0u);
  EXPECT_EQ(rig.pipeline->metrics().requests_shed(), 0u);
  EXPECT_EQ(rig.pipeline->metrics().call_timeouts(), 0u);
  EXPECT_GT(rig.pipeline->metrics().frames_completed(),
            completed_before + 20u);
  ExpectInvariantsHold(*rig.orchestrator);
}

TEST(ModelLifecycle, PoisonedCanaryAutoRollsBack) {
  Rig rig(FastPolicy());
  rig.pipeline->Start();
  rig.orchestrator->RunFor(Duration::Seconds(2));
  const std::string v0 =
      rig.orchestrator->rollout().stable_version(rig.device, rig.service);

  // Inject the model fault through the injector's poison hook: a bad
  // candidate (60% label noise, 3x cost) staged via the normal canary
  // path at t = 3 s.
  sim::FaultInjector injector(&rig.cluster->simulator(),
                              &rig.cluster->network(), TestSeed());
  rig.orchestrator->RegisterModelGroupsForFaults(injector);
  ASSERT_EQ(injector.model_group_count(), 1u);
  ASSERT_TRUE(injector
                  .ScheduleModelPoison(rig.device + "/" + rig.service,
                                       TimePoint::FromMicros(3000000))
                  .ok());

  rig.orchestrator->RunFor(Duration::Seconds(14));

  // The gates caught the regression inside the decision window and
  // reverted every replica to the incumbent — no operator involved.
  EXPECT_EQ(injector.stats().model_poisons, 1u);
  EXPECT_EQ(rig.orchestrator->rollout().stats().rollbacks, 1u);
  EXPECT_EQ(rig.orchestrator->rollout().stats().promotions, 0u);
  EXPECT_EQ(rig.orchestrator->rollout().phase(rig.device, rig.service),
            modelreg::RolloutPhase::kStable);
  EXPECT_EQ(rig.orchestrator->rollout().stable_version(rig.device,
                                                       rig.service),
            v0);
  const auto versions =
      rig.orchestrator->registry().LiveModelVersions(rig.device, rig.service);
  ASSERT_EQ(versions.size(), 1u);
  EXPECT_EQ(versions[0], v0);
  EXPECT_GT(rig.orchestrator->rollout().stats().last_rollback_ms, 0.0);
  // The pipeline survived the whole episode without dropping frames.
  EXPECT_EQ(rig.pipeline->metrics().frames_abandoned(), 0u);
  ExpectInvariantsHold(*rig.orchestrator);
}

TEST(ModelLifecycle, HealthyCanaryPromotesToExactlyOneLiveVersion) {
  modelreg::RolloutPolicy policy = FastPolicy();
  policy.accuracy_margin = 0.25;  // a healthy retrain must clear this
  Rig rig(policy);
  rig.pipeline->Start();
  rig.orchestrator->RunFor(Duration::Seconds(2));

  modelreg::ModelSpec next = modelreg::DefaultActivitySpec();
  next.train_seed = 900 + TestSeed();
  ASSERT_TRUE(rig.orchestrator
                  ->BeginModelRollout(rig.device, rig.service, next)
                  .ok());
  // Mid-rollout (after the canary replicas' async hot-swap lands, well
  // before the decision window) the group runs two versions side by
  // side.
  rig.orchestrator->RunFor(Duration::Millis(500));
  EXPECT_EQ(rig.orchestrator->rollout().phase(rig.device, rig.service),
            modelreg::RolloutPhase::kCanary);
  EXPECT_EQ(rig.orchestrator->registry()
                .LiveModelVersions(rig.device, rig.service)
                .size(),
            2u);

  rig.orchestrator->RunFor(Duration::Seconds(12));

  EXPECT_EQ(rig.orchestrator->rollout().stats().promotions, 1u);
  EXPECT_EQ(rig.orchestrator->rollout().stats().rollbacks, 0u);
  EXPECT_EQ(rig.orchestrator->rollout().phase(rig.device, rig.service),
            modelreg::RolloutPhase::kStable);
  EXPECT_EQ(rig.orchestrator->rollout().stable_version(rig.device,
                                                       rig.service),
            next.ContentId());
  // Promotion leaves exactly one live version across the group.
  const auto versions =
      rig.orchestrator->registry().LiveModelVersions(rig.device, rig.service);
  ASSERT_EQ(versions.size(), 1u);
  EXPECT_EQ(versions[0], next.ContentId());
  ExpectInvariantsHold(*rig.orchestrator);
}

TEST(ModelLifecycle, MonitorAndTraceCarryModelVersions) {
  Rig rig;
  core::PipelineMonitor monitor(rig.orchestrator.get(),
                                Duration::Millis(500));
  monitor.WatchService(rig.device, rig.service);
  monitor.Start();
  rig.pipeline->Start();
  rig.orchestrator->RunFor(Duration::Seconds(4));
  monitor.Stop();

  ASSERT_FALSE(monitor.samples().empty());
  const core::MonitorSample& sample = monitor.samples().back();
  const std::string group = rig.device + "/" + rig.service;
  ASSERT_TRUE(sample.model_version.count(group));
  EXPECT_EQ(sample.model_version.at(group),
            modelreg::DefaultActivitySpec().ContentId());
  EXPECT_EQ(sample.rollout_phase.at(group), "stable");
  ASSERT_FALSE(sample.replica_model_versions.at(group).empty());
  const std::string doc = json::Write(sample.ToJson());
  EXPECT_NE(doc.find("\"models\""), std::string::npos);
  EXPECT_NE(doc.find("\"phase\""), std::string::npos);

  // Chrome trace: serving batch slices are annotated with the model
  // version that served them.
  const std::string trace =
      json::Write(core::ChromeTrace(*rig.pipeline, *rig.orchestrator));
  EXPECT_NE(trace.find("\"model_version\""), std::string::npos);

  // Latency summaries now expose the p99 tail alongside p95.
  const core::LatencySummary total = rig.pipeline->metrics().TotalLatency();
  EXPECT_GE(total.p99_ms, total.p95_ms);
  EXPECT_GE(total.max_ms, total.p99_ms);
  ExpectInvariantsHold(*rig.orchestrator);
}

}  // namespace
}  // namespace vp
