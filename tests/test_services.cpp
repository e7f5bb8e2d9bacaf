// Tests for the stateless-service layer: catalog, container runtime,
// registry/load balancing, autoscaler, and the builtin services —
// including the statelessness property the paper's sharing and
// scaling results depend on.
#include <gtest/gtest.h>

#include "cv/pose_detector.hpp"
#include "media/codec.hpp"
#include "media/renderer.hpp"
#include "media/video_source.hpp"
#include "services/autoscaler.hpp"
#include "services/container.hpp"
#include "services/registry.hpp"
#include "services/service.hpp"
#include "sim/cluster.hpp"

namespace vp::services {
namespace {

media::FrameRef MakeFrame(uint64_t seed = 1) {
  media::Frame frame;
  frame.seq = seed;
  frame.image =
      media::RenderScene(media::Pose::Standing(), media::SceneOptions{}, seed);
  auto encoded = media::EncodedFrame::Parse(media::EncodeFrame(frame));
  return std::make_shared<const media::EncodedFrame>(std::move(*encoded));
}

/// A request carrying `payload`, shared as an issued call's would be.
ServiceRequest WithPayload(json::Value payload) {
  ServiceRequest request;
  request.payload = std::make_shared<const json::Value>(std::move(payload));
  return request;
}

/// Run one request through an instance synchronously (drains the sim).
Result<json::Value> InvokeSync(sim::Cluster& cluster,
                               ServiceInstance& instance,
                               ServiceRequest request) {
  std::optional<Result<json::Value>> slot;
  instance.Invoke(std::move(request),
                  [&](Result<json::Value> r) { slot = std::move(r); });
  cluster.simulator().RunUntilIdle();
  if (!slot.has_value()) return Internal("no response");
  return std::move(*slot);
}

// -------------------------------------------------------------- Catalog

TEST(Catalog, RegisterCreateAndDuplicates) {
  ServiceCatalog catalog;
  struct Dummy : Service {
    std::string name() const override { return "dummy"; }
    Duration Cost(const ServiceRequest&) const override {
      return Duration::Millis(1);
    }
    Result<json::Value> Handle(const ServiceRequest&) override {
      return json::Value(true);
    }
  };
  ASSERT_TRUE(
      catalog.Register("dummy", [] { return std::make_unique<Dummy>(); })
          .ok());
  EXPECT_EQ(catalog
                .Register("dummy", [] { return std::make_unique<Dummy>(); })
                .code(),
            StatusCode::kAlreadyExists);
  EXPECT_TRUE(catalog.Contains("dummy"));
  EXPECT_TRUE(catalog.Create("dummy").ok());
  EXPECT_EQ(catalog.Create("nope").code(), StatusCode::kNotFound);
}

TEST(Catalog, BuiltinsAreRegistered) {
  const ServiceCatalog catalog = ServiceCatalog::WithBuiltins();
  for (const char* name :
       {"pose_detector", "activity_classifier", "rep_counter",
        "object_detector", "object_tracker", "face_detector",
        "fall_detector", "image_classifier", "display"}) {
    EXPECT_TRUE(catalog.Contains(name)) << name;
  }
  EXPECT_EQ(catalog.names().size(), 9u);
}

// ------------------------------------------------------------ Container

class ContainerTest : public ::testing::Test {
 protected:
  ContainerTest()
      : cluster_(sim::MakeHomeTestbed()),
        catalog_(ServiceCatalog::WithBuiltins()),
        runtime_(cluster_.get(), &catalog_) {}
  std::unique_ptr<sim::Cluster> cluster_;
  ServiceCatalog catalog_;
  ContainerRuntime runtime_;
};

TEST_F(ContainerTest, LaunchOnContainerDevice) {
  auto instance = runtime_.Launch("desktop", "pose_detector");
  ASSERT_TRUE(instance.ok());
  EXPECT_EQ((*instance)->device(), "desktop");
  EXPECT_EQ((*instance)->service_name(), "pose_detector");
  EXPECT_FALSE((*instance)->native());
}

TEST_F(ContainerTest, PhoneCannotRunContainers) {
  EXPECT_EQ(runtime_.Launch("phone", "pose_detector").code(),
            StatusCode::kFailedPrecondition);
  // …but native services are fine (the paper's blue boxes).
  auto native = runtime_.LaunchNative("phone", "display");
  ASSERT_TRUE(native.ok());
  EXPECT_TRUE((*native)->native());
}

TEST_F(ContainerTest, CoreExhaustion) {
  // The TV has 2 container cores.
  ASSERT_TRUE(runtime_.Launch("tv", "pose_detector").ok());
  ASSERT_TRUE(runtime_.Launch("tv", "rep_counter").ok());
  EXPECT_EQ(runtime_.Launch("tv", "display").code(),
            StatusCode::kResourceExhausted);
}

TEST_F(ContainerTest, UnknownDeviceOrService) {
  EXPECT_EQ(runtime_.Launch("fridge", "display").code(),
            StatusCode::kNotFound);
  EXPECT_EQ(runtime_.Launch("desktop", "warp_drive").code(),
            StatusCode::kNotFound);
}

TEST_F(ContainerTest, StartupDelaysFirstRequest) {
  auto instance = runtime_.Launch("desktop", "rep_counter");
  ASSERT_TRUE(instance.ok());
  json::Value payload;
  payload["pose"] = cv::DetectedPose().ToJson();
  ServiceRequest request = WithPayload(std::move(payload));
  std::optional<double> completed;
  (*instance)->Invoke(std::move(request), [&](Result<json::Value>) {
    completed = cluster_->Now().millis();
  });
  cluster_->simulator().RunUntilIdle();
  ASSERT_TRUE(completed.has_value());
  // Container cold start (350 ms) gates the first response.
  EXPECT_GT(*completed, 350.0);
}

TEST_F(ContainerTest, InvokeChargesCostOnTheLane) {
  auto instance = runtime_.Launch("desktop", "pose_detector");
  ASSERT_TRUE(instance.ok());
  ServiceRequest request;
  request.frame = MakeFrame();
  const double before = cluster_->Now().millis();
  auto result = InvokeSync(*cluster_, **instance, std::move(request));
  ASSERT_TRUE(result.ok()) << result.error().ToString();
  // startup (350) + pose cost (tens of ms).
  EXPECT_GT(cluster_->Now().millis(), before + 360.0);
  EXPECT_EQ((*instance)->stats().requests, 1u);
  EXPECT_EQ((*instance)->stats().errors, 0u);
}

TEST_F(ContainerTest, ErrorsAreCounted) {
  auto instance = runtime_.Launch("desktop", "pose_detector");
  ASSERT_TRUE(instance.ok());
  ServiceRequest request;  // no frame → InvalidArgument
  auto result = InvokeSync(*cluster_, **instance, std::move(request));
  EXPECT_FALSE(result.ok());
  EXPECT_EQ((*instance)->stats().errors, 1u);
}

TEST_F(ContainerTest, CostJitterIsDeterministicPerSeed) {
  auto run = [&](uint64_t seed) {
    auto cluster = sim::MakeHomeTestbed();
    ContainerOptions options;
    options.cost_jitter = 0.1;
    options.jitter_seed = seed;
    ContainerRuntime runtime(cluster.get(), &catalog_, options);
    auto instance = runtime.Launch("desktop", "pose_detector");
    ServiceRequest request;
    request.frame = MakeFrame();
    std::optional<Result<json::Value>> slot;
    (*instance)->Invoke(std::move(request),
                        [&](Result<json::Value> r) { slot = std::move(r); });
    cluster->simulator().RunUntilIdle();
    return cluster->Now().micros();
  };
  EXPECT_EQ(run(5), run(5));
  EXPECT_NE(run(5), run(6));
}

// ------------------------------------------------------------- Registry

TEST(Registry, FindPrefersLeastLoadedReplica) {
  auto cluster = sim::MakeHomeTestbed();
  ServiceCatalog catalog = ServiceCatalog::WithBuiltins();
  ContainerRuntime runtime(cluster.get(), &catalog);
  ServiceRegistry registry(cluster.get());

  auto a = runtime.Launch("desktop", "pose_detector");
  auto b = runtime.Launch("desktop", "pose_detector");
  ASSERT_TRUE(a.ok() && b.ok());
  ServiceInstance* replica_a = a->get();
  ServiceInstance* replica_b = b->get();
  registry.Add(std::move(*a));
  registry.Add(std::move(*b));
  cluster->simulator().RunUntilIdle();  // drain startup

  EXPECT_EQ(registry.Replicas("desktop", "pose_detector").size(), 2u);
  EXPECT_EQ(registry.total_instances(), 2u);

  // Load replica_a; Find must return replica_b.
  ServiceRequest request;
  request.frame = MakeFrame();
  replica_a->Invoke(std::move(request), nullptr);
  EXPECT_EQ(registry.Find("desktop", "pose_detector"), replica_b);
  EXPECT_EQ(registry.Find("desktop", "nothing"), nullptr);
  EXPECT_EQ(registry.DevicesHosting("pose_detector"),
            (std::vector<std::string>{"desktop"}));
}

// --------------------------------------------------- Statelessness

TEST(Statelessness, ReplicasGiveIdenticalAnswers) {
  // The §2.2 property: "These services all receive needed data as
  // input so they do not require saving state. This allows the
  // services to be shared among different applications."
  auto cluster = sim::MakeHomeTestbed();
  ServiceCatalog catalog = ServiceCatalog::WithBuiltins();
  ContainerRuntime runtime(cluster.get(), &catalog);
  auto a = runtime.Launch("desktop", "pose_detector");
  auto b = runtime.Launch("desktop", "pose_detector");
  ASSERT_TRUE(a.ok() && b.ok());

  for (uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    ServiceRequest ra;
    ra.frame = MakeFrame(seed);
    ServiceRequest rb;
    rb.frame = MakeFrame(seed);
    auto va = InvokeSync(*cluster, **a, std::move(ra));
    auto vb = InvokeSync(*cluster, **b, std::move(rb));
    ASSERT_TRUE(va.ok() && vb.ok());
    EXPECT_EQ(*va, *vb) << "replica divergence on frame " << seed;
  }
}

TEST(Statelessness, RepCounterCarriesStateInRequests) {
  // Alternate requests between two replicas; because state rides in
  // the request, the interleaved run must match a single-replica run.
  auto cluster = sim::MakeHomeTestbed();
  ServiceCatalog catalog = ServiceCatalog::WithBuiltins();
  ContainerRuntime runtime(cluster.get(), &catalog);
  auto a = runtime.Launch("desktop", "rep_counter");
  auto b = runtime.Launch("desktop", "rep_counter");
  ASSERT_TRUE(a.ok() && b.ok());

  auto step_through = [&](std::vector<ServiceInstance*> replicas) {
    json::Value state;
    int64_t reps = 0;
    for (int i = 0; i < 60; ++i) {
      cv::DetectedPose pose;
      for (int k = 0; k < media::kNumKeypoints; ++k) {
        auto& kp = pose.keypoints[static_cast<size_t>(k)];
        kp.detected = true;
        kp.x = 10 + k;
        kp.y = 40 + k + ((i / 10) % 2 == 1 ? 30.0 : 0.0);  // two phases
      }
      pose.num_detected = 17;
      json::Value payload;
      payload["pose"] = pose.ToJson();
      if (!state.is_null()) payload["state"] = state;
      auto result = InvokeSync(
          *cluster, *replicas[static_cast<size_t>(i) % replicas.size()],
          WithPayload(std::move(payload)));
      EXPECT_TRUE(result.ok());
      if (result.ok()) {
        state = *result->Find("state");
        reps = result->GetInt("reps");
      }
    }
    return reps;
  };

  const int64_t single = step_through({a->get()});
  const int64_t interleaved = step_through({a->get(), b->get()});
  EXPECT_EQ(single, interleaved);
}

// ------------------------------------------------------------- Builtins

class BuiltinsTest : public ::testing::Test {
 protected:
  BuiltinsTest()
      : cluster_(sim::MakeHomeTestbed()),
        catalog_(ServiceCatalog::WithBuiltins()),
        runtime_(cluster_.get(), &catalog_) {}

  Result<json::Value> Call(const std::string& service, ServiceRequest req) {
    auto instance = runtime_.Launch("desktop", service);
    EXPECT_TRUE(instance.ok());
    return InvokeSync(*cluster_, **instance, std::move(req));
  }

  std::unique_ptr<sim::Cluster> cluster_;
  ServiceCatalog catalog_;
  ContainerRuntime runtime_;
};

TEST_F(BuiltinsTest, PoseDetectorReturnsPoseJson) {
  ServiceRequest request;
  request.frame = MakeFrame(4);
  auto result = Call("pose_detector", std::move(request));
  ASSERT_TRUE(result.ok());
  EXPECT_GE(result->GetInt("num_detected"), 15);
  EXPECT_EQ(result->Find("keypoints")->AsArray().size(), 17u);
}

TEST_F(BuiltinsTest, ActivityClassifierAcceptsPoseWindows) {
  // Window of real squat frames.
  media::MotionParams params;
  params.period = 2.0;
  auto script = media::MotionScript::Make({{"squat", 10.0, params}});
  media::SyntheticVideoSource source(std::move(*script), 15.0,
                                     media::SceneOptions{}, 3);
  json::Value::Array poses;
  for (uint64_t f = 8; f < 8 + 15; ++f) {
    poses.push_back(cv::DetectPose(source.CaptureFrame(f).image).ToJson());
  }
  json::Value payload;
  payload["poses"] = json::Value(std::move(poses));
  ServiceRequest request = WithPayload(std::move(payload));
  auto result = Call("activity_classifier", std::move(request));
  ASSERT_TRUE(result.ok()) << result.error().ToString();
  EXPECT_EQ(result->GetString("label"), "squat");
  EXPECT_GT(result->GetDouble("confidence"), 0.5);
}

TEST_F(BuiltinsTest, FallDetectorService) {
  media::MotionParams params;
  params.period = 4.0;
  auto fall = media::MakeMotion("fall", params);
  json::Value::Array poses;
  for (int i = 0; i < 6; ++i) {
    const media::Pose pose = (*fall)->PoseAt(3.6 + 0.05 * i);
    poses.push_back(
        cv::DetectPose(media::RenderScene(pose, media::SceneOptions{},
                                          70 + static_cast<uint64_t>(i)))
            .ToJson());
  }
  json::Value payload;
  payload["poses"] = json::Value(std::move(poses));
  ServiceRequest request = WithPayload(std::move(payload));
  auto result = Call("fall_detector", std::move(request));
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->GetBool("fallen"));
}

TEST_F(BuiltinsTest, ImageClassifierService) {
  ServiceRequest request;
  request.frame = MakeFrame(5);
  auto result = Call("image_classifier", std::move(request));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->GetString("label"), "person_present");
}

TEST_F(BuiltinsTest, DisplayCountsFrames) {
  auto instance = runtime_.Launch("desktop", "display");
  ASSERT_TRUE(instance.ok());
  for (int i = 1; i <= 3; ++i) {
    json::Value payload;
    payload["overlay"]["reps"] = json::Value(i);
    auto result =
        InvokeSync(*cluster_, **instance, WithPayload(std::move(payload)));
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(result->GetBool("displayed"));
    EXPECT_EQ(result->GetInt("frames_shown"), i);
    EXPECT_EQ(result->Find("overlay")->GetInt("reps"), i);
  }
}

TEST_F(BuiltinsTest, ObjectDetectorWithClasses) {
  media::SceneOptions scene;
  scene.props.push_back(
      media::Prop{"lamp", 0.05, 0.1, 0.1, 0.25, media::Rgb{200, 160, 40}});
  media::Frame frame;
  media::Pose hidden;
  hidden.visible.fill(false);
  frame.image = media::RenderScene(hidden, scene, 80);
  auto encoded = media::EncodedFrame::Parse(media::EncodeFrame(frame));
  ASSERT_TRUE(encoded.ok());
  json::Value cls = json::Value::MakeObject();
  cls["name"] = json::Value("lamp");
  cls["r"] = json::Value(200);
  cls["g"] = json::Value(160);
  cls["b"] = json::Value(40);
  json::Value payload;
  payload["classes"].PushBack(std::move(cls));
  ServiceRequest request = WithPayload(std::move(payload));
  request.frame =
      std::make_shared<const media::EncodedFrame>(std::move(*encoded));
  auto result = Call("object_detector", std::move(request));
  ASSERT_TRUE(result.ok());
  const json::Value* objects = result->Find("objects");
  ASSERT_NE(objects, nullptr);
  ASSERT_EQ(objects->AsArray().size(), 1u);
  EXPECT_EQ(objects->AsArray()[0].GetString("class"), "lamp");
}

TEST_F(BuiltinsTest, FaceDetectorBothPaths) {
  ServiceRequest by_frame;
  by_frame.frame = MakeFrame(6);
  auto from_frame = Call("face_detector", std::move(by_frame));
  ASSERT_TRUE(from_frame.ok());
  EXPECT_TRUE(from_frame->GetBool("found"));

  json::Value pose;
  pose["pose"] = cv::DetectPose(MakeFrame(6)->image()).ToJson();
  auto from_pose = Call("face_detector", WithPayload(std::move(pose)));
  ASSERT_TRUE(from_pose.ok());
  EXPECT_TRUE(from_pose->GetBool("found"));
}

// ----------------------------------------------------------- Autoscaler

TEST(Autoscaler, ScalesUnderSustainedBacklog) {
  auto cluster = sim::MakeHomeTestbed();
  ServiceCatalog catalog = ServiceCatalog::WithBuiltins();
  ContainerRuntime runtime(cluster.get(), &catalog);
  ServiceRegistry registry(cluster.get());
  AutoscalerOptions options;
  options.check_interval = Duration::Millis(200);
  options.backlog_high_water = 1.5;
  options.max_replicas_per_group = 3;
  Autoscaler autoscaler(cluster.get(), &runtime, &registry, options);

  auto first = runtime.Launch("desktop", "pose_detector");
  ASSERT_TRUE(first.ok());
  registry.Add(std::move(*first));
  autoscaler.Watch("desktop", "pose_detector");
  autoscaler.Start();

  // Hammer the group: 25 req/s against a ~55 ms service.
  auto frame = MakeFrame(9);
  std::function<void()> offer = [&] {
    ServiceInstance* replica = registry.Find("desktop", "pose_detector");
    if (replica != nullptr) {
      ServiceRequest request;
      request.frame = frame;
      replica->Invoke(std::move(request), nullptr);
    }
    cluster->simulator().After(Duration::Millis(40), offer);
  };
  offer();
  cluster->simulator().RunUntil(TimePoint::FromMicros(6'000'000));
  autoscaler.Stop();

  EXPECT_GE(registry.Replicas("desktop", "pose_detector").size(), 2u);
  EXPECT_FALSE(autoscaler.events().empty());
  EXPECT_LE(registry.Replicas("desktop", "pose_detector").size(),
            static_cast<size_t>(options.max_replicas_per_group));
}

TEST(Autoscaler, QuietGroupsStayAtOneReplica) {
  auto cluster = sim::MakeHomeTestbed();
  ServiceCatalog catalog = ServiceCatalog::WithBuiltins();
  ContainerRuntime runtime(cluster.get(), &catalog);
  ServiceRegistry registry(cluster.get());
  Autoscaler autoscaler(cluster.get(), &runtime, &registry);

  auto first = runtime.Launch("desktop", "rep_counter");
  ASSERT_TRUE(first.ok());
  registry.Add(std::move(*first));
  autoscaler.Watch("desktop", "rep_counter");
  autoscaler.Start();
  cluster->simulator().RunUntil(TimePoint::FromMicros(5'000'000));
  autoscaler.Stop();
  EXPECT_EQ(registry.Replicas("desktop", "rep_counter").size(), 1u);
  EXPECT_TRUE(autoscaler.events().empty());
}


TEST(Registry, GraveyardKeepsDowntimeAndRequestCounts) {
  // Regression: TotalDowntime / RequestCount must include RETIRED
  // replicas — a device crash used to zero the group's history.
  auto cluster = sim::MakeHomeTestbed();
  ServiceCatalog catalog = ServiceCatalog::WithBuiltins();
  ContainerRuntime runtime(cluster.get(), &catalog);
  ServiceRegistry registry(cluster.get());
  auto launched = runtime.Launch("desktop", "pose_detector");
  ASSERT_TRUE(launched.ok());
  ServiceInstance* replica = launched->get();
  registry.Add(std::move(*launched));
  cluster->simulator().RunUntilIdle();

  for (uint64_t seed : {1ULL, 2ULL}) {
    ServiceRequest request;
    request.frame = MakeFrame(seed);
    ASSERT_TRUE(InvokeSync(*cluster, *replica, std::move(request)).ok());
  }
  EXPECT_EQ(registry.RequestCount("desktop", "pose_detector"), 2u);

  replica->Crash(cluster->simulator().Now());
  cluster->simulator().RunUntil(cluster->simulator().Now() +
                                Duration::Millis(500));
  const TimePoint now = cluster->simulator().Now();
  EXPECT_GE(registry.TotalDowntime(now).millis(), 500.0);

  ASSERT_EQ(registry.RetireDevice("desktop", now), 1u);
  EXPECT_TRUE(registry.Replicas("desktop", "pose_detector").empty());
  EXPECT_EQ(registry.retired_instances(), 1u);
  // The history survives retirement…
  EXPECT_EQ(registry.RequestCount("desktop", "pose_detector"), 2u);
  EXPECT_GE(registry.TotalDowntime(now).millis(), 500.0);
  // …and keeps accruing while the corpse stays down.
  cluster->simulator().RunUntil(now + Duration::Millis(300));
  EXPECT_GE(registry.TotalDowntime(cluster->simulator().Now()).millis(),
            800.0);
}

TEST(Registry, RetireIdleReplicaReleasesCoreAndKeepsHistory) {
  auto cluster = sim::MakeHomeTestbed();
  ServiceCatalog catalog = ServiceCatalog::WithBuiltins();
  ContainerRuntime runtime(cluster.get(), &catalog);
  ServiceRegistry registry(cluster.get());
  // The TV has exactly 2 container cores — fill both.
  std::vector<ServiceInstance*> replicas;
  for (int i = 0; i < 2; ++i) {
    auto launched = runtime.Launch("tv", "pose_detector");
    ASSERT_TRUE(launched.ok());
    replicas.push_back(launched->get());
    registry.Add(std::move(*launched));
  }
  cluster->simulator().RunUntilIdle();
  EXPECT_EQ(runtime.Launch("tv", "display").code(),
            StatusCode::kResourceExhausted);
  for (ServiceInstance* replica : replicas) {
    ServiceRequest request;
    request.frame = MakeFrame(7);
    ASSERT_TRUE(InvokeSync(*cluster, *replica, std::move(request)).ok());
  }
  const TimePoint now = cluster->simulator().Now();

  // The keep floor is honored…
  EXPECT_FALSE(registry.RetireIdleReplica("tv", "pose_detector", 2, now));
  // …then one idle replica retires gracefully.
  EXPECT_TRUE(registry.RetireIdleReplica("tv", "pose_detector", 1, now));
  EXPECT_EQ(registry.Replicas("tv", "pose_detector").size(), 1u);
  EXPECT_EQ(registry.retired_instances(), 1u);
  // Scale-down is not downtime, and the group history is preserved.
  EXPECT_EQ(registry.TotalDowntime(now), Duration::Zero());
  EXPECT_EQ(registry.RequestCount("tv", "pose_detector"), 2u);
  // Its container core is free again.
  EXPECT_TRUE(runtime.Launch("tv", "display").ok());
  // Never below the floor.
  EXPECT_FALSE(registry.RetireIdleReplica("tv", "pose_detector", 1, now));
}

TEST(Autoscaler, RetiresIdleReplicaAfterSustainedLowWater) {
  auto cluster = sim::MakeHomeTestbed();
  ServiceCatalog catalog = ServiceCatalog::WithBuiltins();
  ContainerRuntime runtime(cluster.get(), &catalog);
  ServiceRegistry registry(cluster.get());
  AutoscalerOptions options;
  options.check_interval = Duration::Millis(200);
  options.backlog_low_water = 0.1;
  options.scale_down_grace_checks = 3;
  Autoscaler autoscaler(cluster.get(), &runtime, &registry, options);

  for (int i = 0; i < 2; ++i) {
    auto launched = runtime.Launch("desktop", "pose_detector");
    ASSERT_TRUE(launched.ok());
    registry.Add(std::move(*launched));
  }
  autoscaler.Watch("desktop", "pose_detector");
  autoscaler.Start();
  cluster->simulator().RunUntil(TimePoint::FromMicros(5'000'000));
  autoscaler.Stop();

  // Sustained idleness shrank the group to the floor of one — and the
  // event log shows the scale-down.
  EXPECT_EQ(registry.Replicas("desktop", "pose_detector").size(), 1u);
  ASSERT_FALSE(autoscaler.events().empty());
  const ScaleEvent& event = autoscaler.events().back();
  EXPECT_EQ(event.direction, -1);
  EXPECT_EQ(event.replicas_after, 1);
  EXPECT_EQ(event.device, "desktop");
  EXPECT_EQ(event.service, "pose_detector");
}

// ---------------------------------------------------------- Batching

TEST(ContainerBatch, InvokeBatchDeliversPerEntryResultsAndAmortizes) {
  auto cluster = sim::MakeHomeTestbed();
  ServiceCatalog catalog = ServiceCatalog::WithBuiltins();
  ContainerRuntime runtime(cluster.get(), &catalog);
  auto launched = runtime.Launch("desktop", "pose_detector");
  ASSERT_TRUE(launched.ok());
  ServiceInstance& replica = **launched;
  cluster->simulator().RunUntilIdle();

  Duration solo_cost;
  std::vector<BatchEntry> entries;
  std::vector<Result<json::Value>> results;
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    BatchEntry entry;
    entry.request.frame = MakeFrame(seed);
    solo_cost += cv::PoseDetectCost(entry.request.frame->width(),
                                    entry.request.frame->height());
    entry.done = [&results](Result<json::Value> r) {
      results.push_back(std::move(r));
    };
    entries.push_back(std::move(entry));
  }
  bool delivered = false;
  const TimePoint t0 = cluster->simulator().Now();
  const uint64_t admissions = replica.lane()->tasks_run();
  replica.InvokeBatch(std::move(entries), Duration::Zero(),
                      [&delivered](bool d) { delivered = d; });
  cluster->simulator().RunUntilIdle();

  ASSERT_EQ(results.size(), 3u);
  for (const auto& result : results) EXPECT_TRUE(result.ok());
  EXPECT_TRUE(delivered);
  EXPECT_EQ(replica.lane()->tasks_run(), admissions + 1);
  EXPECT_EQ(replica.stats().requests, 3u);
  // One lane admission, cheaper than three solo invocations.
  EXPECT_LT((cluster->simulator().Now() - t0).millis(),
            solo_cost.millis() * 0.9);

  // A crashed replica refuses the whole batch immediately.
  replica.Crash(cluster->simulator().Now());
  std::vector<BatchEntry> refused;
  int errors = 0;
  for (uint64_t seed = 4; seed <= 5; ++seed) {
    BatchEntry entry;
    entry.request.frame = MakeFrame(seed);
    entry.done = [&errors](Result<json::Value> r) {
      if (r.code() == StatusCode::kUnavailable) ++errors;
    };
    refused.push_back(std::move(entry));
  }
  replica.InvokeBatch(std::move(refused), Duration::Zero(), nullptr);
  EXPECT_EQ(errors, 2);
  EXPECT_EQ(replica.stats().refused, 2u);
}

}  // namespace
}  // namespace vp::services
