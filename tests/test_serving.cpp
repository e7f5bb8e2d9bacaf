// Serving layer: micro-batching, priority classes, deadline-aware
// scheduling, and the shed/fault edge cases (ISSUE: batch window with
// a single request; replica crash mid-batch; starvation guard;
// deterministic under VP_TEST_SEED).
//
// Seed-sweepable: set VP_TEST_SEED to vary cluster seeds; default 42.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <string>
#include <vector>

#include "apps/fitness.hpp"
#include "core/monitor.hpp"
#include "core/orchestrator.hpp"
#include "core/trace_export.hpp"
#include "json/write.hpp"
#include "media/codec.hpp"
#include "media/renderer.hpp"
#include "serving/request_scheduler.hpp"
#include "services/container.hpp"
#include "services/registry.hpp"
#include "sim/cluster.hpp"
#include "invariants_hold.hpp"

namespace vp {
namespace {

uint64_t TestSeed() {
  const char* env = std::getenv("VP_TEST_SEED");
  return env != nullptr ? std::strtoull(env, nullptr, 10) : 42;
}

using test_support::ExpectInvariantsHold;

media::FrameRef MakeFrame(uint64_t seed = 1) {
  media::Frame frame;
  frame.seq = seed;
  frame.image =
      media::RenderScene(media::Pose::Standing(), media::SceneOptions{}, seed);
  auto encoded = media::EncodedFrame::Parse(media::EncodeFrame(frame));
  return std::make_shared<const media::EncodedFrame>(std::move(*encoded));
}

// ------------------------------------------------- scheduler unit rig

class SchedulerTest : public ::testing::Test {
 protected:
  SchedulerTest()
      : cluster_(sim::MakeHomeTestbed(TestSeed())),
        catalog_(services::ServiceCatalog::WithBuiltins()),
        runtime_(cluster_.get(), &catalog_),
        registry_(cluster_.get()) {}

  sim::Simulator& sim() { return cluster_->simulator(); }

  services::ServiceInstance* AddReplica(
      const std::string& device = "desktop",
      const std::string& service = "pose_detector") {
    auto instance = runtime_.Launch(device, service);
    EXPECT_TRUE(instance.ok()) << instance.status().ToString();
    services::ServiceInstance* raw = instance->get();
    registry_.Add(std::move(*instance));
    sim().RunUntilIdle();  // drain container startup
    return raw;
  }

  /// A pose request whose completion appends `label` to `order_` and
  /// records its final status in `codes_[label]`.
  serving::SchedulerRequest Req(const std::string& label,
                                int priority_class = 1,
                                std::optional<TimePoint> deadline = {}) {
    serving::SchedulerRequest request;
    request.request.frame = MakeFrame(1 + order_.size());
    request.priority_class = priority_class;
    request.deadline = deadline;
    request.done = [this, label](Result<json::Value> result) {
      order_.push_back(label);
      codes_[label] = result.ok() ? StatusCode::kOk : result.error().code();
      ++calls_[label];
    };
    return request;
  }

  size_t IndexOf(const std::string& label) const {
    for (size_t i = 0; i < order_.size(); ++i) {
      if (order_[i] == label) return i;
    }
    return order_.size();
  }

  std::unique_ptr<sim::Cluster> cluster_;
  services::ServiceCatalog catalog_;
  services::ContainerRuntime runtime_;
  services::ServiceRegistry registry_;
  std::vector<std::string> order_;          // completion order
  std::map<std::string, StatusCode> codes_;  // final status per label
  std::map<std::string, int> calls_;         // callback count per label
};

TEST_F(SchedulerTest, SingleRequestFlushesWhenWindowExpires) {
  AddReplica();
  serving::RequestScheduler sched(&sim(), &registry_, "desktop",
                                  "pose_detector");
  const TimePoint t0 = sim().Now();
  sched.Submit(Req("solo"));
  // The window holds the lone request back, hoping for company…
  EXPECT_EQ(sched.queue_depth(), 1);
  sim().RunUntil(t0 + Duration::Millis(2));
  EXPECT_EQ(sched.stats().batches, 0u);
  // …then flushes it as a batch of one when the window expires.
  sim().RunUntilIdle();
  EXPECT_EQ(codes_.at("solo"), StatusCode::kOk);
  EXPECT_EQ(calls_.at("solo"), 1);
  EXPECT_EQ(sched.stats().batches, 1u);
  EXPECT_EQ(sched.stats().batch_size_histogram.at(1), 1u);
  ASSERT_EQ(sched.spans().size(), 1u);
  const serving::BatchSpan& span = sched.spans().front();
  EXPECT_EQ(span.size, 1);
  EXPECT_TRUE(span.delivered);
  EXPECT_NEAR((span.dispatch - t0).millis(),
              sched.options().batch_window.millis(), 1e-9);
}

TEST_F(SchedulerTest, ConcurrentSubmissionsCoalesceAndAmortize) {
  AddReplica();
  serving::RequestScheduler sched(&sim(), &registry_, "desktop",
                                  "pose_detector");
  // Baseline: a batch of one.
  sched.Submit(Req("a"));
  sim().RunUntilIdle();
  ASSERT_EQ(sched.spans().size(), 1u);
  const Duration solo = sched.spans()[0].complete - sched.spans()[0].dispatch;

  // Four requests land inside one window → ONE batch of four, cheaper
  // than four solo invocations (the CNN setup is amortized).
  for (const char* label : {"b", "c", "d", "e"}) sched.Submit(Req(label));
  sim().RunUntilIdle();
  ASSERT_EQ(sched.spans().size(), 2u);
  const serving::BatchSpan& batch = sched.spans()[1];
  EXPECT_EQ(batch.size, 4);
  EXPECT_LT((batch.complete - batch.dispatch).millis(), 3.5 * solo.millis());
  EXPECT_EQ(sched.stats().dispatched, 5u);
  EXPECT_EQ(sched.stats().batch_size_histogram.at(4), 1u);
  for (const char* label : {"b", "c", "d", "e"}) {
    EXPECT_EQ(codes_.at(label), StatusCode::kOk) << label;
    EXPECT_EQ(calls_.at(label), 1) << label;
  }
}

TEST_F(SchedulerTest, MaxBatchSizeCapsDispatch) {
  AddReplica();
  serving::SchedulerOptions options;
  options.max_batch_size = 4;
  serving::RequestScheduler sched(&sim(), &registry_, "desktop",
                                  "pose_detector", options);
  for (int i = 0; i < 10; ++i) sched.Submit(Req("r" + std::to_string(i)));
  sim().RunUntilIdle();
  // One replica, one outstanding batch at a time: 4 + 4 + 2.
  EXPECT_EQ(sched.stats().batches, 3u);
  EXPECT_EQ(sched.stats().dispatched, 10u);
  EXPECT_EQ(sched.stats().batch_size_histogram.at(4), 2u);
  EXPECT_EQ(sched.stats().batch_size_histogram.at(2), 1u);
  EXPECT_EQ(order_.size(), 10u);
}

TEST_F(SchedulerTest, CrashMidBatchFailsEveryEntryExactlyOnce) {
  services::ServiceInstance* replica = AddReplica();
  serving::RequestScheduler sched(&sim(), &registry_, "desktop",
                                  "pose_detector");
  const TimePoint t0 = sim().Now();
  for (const char* label : {"x", "y", "z"}) sched.Submit(Req(label));
  // Let the batch dispatch (window = 3 ms), then kill the replica
  // while it is mid-execution.
  sim().RunUntil(t0 + Duration::Millis(10));
  EXPECT_EQ(sched.stats().batches, 1u);
  EXPECT_TRUE(order_.empty());
  replica->Crash(sim().Now());
  sim().RunUntilIdle();
  // PR 1 semantics, batch-wide: every entry failed exactly once with a
  // retryable kUnavailable — nothing lost, nothing executed twice.
  for (const char* label : {"x", "y", "z"}) {
    EXPECT_EQ(calls_.at(label), 1) << label;
    EXPECT_EQ(codes_.at(label), StatusCode::kUnavailable) << label;
  }
  EXPECT_EQ(sched.inflight_requests(), 0);
  EXPECT_EQ(sched.queue_depth(), 0);

  // The replica restarts; the scheduler serves new work again.
  replica->Restart(sim().Now(), Duration::Millis(50));
  sim().RunUntilIdle();
  sched.Submit(Req("after"));
  sim().RunUntilIdle();
  EXPECT_EQ(codes_.at("after"), StatusCode::kOk);
}

TEST_F(SchedulerTest, WedgedReplicaSwallowsBatchAndGetsSuspected) {
  services::ServiceInstance* replica = AddReplica();
  serving::RequestScheduler sched(&sim(), &registry_, "desktop",
                                  "pose_detector");
  replica->SetWedged(true);
  sched.Submit(Req("gone1"));
  sched.Submit(Req("gone2"));
  sim().RunUntilIdle();
  // No callback fires (callers recover by their own timeout, as in
  // PR 1); the scheduler circuit-breaks the replica.
  EXPECT_TRUE(order_.empty());
  EXPECT_EQ(sched.stats().batches_swallowed, 1u);
  EXPECT_EQ(sched.inflight_requests(), 0);
  EXPECT_TRUE(replica->suspected(sim().Now()));
  ASSERT_FALSE(sched.spans().empty());
  EXPECT_FALSE(sched.spans().back().delivered);

  // Unwedging clears suspicion; the group serves again.
  replica->SetWedged(false);
  sched.Submit(Req("back"));
  sim().RunUntilIdle();
  EXPECT_EQ(codes_.at("back"), StatusCode::kOk);
}

TEST_F(SchedulerTest, StrictPriorityServesInteractiveFirst) {
  AddReplica();
  serving::SchedulerOptions options;
  options.max_batch_size = 1;  // expose the dispatch ORDER
  serving::RequestScheduler sched(&sim(), &registry_, "desktop",
                                  "pose_detector", options);
  // Occupy the replica, then queue background BEFORE interactive.
  sched.Submit(Req("filler"));
  sim().RunUntil(sim().Now() + Duration::Millis(5));
  sched.Submit(Req("bg", /*priority_class=*/2));
  sched.Submit(Req("fg", /*priority_class=*/0));
  sim().RunUntilIdle();
  ASSERT_EQ(order_.size(), 3u);
  EXPECT_LT(IndexOf("fg"), IndexOf("bg"));
}

TEST_F(SchedulerTest, StarvationGuardPromotesOldBackgroundRequest) {
  auto run = [&](Duration grace) {
    order_.clear();
    serving::SchedulerOptions options;
    options.max_batch_size = 1;
    options.starvation_grace = grace;
    serving::RequestScheduler sched(&sim(), &registry_, "desktop",
                                    "pose_detector", options);
    sched.Submit(Req("filler"));
    sim().RunUntil(sim().Now() + Duration::Millis(5));
    sched.Submit(Req("bg", /*priority_class=*/2));
    // The interactive burst arrives later: the background request is
    // strictly the oldest entry in the queue while it waits.
    sim().RunUntil(sim().Now() + Duration::Millis(20));
    for (int i = 0; i < 4; ++i) {
      sched.Submit(Req("fg" + std::to_string(i), /*priority_class=*/0));
    }
    sim().RunUntilIdle();
    EXPECT_EQ(order_.size(), 6u);
    return IndexOf("bg");
  };
  AddReplica();
  // Without a meaningful grace, strict priority starves the background
  // request to the very end…
  EXPECT_EQ(run(Duration::Seconds(60)), 5u);
  // …the guard promotes it past still-queued interactive work once it
  // has waited long enough (but priority still wins before that).
  const size_t promoted = run(Duration::Millis(150));
  EXPECT_GT(promoted, 0u);
  EXPECT_LT(promoted, 5u);
}

TEST_F(SchedulerTest, EdfOrdersByDeadlineWithinClass) {
  AddReplica();
  serving::SchedulerOptions options;
  options.max_batch_size = 1;
  options.predictive_shedding = false;
  serving::RequestScheduler sched(&sim(), &registry_, "desktop",
                                  "pose_detector", options);
  sched.Submit(Req("filler"));
  sim().RunUntil(sim().Now() + Duration::Millis(5));
  const TimePoint now = sim().Now();
  sched.Submit(Req("late", 1, now + Duration::Millis(500)));
  sched.Submit(Req("urgent", 1, now + Duration::Millis(200)));
  sched.Submit(Req("whenever", 1));  // no deadline → after deadlined
  sim().RunUntilIdle();
  ASSERT_EQ(order_.size(), 4u);
  EXPECT_LT(IndexOf("urgent"), IndexOf("late"));
  EXPECT_LT(IndexOf("late"), IndexOf("whenever"));
}

TEST_F(SchedulerTest, PastDeadlineIsShedImmediately) {
  AddReplica();
  serving::RequestScheduler sched(&sim(), &registry_, "desktop",
                                  "pose_detector");
  const TimePoint now = sim().Now();
  sched.Submit(Req("expired", 0, now - Duration::Millis(1)));
  // Shed synchronously — no batch was ever dispatched for it.
  EXPECT_EQ(codes_.at("expired"), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(sched.stats().shed_deadline, 1u);
  EXPECT_EQ(sched.stats().shed_per_class[0], 1u);
  EXPECT_EQ(sched.stats().batches, 0u);
}

TEST_F(SchedulerTest, PredictiveSheddingUsesServiceTimeModel) {
  AddReplica();
  serving::RequestScheduler sched(&sim(), &registry_, "desktop",
                                  "pose_detector");
  // Warm the EWMA with one real completion (~55 ms for pose).
  sched.Submit(Req("warmup"));
  sim().RunUntilIdle();
  ASSERT_GT(sched.stats().ewma_service_ms, 10.0);
  // A deadline tighter than one service time cannot be met even on an
  // idle replica — admission control sheds it up front.
  sched.Submit(Req("doomed", 1, sim().Now() + Duration::Millis(5)));
  EXPECT_EQ(codes_.at("doomed"), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(sched.stats().shed_deadline, 1u);
  // A comfortable deadline still goes through.
  sched.Submit(Req("fine", 1, sim().Now() + Duration::Seconds(2)));
  sim().RunUntilIdle();
  EXPECT_EQ(codes_.at("fine"), StatusCode::kOk);
}

TEST_F(SchedulerTest, StaleEntriesEvictedAfterMaxQueueWait) {
  services::ServiceInstance* replica = AddReplica();
  serving::SchedulerOptions options;
  options.max_queue_wait = Duration::Millis(400);
  serving::RequestScheduler sched(&sim(), &registry_, "desktop",
                                  "pose_detector", options);
  // No available replica: the request queues with nowhere to go.
  replica->Crash(sim().Now());
  sched.Submit(Req("stuck"));
  EXPECT_EQ(sched.queue_depth(), 1);
  sim().RunUntil(sim().Now() + Duration::Millis(500));
  // The next pump (here: another submission) evicts it as stale, with
  // a RETRYABLE error — the caller's PR 1 retry/abandon path takes
  // over instead of the queue growing forever.
  sched.Submit(Req("also-stuck"));
  EXPECT_EQ(codes_.at("stuck"), StatusCode::kUnavailable);
  EXPECT_EQ(sched.stats().shed_stale, 1u);
}

TEST_F(SchedulerTest, FailAllFlushesQueueOnDeviceDeath) {
  services::ServiceInstance* replica = AddReplica();
  serving::RequestScheduler sched(&sim(), &registry_, "desktop",
                                  "pose_detector");
  replica->Crash(sim().Now());
  sched.Submit(Req("q1"));
  sched.Submit(Req("q2", 0));
  EXPECT_EQ(sched.queue_depth(), 2);
  sched.FailAll(Unavailable("device 'desktop' is down"));
  EXPECT_EQ(sched.queue_depth(), 0);
  EXPECT_EQ(codes_.at("q1"), StatusCode::kUnavailable);
  EXPECT_EQ(codes_.at("q2"), StatusCode::kUnavailable);
}

TEST_F(SchedulerTest, WeightedFairFollowsClassWeights) {
  AddReplica();
  serving::SchedulerOptions options;
  options.policy = serving::SchedulingPolicy::kWeightedFair;
  options.class_weights = {4, 2, 1};
  options.max_batch_size = 1;
  serving::RequestScheduler sched(&sim(), &registry_, "desktop",
                                  "pose_detector", options);
  // Keep all three classes backlogged; the first 7 dispatches must
  // split 4 : 2 : 1.
  for (int i = 0; i < 8; ++i) sched.Submit(Req("i" + std::to_string(i), 0));
  for (int i = 0; i < 4; ++i) sched.Submit(Req("n" + std::to_string(i), 1));
  for (int i = 0; i < 2; ++i) sched.Submit(Req("b" + std::to_string(i), 2));
  sim().RunUntilIdle();
  ASSERT_EQ(order_.size(), 14u);
  int per_class[3] = {0, 0, 0};
  for (size_t i = 0; i < 7; ++i) {
    if (order_[i][0] == 'i') ++per_class[0];
    if (order_[i][0] == 'n') ++per_class[1];
    if (order_[i][0] == 'b') ++per_class[2];
  }
  EXPECT_EQ(per_class[0], 4);
  EXPECT_EQ(per_class[1], 2);
  EXPECT_EQ(per_class[2], 1);
}

TEST_F(SchedulerTest, QueuePressureCountsQueuedAndInflight) {
  AddReplica();
  serving::SchedulerOptions options;
  options.max_batch_size = 2;
  serving::RequestScheduler sched(&sim(), &registry_, "desktop",
                                  "pose_detector", options);
  for (int i = 0; i < 5; ++i) sched.Submit(Req("p" + std::to_string(i)));
  sim().RunUntil(sim().Now() + Duration::Millis(10));
  // Batch of 2 in flight + 3 queued, 1 replica.
  EXPECT_EQ(sched.inflight_requests(), 2);
  EXPECT_EQ(sched.queue_depth(), 3);
  EXPECT_NEAR(sched.QueuePressure(sim().Now()), 5.0, 1e-9);
  sim().RunUntilIdle();
  EXPECT_NEAR(sched.QueuePressure(sim().Now()), 0.0, 1e-9);
}

// The CI seed sweep (VP_TEST_SEED=1..5) must see a fully deterministic
// scheduler: identical seeds → identical dispatch order and batching.
TEST(SchedulerDeterminism, SameSeedSameSchedule) {
  auto digest = [](uint64_t seed) {
    auto cluster = sim::MakeHomeTestbed(seed);
    services::ServiceCatalog catalog = services::ServiceCatalog::WithBuiltins();
    services::ContainerOptions copts;
    copts.cost_jitter = 0.1;  // jittered costs, seeded
    copts.jitter_seed = seed;
    services::ContainerRuntime runtime(cluster.get(), &catalog, copts);
    services::ServiceRegistry registry(cluster.get());
    auto instance = runtime.Launch("desktop", "pose_detector");
    EXPECT_TRUE(instance.ok());
    registry.Add(std::move(*instance));
    cluster->simulator().RunUntilIdle();

    serving::SchedulerOptions options;
    options.max_batch_size = 3;
    serving::RequestScheduler sched(&cluster->simulator(), &registry,
                                    "desktop", "pose_detector", options);
    std::string log;
    for (int i = 0; i < 12; ++i) {
      serving::SchedulerRequest request;
      request.request.frame = MakeFrame(static_cast<uint64_t>(i + 1));
      request.priority_class = i % 3;
      if (i % 4 == 0) {
        request.deadline =
            cluster->simulator().Now() + Duration::Millis(100 + 40 * i);
      }
      const std::string label = "r" + std::to_string(i);
      request.done = [&log, label, &cluster](Result<json::Value> result) {
        log += label + (result.ok() ? "+" : "-") + "@" +
               std::to_string(cluster->simulator().Now().micros()) + ";";
      };
      sched.Submit(std::move(request));
    }
    cluster->simulator().RunUntilIdle();
    for (const auto& [size, count] : sched.stats().batch_size_histogram) {
      log += "h" + std::to_string(size) + ":" + std::to_string(count) + ";";
    }
    return log;
  };
  const uint64_t seed = TestSeed();
  const std::string first = digest(seed);
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, digest(seed));
  EXPECT_EQ(digest(seed + 1), digest(seed + 1));
}

// ------------------------------------------------ orchestrator E2E

TEST(ServingEndToEnd, FitnessPipelineRunsThroughScheduler) {
  auto cluster = sim::MakeHomeTestbed(TestSeed());
  core::OrchestratorOptions options;
  options.serving.enabled = true;
  core::Orchestrator orchestrator(cluster.get(), options);
  auto spec = apps::fitness::Spec();
  core::Orchestrator::DeployArgs args;
  args.workload = apps::fitness::Workout();
  auto deployment = orchestrator.Deploy(std::move(*spec), std::move(args));
  ASSERT_TRUE(deployment.ok()) << deployment.status().ToString();

  core::PipelineMonitor monitor(&orchestrator, Duration::Millis(500));
  monitor.Start();
  (*deployment)->Start();
  orchestrator.RunFor(Duration::Seconds(12));
  monitor.Stop();

  // The pipeline keeps a healthy rate with every service call routed
  // through the schedulers.
  EXPECT_GT((*deployment)->metrics().frames_completed(), 80u);
  EXPECT_GT((*deployment)->metrics().EndToEndFps(), 7.0);
  ASSERT_FALSE(orchestrator.schedulers().empty());
  uint64_t submitted = 0;
  uint64_t batches = 0;
  for (const auto& [key, sched] : orchestrator.schedulers()) {
    submitted += sched->stats().submitted;
    batches += sched->stats().batches;
    // Every request is dispatched, shed or still queued. A dispatched
    // request stays counted in `dispatched` after its batch completes;
    // the ones still running are a part of it, not a fourth outcome.
    EXPECT_EQ(sched->stats().submitted,
              sched->stats().dispatched + sched->stats().shed_deadline +
                  sched->stats().shed_stale +
                  static_cast<uint64_t>(sched->queue_depth()))
        << key.first << "/" << key.second;
    EXPECT_LE(static_cast<uint64_t>(sched->inflight_requests()),
              sched->stats().dispatched)
        << key.first << "/" << key.second;
  }
  EXPECT_GT(submitted, 200u);
  EXPECT_GT(batches, 0u);

  // Monitor samples carry the scheduler readings…
  ASSERT_FALSE(monitor.samples().empty());
  const core::MonitorSample& sample = monitor.samples().back();
  const core::Labels pose = {{"group", "desktop/pose_detector"}};
  ASSERT_TRUE(sample.Number("scheduler_queue_delay_ms", pose).has_value());
  EXPECT_GE(sample.Number("scheduler_batch_occupancy", pose).value_or(0),
            1.0);
  EXPECT_NE(json::Write(sample.ToJson()).find("scheduler_batch_occupancy"),
            std::string::npos);

  // …and the Chrome trace export grows a "serving" process with one
  // slice per dispatched batch.
  const std::string trace =
      json::Write(core::ChromeTrace(**deployment, orchestrator));
  EXPECT_NE(trace.find("\"serving\""), std::string::npos);
  EXPECT_NE(trace.find("batch["), std::string::npos);
  EXPECT_NE(trace.find("desktop/pose_detector"), std::string::npos);
  ExpectInvariantsHold(orchestrator);
}

TEST(ServingEndToEnd, ScriptCatchesDeadlineExceededShed) {
  // The vpscript surface of the serving layer: a shed arrives as an
  // ordinary catchable error whose code is DEADLINE_EXCEEDED.
  auto spec = core::ParsePipelineConfigText(R"CFG({
    "name": "deadliner",
    "priority": "interactive",
    "deadline_ms": 20,
    "source": { "fps": 20, "width": 320, "height": 240 },
    "modules": [
      { "name": "cam", "type": "source", "next_module": ["proc"] },
      { "name": "proc", "service": ["pose_detector"], "signal_source": true,
        "code": "var sheds = 0; var last_code = ''; function event_received(m) { try { call_service('pose_detector', { frame_id: m.frame_id }); } catch (e) { sheds = sheds + 1; last_code = e.code; } }" }
    ]
  })CFG",
                                            core::MapResolver({}));
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  auto cluster = sim::MakeHomeTestbed(TestSeed());
  core::OrchestratorOptions options;
  options.serving.enabled = true;
  core::Orchestrator orchestrator(cluster.get(), options);
  core::Orchestrator::DeployArgs args;
  args.workload = apps::fitness::Workout();
  auto deployment = orchestrator.Deploy(std::move(*spec), std::move(args));
  ASSERT_TRUE(deployment.ok()) << deployment.status().ToString();
  (*deployment)->Start();
  orchestrator.RunFor(Duration::Seconds(10));

  // A 20 ms budget cannot cover a ~55 ms pose inference: once the
  // service-time model warms up, calls are shed on admission. The
  // handler catches every shed, so frames still complete.
  core::ModuleRuntime* proc = (*deployment)->FindModule("proc");
  ASSERT_NE(proc, nullptr);
  const json::Value state = proc->context().SnapshotState();
  EXPECT_EQ(state.GetString("last_code", ""), "DEADLINE_EXCEEDED");
  EXPECT_GT(state.GetDouble("sheds", 0), 20.0);
  EXPECT_GT((*deployment)->metrics().requests_shed(), 20u);
  EXPECT_GT((*deployment)->metrics().frames_completed(), 80u);
  ExpectInvariantsHold(orchestrator);
}

TEST(ServingEndToEnd, NonObjectPayloadIsACatchableInvalidArgument) {
  // call_service reads its payload as an object: "frame_id", the
  // serving plan, the service's own fields. An array, a number or a
  // string fails with one catchable INVALID_ARGUMENT before anything is
  // scheduled, on all four paths: co-located or remote, serving on or
  // off. (A remote call with serving on used to abort the host.)
  const std::string config = R"CFG({
    "name": "payloads",
    "source": { "fps": 10, "width": 64, "height": 48 },
    "modules": [
      { "name": "cam", "type": "source", "next_module": ["probe"] },
      { "name": "probe", "service": ["pose_detector"], "signal_source": true,
        "code": "
          var codes = [];
          function code_of(f) {
            try { f(); return 'ok'; } catch (e) { return e.code; }
          }
          function event_received(m) {
            if (codes.length > 0) return;
            codes.push(code_of(function () {
              call_service('pose_detector', [1, 2]); }));
            codes.push(code_of(function () {
              call_service('pose_detector', 5); }));
            codes.push(code_of(function () {
              call_service('pose_detector', 'frame'); }));
          }" }
    ]
  })CFG";
  for (const bool serving : {false, true}) {
    for (const core::PlacementPolicy policy :
         {core::PlacementPolicy::kCoLocate,
          core::PlacementPolicy::kSingleDevice}) {
      SCOPED_TRACE(std::string(core::PlacementPolicyName(policy)) +
                   (serving ? ", serving" : ", direct"));
      auto spec = core::ParsePipelineConfigText(config, core::MapResolver({}));
      ASSERT_TRUE(spec.ok()) << spec.status().ToString();
      auto cluster = sim::MakeHomeTestbed(TestSeed());
      core::OrchestratorOptions options;
      options.serving.enabled = serving;
      core::Orchestrator orchestrator(cluster.get(), options);
      core::Orchestrator::DeployArgs args;
      args.workload = apps::fitness::Workout();
      args.placement.policy = policy;
      auto deployment = orchestrator.Deploy(std::move(*spec), std::move(args));
      ASSERT_TRUE(deployment.ok()) << deployment.status().ToString();
      const core::DeploymentPlan& plan = (*deployment)->plan();
      const std::string& host = plan.service_device.at("pose_detector");
      EXPECT_EQ(plan.module_device.at("probe") == host,
                policy == core::PlacementPolicy::kCoLocate);

      (*deployment)->Start();
      orchestrator.RunFor(Duration::Seconds(2));
      const json::Value codes =
          (*deployment)->FindModule("probe")->context().GetGlobal("codes");
      const std::string invalid = R"("INVALID_ARGUMENT")";
      EXPECT_EQ(json::Write(codes),
                "[" + invalid + "," + invalid + "," + invalid + "]");
      // Nothing reached a replica or a scheduler, and frames still flow.
      for (services::ServiceInstance* replica :
           orchestrator.registry().Replicas(host, "pose_detector")) {
        EXPECT_EQ(replica->stats().requests, 0u);
      }
      for (const auto& [key, sched] : orchestrator.schedulers()) {
        EXPECT_EQ(sched->stats().submitted, 0u) << key.second;
      }
      EXPECT_GT((*deployment)->metrics().frames_completed(), 5u);
      ExpectInvariantsHold(orchestrator);
    }
  }
}

TEST(ServingEndToEnd, ColdStartDoesNotLockATightDeadlineOut) {
  // The first batch waits out the replica's 350 ms container cold
  // start. Counted as service time, that wait would start the EWMA
  // near 390 ms, and a lone pipeline whose deadline sits below it would
  // be shed on admission for good: a shed request never dispatches, so
  // the model never corrects. Service time counts from the batch's
  // lane start instead, so the deadline costs (almost) no frames.
  auto completed = [](core::PlacementPolicy policy, double deadline_ms) {
    auto cluster = sim::MakeHomeTestbed(TestSeed());
    core::OrchestratorOptions options;
    options.serving.enabled = true;
    core::Orchestrator orchestrator(cluster.get(), options);
    auto spec = apps::fitness::Spec();
    EXPECT_TRUE(spec.ok()) << spec.status().ToString();
    spec->priority = "interactive";
    spec->deadline_ms = deadline_ms;
    core::Orchestrator::DeployArgs args;
    args.workload = apps::fitness::Workout();
    args.placement.policy = policy;
    auto deployment = orchestrator.Deploy(std::move(*spec), std::move(args));
    EXPECT_TRUE(deployment.ok()) << deployment.status().ToString();
    if (!deployment.ok()) return uint64_t{0};
    (*deployment)->Start();
    orchestrator.RunFor(Duration::Seconds(20));
    ExpectInvariantsHold(orchestrator);
    return (*deployment)->metrics().frames_completed();
  };
  for (const core::PlacementPolicy policy :
       {core::PlacementPolicy::kCoLocate,
        core::PlacementPolicy::kSingleDevice}) {
    SCOPED_TRACE(core::PlacementPolicyName(policy));
    const uint64_t unbounded = completed(policy, 0);
    const uint64_t bounded = completed(policy, 400);
    EXPECT_GT(unbounded, 100u);
    EXPECT_LE(bounded, unbounded + 2);
    EXPECT_GE(bounded + 2, unbounded);
  }
}

// ------------------------------------------ the four dispatch paths

// A module that makes one pose call, on its first frame past the
// replica's cold start, and records how the call ended and when.
constexpr const char* kOneCallConfig = R"CFG({
  "name": "one_call",
  "source": { "fps": 10, "width": 64, "height": 48 },
  "modules": [
    { "name": "cam", "type": "source", "next_module": ["probe"] },
    { "name": "probe", "service": ["pose_detector"], "signal_source": true,
      "code": "
        var code = ''; var message = ''; var t0 = -1; var t1 = -1;
        function event_received(m) {
          if (t0 >= 0 || now_ms() < 1000) return;
          t0 = now_ms();
          try {
            call_service('pose_detector', { frame_id: m.frame_id });
            code = 'OK';
          } catch (e) {
            code = e.code;
            message = e.message;
          }
          t1 = now_ms();
        }" }
  ]
})CFG";

struct OneCallRig {
  std::unique_ptr<sim::Cluster> cluster;
  std::unique_ptr<core::Orchestrator> orchestrator;
  core::PipelineDeployment* pipeline = nullptr;
  std::string host;  // the pose group's device
  services::ServiceInstance* replica = nullptr;
};

OneCallRig MakeOneCallRig(core::PlacementPolicy policy,
                          core::OrchestratorOptions options) {
  OneCallRig rig;
  rig.cluster = sim::MakeHomeTestbed(TestSeed());
  options.seed = TestSeed();
  rig.orchestrator =
      std::make_unique<core::Orchestrator>(rig.cluster.get(), options);
  auto spec = core::ParsePipelineConfigText(kOneCallConfig,
                                            core::MapResolver({}));
  EXPECT_TRUE(spec.ok()) << spec.status().ToString();
  core::Orchestrator::DeployArgs args;
  args.workload = apps::fitness::Workout();
  args.placement.policy = policy;
  auto deployment =
      rig.orchestrator->Deploy(std::move(*spec), std::move(args));
  EXPECT_TRUE(deployment.ok()) << deployment.status().ToString();
  rig.pipeline = *deployment;
  rig.host = rig.pipeline->plan().service_device.at("pose_detector");
  auto replicas = rig.orchestrator->registry().Replicas(rig.host,
                                                        "pose_detector");
  EXPECT_EQ(replicas.size(), 1u);
  rig.replica = replicas.front();
  return rig;
}

/// Virtual microseconds between two now_ms() readings a script kept.
int64_t MicrosBetween(const json::Value& state, const char* from,
                      const char* to) {
  return std::llround(state.GetDouble(to, -1) * 1e3) -
         std::llround(state.GetDouble(from, -1) * 1e3);
}

TEST(DispatchPaths, WedgedReplicaTimesOutFromTheGroupsDevice) {
  // One call into a wedged replica on each path: co-located or through
  // the gateway, serving off or on. The watchdog runs where the
  // replica group is, so a co-located caller waits exactly `timeout`
  // and a remote one `timeout` plus the two network legs: the gateway
  // answers, not the caller's backstop at timeout + remote_slack. Every
  // path reads the same error message.
  std::vector<std::string> messages;
  for (const bool serving : {false, true}) {
    for (const core::PlacementPolicy policy :
         {core::PlacementPolicy::kCoLocate,
          core::PlacementPolicy::kSingleDevice}) {
      const bool remote = policy == core::PlacementPolicy::kSingleDevice;
      SCOPED_TRACE(std::string(remote ? "remote" : "co-located") +
                   (serving ? ", serving" : ", direct"));
      core::OrchestratorOptions options;
      options.serving.enabled = serving;
      options.service_call.timeout = Duration::Millis(200);
      options.service_call.remote_slack = Duration::Millis(100);
      options.service_call.max_retries = 0;
      OneCallRig rig = MakeOneCallRig(policy, options);
      ASSERT_NE(rig.replica, nullptr);
      EXPECT_EQ(rig.pipeline->plan().module_device.at("probe") != rig.host,
                remote);
      rig.replica->SetWedged(true);
      rig.pipeline->Start();
      rig.orchestrator->RunFor(Duration::Millis(1500));

      const json::Value state =
          rig.pipeline->FindModule("probe")->context().SnapshotState();
      EXPECT_EQ(state.GetString("code", ""), "TIMEOUT");
      messages.push_back(state.GetString("message", ""));
      EXPECT_NE(messages.back().find("call to 'pose_detector' on " +
                                     rig.host + " timed out after 200 ms"),
                std::string::npos)
          << messages.back();
      const int64_t waited_us = MicrosBetween(state, "t0", "t1");
      if (remote) {
        EXPECT_GT(waited_us, 200000);
        EXPECT_LT(waited_us, 300000);
      } else {
        EXPECT_EQ(waited_us, 200000);
      }
      EXPECT_EQ(rig.replica->stats().swallowed, 1u);
      EXPECT_TRUE(rig.replica->suspected(rig.cluster->Now()));
      if (serving) {
        // Suspected by the scheduler when the batch was swallowed, for
        // exactly the breaker's duration: the watchdog marked nothing.
        const serving::RequestScheduler* sched =
            rig.orchestrator->scheduler(rig.host, "pose_detector");
        EXPECT_EQ(sched->stats().batches_swallowed, 1u);
        ASSERT_EQ(sched->spans().size(), 1u);
        const TimePoint until = sched->spans().back().complete +
                                options.service_call.suspect_duration;
        EXPECT_TRUE(rig.replica->suspected(until - Duration::Micros(1)));
        EXPECT_FALSE(rig.replica->suspected(until));
      } else {
        EXPECT_TRUE(rig.orchestrator->schedulers().empty());
      }
      ExpectInvariantsHold(*rig.orchestrator);
    }
  }
  ASSERT_EQ(messages.size(), 4u);
  for (const std::string& message : messages) {
    EXPECT_EQ(message, messages[0]);
  }
}

TEST(DispatchPaths, SwallowedBatchSuspectsForTheServiceCallBreaker) {
  // One circuit-breaker duration: a replica that swallows a batch sits
  // out for service_call.suspect_duration, as a timed-out direct call's
  // replica does.
  core::OrchestratorOptions options;
  options.serving.enabled = true;
  options.service_call.suspect_duration = Duration::Millis(300);
  OneCallRig rig = MakeOneCallRig(core::PlacementPolicy::kCoLocate, options);
  ASSERT_NE(rig.replica, nullptr);
  rig.replica->SetWedged(true);
  rig.pipeline->Start();
  rig.orchestrator->RunFor(Duration::Millis(1500));

  const serving::RequestScheduler* sched =
      rig.orchestrator->scheduler(rig.host, "pose_detector");
  ASSERT_EQ(sched->stats().batches_swallowed, 1u);
  ASSERT_EQ(sched->spans().size(), 1u);
  const TimePoint until =
      sched->spans().back().complete + Duration::Millis(300);
  EXPECT_TRUE(rig.replica->suspected(until - Duration::Micros(1)));
  EXPECT_FALSE(rig.replica->suspected(until));
  ExpectInvariantsHold(*rig.orchestrator);
}

/// Stands in for pose_detector: answers at once and keeps every
/// request its handler saw.
class RecordingPose : public services::Service {
 public:
  explicit RecordingPose(std::vector<services::ServiceRequest>* seen)
      : seen_(seen) {}
  std::string name() const override { return "pose_detector"; }
  Duration Cost(const services::ServiceRequest&) const override {
    return Duration::Millis(5);
  }
  Result<json::Value> Handle(const services::ServiceRequest& request) override {
    seen_->push_back(request);
    return json::Value::MakeObject();
  }

 private:
  std::vector<services::ServiceRequest>* seen_;
};

TEST(DispatchPaths, GatewaySubmitsShippedFramesToTheScheduler) {
  // Single-device placement ships every frame to the pose group's
  // gateway. With serving on, the gateway strips the scheduling plan,
  // parses the frame and submits to the group's scheduler.
  auto spec = core::ParsePipelineConfigText(R"CFG({
    "name": "shipper",
    "priority": "interactive",
    "source": { "fps": 10, "width": 64, "height": 48 },
    "modules": [
      { "name": "cam", "type": "source", "next_module": ["proc"] },
      { "name": "proc", "service": ["pose_detector"], "signal_source": true,
        "code": "var answered = 0; function event_received(m) { call_service('pose_detector', { frame_id: m.frame_id, seq: m.seq }); answered = answered + 1; }" }
    ]
  })CFG",
                                            core::MapResolver({}));
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  auto cluster = sim::MakeHomeTestbed(TestSeed());
  core::OrchestratorOptions options;
  options.serving.enabled = true;
  core::Orchestrator orchestrator(cluster.get(), options);
  core::Orchestrator::DeployArgs args;
  args.workload = apps::fitness::Workout();
  args.placement.policy = core::PlacementPolicy::kSingleDevice;
  auto deployment = orchestrator.Deploy(std::move(*spec), std::move(args));
  ASSERT_TRUE(deployment.ok()) << deployment.status().ToString();
  const std::string host =
      (*deployment)->plan().service_device.at("pose_detector");
  ASSERT_NE((*deployment)->plan().module_device.at("proc"), host);

  // Swap the group's replica for the recorder.
  orchestrator.registry().RetireGroup(host, "pose_detector", cluster->Now());
  sim::ExecutionLane* lane =
      cluster->FindDevice(host)->AllocateContainerLane("svc:pose_detector");
  ASSERT_NE(lane, nullptr);
  std::vector<services::ServiceRequest> seen;
  orchestrator.registry().Add(std::make_unique<services::ServiceInstance>(
      host, std::make_unique<RecordingPose>(&seen), lane, /*native=*/false));

  (*deployment)->Start();
  orchestrator.RunFor(Duration::Seconds(3));

  const serving::RequestScheduler* sched =
      orchestrator.scheduler(host, "pose_detector");
  EXPECT_GT(sched->stats().submitted, 10u);
  EXPECT_GT(sched->stats().batches, 10u);
  ASSERT_GT(seen.size(), 10u);
  for (const services::ServiceRequest& request : seen) {
    EXPECT_EQ(request.body().Find("__serving"), nullptr);
    EXPECT_EQ(request.body().Find("frame_id"), nullptr);
    ASSERT_NE(request.frame, nullptr);
    EXPECT_EQ(static_cast<double>(request.frame->seq()),
              request.body().GetDouble("seq", -1));
  }
  const json::Value state =
      (*deployment)->FindModule("proc")->context().SnapshotState();
  EXPECT_GE(state.GetDouble("answered", 0), seen.size() - 1.0);
  ExpectInvariantsHold(orchestrator);
}

TEST(DispatchPaths, GatewayShedsPastDeadlineRemotely) {
  // ScriptCatchesDeadlineExceededShed, single-device: the gateway's
  // scheduler sheds, and the caller catches the same DEADLINE_EXCEEDED.
  auto spec = core::ParsePipelineConfigText(R"CFG({
    "name": "deadliner",
    "priority": "interactive",
    "deadline_ms": 20,
    "source": { "fps": 20, "width": 320, "height": 240 },
    "modules": [
      { "name": "cam", "type": "source", "next_module": ["proc"] },
      { "name": "proc", "service": ["pose_detector"], "signal_source": true,
        "code": "var sheds = 0; var last_code = ''; function event_received(m) { try { call_service('pose_detector', { frame_id: m.frame_id }); } catch (e) { sheds = sheds + 1; last_code = e.code; } }" }
    ]
  })CFG",
                                            core::MapResolver({}));
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  auto cluster = sim::MakeHomeTestbed(TestSeed());
  core::OrchestratorOptions options;
  options.serving.enabled = true;
  core::Orchestrator orchestrator(cluster.get(), options);
  core::Orchestrator::DeployArgs args;
  args.workload = apps::fitness::Workout();
  args.placement.policy = core::PlacementPolicy::kSingleDevice;
  auto deployment = orchestrator.Deploy(std::move(*spec), std::move(args));
  ASSERT_TRUE(deployment.ok()) << deployment.status().ToString();
  const std::string host =
      (*deployment)->plan().service_device.at("pose_detector");
  ASSERT_NE((*deployment)->plan().module_device.at("proc"), host);
  (*deployment)->Start();
  orchestrator.RunFor(Duration::Seconds(10));

  const json::Value state =
      (*deployment)->FindModule("proc")->context().SnapshotState();
  EXPECT_EQ(state.GetString("last_code", ""), "DEADLINE_EXCEEDED");
  EXPECT_GT(state.GetDouble("sheds", 0), 20.0);
  EXPECT_GT(orchestrator.scheduler(host, "pose_detector")
                ->stats()
                .shed_deadline,
            20u);
  EXPECT_GT((*deployment)->metrics().requests_shed(), 20u);
  EXPECT_GT((*deployment)->metrics().frames_completed(), 80u);
  ExpectInvariantsHold(orchestrator);
}

}  // namespace
}  // namespace vp
