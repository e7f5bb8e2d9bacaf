#include "workloads.hpp"

#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "apps/fitness.hpp"
#include "script/program_cache.hpp"
#include "serving/request_scheduler.hpp"

namespace vp::e2e {

namespace {

// Retention above any window's frame count: every percentile comes
// from raw per-frame traces, never from the metrics reservoir.
constexpr size_t kTraceRetention = size_t{1} << 20;

constexpr int kServingFitnessPipelines = 10;
constexpr int kBurstPipelines = 100;
constexpr int kBurstCycles = 5;
constexpr double kBurstSleepS = 1.0;
constexpr double kBurstAwakeS = 14.0;
constexpr int kFleetHomes = 16;
constexpr int kFleetShards = 8;
constexpr int kFleetThreads = 2;
// Before the cameras start: brings every shard clock to one fence, so
// each home's window is the same on both engines.
constexpr double kFleetAlignS = 2.0;

// The wake_burst module: small state and a frame_info() host call per
// event, so a wake pays for a real program load and init. It runs on
// the desktop, so every frame crosses the Wi-Fi link and its latency
// depends on the seeded link jitter.
const char* kBurstModule = R"JS(
var frames = 0;
var recent = [];
var level = 0;
function mean(xs) {
  var total = 0;
  for (var i = 0; i < xs.length; i = i + 1) { total = total + xs[i]; }
  if (xs.length == 0) { return 0; }
  return total / xs.length;
}
function event_received(msg) {
  frames = frames + 1;
  var info = frame_info(msg.frame_id);
  recent.push(info.seq - frames);
  if (recent.length > 8) recent.shift();
  level = mean(recent);
}
)JS";

[[noreturn]] void Die(const std::string& what, const Error& error) {
  std::fprintf(stderr, "vp_bench: %s: %s\n", what.c_str(),
               error.ToString().c_str());
  std::exit(2);
}

core::PipelineSpec FitnessSpec(double fps) {
  auto spec = apps::fitness::Spec();
  if (!spec.ok()) Die("fitness config", spec.error());
  spec->source.fps = fps;
  return std::move(*spec);
}

core::PipelineSpec BurstSpec(int index, bool interactive) {
  const std::string text = R"({
    "name": "burst)" + std::to_string(index) + R"(",
    "priority": ")" + std::string(interactive ? "interactive" : "background") +
                           R"(",
    "source": { "fps": 2, "width": 64, "height": 48 },
    "modules": [
      { "name": "cam", "type": "source", "next_module": ["analyze"] },
      { "name": "analyze", "signal_source": true, "include": "analyze",
        "device": "desktop" }
    ]
  })";
  auto spec = core::ParsePipelineConfigText(
      text, core::MapResolver({{"analyze", kBurstModule}}));
  if (!spec.ok()) Die("burst config", spec.error());
  return std::move(*spec);
}

/// The fall session looped so the fall pipeline stays busy (and keeps
/// falling) for the whole window.
media::MotionScript LoopedFallSession() {
  media::MotionParams fall;
  fall.period = 6.0;
  std::vector<media::MotionScript::Segment> segments;
  for (int i = 0; i < 8; ++i) {
    segments.push_back({"idle", 4.0, {}});
    segments.push_back({"squat", 6.0, {}});
    segments.push_back({"idle", 2.0, {}});
    segments.push_back({"fall", 8.0, fall});
  }
  auto script = media::MotionScript::Make(segments);
  if (!script.ok()) Die("fall session", script.error());
  return std::move(*script);
}

}  // namespace

const std::vector<WorkloadInfo>& AllWorkloads() {
  static const std::vector<WorkloadInfo> kAll = {
      {WorkloadId::kFig6Colocate, "fig6_colocate", 3.0, 40.0, 3},
      {WorkloadId::kEdgeEyeBaseline, "edgeeye_baseline", 3.0, 40.0, 3},
      {WorkloadId::kSharedServing, "shared_serving", 8.0, 25.0, 3},
      {WorkloadId::kWakeBurst, "wake_burst", 2.0,
       kBurstCycles * (kBurstSleepS + kBurstAwakeS), 21},
      {WorkloadId::kFleetParallel, "fleet_parallel", 3.0, 4.0, 3},
  };
  return kAll;
}

const WorkloadInfo* FindWorkload(const std::string& name) {
  for (const WorkloadInfo& info : AllWorkloads()) {
    if (name == info.name) return &info;
  }
  return nullptr;
}

int64_t WallNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Episode::Episode(const WorkloadInfo& info, uint64_t seed, bool sequential)
    : info_(info), seed_(seed), sequential_(sequential) {}

Episode::~Episode() = default;

int Episode::shard_count() const {
  return fleet_ && fleet_->parallel_engine()
             ? fleet_->parallel_engine()->shards()
             : 1;
}

int Episode::threads() const {
  return fleet_ && fleet_->parallel_engine()
             ? fleet_->parallel_engine()->threads()
             : 1;
}

core::PipelineDeployment* Episode::Deploy(core::Orchestrator& orchestrator,
                                          int home, core::PipelineSpec spec,
                                          core::Orchestrator::DeployArgs args) {
  media::SceneOptions scene = args.scene;
  scene.width = spec.source.width;
  scene.height = spec.source.height;
  media::SyntheticVideoSource source(args.workload, spec.source.fps, scene,
                                     args.seed);
  const std::string name = spec.name;
  auto deployment = orchestrator.Deploy(std::move(spec), std::move(args));
  if (!deployment.ok()) Die("deploy " + name, deployment.error());
  pipelines_.push_back({*deployment, home, std::move(source)});
  return *deployment;
}

void Episode::Setup() {
  // Every set-up starts as cold as a fresh process.
  script::ProgramCache::Global().Clear();
  if (info_.id == WorkloadId::kFleetParallel) {
    SetupFleet();
  } else {
    SetupSingleHome();
  }
}

void Episode::SetupSingleHome() {
  cluster_ = sim::MakeHomeTestbed(seed_);
  core::OrchestratorOptions options;
  options.seed = seed_;
  options.trace_retention = kTraceRetention;
  options.models.registry = &registry_;
  if (info_.id == WorkloadId::kSharedServing) {
    options.serving.enabled = true;
    options.serving.scheduler.batch_window = Duration::Millis(3);
    options.serving.scheduler.max_batch_size = 8;
    options.serving.scheduler.policy =
        serving::SchedulingPolicy::kStrictPriority;
  }
  if (info_.id == WorkloadId::kWakeBurst) {
    options.frame_store_capacity = 256;
  }
  orchestrator_ = std::make_unique<core::Orchestrator>(cluster_.get(), options);
  homes_.push_back({orchestrator_.get(), &cluster_->simulator(), 0});

  uint64_t index = 0;
  auto next_args = [&] {
    core::Orchestrator::DeployArgs args;
    args.workload = apps::fitness::Workout();
    args.seed = fleet::HomeSeed(seed_, static_cast<int>(index++));
    return args;
  };
  switch (info_.id) {
    case WorkloadId::kFig6Colocate:
    case WorkloadId::kEdgeEyeBaseline: {
      auto args = next_args();
      args.placement.policy = info_.id == WorkloadId::kFig6Colocate
                                  ? core::PlacementPolicy::kCoLocate
                                  : core::PlacementPolicy::kSingleDevice;
      Deploy(*orchestrator_, 0, FitnessSpec(30), std::move(args));
      break;
    }
    case WorkloadId::kSharedServing: {
      for (int i = 0; i < kServingFitnessPipelines; ++i) {
        auto args = next_args();
        args.placement.policy = core::PlacementPolicy::kCoLocate;
        Deploy(*orchestrator_, 0, FitnessSpec(20), std::move(args));
      }
      auto spec = apps::fall::Spec();
      if (!spec.ok()) Die("fall config", spec.error());
      spec->source.fps = 15;
      spec->deadline_ms = 500;
      alert_log_ = std::make_unique<apps::fall::AlertLog>();
      auto args =
          apps::fall::MakeDeployArgs(*alert_log_, &cluster_->simulator());
      args.workload = LoopedFallSession();
      args.seed = fleet::HomeSeed(seed_, static_cast<int>(index++));
      args.placement.policy = core::PlacementPolicy::kCoLocate;
      interactive_.push_back(
          Deploy(*orchestrator_, 0, std::move(*spec), std::move(args)));
      break;
    }
    case WorkloadId::kWakeBurst: {
      lifecycle::HibernationOptions lifecycle_options;
      lifecycle_options.auto_hibernate = false;
      lifecycle_options.admission.total_concurrency = 8;
      lifecycle_options.admission.class_concurrency = {8, 4, 2};
      // Background wakes get a horizon that covers a whole drained
      // burst, so none is shed; interactive wakes are never shed.
      lifecycle_options.default_wake_deadline = Duration::Seconds(30);
      lifecycle_ = std::make_unique<lifecycle::HibernationManager>(
          orchestrator_.get(), lifecycle_options);
      for (int i = 0; i < kBurstPipelines; ++i) {
        Deploy(*orchestrator_, 0, BurstSpec(i, i % 10 == 0), next_args());
      }
      break;
    }
    case WorkloadId::kFleetParallel:
      break;
  }
  orchestrator_->StartAll();
}

void Episode::SetupFleet() {
  fleet::FleetOptions options;
  options.homes = kFleetHomes;
  options.seed = seed_;
  options.orchestrator.serving.enabled = true;
  options.orchestrator.trace_retention = kTraceRetention;
  options.parallel = !sequential_;
  options.parallel_options.shards = kFleetShards;
  options.parallel_options.threads = kFleetThreads;
  options.enable_cloud = true;
  options.cloud.slots = kFleetHomes / 4;
  options.cloud.speed = 4.0;
  fleet_ = std::make_unique<fleet::Fleet>(options);
  for (int id = 0; id < fleet_->size(); ++id) {
    fleet::Home& home = fleet_->home(id);
    homes_.push_back({home.orchestrator.get(), &fleet_->home_simulator(id),
                      fleet_->home_shard(id)});
    core::Orchestrator::DeployArgs args;
    args.workload = apps::fitness::Workout();
    args.seed = fleet::HomeSeed(seed_, id);
    args.placement.policy = core::PlacementPolicy::kCoLocate;
    home.pipelines.push_back(
        Deploy(*home.orchestrator, id, FitnessSpec(10), std::move(args)));
  }
  fleet_->RunFor(Duration::Seconds(kFleetAlignS));
  for (int id = 0; id < fleet_->size(); ++id) ScheduleCloudJob(id);
  fleet_->StartAll();
}

void Episode::ScheduleCloudJob(int home) {
  // Each home offloads a cloud job every 250 ms; the jobs cross shards
  // through the parallel engine's barrier mailboxes.
  fleet_->home_simulator(home).After(Duration::Millis(250), [this, home] {
    fleet_->CloudSubmit(home, Duration::Millis(30));
    ScheduleCloudJob(home);
  });
}

void Episode::RunFor(double seconds) {
  if (fleet_) {
    fleet_->RunFor(Duration::Seconds(seconds));
  } else {
    orchestrator_->RunFor(Duration::Seconds(seconds));
  }
}

void Episode::WarmUp() { RunFor(info_.warmup_s); }

void Episode::RunWindow(const std::function<void()>& before_segment) {
  for (const HomeView& home : homes_) {
    window_start_.push_back(home.simulator->Now());
  }
  if (info_.id != WorkloadId::kWakeBurst) {
    before_segment();
    RunFor(info_.window_s);
    return;
  }
  for (int cycle = 0; cycle < kBurstCycles; ++cycle) {
    WakeCycle(before_segment);
  }
}

void Episode::WakeCycle(const std::function<void()>& before_segment) {
  for (const PipelineView& view : pipelines_) {
    const Status status = lifecycle_->Hibernate(view.pipeline);
    if (!status.ok()) Die("hibernate", status.error());
  }
  before_segment();
  RunFor(kBurstSleepS);
  // The thundering herd: every doorbell rings in the same instant.
  for (const PipelineView& view : pipelines_) {
    ++wakes_requested_;
    const size_t span = wake_spans_.size();
    wake_spans_.push_back({view.pipeline->spec().name, WallNs(), 0});
    lifecycle_->RequestWake(
        view.pipeline->spec().name,
        [this, span](const Status&) { wake_spans_[span].end_ns = WallNs(); });
  }
  before_segment();
  RunFor(kBurstAwakeS);
}

}  // namespace vp::e2e
