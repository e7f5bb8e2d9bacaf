#include "ledger.hpp"

#include <atomic>

#include "cv/pose_detector.hpp"
#include "media/codec.hpp"
#include "probes.hpp"

namespace vp::e2e {

const char* const kLayerNames[kNumLayers] = {
    "capture", "script", "services", "serving", "net", "lifecycle", "other",
};

namespace {

// Each thread's position on its own timeline. `generation` tells a
// worker thread that a new window started since it last billed.
struct ThreadClock {
  uint64_t generation = 0;
  int64_t last_ns = 0;
};
thread_local ThreadClock tl_clock;
std::atomic<uint64_t> g_generations{0};

template <typename T, typename Read>
bool Advance(const std::vector<const T*>& objects, std::vector<uint64_t>& last,
             Read read, double* total = nullptr) {
  bool advanced = false;
  for (size_t i = 0; i < objects.size(); ++i) {
    const uint64_t value = read(*objects[i]);
    if (value != last[i]) {
      if (total != nullptr) *total += static_cast<double>(value - last[i]);
      last[i] = value;
      advanced = true;
    }
  }
  return advanced;
}

template <typename T, typename Read>
std::vector<uint64_t> Baseline(const std::vector<const T*>& objects,
                               Read read) {
  std::vector<uint64_t> out;
  out.reserve(objects.size());
  for (const T* object : objects) out.push_back(read(*object));
  return out;
}

}  // namespace

// The pointer lists one simulator's hook polls, precomputed so the
// per-event cost is a scan of plain counters. Touched only by the
// thread running that simulator.
struct Attribution::Shard {
  sim::Simulator* simulator = nullptr;
  std::vector<core::Orchestrator*> homes;
  std::vector<const core::PipelineMetrics*> cameras;
  std::vector<const core::ModuleRuntime*> modules;
  std::vector<const services::ServiceInstance*> replicas;
  std::vector<const serving::RequestScheduler*> schedulers;
  std::vector<const sim::Network*> networks;
  std::vector<const core::Orchestrator*> lifecycles;
  std::vector<uint64_t> cameras_last, modules_last, replicas_last,
      schedulers_last, networks_last, lifecycles_last;
  std::vector<uint64_t> module_errors_base, module_calls_base;
  std::array<double, kNumLayers> layer_ns{};
  double self_ns = 0;
  double script_events = 0;
  double script_errors = 0;
  double script_service_calls = 0;
};

Attribution::Attribution(Episode& episode) {
  for (int i = 0; i < episode.shard_count(); ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  for (const HomeView& home : episode.homes()) {
    Shard& shard = *shards_[static_cast<size_t>(home.shard)];
    shard.simulator = home.simulator;
    shard.homes.push_back(home.orchestrator);
  }
  for (const auto& owned : shards_) {
    Shard* shard = owned.get();
    if (shard->simulator == nullptr) continue;
    for (core::Orchestrator* home : shard->homes) {
      for (auto* camera : probes::Cameras(*home)) {
        shard->cameras.push_back(camera);
      }
      for (auto* replica : probes::Replicas(*home)) {
        shard->replicas.push_back(replica);
      }
      for (auto* scheduler : probes::Schedulers(*home)) {
        shard->schedulers.push_back(scheduler);
      }
      shard->networks.push_back(&probes::Network(*home));
      shard->lifecycles.push_back(home);
    }
    shard->cameras_last = Baseline(shard->cameras, probes::CaptureTicks);
    shard->replicas_last = Baseline(shard->replicas, probes::ServiceRequests);
    shard->schedulers_last =
        Baseline(shard->schedulers, probes::ServingBatches);
    shard->networks_last = Baseline(shard->networks, probes::NetMessages);
    shard->lifecycles_last =
        Baseline(shard->lifecycles, probes::LifecycleTransitions);
    TrackModules(*shard);
    hooks_.push_back(
        shard->simulator->AddPostEventHook([this, shard] { OnEvent(*shard); }));
  }
  generation_ = ++g_generations;
  window_start_ns_ = WallNs();
  tl_clock = {generation_, window_start_ns_};
}

Attribution::~Attribution() {
  size_t hook = 0;
  for (const auto& shard : shards_) {
    if (shard->simulator != nullptr) {
      shard->simulator->RemovePostEventHook(hooks_[hook++]);
    }
  }
}

void Attribution::TrackModules(Shard& shard) {
  shard.modules.clear();
  for (core::Orchestrator* home : shard.homes) {
    for (auto* module : probes::Modules(*home)) shard.modules.push_back(module);
  }
  shard.modules_last = Baseline(shard.modules, probes::ScriptEvents);
  shard.module_errors_base = Baseline(shard.modules, probes::ScriptErrors);
  shard.module_calls_base = Baseline(shard.modules, probes::ScriptServiceCalls);
}

void Attribution::FoldModules(Shard& shard) {
  Advance(shard.modules, shard.modules_last, probes::ScriptEvents,
          &shard.script_events);
  Advance(shard.modules, shard.module_errors_base, probes::ScriptErrors,
          &shard.script_errors);
  Advance(shard.modules, shard.module_calls_base, probes::ScriptServiceCalls,
          &shard.script_service_calls);
}

void Attribution::BeforeSegment() {
  // The sequential engine runs events on this thread, so its clock is
  // the last event's end.
  const int64_t now = WallNs();
  shards_.front()->layer_ns[kLifecycle] +=
      static_cast<double>(now - tl_clock.last_ns);
  tl_clock.last_ns = now;
  for (const auto& s : shards_) {
    FoldModules(*s);
    TrackModules(*s);
    s->lifecycles_last = Baseline(s->lifecycles, probes::LifecycleTransitions);
  }
}

void Attribution::Finish() {
  for (const auto& shard : shards_) FoldModules(*shard);
}

void Attribution::OnEvent(Shard& shard) {
  const int64_t now = WallNs();
  if (tl_clock.generation != generation_) {
    tl_clock = {generation_, window_start_ns_};
  }
  const double elapsed = static_cast<double>(now - tl_clock.last_ns);
  tl_clock.last_ns = now;

  // Poll every layer so each keeps its baseline, then bill the first
  // one in layer order that moved.
  const bool advanced[kNumLayers] = {
      Advance(shard.cameras, shard.cameras_last, probes::CaptureTicks),
      Advance(shard.modules, shard.modules_last, probes::ScriptEvents,
              &shard.script_events),
      Advance(shard.replicas, shard.replicas_last, probes::ServiceRequests),
      Advance(shard.schedulers, shard.schedulers_last, probes::ServingBatches),
      Advance(shard.networks, shard.networks_last, probes::NetMessages),
      Advance(shard.lifecycles, shard.lifecycles_last,
              probes::LifecycleTransitions),
      true,
  };
  int layer = 0;
  while (!advanced[layer]) ++layer;
  shard.layer_ns[layer] += elapsed;

  // A hibernate or wake replaced module runtimes: track the new ones.
  if (advanced[kLifecycle]) {
    FoldModules(shard);
    TrackModules(shard);
  }
  shard.self_ns += static_cast<double>(WallNs() - now);
}

std::array<double, kNumLayers> Attribution::layer_ns() const {
  std::array<double, kNumLayers> total{};
  for (const auto& shard : shards_) {
    for (int i = 0; i < kNumLayers; ++i) total[i] += shard->layer_ns[i];
  }
  return total;
}

double Attribution::self_ns() const {
  double total = 0;
  for (const auto& shard : shards_) total += shard->self_ns;
  return total;
}

double Attribution::script_events() const {
  double total = 0;
  for (const auto& shard : shards_) total += shard->script_events;
  return total;
}

double Attribution::script_errors() const {
  double total = 0;
  for (const auto& shard : shards_) total += shard->script_errors;
  return total;
}

double Attribution::script_service_calls() const {
  double total = 0;
  for (const auto& shard : shards_) total += shard->script_service_calls;
  return total;
}

KernelCosts ReplayKernels(const Episode& episode) {
  KernelCosts costs;
  double render_ns = 0, encode_ns = 0, decode_ns = 0, pose_ns = 0;
  for (const PipelineView& view : episode.pipelines()) {
    const std::vector<uint64_t> seqs = probes::AdmittedSeqs(
        *view.pipeline, episode.window_start()[static_cast<size_t>(view.home)]);
    for (size_t i = 0; i < seqs.size(); i += 10) {
      const int64_t t0 = WallNs();
      const media::Frame frame = view.source.CaptureFrame(seqs[i]);
      const int64_t t1 = WallNs();
      const Bytes encoded = media::EncodeFrame(frame);
      const int64_t t2 = WallNs();
      const auto decoded = media::DecodeFrame(encoded);
      const int64_t t3 = WallNs();
      if (!decoded.ok()) continue;
      const cv::DetectedPose pose = cv::DetectPose(decoded->image);
      const int64_t t4 = WallNs();
      (void)pose;
      render_ns += static_cast<double>(t1 - t0);
      encode_ns += static_cast<double>(t2 - t1);
      decode_ns += static_cast<double>(t3 - t2);
      pose_ns += static_cast<double>(t4 - t3);
      costs.encoded_bytes += static_cast<double>(encoded.size());
      ++costs.samples;
    }
  }
  if (costs.samples > 0) {
    const double n = static_cast<double>(costs.samples);
    costs.render_us = render_ns / n / 1e3;
    costs.encode_us = encode_ns / n / 1e3;
    costs.decode_us = decode_ns / n / 1e3;
    costs.pose_us = pose_ns / n / 1e3;
    costs.encoded_bytes /= n;
  }
  return costs;
}

}  // namespace vp::e2e
