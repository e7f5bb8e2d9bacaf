// The traced run's wall-clock ledger.
//
// Attribution: a post-event hook on every simulator, registered after
// the orchestrator's fiber pump, times each event and bills it to the
// first layer whose public counter the event advanced (probes.hpp).
// Consecutive hook calls on one thread tile that thread's time, so the
// classes add up to the window. A handler fiber resumed by the
// orchestrator's hook is billed to the event that resumed it.
//
// Replay: the camera and pose kernels are re-run outside the simulator
// on every 10th frame the window admitted, and the per-call cost is
// scaled by the run's call counts.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "workloads.hpp"

namespace vp::e2e {

enum Layer {
  kCapture,
  kScript,
  kServices,
  kServing,
  kNet,
  kLifecycle,
  kOther,
  kNumLayers,
};
extern const char* const kLayerNames[kNumLayers];

class Attribution {
 public:
  /// Registers a hook on each of the episode's simulators and starts
  /// the clock. Construct right before the timed window, with the
  /// simulators quiesced.
  explicit Attribution(Episode& episode);
  ~Attribution();
  Attribution(const Attribution&) = delete;
  Attribution& operator=(const Attribution&) = delete;

  /// Call before every RunFor of the window (quiesced): bills the time
  /// since the last event — the workload's own hibernate and wake calls and
  /// the orchestrator's housekeeping — to the lifecycle layer.
  void BeforeSegment();
  /// Call once after the window: folds the counters of tracked runtimes.
  void Finish();

  /// Nanoseconds billed to each layer, summed over threads.
  std::array<double, kNumLayers> layer_ns() const;
  /// Nanoseconds spent inside the hook itself, summed over threads.
  double self_ns() const;
  double script_events() const;
  double script_errors() const;
  double script_service_calls() const;

 private:
  struct Shard;
  void OnEvent(Shard& shard);
  void TrackModules(Shard& shard);
  void FoldModules(Shard& shard);

  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<uint64_t> hooks_;
  uint64_t generation_ = 0;
  int64_t window_start_ns_ = 0;
};

/// Per-call wall cost of the camera and pose kernels, from the replay.
struct KernelCosts {
  uint64_t samples = 0;
  double render_us = 0;
  double encode_us = 0;
  double decode_us = 0;
  double pose_us = 0;
  double encoded_bytes = 0;
};
KernelCosts ReplayKernels(const Episode& episode);

}  // namespace vp::e2e
