// Self-healing control plane: failure detector + checkpoint shipper +
// automatic recovery, glued onto the Orchestrator.
//
// The SelfHealer runs (conceptually) on the controller device. It
//   1. starts a FailureDetector there (heartbeats from every device),
//   2. periodically snapshots every script module's state and ships it
//      over the network to the controller (the checkpoint store), and
//   3. on a confirmed device death calls
//      Orchestrator::RecoverFromDeviceFailure with the stored
//      checkpoints; on a reboot (heartbeats resume) calls
//      ResumeAfterDeviceReturn.
//
// The controller is a single point of coordination: when IT dies, no
// recovery happens (documented in docs/robustness.md). Checkpoints are
// only as fresh as the last shipped snapshot — a restored module rolls
// back at most `checkpoint_interval` (+ one transfer) of state.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <utility>

#include "core/failure_detector.hpp"
#include "core/orchestrator.hpp"

namespace vp::core {

struct SelfHealingOptions {
  FailureDetectorOptions detector;
  /// Cadence of module-state checkpoints shipped to the controller.
  Duration checkpoint_interval = Duration::Seconds(1);
  /// When false, failures are detected (and counted) but not acted on.
  bool auto_recover = true;
};

struct SelfHealingStats {
  uint64_t checkpoints_shipped = 0;
  /// Checkpoints that actually arrived at the controller (a snapshot
  /// shipped from a device that dies mid-transfer is lost with it).
  uint64_t checkpoints_stored = 0;
  uint64_t recoveries = 0;
  uint64_t failed_recoveries = 0;
  uint64_t resumes = 0;
  /// Arriving checkpoints refused because their placement epoch was
  /// older than the module's current epoch (or older than the stored
  /// snapshot) — split-brain and reordering protection for the store.
  uint64_t checkpoints_rejected_stale = 0;
};

class SelfHealer {
 public:
  explicit SelfHealer(Orchestrator* orchestrator,
                      SelfHealingOptions options = {});

  /// Resolve the controller, start the detector and the checkpoint
  /// loop. Call after the pipelines are deployed.
  Status Start();
  void Stop();

  const std::string& controller() const { return controller_; }
  FailureDetector* detector() { return detector_.get(); }
  const FailureDetector* detector() const { return detector_.get(); }
  const SelfHealingStats& stats() const { return stats_; }

  /// Latest stored checkpoint for (pipeline, module), or nullptr.
  const ModuleCheckpoint* checkpoint(
      const std::string& pipeline, const std::string& module) const;

  /// Hibernation integration: push a sleep-time snapshot into the
  /// store through the normal arrival path (same epoch/ordering
  /// fencing as shipped checkpoints). Keeps the store warm while the
  /// pipeline's runtimes are released, so a device failure right
  /// after wake still restores fresh state.
  void Store(const std::string& pipeline, const std::string& module,
             ModuleCheckpoint incoming) {
    StoreCheckpoint(pipeline, module, std::move(incoming));
  }

 private:
  void CheckpointTick();
  /// Arrival path of a shipped snapshot: epoch-checked before storing.
  void StoreCheckpoint(const std::string& pipeline_name,
                       const std::string& module_name,
                       ModuleCheckpoint incoming);
  void OnDeviceDown(const std::string& device, TimePoint last_heard);
  void OnDeviceUp(const std::string& device);
  CheckpointLookup MakeLookup() const;

  Orchestrator* orchestrator_;
  SelfHealingOptions options_;
  std::string controller_;
  std::unique_ptr<FailureDetector> detector_;
  std::map<std::pair<std::string, std::string>, ModuleCheckpoint>
      checkpoints_;
  bool running_ = false;
  SelfHealingStats stats_;
};

}  // namespace vp::core
