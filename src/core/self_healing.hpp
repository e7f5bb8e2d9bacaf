// Self-healing control plane: failure detector + checkpoint shipper +
// automatic recovery, glued onto the Orchestrator.
//
// The SelfHealer runs (conceptually) on the controller device. It
//   1. starts a FailureDetector there (heartbeats from every device),
//   2. periodically snapshots every script module's state and ships it
//      over the network to the controller; an arriving snapshot goes
//      into its pipeline's checkpoint store through
//      Orchestrator::AdmitCheckpoint, and
//   3. on a confirmed device death calls
//      Orchestrator::RecoverFromDeviceFailure, which restores from the
//      pipelines' stores, shipping the state from the controller; on a
//      reboot (heartbeats resume) calls ResumeAfterDeviceReturn.
//
// The controller is a single point of coordination: when IT dies, no
// recovery happens (documented in docs/robustness.md). Checkpoints are
// only as fresh as the last shipped snapshot — a restored module rolls
// back at most `checkpoint_interval` (+ one transfer) of state.
#pragma once

#include <memory>
#include <string>

#include "core/failure_detector.hpp"
#include "core/orchestrator.hpp"

namespace vp::core {

struct SelfHealingOptions {
  FailureDetectorOptions detector;
  /// Cadence of module-state checkpoints shipped to the controller.
  Duration checkpoint_interval = Duration::Seconds(1);
};

struct SelfHealingStats {
  uint64_t checkpoints_shipped = 0;
  /// Shipped checkpoints that arrived and were stored (a snapshot
  /// shipped from a device that dies mid-transfer is lost with it, and
  /// one whose deployment was undeployed meanwhile is dropped).
  uint64_t checkpoints_stored = 0;
  uint64_t recoveries = 0;
  uint64_t resumes = 0;
  /// Arriving checkpoints the store refused: from an older placement
  /// epoch than the module's, or an older capture than the one held —
  /// split-brain and reordering protection.
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

 private:
  void CheckpointTick();
  /// Arrival of a snapshot shipped from the deployment with `serial`:
  /// into its store if it is still deployed, else dropped.
  void OnCheckpointArrived(uint64_t serial, const std::string& module,
                           ModuleCheckpoint incoming);
  void OnDeviceDown(const std::string& device, TimePoint last_heard);
  void OnDeviceUp(const std::string& device);

  Orchestrator* orchestrator_;
  SelfHealingOptions options_;
  std::string controller_;
  std::unique_ptr<FailureDetector> detector_;
  bool running_ = false;
  SelfHealingStats stats_;
};

}  // namespace vp::core
