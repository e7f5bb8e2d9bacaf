// Scale-to-zero lifecycle: hibernate idle pipelines, rehydrate on
// demand through admission-controlled burst wakeup.
//
// A home runs many pipelines that are idle most of the day (the
// driveway camera at 3am, the gym-form pipeline between workouts).
// Keeping every module context resident wastes the edge devices'
// scarce RAM. The HibernationManager:
//
//  1. DETECTS idleness — no completed frames for `idle_window`,
//     sampled on a fixed cadence (optionally from a PipelineMonitor's
//     timeseries, so the same data that feeds dashboards feeds the
//     lifecycle decision);
//  2. HIBERNATES — snapshots module state through the same checkpoint
//     machinery the SelfHealer ships (and, when attached, into the
//     SelfHealer's store), then releases the pipeline's runtime
//     footprint: module contexts retired (freed after the drain
//     window), endpoints unbound, exclusive frame-store slots cleared,
//     the camera stopped. Shared service replicas stay up and the
//     autoscaler may retire the idle ones;
//  3. REHYDRATES on the first arriving frame: while hibernated, the
//     pipeline's old addresses carry lightweight doorbell bindings —
//     any "frame" message rings the doorbell and enqueues a wake.
//     Control-plane triggers (RequestWake) use the same path. Wakes
//     flow through a WakeupAdmission queue (serving priority classes,
//     EDF, bounded concurrency, deadline shedding) so a 100-pipeline
//     burst rehydrates in controlled, deterministic order. The wake
//     itself draws pre-loaded contexts from the warm pool and
//     pre-compiled bytecode from the program cache, so warm/hot starts
//     skip parse + resolve + compile (+ Load).
//
// Everything runs on simulator events — per-seed deterministic,
// standalone or in a fleet at any shard count.
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/monitor.hpp"
#include "core/orchestrator.hpp"
#include "core/self_healing.hpp"
#include "lifecycle/context_pool.hpp"
#include "serving/wakeup_admission.hpp"

namespace vp::lifecycle {

struct HibernationOptions {
  /// No completed frames for this long → hibernate (auto mode).
  Duration idle_window = Duration::Seconds(10);
  /// Idle-detection cadence.
  Duration check_interval = Duration::Seconds(1);
  /// Hibernate idle pipelines automatically. Off = only explicit
  /// Hibernate() calls (tests, operator policy).
  bool auto_hibernate = true;
  /// Prewarm one pooled context per module at hibernate time, so the
  /// eventual wake is a hot start.
  bool prewarm_on_hibernate = true;
  /// Delay between hibernation and arming the doorbells. In-flight
  /// data-plane messages (the written-off frame, late service replies)
  /// drain into the unbound addresses during this window instead of
  /// ringing a doorbell and waking the pipeline right back up.
  Duration doorbell_grace = Duration::Millis(250);
  ContextPoolOptions pool;
  serving::WakeupAdmissionOptions admission;
  /// Wake deadline for pipelines whose spec carries no deadline_ms.
  Duration default_wake_deadline = Duration::Seconds(2);
};

struct HibernationStats {
  uint64_t hibernations = 0;
  uint64_t wakes = 0;
  uint64_t failed_wakes = 0;
  uint64_t hibernate_failures = 0;
  /// Wakes triggered by a data-plane doorbell (first arriving frame).
  uint64_t doorbell_wakes = 0;
  /// Wakes triggered by RequestWake (control plane / burst drivers).
  uint64_t requested_wakes = 0;
};

class HibernationManager {
 public:
  HibernationManager(core::Orchestrator* orchestrator,
                     HibernationOptions options = {});

  /// Judge idleness from `monitor`'s sampled timeseries instead of
  /// reading pipeline metrics directly. The monitor must outlive the
  /// manager's ticking.
  void WatchMonitor(const core::PipelineMonitor* monitor) {
    monitor_ = monitor;
  }

  /// Ship hibernation snapshots into `healer`'s checkpoint store (same
  /// epoch fencing as shipped checkpoints), so post-wake failure
  /// recovery restores fresh state. Must outlive the manager.
  void AttachHealer(core::SelfHealer* healer) { healer_ = healer; }

  /// Begin the idle-detection loop.
  void Start();
  void Stop() { running_ = false; }

  /// Hibernate now (the idle loop uses this same path): checkpoint,
  /// release, prewarm the pool, arm the doorbells.
  Status Hibernate(core::PipelineDeployment* pipeline);

  /// Enqueue a wake through admission control. `done` observes the
  /// terminal outcome (woken / failed / shed). Duplicate requests for
  /// a pipeline whose wake is already queued or in flight coalesce.
  void RequestWake(const std::string& pipeline,
                   serving::WakeupAdmission::DoneFn done = nullptr);

  /// The warm-pool context provider, for direct Orchestrator
  /// WakePipeline calls outside the admission path (tests).
  core::Orchestrator::ContextProvider MakeContextProvider();

  const HibernationStats& stats() const { return stats_; }
  serving::WakeupAdmission& admission() { return admission_; }
  ContextPool& pool() { return pool_; }

  /// Script-engine heap bytes resident for `pipeline`: live module
  /// contexts plus retired-but-undrained ones. A hibernated pipeline
  /// converges to ~0 once ReclaimDrained frees the retired contexts —
  /// the number the coldstart bench's memory gate reads.
  static size_t ResidentScriptBytes(const core::PipelineDeployment& pipeline);

 private:
  void IdleTick();
  void OnDoorbell(const std::string& pipeline);
  void ArmDoorbells(core::PipelineDeployment* pipeline);
  void RemoveDoorbells(const std::string& pipeline);
  core::PipelineDeployment* Find(const std::string& pipeline);
  /// Wake priority class + deadline from the pipeline spec.
  int PriorityClassOf(const core::PipelineDeployment& pipeline) const;
  void SubmitWake(const std::string& name,
                  serving::WakeupAdmission::DoneFn done);

  core::Orchestrator* orchestrator_;
  HibernationOptions options_;
  const core::PipelineMonitor* monitor_ = nullptr;
  core::SelfHealer* healer_ = nullptr;
  serving::WakeupAdmission admission_;
  ContextPool pool_;
  bool running_ = false;

  struct IdleTrack {
    uint64_t last_completed = 0;
    TimePoint last_progress;
    bool seen = false;
  };
  std::map<std::string, IdleTrack> idle_;
  /// pipeline → addresses carrying doorbell bindings while hibernated.
  std::map<std::string, std::vector<net::Address>> doorbells_;
  /// Pipelines with a wake queued or in flight (coalesces triggers).
  std::set<std::string> wake_pending_;
  HibernationStats stats_;
};

}  // namespace vp::lifecycle
