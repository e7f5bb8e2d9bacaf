// The benchmark's five workloads. One Episode is one complete run of a
// workload: train the models and deploy (set-up), warm up, then drive
// the timed window. Everything a workload owns is seeded from the
// episode seed, so two episodes with the same seed produce the same
// virtual-time results.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "apps/fall.hpp"
#include "core/orchestrator.hpp"
#include "fleet/fleet.hpp"
#include "lifecycle/hibernation.hpp"
#include "media/video_source.hpp"
#include "modelreg/registry.hpp"
#include "sim/cluster.hpp"

namespace vp::e2e {

enum class WorkloadId {
  kFig6Colocate,
  kEdgeEyeBaseline,
  kSharedServing,
  kWakeBurst,
  kFleetParallel,
};

struct WorkloadInfo {
  WorkloadId id;
  const char* name;
  /// Virtual seconds of warm-up after the first admitted frame.
  double warmup_s;
  /// Virtual seconds of the timed window.
  double window_s;
  /// Set-ups timed per run, the episodes' own included. A set-up of a
  /// few milliseconds is repeated so that its median is not one
  /// allocator or scheduler hiccup.
  int setups;
};

const std::vector<WorkloadInfo>& AllWorkloads();
/// nullptr for an unknown name.
const WorkloadInfo* FindWorkload(const std::string& name);

/// One home: the orchestrator, the simulator its events run on, and
/// which attribution shard that simulator is.
struct HomeView {
  core::Orchestrator* orchestrator = nullptr;
  sim::Simulator* simulator = nullptr;
  int shard = 0;
};

/// One pipeline plus a copy of its camera's video source, so the traced
/// run can replay the camera's kernels on the frames the run emitted.
struct PipelineView {
  core::PipelineDeployment* pipeline = nullptr;
  int home = 0;
  media::SyntheticVideoSource source;
};

class Episode {
 public:
  /// `sequential` runs fleet_parallel on the single-threaded engine
  /// (the traced run's cross-check); other workloads ignore it.
  Episode(const WorkloadInfo& info, uint64_t seed, bool sequential = false);
  ~Episode();
  Episode(const Episode&) = delete;
  Episode& operator=(const Episode&) = delete;

  /// Train, deploy and start every camera. Returns when the first
  /// frame is admitted at the next simulator event.
  void Setup();
  void WarmUp();
  /// Drive the timed window. `before_segment` runs before every
  /// RunFor, with the simulators quiesced.
  void RunWindow(const std::function<void()>& before_segment);

  const std::vector<HomeView>& homes() const { return homes_; }
  const std::vector<PipelineView>& pipelines() const { return pipelines_; }
  /// Distinct attribution shards (1 except on the parallel engine).
  int shard_count() const;
  /// Worker threads executing events during the window.
  int threads() const;
  /// Virtual start of the timed window, per home.
  const std::vector<TimePoint>& window_start() const { return window_start_; }

  lifecycle::HibernationManager* lifecycle() { return lifecycle_.get(); }
  fleet::Fleet* fleet() { return fleet_.get(); }
  const apps::fall::AlertLog* alert_log() const { return alert_log_.get(); }
  /// The interactive (fall) pipeline of shared_serving, whose frames
  /// the interactive tail is measured on.
  const std::vector<core::PipelineDeployment*>& interactive() const {
    return interactive_;
  }
  /// Wake requests submitted in the window.
  uint64_t wakes_requested() const { return wakes_requested_; }
  /// Wall-clock spans of each wake (request → done), for the trace.
  struct WakeSpan {
    std::string pipeline;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
  };
  const std::vector<WakeSpan>& wake_spans() const { return wake_spans_; }

 private:
  void SetupSingleHome();
  void SetupFleet();
  void ScheduleCloudJob(int home);
  core::PipelineDeployment* Deploy(core::Orchestrator& orchestrator, int home,
                                   core::PipelineSpec spec,
                                   core::Orchestrator::DeployArgs args);
  void RunFor(double seconds);
  void WakeCycle(const std::function<void()>& before_segment);

  WorkloadInfo info_;
  uint64_t seed_;
  bool sequential_;
  // Fresh per episode, so every set-up pays for model training.
  modelreg::ModelRegistry registry_;
  std::unique_ptr<apps::fall::AlertLog> alert_log_;
  std::unique_ptr<sim::Cluster> cluster_;
  std::unique_ptr<core::Orchestrator> orchestrator_;
  std::unique_ptr<lifecycle::HibernationManager> lifecycle_;
  std::unique_ptr<fleet::Fleet> fleet_;
  std::vector<HomeView> homes_;
  std::vector<PipelineView> pipelines_;
  std::vector<core::PipelineDeployment*> interactive_;
  std::vector<TimePoint> window_start_;
  uint64_t wakes_requested_ = 0;
  std::vector<WakeSpan> wake_spans_;
};

/// Monotonic wall clock in nanoseconds.
int64_t WallNs();

}  // namespace vp::e2e
