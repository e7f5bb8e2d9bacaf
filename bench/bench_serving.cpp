// Serving-layer benchmark: cross-pipeline micro-batching + priority
// classes on the Table 2 sharing scenario, scaled up — eleven
// pipelines (10× fitness at background priority, 1× fall detection at
// interactive priority) sharing ONE pose_detector replica on the
// desktop.
//
// Two runs at equal replica count:
//   fifo     — serving layer off: requests dispatch one at a time to
//              the least-backlog replica (the PR 1 path).
//   serving  — micro-batching + strict priority + deadline awareness.
//
// Claims checked (the exit status; ctest runs the bench in smoke mode
// as the `bench_serving` entry):
//   * batched aggregate frame rate ≥ 1.25× the FIFO aggregate;
//   * the interactive pipeline's p95 end-to-end latency under
//     contention is lower than FIFO's.
#include <cstdio>

#include "harness.hpp"
#include "serving/request_scheduler.hpp"

using namespace vp;
using namespace vp::bench;

namespace {

/// Enough background pipelines to saturate the single shared replica —
/// batches only form at saturation (credit pacing caps each pipeline
/// at one in-flight frame, so concurrency == pipeline count).
constexpr int kFitnessPipelines = 10;

struct RunResult {
  double aggregate_fps = 0;
  double fall_fps = 0;
  double fall_p95_ms = 0;
  double fall_mean_ms = 0;
  size_t pose_replicas = 0;
  // Serving-only observability.
  double batch_occupancy = 0;
  double queue_delay_ms = 0;
  uint64_t sheds = 0;
  uint64_t deadline_misses = 0;
};

RunResult RunConfig(bool serving_on, double seconds) {
  core::OrchestratorOptions options;
  if (serving_on) {
    options.serving.enabled = true;
    options.serving.scheduler.batch_window = Duration::Millis(3);
    options.serving.scheduler.max_batch_size = 8;
    options.serving.scheduler.policy =
        serving::SchedulingPolicy::kStrictPriority;
  }
  Session session = MakeSession(options);
  for (int i = 0; i < kFitnessPipelines; ++i) {
    DeployFitness(session, core::PlacementPolicy::kCoLocate, 20);
  }
  core::PipelineDeployment* fall =
      DeployFall(session, 15, serving_on ? 500.0 : 0.0);
  Run(session, seconds);

  RunResult result;
  for (core::PipelineDeployment* pipeline : session.pipelines) {
    result.aggregate_fps += pipeline->metrics().EndToEndFps();
  }
  result.fall_fps = fall->metrics().EndToEndFps();
  const core::LatencySummary fall_latency = fall->metrics().TotalLatency();
  result.fall_p95_ms = fall_latency.p95_ms;
  result.fall_mean_ms = fall_latency.mean_ms;
  result.pose_replicas = session.orchestrator->registry()
                             .Replicas("desktop", "pose_detector")
                             .size();
  result.deadline_misses = fall->metrics().deadline_misses();
  if (serving_on) {
    auto it = session.orchestrator->schedulers().find(
        {"desktop", "pose_detector"});
    if (it != session.orchestrator->schedulers().end()) {
      const serving::SchedulerStats& stats = it->second->stats();
      result.batch_occupancy = stats.mean_batch_occupancy();
      result.queue_delay_ms = stats.mean_queue_delay_ms();
      result.sheds = stats.shed_deadline + stats.shed_stale;
    }
  }
  return result;
}

}  // namespace

int main() {
  const double seconds = BenchSeconds(40.0);
  std::printf("=== Serving layer: 10x fitness (background) + 1x fall "
              "(interactive) sharing one pose replica, %.0f s ===\n",
              seconds);

  const RunResult fifo = RunConfig(false, seconds);
  const RunResult serving = RunConfig(true, seconds);

  // Batch occupancy, queue delay and sheds exist only with serving on.
  std::printf("%-8s %10s %9s %12s %13s %11s %9s %6s %16s %9s\n", "mode",
              "aggregate", "fall fps", "fall p95 ms", "fall mean ms",
              "batch occ.", "queue ms", "sheds", "deadline misses",
              "replicas");
  std::printf("%-8s %10.2f %9.2f %12.1f %13.1f %11s %9s %6s %16llu %9zu\n",
              "fifo", fifo.aggregate_fps, fifo.fall_fps, fifo.fall_p95_ms,
              fifo.fall_mean_ms, "-", "-", "-",
              static_cast<unsigned long long>(fifo.deadline_misses),
              fifo.pose_replicas);
  std::printf(
      "%-8s %10.2f %9.2f %12.1f %13.1f %11.2f %9.2f %6llu %16llu %9zu\n",
      "serving", serving.aggregate_fps, serving.fall_fps,
      serving.fall_p95_ms, serving.fall_mean_ms, serving.batch_occupancy,
      serving.queue_delay_ms, static_cast<unsigned long long>(serving.sheds),
      static_cast<unsigned long long>(serving.deadline_misses),
      serving.pose_replicas);

  const double speedup =
      fifo.aggregate_fps > 0 ? serving.aggregate_fps / fifo.aggregate_fps : 0;
  const bool fps_win = speedup >= 1.25;
  const bool p95_win = serving.fall_p95_ms < fifo.fall_p95_ms;
  std::printf("\naggregate speedup: %.2fx (target >= 1.25x)  %s\n", speedup,
              fps_win ? "PASS" : "FAIL");
  std::printf("interactive p95: %.1f ms vs %.1f ms FIFO  %s\n",
              serving.fall_p95_ms, fifo.fall_p95_ms,
              p95_win ? "PASS" : "FAIL");

  return (fps_win && p95_win) ? 0 : 1;
}
