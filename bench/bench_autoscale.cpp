// Future-work feature bench (§7 / §5.2.2): autoscaling the shared
// pose service when two pipelines saturate it at 20 FPS.
//
//   "It also implies that we should scale the services at this point,
//    which is convenient in our design as the services are stateless."
#include <cstdio>

#include "harness.hpp"

using namespace vp;
using namespace vp::bench;

namespace {

struct Outcome {
  double fitness_fps;
  double gesture_fps;
  size_t pose_replicas;
  size_t scale_events;
};

Outcome Measure(bool autoscale, double seconds) {
  core::OrchestratorOptions options;
  // Two one-in-flight pipelines put at most 2 requests on the shared
  // replica; trigger on sustained backlog above 1.
  options.autoscaler_options.backlog_high_water = 1.2;
  options.autoscaler_options.check_interval = Duration::Millis(250);
  Session session = MakeSession(options);
  core::PipelineDeployment* fitness =
      DeployFitness(session, core::PlacementPolicy::kCoLocate, 20.0);
  core::PipelineDeployment* gesture = DeployGesture(session, 20.0);

  if (autoscale) {
    session.orchestrator->autoscaler().Watch("desktop", "pose_detector");
    session.orchestrator->autoscaler().Start();
  }
  Run(session, seconds);

  Outcome out;
  out.fitness_fps = fitness->metrics().EndToEndFps();
  out.gesture_fps = gesture->metrics().EndToEndFps();
  out.pose_replicas = session.orchestrator->registry()
                          .Replicas("desktop", "pose_detector")
                          .size();
  out.scale_events = session.orchestrator->autoscaler().events().size();
  return out;
}

}  // namespace

int main() {
  const double seconds = BenchSeconds(40.0);
  std::printf("=== Autoscaling the shared pose service "
              "(two pipelines at 20 FPS, %.0f s) ===\n", seconds);
  const Outcome fixed = Measure(false, seconds);
  const Outcome scaled = Measure(true, seconds);

  std::printf("%-22s %12s %12s\n", "", "fixed (1)", "autoscaled");
  std::printf("%-22s %12.2f %12.2f\n", "fitness FPS", fixed.fitness_fps,
              scaled.fitness_fps);
  std::printf("%-22s %12.2f %12.2f\n", "gesture FPS", fixed.gesture_fps,
              scaled.gesture_fps);
  std::printf("%-22s %12zu %12zu\n", "pose replicas (end)",
              fixed.pose_replicas, scaled.pose_replicas);
  std::printf("%-22s %12zu %12zu\n", "scale events", fixed.scale_events,
              scaled.scale_events);
  std::printf("\nexpected: the autoscaler adds replica(s) once the shared "
              "service saturates, recovering per-pipeline FPS toward the "
              "solo rate (~11).\n");
  return 0;
}
