// Reproduces paper Table 2 (column 4): the fitness and gesture
// pipelines running SIMULTANEOUSLY, sharing one pose_detector replica
// (§5.2.2).
//
// Paper values: Source 5 → (4.56, 4.56); 10 → (7.83, 7.83);
//               20 → (9.44, 9.41); beyond 20 the shared service
//               saturates ("we should scale the services at this
//               point").
#include <cstdio>

#include "harness.hpp"

using namespace vp;
using namespace vp::bench;

int main() {
  const double seconds = BenchSeconds(40.0);
  std::printf("=== Table 2 (col 4): two pipelines sharing the pose "
              "service (%.0f s) ===\n", seconds);
  std::printf("%-12s %14s %14s %14s  %s\n", "Source FPS", "Fitness",
              "Gesture", "Solo fitness", "(paper pair)");

  struct PaperRow {
    double fps;
    const char* pair;
  };
  const PaperRow rows[] = {
      {5, "(4.56, 4.56)"}, {10, "(7.83, 7.83)"}, {20, "(9.44, 9.41)"}};

  for (const PaperRow& row : rows) {
    // Shared run: both pipelines, one pose replica.
    Session shared = MakeSession();
    core::PipelineDeployment* fitness =
        DeployFitness(shared, core::PlacementPolicy::kCoLocate, row.fps);
    core::PipelineDeployment* gesture = DeployGesture(shared, row.fps);
    const size_t pose_replicas =
        shared.orchestrator->registry()
            .Replicas("desktop", "pose_detector")
            .size();
    Run(shared, seconds);

    // Solo reference.
    Session solo = MakeSession();
    core::PipelineDeployment* solo_fitness =
        DeployFitness(solo, core::PlacementPolicy::kCoLocate, row.fps);
    Run(solo, seconds);

    const double fitness_fps = fitness->metrics().EndToEndFps();
    const double gesture_fps = gesture->metrics().EndToEndFps();
    const double solo_fps = solo_fitness->metrics().EndToEndFps();
    std::printf("%-12.0f %14.2f %14.2f %14.2f  %s  [pose replicas: %zu]\n",
                row.fps, fitness_fps, gesture_fps, solo_fps, row.pair,
                pose_replicas);
  }
  std::printf("\npaper shape check: sharing is free at 5-10 FPS; at 20 FPS "
              "the single shared replica saturates and both pipelines drop "
              "below the solo rate.\n");
  return 0;
}
