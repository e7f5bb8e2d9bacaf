// Fitness application (paper §4.1, Figs. 3–4) — a full workout session
// on the three-device home, run under BOTH placements so you can see
// the co-location win, with a terminal rendering of what the TV shows.
//
//   $ ./fitness_session
#include <algorithm>
#include <cstdio>
#include <string>

#include "apps/fitness.hpp"
#include "core/orchestrator.hpp"
#include "media/codec.hpp"
#include "sim/cluster.hpp"

using namespace vp;

namespace {

/// ASCII rendering of a frame (what Fig. 3 shows on the 4K TV,
/// downgraded to a terminal).
void PrintFrameAscii(const media::Image& image) {
  const char* ramp = " .:-=+*#%@";
  const int cols = 64;
  const int rows = 20;
  for (int row = 0; row < rows; ++row) {
    std::string line;
    for (int col = 0; col < cols; ++col) {
      const int x = col * image.width() / cols;
      const int y = row * image.height() / rows;
      const media::Rgb c = image.At(x, y);
      const int luma = (c.r * 3 + c.g * 6 + c.b) / 10;
      line += ramp[std::min(9, luma * 10 / 256)];
    }
    std::printf("  |%s|\n", line.c_str());
  }
}

void RunSession(core::PlacementPolicy policy) {
  std::printf("\n################ placement: %s ################\n",
              core::PlacementPolicyName(policy));
  auto cluster = sim::MakeHomeTestbed();
  core::Orchestrator orchestrator(cluster.get());
  auto spec = apps::fitness::Spec();
  if (!spec.ok()) {
    std::fprintf(stderr, "config: %s\n", spec.error().ToString().c_str());
    return;
  }
  core::Orchestrator::DeployArgs args;
  args.workload = apps::fitness::Workout();
  args.placement.policy = policy;
  auto deployment = orchestrator.Deploy(std::move(*spec), std::move(args));
  if (!deployment.ok()) {
    std::fprintf(stderr, "deploy: %s\n",
                 deployment.error().ToString().c_str());
    return;
  }
  core::PipelineDeployment& pipeline = **deployment;
  std::printf("%s\n\n", pipeline.plan().ToString().c_str());

  pipeline.Start();
  // Narrate the session second by second (virtual time).
  const media::MotionScript workout = apps::fitness::Workout();
  core::ModuleRuntime* display = pipeline.FindModule("display_module");
  std::printf("%6s %-14s %-14s %6s %8s\n", "t(s)", "truth", "detected",
              "reps", "fps");
  for (int second = 1; second <= 41; ++second) {
    orchestrator.RunFor(Duration::Seconds(1));
    if (second % 4 != 0) continue;
    const json::Value activity = display->context().GetGlobal("activity");
    const json::Value reps = display->context().GetGlobal("reps");
    std::printf("%6d %-14s %-14s %6s %8.2f\n", second,
                workout.LabelAt(second - 0.5).c_str(),
                (activity.is_string() ? activity.AsString() : activity.Dump())
                    .c_str(),
                reps.Dump().c_str(),
                pipeline.metrics().EndToEndFps());
  }

  const core::PipelineMetrics& metrics = pipeline.metrics();
  std::printf("\nsession summary:\n");
  std::printf("  frames completed  %llu (dropped at source: %llu)\n",
              static_cast<unsigned long long>(metrics.frames_completed()),
              static_cast<unsigned long long>(
                  pipeline.camera().frames_dropped()));
  std::printf("  end-to-end        %.2f fps, %.1f ms mean latency\n",
              metrics.EndToEndFps(), metrics.TotalLatency().mean_ms);
  std::printf("  ground-truth reps %d\n",
              workout.RepsUpTo(workout.total_duration()));

  // Render one mid-squat frame the way the TV would show it.
  if (policy == core::PlacementPolicy::kCoLocate) {
    std::printf("\nwhat the TV shows (one frame, mid-squat, ASCII-ified):\n");
    media::SceneOptions scene;
    scene.width = 320;
    scene.height = 240;
    media::SyntheticVideoSource source(apps::fitness::Workout(), 20.0,
                                       scene, 7);
    PrintFrameAscii(source.CaptureFrame(160).image);  // t = 8 s, squat
  }
}

}  // namespace

int main() {
  std::printf("VideoPipe fitness application — 41 s workout session\n");
  std::printf("(squats -> jumping jacks -> lunges, phone camera -> TV)\n");
  RunSession(core::PlacementPolicy::kCoLocate);
  RunSession(core::PlacementPolicy::kSingleDevice);
  std::printf("\nCompare the two summaries: co-location is what makes the "
              "pipeline hit its ~10-11 FPS ceiling.\n");
  return 0;
}
