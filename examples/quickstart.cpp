// Quickstart: deploy the paper's fitness pipeline (Fig. 4) on the
// three-device home testbed and print what happened.
//
//   $ ./quickstart
//
// Walks the whole public API surface: cluster construction, pipeline
// configuration (Listing-1 JSON), deployment with the co-locating
// placement policy, simulation, and metrics readout.
#include <cstdio>

#include "apps/fitness.hpp"
#include "core/orchestrator.hpp"
#include "sim/cluster.hpp"

using namespace vp;

int main() {
  // 1. The home: a 2018 flagship phone, a desktop, a TV — Wi-Fi.
  std::unique_ptr<sim::Cluster> cluster = sim::MakeHomeTestbed();

  // 2. The control plane.
  core::Orchestrator orchestrator(cluster.get());

  // 3. The application: modules in vpscript, wiring in a Listing-1
  //    style JSON config.
  auto spec = apps::fitness::Spec();
  if (!spec.ok()) {
    std::fprintf(stderr, "config error: %s\n",
                 spec.error().ToString().c_str());
    return 1;
  }

  // 4. Deploy with VideoPipe's co-locating placement: modules land on
  //    the devices that host the services they call.
  core::Orchestrator::DeployArgs args;
  args.workload = apps::fitness::Workout();  // squats, jacks, lunges
  auto deployment = orchestrator.Deploy(std::move(*spec), std::move(args));
  if (!deployment.ok()) {
    std::fprintf(stderr, "deploy error: %s\n",
                 deployment.error().ToString().c_str());
    return 1;
  }
  core::PipelineDeployment& pipeline = **deployment;

  std::printf("deployment plan: %s\n\n", pipeline.plan().ToString().c_str());

  // 5. Run a 30-second session (virtual time — finishes instantly).
  pipeline.Start();
  orchestrator.RunFor(Duration::Seconds(30));

  // 6. Read the results.
  const core::PipelineMetrics& metrics = pipeline.metrics();
  std::printf("frames completed : %llu\n",
              static_cast<unsigned long long>(metrics.frames_completed()));
  std::printf("end-to-end fps   : %.2f\n", metrics.EndToEndFps());
  std::printf("frames dropped   : %llu (at the source, by design)\n",
              static_cast<unsigned long long>(
                  pipeline.camera().frames_dropped()));

  const auto total = metrics.TotalLatency();
  std::printf("capture→display  : mean %.1f ms  p95 %.1f ms\n", total.mean_ms,
              total.p95_ms);
  for (const char* module :
       {"pose_detection_module", "activity_detector_module",
        "rep_counter_module", "display_module"}) {
    const auto lat = metrics.ModuleLatency(module);
    std::printf("  %-26s mean %6.1f ms  p95 %6.1f ms\n", module, lat.mean_ms,
                lat.p95_ms);
  }

  // What did the user see on the TV? Ask the display module's context.
  core::ModuleRuntime* display = pipeline.FindModule("display_module");
  const json::Value reps = display->context().GetGlobal("reps");
  const json::Value activity = display->context().GetGlobal("activity");
  std::printf("\nTV overlay at the end: activity=%s reps=%s\n",
              (activity.is_string() ? activity.AsString() : activity.Dump())
                  .c_str(),
              reps.Dump().c_str());
  return 0;
}
