// Fall-detection application (paper §4.3): an elderly-care monitor
// that pages a caregiver when the person on camera goes down.
//
//   $ ./fall_alert
#include <cstdio>

#include "apps/fall.hpp"
#include "core/orchestrator.hpp"
#include "sim/cluster.hpp"

using namespace vp;

int main() {
  std::printf("VideoPipe fall detection — §4.3\n\n");
  auto cluster = sim::MakeHomeTestbed();
  core::Orchestrator orchestrator(cluster.get());

  apps::fall::AlertLog alerts;
  auto spec = apps::fall::Spec();
  if (!spec.ok()) {
    std::fprintf(stderr, "config: %s\n", spec.error().ToString().c_str());
    return 1;
  }
  auto args = apps::fall::MakeDeployArgs(alerts, &cluster->simulator());
  auto deployment = orchestrator.Deploy(std::move(*spec), std::move(args));
  if (!deployment.ok()) {
    std::fprintf(stderr, "deploy: %s\n",
                 deployment.error().ToString().c_str());
    return 1;
  }
  std::printf("plan: %s\n\n", (*deployment)->plan().ToString().c_str());

  const media::MotionScript session = apps::fall::FallSession();
  std::printf("session: idle → squats → idle → FALL (starting ~%.1f s)\n\n",
              4.0 + 6.0 + 2.0 + 6.0 * 0.4);

  (*deployment)->Start();
  core::ModuleRuntime* monitor =
      (*deployment)->FindModule("fall_monitor_module");
  std::printf("%6s %-10s %10s\n", "t(s)", "truth", "monitor");
  for (int second = 2; second <= 20; second += 2) {
    orchestrator.RunFor(Duration::Seconds(2));
    const json::Value fallen = monitor->context().GetGlobal("was_fallen");
    std::printf("%6d %-10s %10s\n", second,
                session.LabelAt(second - 0.5).c_str(),
                fallen.is_bool() && fallen.AsBool() ? "FALLEN" : "ok");
  }

  std::printf("\nalerts raised: %zu\n", alerts.alerts().size());
  for (const apps::fall::Alert& alert : alerts.alerts()) {
    std::printf("  t=%6.2fs  torso %.0f° from vertical, %0.f%% of window "
                "frames down\n",
                alert.when.seconds(), alert.torso_angle_deg,
                alert.fallen_fraction * 100);
  }
  return alerts.alerts().size() == 1 ? 0 : 1;
}
