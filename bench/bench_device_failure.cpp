// Device-failure bench: the fitness pipeline on the extended home
// testbed (phone + desktop + tv + nuc) with the self-healing control
// plane on, then the desktop — host of every containerized service and
// its co-located modules — loses power mid-run.
//
// The bar:
//
//   * the heartbeat detector confirms the death and the orchestrator
//     re-places, restores from checkpoints and resumes with
//     MTTR < 2x the suspicion window,
//   * post-recovery throughput on the surviving nuc retains >= 70% of
//     the fault-free rate,
//   * stateful modules come back from controller-held checkpoints
//     (never from scratch),
//   * the whole timeline is bit-for-bit deterministic under a seed.
//
// Exits with the number of failed checks; ctest runs the bench as the
// `bench_device_failure` entry.
#include <cstdio>
#include <memory>
#include <tuple>

#include "apps/fitness.hpp"
#include "core/orchestrator.hpp"
#include "core/self_healing.hpp"
#include "sim/cluster.hpp"
#include "sim/fault_injector.hpp"

using namespace vp;

namespace {

constexpr double kWarmupS = 5.0;
constexpr double kCleanS = 10.0;  // crash fires at t = 15 s
constexpr double kAfterS = 20.0;

constexpr double kSuspicionWindowMs = 500.0;

struct RunResult {
  double clean_fps = 0;
  double recovered_fps = 0;
  double detection_ms = 0;
  double mttr_ms = 0;
  double staleness_ms = 0;
  uint64_t completed = 0;
  uint64_t device_failures = 0;
  uint64_t recoveries = 0;
  uint64_t checkpoints_restored = 0;
  uint64_t frames_lost = 0;
  uint64_t heartbeats = 0;
};

RunResult RunScenario(uint64_t seed) {
  auto cluster = sim::MakeExtendedTestbed(seed);
  core::Orchestrator orchestrator(cluster.get());

  auto spec = apps::fitness::Spec();
  if (!spec.ok()) {
    std::fprintf(stderr, "fitness config: %s\n",
                 spec.error().ToString().c_str());
    std::abort();
  }
  spec->source.fps = 20.0;
  core::Orchestrator::DeployArgs args;
  args.workload = apps::fitness::Workout();
  auto deployment = orchestrator.Deploy(std::move(*spec), std::move(args));
  if (!deployment.ok()) {
    std::fprintf(stderr, "deploy: %s\n",
                 deployment.error().ToString().c_str());
    std::abort();
  }
  core::PipelineDeployment* pipeline = *deployment;

  sim::FaultInjector injector(&cluster->simulator(), &cluster->network(),
                              seed);
  orchestrator.RegisterReplicasForFaults(injector);
  orchestrator.RegisterDevicesForFaults(injector);

  core::SelfHealingOptions healing;
  healing.detector.heartbeat_interval = Duration::Millis(100);
  healing.detector.suspect_after = Duration::Millis(250);
  healing.detector.suspicion_window = Duration::Millis(kSuspicionWindowMs);
  // The default election would pick the desktop — the device this
  // bench kills. A real deployment pins the controller on a box it
  // trusts to stay up; so do we.
  healing.detector.controller_device = "tv";
  healing.checkpoint_interval = Duration::Seconds(1);
  core::SelfHealer healer(&orchestrator, healing);
  if (Status started = healer.Start(); !started.ok()) {
    std::fprintf(stderr, "healer: %s\n", started.ToString().c_str());
    std::abort();
  }

  if (!injector
           .ScheduleDeviceCrash(
               "desktop",
               TimePoint() + Duration::Seconds(kWarmupS + kCleanS),
               Duration::Zero())
           .ok()) {
    std::abort();
  }

  const auto completed = [&] {
    return pipeline->metrics().frames_completed();
  };

  pipeline->Start();
  orchestrator.RunFor(Duration::Seconds(kWarmupS));

  const uint64_t c0 = completed();
  orchestrator.RunFor(Duration::Seconds(kCleanS));
  const uint64_t c1 = completed();

  // The crash fires now. Skip one suspicion window so the "recovered"
  // rate measures the new placement, not the detection gap.
  orchestrator.RunFor(Duration::Millis(2 * kSuspicionWindowMs));
  const uint64_t c2 = completed();
  const double after_gap =
      kAfterS - 2 * kSuspicionWindowMs / 1000.0;
  orchestrator.RunFor(Duration::Seconds(after_gap));
  const uint64_t c3 = completed();

  RunResult out;
  out.clean_fps = static_cast<double>(c1 - c0) / kCleanS;
  out.recovered_fps = static_cast<double>(c3 - c2) / after_gap;
  const core::PipelineMetrics& m = pipeline->metrics();
  out.detection_ms = m.detection_latency_ms();
  out.mttr_ms = m.recovery_time_ms();
  out.staleness_ms = m.checkpoint_staleness_ms();
  out.completed = m.frames_completed();
  out.device_failures = m.device_failures();
  out.recoveries = m.recoveries();
  out.checkpoints_restored = m.checkpoints_restored();
  out.frames_lost = m.frames_lost_to_failure();
  out.heartbeats = healer.detector()->stats().heartbeats_received;
  return out;
}

}  // namespace

int main() {
  std::printf("=== Device failure: fitness @20 FPS, desktop dies at "
              "t=15 s ===\n");
  std::printf("detector: 100 ms heartbeats, %g ms suspicion window, "
              "1 s checkpoints, controller on tv\n\n",
              kSuspicionWindowMs);

  const RunResult a = RunScenario(2024);

  std::printf("%-26s %10s\n", "phase", "e2e FPS");
  std::printf("%-26s %10.2f\n", "fault-free (desktop)", a.clean_fps);
  std::printf("%-26s %10.2f\n", "recovered (nuc)", a.recovered_fps);
  std::printf("%-26s %9.1f%%\n", "throughput retention",
              100.0 * a.recovered_fps / a.clean_fps);
  std::printf("\nrecovery metrics: detection=%.1f ms mttr=%.1f ms "
              "checkpoint_staleness=%.0f ms checkpoints_restored=%llu "
              "frames_lost=%llu heartbeats=%llu\n",
              a.detection_ms, a.mttr_ms, a.staleness_ms,
              static_cast<unsigned long long>(a.checkpoints_restored),
              static_cast<unsigned long long>(a.frames_lost),
              static_cast<unsigned long long>(a.heartbeats));

  int failures = 0;
  const auto check = [&failures](bool ok, const char* what) {
    std::printf("[%s] %s\n", ok ? "ok" : "FAIL", what);
    if (!ok) ++failures;
  };

  check(a.device_failures == 1 && a.recoveries == 1,
        "exactly one failure detected and recovered");
  check(a.mttr_ms > 0 && a.mttr_ms < 2 * kSuspicionWindowMs,
        "MTTR < 2x suspicion window");
  check(a.detection_ms > 0 && a.detection_ms <= a.mttr_ms,
        "detection latency recorded and <= MTTR");
  check(a.recovered_fps >= 0.7 * a.clean_fps,
        "recovered throughput >= 70% of fault-free");
  check(a.checkpoints_restored >= 1 && a.staleness_ms > 0,
        "stateful modules restored from checkpoints, not from scratch");

  const RunResult b = RunScenario(2024);
  const auto key = [](const RunResult& r) {
    return std::make_tuple(r.completed, r.heartbeats, r.frames_lost,
                           r.checkpoints_restored, r.mttr_ms,
                           r.detection_ms);
  };
  check(key(a) == key(b), "timeline deterministic under fixed seed");

  const RunResult c = RunScenario(7);
  check(key(a) != key(c), "different seed gives a different timeline");

  return failures;
}
