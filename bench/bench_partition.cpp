// Partition-tolerance bench: the fitness pipeline on the extended home
// testbed with self-healing on, then the desktop — host of every
// containerized service and its co-located modules — is cut off by a
// network partition (it never crashes: its runtimes keep executing
// into the void) and reconnects several seconds later.
//
// The bar:
//
//   * the detector declares the unreachable desktop dead and recovery
//     re-places its modules on survivors at a bumped placement epoch,
//   * at heal the desktop's stale runtimes are fenced — with fencing
//     on, ZERO frames are ever served by a stale-epoch runtime and no
//     frame completes twice,
//   * after the heal + fencing, the detector's verdict agrees with
//     ground-truth device liveness and exactly one live runtime serves
//     each module (InvariantChecker convergence),
//   * the whole timeline is bit-for-bit deterministic under a seed.
//
// Exits with the number of failed checks; ctest runs the bench in
// smoke mode as the `bench_partition` entry.
#include <cstdio>
#include <memory>
#include <tuple>

#include "apps/fitness.hpp"
#include "harness.hpp"
#include "core/invariants.hpp"
#include "core/orchestrator.hpp"
#include "core/self_healing.hpp"
#include "sim/cluster.hpp"
#include "sim/fault_injector.hpp"

using namespace vp;

namespace {

constexpr double kSuspicionWindowMs = 500.0;
constexpr double kPartitionDurationS = 5.0;

struct RunResult {
  double clean_fps = 0;
  double healed_fps = 0;
  double detection_ms = 0;
  double recovery_ms = 0;
  uint64_t completed = 0;
  uint64_t frames_lost = 0;
  uint64_t recoveries = 0;
  uint64_t zombies_fenced = 0;
  uint64_t zombies_served = 0;
  uint64_t duplicate_completions = 0;
  uint64_t checkpoints_rejected_stale = 0;
  uint64_t partition_drops = 0;
  uint64_t detector_generation = 0;
  bool converged = false;
  uint64_t invariant_violations = 0;
};

RunResult RunScenario(uint64_t seed, bool fencing, double partition_at_s,
                      double after_heal_s) {
  auto cluster = sim::MakeExtendedTestbed(seed);
  core::OrchestratorOptions options;
  options.epoch_fencing = fencing;
  options.seed = seed;
  core::Orchestrator orchestrator(cluster.get(), options);

  auto spec = apps::fitness::Spec();
  if (!spec.ok()) {
    std::fprintf(stderr, "fitness config: %s\n",
                 spec.error().ToString().c_str());
    std::abort();
  }
  spec->source.fps = 20.0;
  core::Orchestrator::DeployArgs args;
  args.workload = apps::fitness::Workout();
  args.seed = seed;
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
  healing.detector.controller_device = "tv";  // stays on the majority side
  healing.checkpoint_interval = Duration::Seconds(1);
  core::SelfHealer healer(&orchestrator, healing);
  if (Status started = healer.Start(); !started.ok()) {
    std::fprintf(stderr, "healer: %s\n", started.ToString().c_str());
    std::abort();
  }

  core::InvariantChecker checker(&orchestrator);
  checker.set_detector(healer.detector());
  checker.Start();

  injector.SchedulePartition(
      {{"desktop"}, {"phone", "tv", "nuc"}},
      TimePoint() + Duration::Seconds(partition_at_s),
      Duration::Seconds(kPartitionDurationS));

  const auto completed = [&] {
    return pipeline->metrics().frames_completed();
  };

  pipeline->Start();
  orchestrator.RunFor(Duration::Seconds(partition_at_s));
  const uint64_t c0 = completed();

  // Partition + detection + recovery + heal. Give one extra suspicion
  // window past the heal for heartbeats to resume and fencing to run.
  orchestrator.RunFor(Duration::Seconds(kPartitionDurationS) +
                      Duration::Millis(2 * kSuspicionWindowMs));
  const uint64_t c2 = completed();
  orchestrator.RunFor(Duration::Seconds(after_heal_s));
  const uint64_t c3 = completed();

  RunResult out;
  out.clean_fps = static_cast<double>(c0) / partition_at_s;
  out.healed_fps = static_cast<double>(c3 - c2) / after_heal_s;
  const core::PipelineMetrics& m = pipeline->metrics();
  out.detection_ms = m.detection_latency_ms();
  out.recovery_ms = m.recovery_time_ms();
  out.completed = m.frames_completed();
  out.frames_lost = m.frames_lost_to_failure();
  out.recoveries = healer.stats().recoveries;
  out.zombies_fenced = m.zombies_fenced();
  out.zombies_served = m.zombies_served();
  out.duplicate_completions = m.duplicate_completions();
  out.checkpoints_rejected_stale = healer.stats().checkpoints_rejected_stale;
  out.partition_drops = cluster->network().stats().partition_drops;
  out.detector_generation = healer.detector()->generation("desktop");
  checker.CheckNow();
  out.converged = checker.CheckConvergence().ok();
  out.invariant_violations = checker.total_violations();
  return out;
}

}  // namespace

int main() {
  const double partition_at_s = bench::BenchSeconds(15.0, 6.0);
  const double after_heal_s = bench::BenchSeconds(10.0, 5.0);

  std::printf("=== Partition tolerance: fitness @20 FPS, desktop cut off "
              "for %g s at t=%g s ===\n",
              kPartitionDurationS, partition_at_s);
  std::printf("detector: 100 ms heartbeats, %g ms suspicion window, "
              "controller on tv (majority side)\n\n",
              kSuspicionWindowMs);

  const RunResult fenced = RunScenario(2024, true, partition_at_s,
                                       after_heal_s);
  const RunResult unfenced = RunScenario(2024, false, partition_at_s,
                                         after_heal_s);

  std::printf("%-30s %12s %12s\n", "", "fencing on", "fencing off");
  std::printf("%-30s %12.2f %12.2f\n", "fault-free e2e FPS",
              fenced.clean_fps, unfenced.clean_fps);
  std::printf("%-30s %12.2f %12.2f\n", "post-heal e2e FPS",
              fenced.healed_fps, unfenced.healed_fps);
  std::printf("%-30s %12.1f %12.1f\n", "detection time (ms)",
              fenced.detection_ms, unfenced.detection_ms);
  std::printf("%-30s %12.1f %12.1f\n", "recovery time (ms)",
              fenced.recovery_ms, unfenced.recovery_ms);
  const auto count_row = [](const char* name, uint64_t on, uint64_t off) {
    std::printf("%-30s %12llu %12llu\n", name,
                static_cast<unsigned long long>(on),
                static_cast<unsigned long long>(off));
  };
  count_row("frames completed", fenced.completed, unfenced.completed);
  count_row("frames lost", fenced.frames_lost, unfenced.frames_lost);
  count_row("recoveries", fenced.recoveries, unfenced.recoveries);
  count_row("partition drops", fenced.partition_drops,
            unfenced.partition_drops);
  count_row("zombies fenced", fenced.zombies_fenced, unfenced.zombies_fenced);
  count_row("zombie-served frames", fenced.zombies_served,
            unfenced.zombies_served);
  count_row("duplicate completions", fenced.duplicate_completions,
            unfenced.duplicate_completions);
  count_row("stale checkpoints rejected", fenced.checkpoints_rejected_stale,
            unfenced.checkpoints_rejected_stale);
  count_row("detector generation (desktop)", fenced.detector_generation,
            unfenced.detector_generation);
  count_row("invariant violations", fenced.invariant_violations,
            unfenced.invariant_violations);
  std::printf("%-30s %12s %12s\n\n", "detector/ground-truth agree",
              fenced.converged ? "yes" : "NO",
              unfenced.converged ? "yes" : "NO");

  int failures = 0;
  const auto check = [&failures](bool ok, const char* what) {
    std::printf("[%s] %s\n", ok ? "ok" : "FAIL", what);
    if (!ok) ++failures;
  };

  check(fenced.recoveries >= 1,
        "partition detected as a failure and recovered from");
  check(fenced.recovery_ms > 0 &&
            fenced.recovery_ms < 2 * kSuspicionWindowMs,
        "recovery time < 2x suspicion window");
  check(fenced.zombies_fenced >= 1,
        "reconnected desktop's stale runtimes were fenced");
  check(fenced.zombies_served == 0,
        "zero frames served by stale-epoch runtimes (fencing on)");
  check(fenced.duplicate_completions == 0,
        "no frame completed twice");
  check(fenced.converged && fenced.invariant_violations == 0,
        "post-heal convergence: detector agrees with ground truth, one "
        "live runtime per module");
  check(fenced.detector_generation == 2,
        "detector saw exactly one leave/return cycle (generation 2)");
  check(fenced.healed_fps >= 0.7 * fenced.clean_fps,
        "post-heal throughput >= 70% of fault-free");
  check(unfenced.zombies_fenced == 0,
        "ablation: fencing off fences nothing");

  const RunResult again = RunScenario(2024, true, partition_at_s,
                                      after_heal_s);
  const auto key = [](const RunResult& r) {
    return std::make_tuple(r.completed, r.frames_lost, r.zombies_fenced,
                           r.partition_drops, r.recovery_ms,
                           r.detection_ms);
  };
  check(key(fenced) == key(again),
        "timeline deterministic under fixed seed");

  std::printf("%d checks failed\n", failures);
  return failures;
}
