// Model lifecycle benchmark: warm hot-swap and poisoned-canary
// rollback on the fitness pipeline, against a no-rollout baseline.
//
// Three runs of fitness@20fps with the serving layer on (the scheduler
// is what makes drain-before-swap and canary routing possible):
//   baseline — v0 model end to end, no lifecycle activity;
//   hotswap  — at one third of the run, UpgradeStable() to a freshly
//              trained version: every replica drains + swaps live;
//   poison   — at one third of the run, the fault injector's model
//              poison stages a bad candidate (60% label noise, 3x
//              cost) through the canary path; the live gates must
//              catch it and roll back automatically.
//
// Claims checked (the exit status; ctest runs the bench in smoke mode
// as the `bench_model_rollout` entry):
//   * hot-swap upgrade completes with ZERO dropped frames — nothing
//     abandoned, shed, or timed out, and the new version is live;
//   * the poisoned canary is auto-rolled-back, leaving exactly one
//     live version (the incumbent), with incumbent throughput within
//     5% of the no-rollout baseline.
#include <cstdio>
#include <string>

#include "harness.hpp"
#include "modelreg/registry.hpp"
#include "modelreg/rollout.hpp"
#include "sim/fault_injector.hpp"

using namespace vp;
using namespace vp::bench;

namespace {

enum class Mode { kBaseline, kHotSwap, kPoison };

/// Gates fast enough that a decision lands well inside the post-fault
/// window of even a smoke run.
modelreg::RolloutPolicy Policy() {
  modelreg::RolloutPolicy policy;
  policy.canary_fraction = 0.5;
  policy.traffic_share = 0.3;
  policy.probe_interval = Duration::Millis(40);
  policy.evaluate_interval = Duration::Millis(200);
  policy.decision_window = Duration::Seconds(2.5);
  policy.min_probes = 8;
  policy.accuracy_margin = 0.15;
  policy.latency_inflation = 4.0;
  return policy;
}

struct RunResult {
  double fps = 0;
  uint64_t completed = 0;
  uint64_t abandoned = 0;
  uint64_t shed = 0;
  uint64_t timeouts = 0;
  uint64_t swaps = 0;
  uint64_t rollbacks = 0;
  uint64_t promotions = 0;
  double rollback_ms = 0;  // BeginRollout -> rollback decision
  std::string v0;
  std::string final_version;
  size_t live_versions = 0;
};

RunResult RunConfig(Mode mode, double seconds) {
  modelreg::ModelRegistry models;  // per-run registry: isolated training
  core::OrchestratorOptions options;
  options.serving.enabled = true;
  options.models.registry = &models;
  options.models.rollout = Policy();
  Session session = MakeSession(options);
  core::PipelineDeployment* fitness =
      DeployFitness(session, core::PlacementPolicy::kCoLocate, 20);

  core::Orchestrator& orch = *session.orchestrator;
  std::string device;
  const std::string service = "activity_classifier";
  for (const auto& [d, s] : orch.rollout().groups()) {
    if (s == service) device = d;
  }
  if (device.empty()) {
    std::fprintf(stderr, "activity_classifier group not managed\n");
    std::abort();
  }

  RunResult result;
  result.v0 = orch.rollout().stable_version(device, service);

  sim::FaultInjector injector(&session.cluster->simulator(),
                              &session.cluster->network(), 1);
  orch.RegisterModelGroupsForFaults(injector);
  const double fault_at = seconds / 3.0;
  if (mode == Mode::kPoison) {
    (void)injector.ScheduleModelPoison(
        device + "/" + service,
        TimePoint::FromMicros(
            static_cast<uint64_t>(fault_at * 1'000'000.0)));
  }

  orch.StartAll();
  orch.RunFor(Duration::Seconds(fault_at));
  if (mode == Mode::kHotSwap) {
    modelreg::ModelSpec next = modelreg::DefaultActivitySpec();
    next.train_seed = 4242;  // retrained off the hot path
    auto candidate = models.TrainOrGet(next);
    if (!candidate.ok() ||
        !orch.rollout().UpgradeStable(device, service, *candidate).ok()) {
      std::fprintf(stderr, "hot swap failed to start\n");
      std::abort();
    }
  }
  orch.RunFor(Duration::Seconds(seconds - fault_at));

  result.fps = fitness->metrics().EndToEndFps();
  result.completed = fitness->metrics().frames_completed();
  result.abandoned = fitness->metrics().frames_abandoned();
  result.shed = fitness->metrics().requests_shed();
  result.timeouts = fitness->metrics().call_timeouts();
  result.swaps = orch.rollout().stats().swaps;
  result.rollbacks = orch.rollout().stats().rollbacks;
  result.promotions = orch.rollout().stats().promotions;
  result.rollback_ms = orch.rollout().stats().last_rollback_ms;
  result.final_version = orch.rollout().stable_version(device, service);
  result.live_versions =
      orch.registry().LiveModelVersions(device, service).size();
  return result;
}

}  // namespace

int main() {
  const double seconds = BenchSeconds(36.0);
  std::printf("=== Model lifecycle: hot-swap + poisoned canary vs "
              "no-rollout baseline (fitness@20, %.0f s) ===\n", seconds);

  const RunResult baseline = RunConfig(Mode::kBaseline, seconds);
  const RunResult hotswap = RunConfig(Mode::kHotSwap, seconds);
  const RunResult poison = RunConfig(Mode::kPoison, seconds);

  std::printf("%-10s %8s %10s %10s %6s %9s %6s %10s %11s %12s %14s  %s\n",
              "mode", "fps", "completed", "abandoned", "shed", "timeouts",
              "swaps", "rollbacks", "promotions", "rollback ms",
              "live versions", "final version");
  for (const auto* r : {&baseline, &hotswap, &poison}) {
    std::printf(
        "%-10s %8.2f %10llu %10llu %6llu %9llu %6llu %10llu %11llu %12.0f "
        "%14zu  %s\n",
        r == &baseline ? "baseline" : (r == &hotswap ? "hotswap" : "poison"),
        r->fps, static_cast<unsigned long long>(r->completed),
        static_cast<unsigned long long>(r->abandoned),
        static_cast<unsigned long long>(r->shed),
        static_cast<unsigned long long>(r->timeouts),
        static_cast<unsigned long long>(r->swaps),
        static_cast<unsigned long long>(r->rollbacks),
        static_cast<unsigned long long>(r->promotions), r->rollback_ms,
        r->live_versions, r->final_version.c_str());
  }

  // Claim 1: the live upgrade dropped nothing and actually landed.
  const bool swap_zero_loss = hotswap.abandoned == 0 && hotswap.shed == 0 &&
                              hotswap.timeouts == 0 && hotswap.swaps >= 1 &&
                              hotswap.final_version != hotswap.v0 &&
                              hotswap.live_versions == 1;
  std::printf("\nhot swap: %llu swaps, 0 dropped frames, new version live  "
              "%s\n",
              static_cast<unsigned long long>(hotswap.swaps),
              swap_zero_loss ? "PASS" : "FAIL");

  // Claim 2: the poisoned canary was rolled back automatically…
  const bool rolled_back = poison.rollbacks >= 1 && poison.promotions == 0 &&
                           poison.final_version == poison.v0 &&
                           poison.live_versions == 1;
  std::printf("poisoned canary rolled back in %.0f ms, incumbent restored  "
              "%s\n",
              poison.rollback_ms, rolled_back ? "PASS" : "FAIL");

  // …with incumbent throughput within 5% of the no-rollout baseline.
  const double floor = 0.95;
  const double ratio =
      baseline.fps > 0 ? poison.fps / baseline.fps : 0;
  const bool throughput_held = ratio >= floor;
  std::printf("incumbent throughput through the episode: %.2fx of baseline "
              "(target >= %.2fx)  %s\n",
              ratio, floor, throughput_held ? "PASS" : "FAIL");

  return (swap_zero_loss && rolled_back && throughput_held) ? 0 : 1;
}
