// Fleet-scale benchmark: staged rollout waves across a sweep of home
// counts, blast radius with and without fleet gating, and control-
// plane overhead per home.
//
// For each fleet size N (full: 4/16/64, smoke: 2/4) every home runs
// fitness@10 with the serving layer on and offloads periodic jobs to
// the shared cloud tier, then the FleetController drives a clean
// 1 → 1% → 50% → all staged rollout. Measured per wave: virtual wall
// time to the gate decision. Measured per run: controller + monitor +
// cloud events per home as a fraction of per-home workload events
// (must stay < 5% — the control plane reads per-home summaries, not
// frames).
//
// Partitions (at N = 16 full / 4 smoke): the clean rollout reruns on
// eight shards at several worker-thread counts. The fleet controller
// runs at barriers at every shard count, so each of those rows must
// print the same waves, wave times, events and overhead as the
// one-shard row of the sweep.
//
// Blast radius (at N = 16 full / 4 smoke): a supply-chain poison lands
// exactly at wave 2's start. With gating, the wave's local rollbacks
// fail the fleet gate: the rollout halts, later waves never start, the
// promoted wave-1 homes revert, and the poisoned version serves frames
// ONLY in wave 2's members. Without gating, every later wave stages
// the poisoned candidate too — the blast the gate prevents.
//
// Exits non-zero when a claim fails; ctest runs the bench in smoke
// mode as the `bench_fleet` entry.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "apps/fitness.hpp"
#include "fleet/controller.hpp"
#include "fleet/fleet.hpp"
#include "harness.hpp"
#include "modelreg/registry.hpp"

using namespace vp;
using namespace vp::bench;

namespace {

enum class Mode { kClean, kPoisonGated, kPoisonUngated };

modelreg::RolloutPolicy FastPolicy() {
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

void DeployFitnessTo(fleet::Home& home, double fps) {
  auto spec = apps::fitness::Spec();
  if (!spec.ok()) {
    std::fprintf(stderr, "fitness config: %s\n",
                 spec.status().ToString().c_str());
    std::abort();
  }
  spec->source.fps = fps;
  core::Orchestrator::DeployArgs args;
  args.workload = apps::fitness::Workout();
  args.placement.policy = core::PlacementPolicy::kCoLocate;
  auto deployment =
      home.orchestrator->Deploy(std::move(*spec), std::move(args));
  if (!deployment.ok()) {
    std::fprintf(stderr, "deploy %s: %s\n", home.name.c_str(),
                 deployment.status().ToString().c_str());
    std::abort();
  }
  home.pipelines.push_back(*deployment);
}

/// Each home offloads one 50 ms cloud job every 500 ms (re-id style
/// background work) — keeps the shared tier and its fair-share path
/// hot for the whole run. Ticks live on each home's own shard and jobs
/// travel through CloudSubmit's modeled WAN hop, so the pattern is the
/// same at every shard count. The pending event owns each tick and a
/// tick holds itself only weakly, so the ticks go with the fleet's
/// engine.
void StartCloudOffload(fleet::Fleet& fleet) {
  for (int id = 0; id < fleet.size(); ++id) {
    auto tick = std::make_shared<std::function<void()>>();
    *tick = [&fleet, id, self = std::weak_ptr(tick)] {
      fleet.CloudSubmit(id, Duration::Millis(50));
      fleet.home_simulator(id).After(Duration::Millis(500),
                                     [next = self.lock()] { (*next)(); });
    };
    fleet.home_simulator(id).After(Duration::Millis(500),
                                   [tick] { (*tick)(); });
  }
}

struct RunResult {
  int homes = 0;
  int shards = 0;
  int threads = 0;   // worker threads
  double wall_s = 0; // host wall-clock for the simulation itself
  bool done = false;
  bool halted = false;
  int waves = 0;
  int waves_passed = 0;
  std::vector<double> wave_s;  // virtual time from wave start to its gate
  std::vector<int> wave_sizes;
  int blast_homes = 0;         // homes the poisoned version reached
  int failed_wave_size = 0;    // expected blast under gating
  bool blast_contained = false;
  int reverted = 0;
  double overhead_ratio = 0;   // control-plane events / workload events
  uint64_t total_events = 0;
  uint64_t overhead_events = 0;
  uint64_t cloud_served = 0;
  uint64_t registry_trainings = 0;
  uint64_t registry_dedupe_hits = 0;
};

RunResult RunFleet(int homes, Mode mode, double fps, bool parallel = false,
                   int threads = 0) {
  fleet::FleetOptions options;
  options.homes = homes;
  options.seed = 42;
  options.orchestrator.serving.enabled = true;
  options.orchestrator.models.rollout = FastPolicy();
  options.enable_cloud = true;
  options.cloud.slots = std::max(2, homes / 4);
  options.cloud.speed = 4.0;
  options.parallel = parallel;  // off: one shard, on the calling thread
  options.parallel_options.shards = 8;
  options.parallel_options.threads = threads;
  fleet::Fleet fleet(options);
  for (int id = 0; id < fleet.size(); ++id) {
    DeployFitnessTo(fleet.home(id), fps);
  }

  fleet::FleetController controller(&fleet, "activity_classifier",
                                    Duration::Millis(400));
  controller.RegisterModelHooks(*fleet.home(0).injector);
  if (mode != Mode::kClean) {
    controller.on_wave_start = [&](int wave) {
      if (wave == 1) {
        (void)fleet.home(0).injector->PoisonModelNow(
            "fleet/activity_classifier");
      }
    };
  }

  StartCloudOffload(fleet);
  fleet.StartAll();
  const auto wall_start = std::chrono::steady_clock::now();
  fleet.RunFor(Duration::Seconds(1));

  modelreg::ModelSpec candidate = modelreg::DefaultActivitySpec();
  candidate.train_seed = 4242;
  fleet::FleetRolloutOptions rollout;
  rollout.policy = FastPolicy();
  rollout.gate_waves = mode != Mode::kPoisonUngated;
  if (!controller.BeginFleetRollout(candidate, rollout).ok()) {
    std::fprintf(stderr, "fleet rollout failed to start\n");
    std::abort();
  }

  for (int i = 0;
       i < 120 && !controller.rollout_done() && !controller.halted(); ++i) {
    fleet.RunFor(Duration::Seconds(1));
  }
  fleet.RunFor(Duration::Seconds(2));  // let halt-path reverts settle
  const auto wall_stop = std::chrono::steady_clock::now();

  RunResult result;
  result.homes = homes;
  result.shards = fleet.parallel_engine()->shards();
  result.threads = fleet.parallel_engine()->threads();
  result.wall_s =
      std::chrono::duration<double>(wall_stop - wall_start).count();
  result.done = controller.rollout_done();
  result.halted = controller.halted();
  result.waves = static_cast<int>(controller.waves().size());
  for (const auto& wave : controller.waves()) {
    result.wave_sizes.push_back(static_cast<int>(wave.members.size()));
    using WaveState = fleet::FleetController::WaveState;
    if (wave.state == WaveState::kPassed) ++result.waves_passed;
    const bool gated =
        wave.state == WaveState::kPassed || wave.state == WaveState::kFailed;
    result.wave_s.push_back(
        gated ? (wave.finished - wave.started).seconds() : 0.0);
  }
  result.reverted = controller.reverted_homes();

  if (mode != Mode::kClean && result.waves > 1) {
    const auto& poisoned_wave = controller.waves()[1];
    result.failed_wave_size = static_cast<int>(poisoned_wave.members.size());
    const auto exposed = fleet.HomesExposedTo(poisoned_wave.staged_version);
    result.blast_homes = static_cast<int>(exposed.size());
    result.blast_contained = exposed == poisoned_wave.members;
  }

  // The total counts each control task as one event, so total −
  // overhead is exactly the per-home workload.
  const uint64_t total = fleet.executed_events();
  const uint64_t overhead =
      controller.overhead_events() + fleet.SharedOverheadEvents();
  result.total_events = total;
  result.overhead_events = overhead;
  result.overhead_ratio =
      total > overhead
          ? static_cast<double>(overhead) / static_cast<double>(total - overhead)
          : 1.0;
  result.cloud_served = fleet.cloud()->served_total();
  result.registry_trainings = fleet.models().trainings();
  result.registry_dedupe_hits = fleet.models().dedupe_hits();
  return result;
}

/// The two runs print the same virtual-time results: every column but
/// the engine's shape and the host seconds.
bool SamePrintedResults(const RunResult& a, const RunResult& b) {
  return a.homes == b.homes && a.done == b.done && a.halted == b.halted &&
         a.waves == b.waves && a.waves_passed == b.waves_passed &&
         a.wave_sizes == b.wave_sizes && a.wave_s == b.wave_s &&
         a.registry_trainings == b.registry_trainings &&
         a.registry_dedupe_hits == b.registry_dedupe_hits &&
         a.cloud_served == b.cloud_served &&
         a.overhead_events == b.overhead_events &&
         a.total_events == b.total_events &&
         a.overhead_ratio == b.overhead_ratio;
}

/// `values` joined by '/', each printed with `format`.
template <typename T>
std::string Slashed(const std::vector<T>& values, const char* format) {
  std::string out;
  char buf[32];
  for (const T& value : values) {
    std::snprintf(buf, sizeof(buf), format, value);
    if (!out.empty()) out += '/';
    out += buf;
  }
  return out.empty() ? "-" : out;
}

void PrintRow(const char* run, const RunResult& r) {
  const char* rollout = r.halted                    ? "halted"
                        : !r.done                   ? "INCOMPLETE"
                        : r.waves_passed == r.waves ? "complete"
                                                    : "waves failed";
  std::printf(
      "%-15s %5d %6d %7d %5d %6d %-12s %-20s %9llu %6llu %10llu %7llu "
      "%7llu %8.2f%% %7.2f  %s\n",
      run, r.homes, r.shards, r.threads, r.waves,
      r.waves_passed, Slashed(r.wave_sizes, "%d").c_str(),
      Slashed(r.wave_s, "%.2f").c_str(),
      static_cast<unsigned long long>(r.registry_trainings),
      static_cast<unsigned long long>(r.registry_dedupe_hits),
      static_cast<unsigned long long>(r.cloud_served),
      static_cast<unsigned long long>(r.overhead_events),
      static_cast<unsigned long long>(r.total_events),
      r.overhead_ratio * 100.0, r.wall_s, rollout);
}

}  // namespace

int main() {
  const bool smoke = SmokeMode();
  const std::vector<int> sweep = smoke ? std::vector<int>{2, 4}
                                       : std::vector<int>{4, 16, 64};
  const int blast_n = smoke ? 4 : 16;
  const double fps = 10;

  std::printf("=== Fleet control plane: staged rollout across home-count "
              "sweep (fitness@%.0f) ===\n", fps);
  std::printf("wave time: virtual seconds from a wave's start to its gate "
              "(0: never started); control: controller + monitor + cloud "
              "events; host s: wall-clock of the run\n");
  std::printf(
      "%-15s %5s %6s %7s %5s %6s %-12s %-20s %9s %6s %10s %7s %7s %9s "
      "%7s  %s\n",
      "run", "homes", "shards", "threads", "waves", "passed", "wave sizes",
      "wave time (s)", "trainings", "dedupe", "cloud jobs", "control",
      "events", "overhead", "host s", "rollout");

  // Partition comparison: the same clean rollout on eight shards across
  // worker-thread counts (16 homes full, 4 smoke), against the sweep's
  // one-shard row of that size.
  const int engine_n = smoke ? 4 : 16;
  bool all_clean_ok = true;
  bool overhead_ok = true;
  RunResult one_shard;
  for (int n : sweep) {
    const RunResult r = RunFleet(n, Mode::kClean, fps);
    PrintRow("clean", r);
    all_clean_ok = all_clean_ok && r.done && r.waves_passed == r.waves &&
                   !r.halted;
    overhead_ok = overhead_ok && r.overhead_ratio < 0.05;
    if (n == engine_n) one_shard = r;
  }

  const std::vector<int> thread_sweep =
      smoke ? std::vector<int>{1, 2} : std::vector<int>{1, 2, 8};
  bool partitions_ok = true;
  for (int threads : thread_sweep) {
    const RunResult r =
        RunFleet(engine_n, Mode::kClean, fps, /*parallel=*/true, threads);
    PrintRow("clean", r);
    partitions_ok = partitions_ok && SamePrintedResults(one_shard, r);
  }

  // Blast radius: the same poisoned wave with and without fleet gating.
  const RunResult gated = RunFleet(blast_n, Mode::kPoisonGated, fps);
  const RunResult ungated = RunFleet(blast_n, Mode::kPoisonUngated, fps);
  PrintRow("poison gated", gated);
  PrintRow("poison ungated", ungated);
  overhead_ok = overhead_ok && gated.overhead_ratio < 0.05;

  std::printf("\nblast radius at %d homes (poisoned wave of %d): gated %d/%d "
              "homes, %d reverted; ungated %d/%d homes, %d reverted\n",
              blast_n, gated.failed_wave_size, gated.blast_homes, blast_n,
              gated.reverted, ungated.blast_homes, blast_n, ungated.reverted);

  // Claim 1: every clean sweep completes all waves.
  std::printf("clean rollouts complete at every fleet size  %s\n",
              all_clean_ok ? "PASS" : "FAIL");

  // Claim 1b: the rollout does not depend on the partition — eight
  // shards at every thread count print the one-shard row.
  std::printf("8-shard rollouts at %d homes print the 1-shard row (waves, "
              "wave times, events, overhead)  %s\n",
              engine_n, partitions_ok ? "PASS" : "FAIL");

  // Claim 2: gating contains the poison to the failed wave — the
  // rollout halts, later waves never start, promoted homes revert, and
  // no frame outside the wave ever sees the poisoned version.
  const bool contained =
      gated.halted && gated.blast_contained &&
      gated.blast_homes == gated.failed_wave_size && gated.reverted >= 1;
  std::printf("gated poison: halted, blast == wave size (%d), %d homes "
              "reverted  %s\n",
              gated.blast_homes, gated.reverted, contained ? "PASS" : "FAIL");

  // Claim 3: without gating the poison spreads past the wave.
  const bool spreads = ungated.blast_homes > gated.blast_homes;
  std::printf("ungated poison spreads to %d homes (> %d)  %s\n",
              ungated.blast_homes, gated.blast_homes,
              spreads ? "PASS" : "FAIL");

  // Claim 4: the control plane stays cheap — it polls per-home
  // summaries, so controller+monitor+cloud events stay under 5% of
  // workload events.
  std::printf("control-plane overhead < 5%% of per-home event volume  %s\n",
              overhead_ok ? "PASS" : "FAIL");

  return (all_clean_ok && partitions_ok && contained && spreads &&
          overhead_ok)
             ? 0
             : 1;
}
