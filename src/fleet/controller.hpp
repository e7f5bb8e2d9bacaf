// FleetController: aggregated telemetry + staged rollout waves.
//
// The controller is the fleet's control plane. It runs only as barrier
// tasks (Fleet::ScheduleControl), with every shard quiesced, at the
// same virtual times whatever the shard count. It does two things, and
// does both on *rollups*, never per-frame data, so its event overhead
// stays bounded no matter how busy the homes are:
//
//  * Telemetry — on a fixed cadence it folds each home's latest
//    MonitorSample into a MonitorRollup (a few hundred bytes/home) and
//    keeps the latest rollup per home.
//
//  * Staged rollout — BeginFleetRollout(spec) plans waves over the
//    homes (1 home → 1% → 50% → all by default), deploys the candidate
//    to each wave through the homes' own canary machinery
//    (Orchestrator::BeginModelRollout), and gates each wave on the
//    *aggregated* canary accuracy/latency across its members: every
//    member must promote locally AND the pooled candidate windows must
//    clear the fleet gates. A failed wave halts the rollout — later
//    waves never start — and rolls every previously-promoted home back
//    to its recorded baseline (blast-radius containment).
//
// Supply-chain fault: the controller registers a fleet-level model
// hook ("fleet/<service>") with a FaultInjector. Once poisoned, every
// wave it deploys stages PoisonedVariant(candidate) instead — the
// member homes' local gates and the fleet wave gate must contain it.
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/monitor.hpp"
#include "fleet/fleet.hpp"
#include "modelreg/registry.hpp"
#include "modelreg/rollout.hpp"

namespace vp::fleet {

struct FleetRolloutOptions {
  /// Cumulative wave fractions of the fleet. Each wave's member count
  /// is max(previous + 1, ceil(fraction * homes)) — a 0 entry means
  /// "exactly one home" regardless of fleet size.
  std::vector<double> wave_fractions = {0.0, 0.01, 0.5, 1.0};
  /// Per-home canary policy override (defaults to each home's own).
  std::optional<modelreg::RolloutPolicy> policy;
  /// Fleet gate: pooled candidate accuracy must be within this margin
  /// of the pooled incumbent accuracy across the wave's members.
  double accuracy_margin = 0.08;
  /// Fleet gate: pooled candidate p95 ≤ pooled incumbent p95 × this.
  double latency_inflation = 1.6;
  /// false: waves advance regardless of gate outcome (the bench's
  /// no-gating baseline — measures the blast radius gating prevents).
  bool gate_waves = true;
};

class FleetController {
 public:
  enum class WaveState { kPending, kDeploying, kSettling, kPassed, kFailed };

  struct Wave {
    int index = 0;
    std::vector<int> members;  // home ids
    WaveState state = WaveState::kPending;
    /// Version this wave actually staged (the poisoned id when the
    /// supply chain was poisoned before deployment).
    std::string staged_version;
    int promoted = 0;
    /// Wave start (deploy scheduled) → gate decision, virtual time.
    TimePoint started;
    TimePoint finished;
    /// Pooled canary-window gate inputs across members (probe-weighted).
    double candidate_accuracy = 0;
    double stable_accuracy = 0;
    double candidate_p95_ms = 0;
    double stable_p95_ms = 0;
  };

  FleetController(Fleet* fleet, std::string service,
                  Duration poll_interval = Duration::Millis(500));

  /// Begin periodic rollup collection (idempotent).
  void Start();
  void Stop() { running_ = false; }

  /// Plan waves and start wave 0. Requires every home to have a
  /// rollout-managed (device, service) group for `service`.
  Status BeginFleetRollout(const modelreg::ModelSpec& candidate,
                           FleetRolloutOptions options = {});

  /// Register the fleet-level supply-chain poison hook with `injector`
  /// under label "fleet/<service>".
  void RegisterModelHooks(sim::FaultInjector& injector);

  /// Fires synchronously at the start of each wave, before its members
  /// deploy. Hooks act synchronously — e.g. FaultInjector::
  /// PoisonModelNow — because the deploy runs at a barrier, ahead of
  /// any simulator event the hook could schedule.
  std::function<void(int wave)> on_wave_start;

  bool rollout_active() const { return active_; }
  bool rollout_done() const { return done_; }
  bool halted() const { return halted_; }
  bool poisoned() const { return poisoned_; }
  /// Homes rolled back to baseline by the halt path.
  int reverted_homes() const { return reverted_homes_; }
  const std::vector<Wave>& waves() const { return waves_; }
  const std::string& candidate_version() const { return candidate_id_; }
  const std::string& service() const { return service_; }

  /// Latest rollup per home (id → rollup); homes with no sample yet
  /// are absent.
  const std::map<int, core::MonitorRollup>& rollups() const {
    return rollups_;
  }
  uint64_t rollups_collected() const { return rollups_collected_; }

  /// Fraction of the fleet's pipelines currently hibernated, over the
  /// latest rollups (0 when no rollup arrived yet). The scale-to-zero
  /// dashboard number: how much of the fleet is actually asleep.
  double HibernatedFraction() const {
    uint64_t total = 0, hibernated = 0;
    for (const auto& [id, rollup] : rollups_) {
      total += static_cast<uint64_t>(rollup.pipelines);
      hibernated += rollup.hibernated_pipelines;
    }
    return total == 0 ? 0.0
                      : static_cast<double>(hibernated) /
                            static_cast<double>(total);
  }

  /// Control tasks this controller has run (poll ticks + wave
  /// deployments), each one event of Fleet::executed_events() — the
  /// bench's overhead accounting reads this.
  uint64_t overhead_events() const { return overhead_events_; }

  /// Fleet rollup block: homes, cloud stats, per-wave state with
  /// pooled accuracy/p95, and the latest per-home telemetry rollups.
  json::Value ToJson() const;

 private:
  struct MemberState {
    std::string device;  // the group's device within the home
    std::string baseline_version;
    /// Last view captured while the member's canary was in flight —
    /// Promote/Rollback wipe the windows, so this is the only record.
    modelreg::RolloutController::GroupView last_canary_view;
    bool saw_canary = false;
  };

  void Tick();
  void CollectRollups();
  void StartWave(int index);
  void DeployWave(int index);
  void PollWave();
  void FinishWave(Wave& wave, bool gate_ok);
  void Halt(Wave& failed_wave);

  Fleet* fleet_;
  std::string service_;
  Duration poll_interval_;
  bool running_ = false;

  // Rollout state.
  bool active_ = false;
  bool done_ = false;
  bool halted_ = false;
  bool poisoned_ = false;
  FleetRolloutOptions options_;
  modelreg::ModelSpec candidate_spec_;
  std::string candidate_id_;
  std::vector<Wave> waves_;
  int current_wave_ = -1;
  std::map<int, MemberState> members_;  // home id → state
  int reverted_homes_ = 0;

  std::map<int, core::MonitorRollup> rollups_;
  uint64_t rollups_collected_ = 0;
  uint64_t overhead_events_ = 0;
};

}  // namespace vp::fleet
