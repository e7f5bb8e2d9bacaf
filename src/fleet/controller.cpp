#include "fleet/controller.hpp"

#include <algorithm>
#include <cmath>

namespace vp::fleet {

FleetController::FleetController(Fleet* fleet, std::string service,
                                 Duration poll_interval)
    : fleet_(fleet),
      service_(std::move(service)),
      poll_interval_(poll_interval) {}

void FleetController::Start() {
  if (running_) return;
  running_ = true;
  // ScheduleControl runs a barrier task, every shard quiesced: Tick
  // reads every home's monitor and may mutate orchestrators fleet-wide,
  // which no single shard's thread is allowed to do mid-epoch.
  fleet_->ScheduleControl(poll_interval_, [this]() { Tick(); });
}

void FleetController::Tick() {
  if (!running_) return;
  ++overhead_events_;
  CollectRollups();
  if (active_) PollWave();
  fleet_->ScheduleControl(poll_interval_, [this]() { Tick(); });
}

void FleetController::CollectRollups() {
  for (int id = 0; id < fleet_->size(); ++id) {
    const Home& home = fleet_->home(id);
    if (!home.monitor) continue;
    const core::MonitorSample* sample = home.monitor->latest();
    if (sample == nullptr) continue;
    auto it = rollups_.find(id);
    if (it != rollups_.end() && it->second.when == sample->when) continue;
    rollups_[id] = core::RollupSample(*sample);
    ++rollups_collected_;
  }
}

void FleetController::RegisterModelHooks(sim::FaultInjector& injector) {
  injector.RegisterModelGroup(
      "fleet/" + service_,
      sim::ModelHooks{[this]() { poisoned_ = true; }});
}

Status FleetController::BeginFleetRollout(const modelreg::ModelSpec& candidate,
                                          FleetRolloutOptions options) {
  if (active_) {
    return Status(StatusCode::kFailedPrecondition,
                  "a fleet rollout is already in flight");
  }
  if (fleet_->size() == 0) {
    return Status(StatusCode::kFailedPrecondition, "empty fleet");
  }
  members_.clear();
  for (int id = 0; id < fleet_->size(); ++id) {
    const core::Orchestrator& orch = *fleet_->home(id).orchestrator;
    MemberState member;
    for (const auto& [device, service] : orch.rollout().groups()) {
      if (service == service_) {
        member.device = device;
        break;
      }
    }
    if (member.device.empty()) {
      return Status(StatusCode::kFailedPrecondition,
                    fleet_->home(id).name + " has no managed group for " +
                        service_);
    }
    member.baseline_version =
        orch.rollout().stable_version(member.device, service_);
    members_[id] = std::move(member);
  }

  auto artifact = fleet_->models().TrainOrGet(candidate);
  if (!artifact.ok()) return artifact.status();
  candidate_spec_ = candidate;
  candidate_id_ = (*artifact)->id;

  // Plan cumulative waves. Each wave widens the rollout to
  // max(previous + 1, ceil(fraction * N)) homes.
  waves_.clear();
  const int n = fleet_->size();
  std::vector<double> fractions = options.wave_fractions;
  std::sort(fractions.begin(), fractions.end());
  int prev = 0;
  for (double fraction : fractions) {
    int target = std::max(
        prev + 1, static_cast<int>(std::ceil(fraction * n)));
    target = std::min(target, n);
    if (target <= prev) continue;
    Wave wave;
    wave.index = static_cast<int>(waves_.size());
    for (int id = prev; id < target; ++id) wave.members.push_back(id);
    waves_.push_back(std::move(wave));
    prev = target;
    if (prev == n) break;
  }
  if (waves_.empty()) {
    return Status(StatusCode::kInvalidArgument, "no waves planned");
  }

  options_ = std::move(options);
  active_ = true;
  done_ = false;
  halted_ = false;
  reverted_homes_ = 0;
  Start();
  StartWave(0);
  return Status::Ok();
}

void FleetController::StartWave(int index) {
  current_wave_ = index;
  Wave& wave = waves_[static_cast<size_t>(index)];
  wave.state = WaveState::kDeploying;
  wave.started = fleet_->simulator().Now();
  // The hook runs before the deploy is scheduled and must act
  // synchronously: the deploy runs at this barrier or the next one,
  // before any shard event the hook could schedule at Now().
  if (on_wave_start) on_wave_start(index);
  fleet_->ScheduleControl(Duration::Zero(),
                          [this, index]() { DeployWave(index); });
}

void FleetController::DeployWave(int index) {
  ++overhead_events_;
  Wave& wave = waves_[static_cast<size_t>(index)];
  modelreg::ModelSpec spec =
      poisoned_ ? modelreg::PoisonedVariant(candidate_spec_)
                : candidate_spec_;
  auto staged = fleet_->models().TrainOrGet(spec);
  if (staged.ok()) wave.staged_version = (*staged)->id;
  for (int id : wave.members) {
    MemberState& member = members_[id];
    member.saw_canary = false;
    core::Orchestrator& orch = *fleet_->home(id).orchestrator;
    // A member that refuses (e.g. cannot reach 2 replicas) simply
    // never promotes; the wave gate counts it as a failure.
    (void)orch.BeginModelRollout(member.device, service_, spec,
                                 options_.policy);
  }
  wave.state = WaveState::kSettling;
}

void FleetController::PollWave() {
  if (current_wave_ < 0 ||
      current_wave_ >= static_cast<int>(waves_.size())) {
    return;
  }
  Wave& wave = waves_[static_cast<size_t>(current_wave_)];
  if (wave.state != WaveState::kSettling) return;

  bool all_resolved = true;
  for (int id : wave.members) {
    MemberState& member = members_[id];
    const core::Orchestrator& orch = *fleet_->home(id).orchestrator;
    const auto view = orch.ModelGroupView(member.device, service_);
    if (view.phase == modelreg::RolloutPhase::kCanary) {
      // Promote/Rollback reset the gate windows — capture them live.
      member.last_canary_view = view;
      member.saw_canary = true;
      all_resolved = false;
    } else if (view.phase == modelreg::RolloutPhase::kRollingBack) {
      all_resolved = false;
    }
  }
  if (!all_resolved) return;

  // Every member settled back to a stable phase: pool the gates.
  wave.promoted = 0;
  double cand_acc_sum = 0, cand_probes = 0;
  double stable_acc_sum = 0, stable_probes = 0;
  double cand_p95_sum = 0, stable_p95_sum = 0;
  for (int id : wave.members) {
    MemberState& member = members_[id];
    const core::Orchestrator& orch = *fleet_->home(id).orchestrator;
    if (orch.rollout().stable_version(member.device, service_) ==
        wave.staged_version) {
      ++wave.promoted;
    }
    if (member.saw_canary) {
      const auto& v = member.last_canary_view;
      cand_acc_sum += v.candidate_accuracy * v.candidate_probes;
      cand_p95_sum += v.candidate_p95_ms * v.candidate_probes;
      cand_probes += v.candidate_probes;
      stable_acc_sum += v.stable_accuracy * v.stable_probes;
      stable_p95_sum += v.stable_p95_ms * v.stable_probes;
      stable_probes += v.stable_probes;
    }
  }
  if (cand_probes > 0) {
    wave.candidate_accuracy = cand_acc_sum / cand_probes;
    wave.candidate_p95_ms = cand_p95_sum / cand_probes;
  }
  if (stable_probes > 0) {
    wave.stable_accuracy = stable_acc_sum / stable_probes;
    wave.stable_p95_ms = stable_p95_sum / stable_probes;
  }

  const bool all_promoted =
      wave.promoted == static_cast<int>(wave.members.size());
  bool gates_clear = true;
  if (cand_probes > 0) {
    if (wave.candidate_accuracy <
        wave.stable_accuracy - options_.accuracy_margin) {
      gates_clear = false;
    }
    if (wave.stable_p95_ms > 0 &&
        wave.candidate_p95_ms >
            wave.stable_p95_ms * options_.latency_inflation) {
      gates_clear = false;
    }
  }
  FinishWave(wave, all_promoted && gates_clear);
}

void FleetController::FinishWave(Wave& wave, bool gate_ok) {
  wave.state = gate_ok ? WaveState::kPassed : WaveState::kFailed;
  wave.finished = fleet_->simulator().Now();
  if (!gate_ok && options_.gate_waves) {
    Halt(wave);
    return;
  }
  const int next = wave.index + 1;
  if (next < static_cast<int>(waves_.size())) {
    StartWave(next);
  } else {
    active_ = false;
    done_ = true;
  }
}

void FleetController::Halt(Wave& failed_wave) {
  halted_ = true;
  active_ = false;
  // Roll every home the rollout touched back to its recorded baseline.
  // Members of the failed wave normally already rolled back locally;
  // RevertModel is a no-op for them.
  for (int w = 0; w <= failed_wave.index; ++w) {
    for (int id : waves_[static_cast<size_t>(w)].members) {
      MemberState& member = members_[id];
      core::Orchestrator& orch = *fleet_->home(id).orchestrator;
      if (orch.rollout().stable_version(member.device, service_) ==
          member.baseline_version) {
        continue;
      }
      if (orch.RevertModel(member.device, service_, member.baseline_version)
              .ok()) {
        ++reverted_homes_;
      }
    }
  }
}

json::Value FleetController::ToJson() const {
  json::Value doc = json::Value::MakeObject();
  json::Value fleet = json::Value::MakeObject();
  fleet["homes"] = json::Value(fleet_->size());
  fleet["service"] = json::Value(service_);
  fleet["candidate"] = json::Value(candidate_id_);
  fleet["active"] = json::Value(active_);
  fleet["done"] = json::Value(done_);
  fleet["halted"] = json::Value(halted_);
  fleet["poisoned"] = json::Value(poisoned_);
  fleet["reverted_homes"] = json::Value(reverted_homes_);

  json::Value::Array waves;
  for (const Wave& wave : waves_) {
    json::Value w = json::Value::MakeObject();
    w["wave"] = json::Value(wave.index);
    json::Value::Array members;
    for (int id : wave.members) {
      members.push_back(json::Value(id));
    }
    w["members"] = json::Value(std::move(members));
    const char* state = "pending";
    switch (wave.state) {
      case WaveState::kPending: state = "pending"; break;
      case WaveState::kDeploying: state = "deploying"; break;
      case WaveState::kSettling: state = "settling"; break;
      case WaveState::kPassed: state = "passed"; break;
      case WaveState::kFailed: state = "failed"; break;
    }
    w["state"] = json::Value(state);
    if (wave.state == WaveState::kPassed ||
        wave.state == WaveState::kFailed) {
      w["wall_ms"] = json::Value((wave.finished - wave.started).millis());
    }
    w["staged_version"] = json::Value(wave.staged_version);
    w["promoted"] = json::Value(wave.promoted);
    w["candidate_accuracy"] = json::Value(wave.candidate_accuracy);
    w["stable_accuracy"] = json::Value(wave.stable_accuracy);
    w["candidate_p95_ms"] = json::Value(wave.candidate_p95_ms);
    w["stable_p95_ms"] = json::Value(wave.stable_p95_ms);
    waves.push_back(std::move(w));
  }
  fleet["waves"] = json::Value(std::move(waves));

  if (fleet_->cloud() != nullptr) {
    json::Value cloud = json::Value::MakeObject();
    CloudTier* tier = fleet_->cloud();
    cloud["served_total"] =
        json::Value(static_cast<double>(tier->served_total()));
    json::Value tenants = json::Value::MakeObject();
    for (const std::string& tenant : tier->tenants()) {
      const auto stats = tier->tenant_stats(tenant);
      json::Value t = json::Value::MakeObject();
      t["served"] = json::Value(static_cast<double>(stats.served));
      t["served_cost_s"] = json::Value(stats.served_cost_seconds);
      t["backlog"] = json::Value(stats.backlog);
      tenants[tenant] = std::move(t);
    }
    cloud["tenants"] = std::move(tenants);
    fleet["cloud"] = std::move(cloud);
  }
  doc["fleet"] = std::move(fleet);

  json::Value::Array homes;
  for (const auto& [id, rollup] : rollups_) {
    json::Value entry = rollup.ToJson();
    entry["home"] = json::Value(fleet_->home(id).name);
    homes.push_back(std::move(entry));
  }
  doc["homes"] = json::Value(std::move(homes));
  return doc;
}

}  // namespace vp::fleet
