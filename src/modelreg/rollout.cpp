#include "modelreg/rollout.hpp"

#include <algorithm>
#include <cmath>

#include "common/log.hpp"
#include "common/percentile.hpp"
#include "services/container.hpp"
#include "services/registry.hpp"
#include "serving/request_scheduler.hpp"
#include "sim/simulator.hpp"

namespace vp::modelreg {

const char* RolloutPhaseName(RolloutPhase phase) {
  switch (phase) {
    case RolloutPhase::kCanary: return "canary";
    case RolloutPhase::kRollingBack: return "rolling_back";
    default: return "stable";
  }
}

Result<RolloutPolicy> RolloutPolicy::FromJson(const json::Value& v) {
  if (!v.is_object()) {
    return ParseError("rollout policy must be an object");
  }
  RolloutPolicy p;
  p.canary_fraction = v.GetDouble("canary_fraction", p.canary_fraction);
  p.traffic_share = v.GetDouble("traffic_share", p.traffic_share);
  if (const json::Value* d = v.Find("probe_interval_ms")) {
    p.probe_interval = Duration::Millis(d->AsDouble());
  }
  if (const json::Value* d = v.Find("evaluate_interval_ms")) {
    p.evaluate_interval = Duration::Millis(d->AsDouble());
  }
  if (const json::Value* d = v.Find("decision_window_ms")) {
    p.decision_window = Duration::Millis(d->AsDouble());
  }
  p.min_probes =
      static_cast<int>(v.GetInt("min_probes", p.min_probes));
  p.accuracy_margin = v.GetDouble("accuracy_margin", p.accuracy_margin);
  p.latency_inflation =
      v.GetDouble("latency_inflation", p.latency_inflation);
  p.sample_window = static_cast<size_t>(
      v.GetInt("sample_window", static_cast<int64_t>(p.sample_window)));
  if (const json::Value* d = v.Find("swap_cost_ms")) {
    p.swap_cost = Duration::Millis(d->AsDouble());
  }
  if (p.canary_fraction <= 0.0 || p.canary_fraction >= 1.0) {
    return ParseError("rollout canary_fraction must be in (0, 1)");
  }
  if (p.traffic_share < 0.0 || p.traffic_share > 1.0) {
    return ParseError("rollout traffic_share must be in [0, 1]");
  }
  if (p.min_probes < 1) {
    return ParseError("rollout min_probes must be >= 1");
  }
  if (p.latency_inflation < 1.0) {
    return ParseError("rollout latency_inflation must be >= 1");
  }
  if (p.sample_window < 8) {
    return ParseError("rollout sample_window must be >= 8");
  }
  return p;
}

json::Value RolloutPolicy::ToJson() const {
  json::Value out = json::Value::MakeObject();
  out["canary_fraction"] = json::Value(canary_fraction);
  out["traffic_share"] = json::Value(traffic_share);
  out["probe_interval_ms"] = json::Value(probe_interval.millis());
  out["evaluate_interval_ms"] = json::Value(evaluate_interval.millis());
  out["decision_window_ms"] = json::Value(decision_window.millis());
  out["min_probes"] = json::Value(min_probes);
  out["accuracy_margin"] = json::Value(accuracy_margin);
  out["latency_inflation"] = json::Value(latency_inflation);
  out["sample_window"] = json::Value(sample_window);
  out["swap_cost_ms"] = json::Value(swap_cost.millis());
  return out;
}

std::vector<RolloutController::LabeledProbe> ProbesFromHoldout(
    const ModelArtifact& artifact) {
  std::vector<RolloutController::LabeledProbe> out;
  out.reserve(artifact.holdout.size());
  for (const cv::LabeledWindow& window : artifact.holdout) {
    json::Value payload = json::Value::MakeObject();
    json::Value features = json::Value::MakeArray();
    for (double f : window.features) features.PushBack(json::Value(f));
    payload["window_features"] = std::move(features);
    out.push_back(RolloutController::LabeledProbe{
        std::make_shared<const json::Value>(std::move(payload)),
        window.label});
  }
  return out;
}

double GateWindow::accuracy() const {
  if (hits.empty()) return 0;
  const auto hit_count = std::count(hits.begin(), hits.end(), true);
  return static_cast<double>(hit_count) / static_cast<double>(hits.size());
}

double GateWindow::p95_ms() const {
  return Percentile({latency_ms.begin(), latency_ms.end()}, 0.95);
}

bool CandidateRegressed(const GateWindow& stable, const GateWindow& candidate,
                        const RolloutPolicy& policy) {
  if (candidate.accuracy() < stable.accuracy() - policy.accuracy_margin) {
    return true;
  }
  return stable.latency_ms.size() >= 8 && candidate.latency_ms.size() >= 8 &&
         candidate.p95_ms() > stable.p95_ms() * policy.latency_inflation;
}

RolloutController::RolloutController(sim::Simulator* simulator,
                                     services::ServiceRegistry* registry,
                                     ModelRegistry* models)
    : simulator_(simulator), registry_(registry), models_(models) {}

RolloutController::Group* RolloutController::FindGroup(
    const std::string& device, const std::string& service) {
  auto it = groups_.find({device, service});
  return it == groups_.end() ? nullptr : &it->second;
}

const RolloutController::Group* RolloutController::FindGroup(
    const std::string& device, const std::string& service) const {
  auto it = groups_.find({device, service});
  return it == groups_.end() ? nullptr : &it->second;
}

serving::RequestScheduler* RolloutController::SchedulerFor(
    const Group& group) const {
  return scheduler_lookup_ ? scheduler_lookup_(group.device, group.service)
                           : nullptr;
}

void RolloutController::SetGroupPolicy(const std::string& device,
                                       const std::string& service,
                                       RolloutPolicy policy) {
  policy_overrides_[{device, service}] = policy;
  if (Group* group = FindGroup(device, service)) group->policy = policy;
}

Status RolloutController::AdoptGroup(
    const std::string& device, const std::string& service,
    std::shared_ptr<const ModelArtifact> stable) {
  if (!stable) {
    return Status(InvalidArgument("AdoptGroup: null stable artifact"));
  }
  const GroupKey key{device, service};
  if (groups_.count(key) != 0) return Status::Ok();
  Group& group = groups_[key];
  group.device = device;
  group.service = service;
  auto override_it = policy_overrides_.find(key);
  group.policy = override_it != policy_overrides_.end() ? override_it->second
                                                        : default_policy_;
  group.stable = std::move(stable);
  group.probes = ProbesFromHoldout(*group.stable);
  group_order_.push_back(key);
  for (services::ServiceInstance* replica :
       registry_->Replicas(device, service)) {
    if (replica->model_handle() != nullptr &&
        replica->model_version() != group.stable->id) {
      SwapReplica(replica, group.stable);
    }
  }
  return Status::Ok();
}

std::shared_ptr<const ModelArtifact> RolloutController::StableArtifact(
    const std::string& device, const std::string& service) const {
  const Group* group = FindGroup(device, service);
  return group == nullptr ? nullptr : group->stable;
}

bool RolloutController::Manages(const std::string& device,
                                const std::string& service) const {
  return FindGroup(device, service) != nullptr;
}

RolloutPhase RolloutController::phase(const std::string& device,
                                      const std::string& service) const {
  const Group* group = FindGroup(device, service);
  return group == nullptr ? RolloutPhase::kStable : group->phase;
}

std::string RolloutController::stable_version(
    const std::string& device, const std::string& service) const {
  const Group* group = FindGroup(device, service);
  return group != nullptr && group->stable ? group->stable->id : "";
}

std::string RolloutController::candidate_version(
    const std::string& device, const std::string& service) const {
  const Group* group = FindGroup(device, service);
  return group != nullptr && group->candidate ? group->candidate->id : "";
}

std::vector<std::pair<std::string, std::string>> RolloutController::groups()
    const {
  return group_order_;
}

RolloutController::GroupView RolloutController::View(
    const std::string& device, const std::string& service) const {
  GroupView view;
  const Group* group = FindGroup(device, service);
  if (group == nullptr) return view;
  view.phase = group->phase;
  if (group->stable) {
    auto it = group->windows.find(group->stable->id);
    if (it != group->windows.end()) view.stable_window = it->second.samples;
  }
  if (group->candidate) {
    auto it = group->windows.find(group->candidate->id);
    if (it != group->windows.end()) view.candidate_window = it->second.samples;
  }
  return view;
}

void RolloutController::SwapReplica(
    services::ServiceInstance* replica,
    std::shared_ptr<const ModelArtifact> artifact,
    std::function<void()> on_done) {
  if (replica == nullptr || !artifact) return;
  const Group* group = FindGroup(replica->device(), replica->service_name());
  const Duration swap_cost =
      group != nullptr ? group->policy.swap_cost : default_policy_.swap_cost;
  serving::RequestScheduler* sched =
      scheduler_lookup_
          ? scheduler_lookup_(replica->device(), replica->service_name())
          : nullptr;
  auto flip = [this, replica, sched, swap_cost,
               artifact = std::move(artifact),
               on_done = std::move(on_done)]() mutable {
    // Warm swap: the weight load occupies the replica's lane like any
    // other work, so requests queued behind it wait — none are dropped.
    replica->lane()->Run(
        swap_cost, [this, replica, sched, artifact = std::move(artifact),
                    on_done = std::move(on_done)] {
          if (const auto& handle = replica->model_handle()) {
            handle->Swap(artifact);
          }
          ++stats_.swaps;
          if (sched != nullptr) sched->Release(replica);
          if (on_done) on_done();
        });
  };
  if (sched != nullptr) {
    // Drain first: no new batches land on the replica and the
    // in-flight one completes before the swap task is queued.
    sched->Quiesce(replica, std::move(flip));
  } else {
    // No serving layer: lane FIFO alone gives the same guarantee —
    // everything admitted before the swap runs against the old model.
    flip();
  }
}

void RolloutController::SwapAll(
    Group& group, const std::vector<services::ServiceInstance*>& replicas,
    std::shared_ptr<const ModelArtifact> artifact) {
  std::vector<services::ServiceInstance*> targets;
  for (services::ServiceInstance* replica : replicas) {
    if (replica->model_handle() != nullptr &&
        replica->model_version() != artifact->id) {
      targets.push_back(replica);
    }
  }
  if (targets.empty()) {
    group.phase = RolloutPhase::kStable;
    return;
  }
  group.swaps_pending += static_cast<int>(targets.size());
  for (services::ServiceInstance* replica : targets) {
    SwapReplica(replica, artifact, [this, &group] {
      if (--group.swaps_pending <= 0) {
        group.swaps_pending = 0;
        group.phase = RolloutPhase::kStable;
      }
    });
  }
}

Status RolloutController::UpgradeStable(
    const std::string& device, const std::string& service,
    std::shared_ptr<const ModelArtifact> artifact) {
  Group* group = FindGroup(device, service);
  if (group == nullptr) {
    return Status(NotFound("model group " + device + "/" + service +
                           " is not managed (deploy the service first)"));
  }
  if (!artifact) {
    return Status(InvalidArgument("UpgradeStable: null artifact"));
  }
  if (group->phase != RolloutPhase::kStable) {
    return Status(FailedPrecondition(
        "a rollout is in progress on " + device + "/" + service));
  }
  if (group->stable && group->stable->id == artifact->id) {
    return Status::Ok();
  }
  VP_INFO("rollout") << device << "/" << service << ": warm upgrade "
                     << (group->stable ? group->stable->id : "<none>")
                     << " -> " << artifact->id;
  group->stable = artifact;
  group->probes = ProbesFromHoldout(*artifact);
  group->next_probe = 0;
  SwapAll(*group, registry_->Replicas(device, service), artifact);
  return Status::Ok();
}

Status RolloutController::BeginRollout(
    const std::string& device, const std::string& service,
    std::shared_ptr<const ModelArtifact> candidate,
    std::optional<RolloutPolicy> policy) {
  Group* group = FindGroup(device, service);
  if (group == nullptr) {
    return Status(NotFound("model group " + device + "/" + service +
                           " is not managed (deploy the service first)"));
  }
  if (!candidate) {
    return Status(InvalidArgument("BeginRollout: null candidate"));
  }
  if (group->phase != RolloutPhase::kStable) {
    return Status(FailedPrecondition(
        "a rollout is already in progress on " + device + "/" + service));
  }
  if (group->stable && group->stable->id == candidate->id) {
    return Status(InvalidArgument("candidate " + candidate->id +
                                  " is already the stable version"));
  }
  std::vector<services::ServiceInstance*> bound;
  for (services::ServiceInstance* replica :
       registry_->Replicas(device, service)) {
    if (replica->model_handle() != nullptr) bound.push_back(replica);
  }
  if (bound.size() < 2) {
    return Status(FailedPrecondition(
        "canary rollout needs >= 2 replicas of " + device + "/" + service +
        " (one must keep serving the incumbent)"));
  }
  if (policy.has_value()) group->policy = *policy;
  const RolloutPolicy& p = group->policy;
  const int canaries = std::clamp(
      static_cast<int>(std::lround(p.canary_fraction *
                                   static_cast<double>(bound.size()))),
      1, static_cast<int>(bound.size()) - 1);

  group->candidate = std::move(candidate);
  group->phase = RolloutPhase::kCanary;
  group->windows.clear();
  group->windows[group->stable->id];
  group->windows[group->candidate->id];
  group->rollout_started = simulator_->Now();
  group->probe_candidate_next = true;  // first probe goes to the canary
  ++group->generation;

  serving::RequestScheduler* sched = SchedulerFor(*group);
  group->spans_folded =
      sched != nullptr && !sched->spans().empty() ? sched->spans().back().id
                                                  : 0;
  for (int i = 0; i < canaries; ++i) {
    SwapReplica(bound[static_cast<size_t>(i)], group->candidate);
  }
  if (sched != nullptr) {
    sched->SetTrafficSplit(group->candidate->id, p.traffic_share);
  }
  VP_INFO("rollout") << device << "/" << service << ": canary "
                     << group->candidate->id << " on " << canaries << "/"
                     << bound.size() << " replicas, traffic share "
                     << p.traffic_share;
  ScheduleProbe(*group);
  ScheduleEvaluate(*group);
  return Status::Ok();
}

Status RolloutController::CancelRollout(const std::string& device,
                                        const std::string& service) {
  Group* group = FindGroup(device, service);
  if (group == nullptr) {
    return Status(
        NotFound("model group " + device + "/" + service + " is not managed"));
  }
  if (group->phase != RolloutPhase::kCanary) {
    return Status(FailedPrecondition("no rollout in progress on " + device +
                                     "/" + service));
  }
  VP_INFO("rollout") << device << "/" << service
                     << ": rollout cancelled by operator";
  Rollback(*group);
  return Status::Ok();
}

services::ServiceInstance* RolloutController::PickProbeTarget(
    const Group& group, const std::string& version) {
  const TimePoint now = simulator_->Now();
  services::ServiceInstance* best = nullptr;
  for (services::ServiceInstance* replica :
       registry_->Replicas(group.device, group.service)) {
    if (!replica->available(now)) continue;
    if (replica->model_version() != version) continue;
    if (best == nullptr || replica->backlog(now) < best->backlog(now)) {
      best = replica;
    }
  }
  return best;
}

void RolloutController::ScheduleProbe(Group& group) {
  const uint64_t generation = group.generation;
  simulator_->After(group.policy.probe_interval, [this, &group, generation] {
    if (group.generation != generation ||
        group.phase != RolloutPhase::kCanary) {
      return;
    }
    SendProbe(group);
    ScheduleProbe(group);
  });
}

void RolloutController::ScheduleEvaluate(Group& group) {
  const uint64_t generation = group.generation;
  simulator_->After(
      group.policy.evaluate_interval, [this, &group, generation] {
        if (group.generation != generation ||
            group.phase != RolloutPhase::kCanary) {
          return;
        }
        Evaluate(group);
        if (group.phase == RolloutPhase::kCanary) ScheduleEvaluate(group);
      });
}

void RolloutController::SendProbe(Group& group) {
  if (group.probes.empty() || !group.candidate || !group.stable) return;
  // Alternate targets so both versions score on the same probe stream.
  const bool to_candidate = group.probe_candidate_next;
  group.probe_candidate_next = !group.probe_candidate_next;
  const std::string version =
      to_candidate ? group.candidate->id : group.stable->id;
  services::ServiceInstance* target = PickProbeTarget(group, version);
  if (target == nullptr) return;  // all replicas of the version busy/down

  const LabeledProbe& probe =
      group.probes[group.next_probe++ % group.probes.size()];
  services::ServiceRequest request;
  request.payload = probe.payload;
  std::string expected = probe.expected_label;
  const TimePoint sent = simulator_->Now();
  const uint64_t generation = group.generation;
  ++stats_.probes;
  target->Invoke(
      std::move(request),
      [this, &group, generation, version, sent,
       expected = std::move(expected)](Result<json::Value> result) {
        if (group.generation != generation) return;  // rollout ended
        const bool hit =
            result.ok() && result->GetString("label") == expected;
        PushSample(group, version, hit,
                   (simulator_->Now() - sent).millis());
      });
}

void RolloutController::PushSample(Group& group, const std::string& version,
                                   bool hit, double latency_ms) {
  auto it = group.windows.find(version);
  if (it == group.windows.end()) return;
  VersionWindow& window = it->second;
  window.samples.hits.push_back(hit);
  window.samples.latency_ms.push_back(latency_ms);
  ++window.probes;
  while (window.samples.hits.size() > group.policy.sample_window) {
    window.samples.hits.pop_front();
  }
  while (window.samples.latency_ms.size() > group.policy.sample_window) {
    window.samples.latency_ms.pop_front();
  }
}

void RolloutController::HarvestSpans(Group& group) {
  serving::RequestScheduler* sched = SchedulerFor(group);
  if (sched == nullptr) return;
  for (const serving::BatchSpan& span : sched->spans()) {
    if (span.id <= group.spans_folded) continue;
    group.spans_folded = span.id;
    if (!span.delivered || span.size <= 0 || span.model_version.empty()) {
      continue;
    }
    auto it = group.windows.find(span.model_version);
    if (it == group.windows.end()) continue;
    std::deque<double>& latency_ms = it->second.samples.latency_ms;
    latency_ms.push_back((span.complete - span.dispatch).millis() /
                         span.size);
    while (latency_ms.size() > group.policy.sample_window) {
      latency_ms.pop_front();
    }
  }
}

void RolloutController::Evaluate(Group& group) {
  HarvestSpans(group);
  if (group.phase != RolloutPhase::kCanary || !group.candidate) return;
  const RolloutPolicy& p = group.policy;
  const VersionWindow& stable = group.windows[group.stable->id];
  const VersionWindow& candidate = group.windows[group.candidate->id];
  if (stable.probes < p.min_probes || candidate.probes < p.min_probes) {
    return;  // not enough evidence yet, keep canarying
  }
  if (CandidateRegressed(stable.samples, candidate.samples, p)) {
    VP_WARN("rollout") << group.device << "/" << group.service
                       << ": candidate " << group.candidate->id
                       << " failed the live gate (accuracy "
                       << candidate.samples.accuracy() * 100.0 << "% vs "
                       << stable.samples.accuracy() * 100.0 << "%, p95 "
                       << candidate.samples.p95_ms() << " ms vs "
                       << stable.samples.p95_ms() << " ms) -- rolling back";
    Rollback(group);
    return;
  }
  if (simulator_->Now() - group.rollout_started >= p.decision_window) {
    Promote(group);
  }
}

void RolloutController::Promote(Group& group) {
  ++stats_.promotions;
  VP_INFO("rollout") << group.device << "/" << group.service
                     << ": promoting " << group.candidate->id
                     << " (survived the decision window)";
  ++group.generation;  // stop probe/eval timers
  group.stable = group.candidate;
  group.candidate.reset();
  group.probes = ProbesFromHoldout(*group.stable);
  group.next_probe = 0;
  group.phase = RolloutPhase::kStable;
  if (serving::RequestScheduler* sched = SchedulerFor(group)) {
    sched->ClearTrafficSplit();
  }
  SwapAll(group, registry_->Replicas(group.device, group.service),
          group.stable);
}

void RolloutController::Rollback(Group& group) {
  ++stats_.rollbacks;
  stats_.last_rollback_ms =
      (simulator_->Now() - group.rollout_started).millis();
  ++group.generation;  // stop probe/eval timers
  group.candidate.reset();
  group.phase = RolloutPhase::kRollingBack;
  if (serving::RequestScheduler* sched = SchedulerFor(group)) {
    sched->ClearTrafficSplit();
  }
  // SwapAll settles the phase back to kStable once the last canary has
  // flipped back to the incumbent.
  SwapAll(group, registry_->Replicas(group.device, group.service),
          group.stable);
}

}  // namespace vp::modelreg
