// Staged model rollout: warm hot-swap, canary deployment, live gates.
//
// The RolloutController manages one (device, service) replica group's
// model versions:
//
//  * Warm hot-swap — a new version is trained off the hot path (the
//    registry), then swapped per replica: the serving RequestScheduler
//    first *quiesces* the replica (no new batches; the in-flight batch
//    completes), the swap cost is charged on the replica's lane, the
//    handle flips atomically, and the replica is released. Requests
//    wait in the scheduler queue during the swap — nothing is dropped.
//
//  * Canary rollout — BeginRollout deploys a candidate to a canary
//    fraction of replicas and routes a configurable traffic share to
//    them via the scheduler's version-aware routing. The controller
//    shadow-scores both versions live: labelled probes drawn from the
//    incumbent's withheld synthetic-dataset windows are sent to
//    replicas of each version, and per-request latency is harvested
//    from real traffic batch spans. Over a sliding window it compares
//    live accuracy and latency p95; a candidate that regresses either
//    gate rolls back automatically, one that survives the decision
//    window is promoted to every replica — leaving exactly one live
//    version either way.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/time.hpp"
#include "json/value.hpp"
#include "modelreg/registry.hpp"

namespace vp::sim {
class Simulator;
}
namespace vp::services {
class ServiceInstance;
class ServiceRegistry;
}
namespace vp::serving {
class RequestScheduler;
}

namespace vp::modelreg {

enum class RolloutPhase { kStable, kCanary, kRollingBack };
const char* RolloutPhaseName(RolloutPhase phase);

/// Tuning knobs for one rollout. Parseable from a pipeline config's
/// "rollout" block (see docs/models.md).
struct RolloutPolicy {
  /// Fraction of the replica group that runs the candidate (≥1 replica;
  /// at least one replica always stays on the incumbent).
  double canary_fraction = 0.34;
  /// Share of real traffic the scheduler routes to canary replicas.
  double traffic_share = 0.25;
  /// Cadence of labelled shadow probes (alternating version targets).
  Duration probe_interval = Duration::Millis(120);
  /// Cadence of gate evaluation over the sliding windows.
  Duration evaluate_interval = Duration::Millis(400);
  /// How long a candidate must survive the gates before promotion.
  Duration decision_window = Duration::Seconds(6);
  /// Probes per version required before the gates may decide anything.
  int min_probes = 10;
  /// Rollback when canary live accuracy < incumbent − this margin.
  double accuracy_margin = 0.08;
  /// Rollback when canary latency p95 > incumbent p95 × this factor.
  double latency_inflation = 1.6;
  /// Sliding-window length (samples kept per version).
  size_t sample_window = 64;
  /// Lane cost of one per-replica swap (weight load / graph rebuild).
  Duration swap_cost = Duration::Millis(20);

  static Result<RolloutPolicy> FromJson(const json::Value& v);
  json::Value ToJson() const;
};

/// One version's gate window: the outcomes of its latest
/// `sample_window` probes and its latest `sample_window` per-request
/// latencies (probe round trips and harvested traffic spans).
struct GateWindow {
  std::deque<bool> hits;
  std::deque<double> latency_ms;

  /// Hits over probes in the window; 0 when it holds none.
  double accuracy() const;
  /// Percentile(latency_ms, 0.95); 0 when it holds none.
  double p95_ms() const;
};

/// The live gate, shared by a group's canary and a fleet wave: true
/// when `candidate`'s accuracy is below `stable`'s by more than
/// `policy.accuracy_margin`, or, with at least 8 latency samples on
/// both sides (so one outlier cannot decide), its p95 exceeds
/// `stable`'s × `policy.latency_inflation`.
bool CandidateRegressed(const GateWindow& stable, const GateWindow& candidate,
                        const RolloutPolicy& policy);

struct RolloutStats {
  /// Completed per-replica hot swaps (upgrades, canaries, reverts).
  uint64_t swaps = 0;
  uint64_t probes = 0;
  uint64_t promotions = 0;
  uint64_t rollbacks = 0;
  /// BeginRollout → rollback decision, for the latest rollback (ms).
  double last_rollback_ms = 0;
};

class RolloutController {
 public:
  /// Serving-layer lookup: nullptr when serving is disabled for the
  /// group, in which case swaps rely on lane FIFO alone (the swap task
  /// queues behind in-flight work) and canary routing is unavailable.
  using SchedulerLookup = std::function<serving::RequestScheduler*(
      const std::string& device, const std::string& service)>;

  /// One labelled shadow probe: request payload + ground-truth label.
  struct LabeledProbe {
    /// Shared by every request that replays this probe.
    std::shared_ptr<const json::Value> payload;
    std::string expected_label;
  };

  RolloutController(sim::Simulator* simulator,
                    services::ServiceRegistry* registry,
                    ModelRegistry* models);

  void set_scheduler_lookup(SchedulerLookup lookup) {
    scheduler_lookup_ = std::move(lookup);
  }
  void set_default_policy(RolloutPolicy policy) {
    default_policy_ = policy;
  }
  const RolloutPolicy& default_policy() const { return default_policy_; }
  /// Per-group policy override (from a pipeline config's rollout block).
  void SetGroupPolicy(const std::string& device, const std::string& service,
                      RolloutPolicy policy);

  /// Start managing (device, service) with `stable` as its version.
  /// Replicas bound to another version are hot-swapped to it. Idempotent
  /// for an already-managed group (its state is left untouched).
  Status AdoptGroup(const std::string& device, const std::string& service,
                    std::shared_ptr<const ModelArtifact> stable);

  /// The version new replicas of the group must be bound to (the
  /// container runtime's model resolver asks this). nullptr when the
  /// group is unmanaged.
  std::shared_ptr<const ModelArtifact> StableArtifact(
      const std::string& device, const std::string& service) const;

  /// Fleet-wide warm upgrade (no canary stage): hot-swap every replica
  /// of the group to `artifact` and make it the stable version.
  /// Requires phase == stable.
  Status UpgradeStable(const std::string& device, const std::string& service,
                       std::shared_ptr<const ModelArtifact> artifact);

  /// Stage `candidate` on a canary fraction of the group and start the
  /// live accuracy/latency gates. Requires phase == stable, a distinct
  /// candidate version, and ≥ 2 replicas (someone must keep serving the
  /// incumbent).
  Status BeginRollout(const std::string& device, const std::string& service,
                      std::shared_ptr<const ModelArtifact> candidate,
                      std::optional<RolloutPolicy> policy = std::nullopt);

  /// Operator abort: roll an in-flight canary back to the incumbent.
  Status CancelRollout(const std::string& device, const std::string& service);

  /// Hot-swap one replica to `artifact`: quiesce via the scheduler (if
  /// any), charge swap_cost on the replica's lane, flip the handle,
  /// release. `on_done` fires after the flip.
  void SwapReplica(services::ServiceInstance* replica,
                   std::shared_ptr<const ModelArtifact> artifact,
                   std::function<void()> on_done = nullptr);

  bool Manages(const std::string& device, const std::string& service) const;
  RolloutPhase phase(const std::string& device,
                     const std::string& service) const;
  std::string stable_version(const std::string& device,
                             const std::string& service) const;
  std::string candidate_version(const std::string& device,
                                const std::string& service) const;
  /// Managed groups as "device/service", in adoption order.
  std::vector<std::pair<std::string, std::string>> groups() const;
  const RolloutStats& stats() const { return stats_; }

  /// Live gate inputs for one group (the fleet wave gate reads them).
  struct GroupView {
    RolloutPhase phase = RolloutPhase::kStable;
    /// Each version's gate window, as the group's gate reads it.
    GateWindow stable_window;
    GateWindow candidate_window;
  };
  GroupView View(const std::string& device, const std::string& service) const;

 private:
  struct VersionWindow {
    GateWindow samples;
    int probes = 0;
  };

  struct Group {
    std::string device;
    std::string service;
    RolloutPolicy policy;
    RolloutPhase phase = RolloutPhase::kStable;
    std::shared_ptr<const ModelArtifact> stable;
    std::shared_ptr<const ModelArtifact> candidate;
    /// Labelled shadow probes (the incumbent's withheld windows).
    std::vector<LabeledProbe> probes;
    size_t next_probe = 0;
    bool probe_candidate_next = false;
    /// Per-version sliding windows, reset at BeginRollout.
    std::map<std::string, VersionWindow> windows;
    TimePoint rollout_started;
    /// Batch spans already folded into the latency windows.
    uint64_t spans_folded = 0;
    /// Replicas still flipping during a promote/rollback settle.
    int swaps_pending = 0;
    uint64_t generation = 0;  // invalidates in-flight probe callbacks
  };

  using GroupKey = std::pair<std::string, std::string>;

  Group* FindGroup(const std::string& device, const std::string& service);
  const Group* FindGroup(const std::string& device,
                         const std::string& service) const;
  serving::RequestScheduler* SchedulerFor(const Group& group) const;
  /// Least-backlog available replica of the group running `version`.
  services::ServiceInstance* PickProbeTarget(const Group& group,
                                             const std::string& version);
  void ScheduleProbe(Group& group);
  void ScheduleEvaluate(Group& group);
  void SendProbe(Group& group);
  void Evaluate(Group& group);
  /// Fold fresh scheduler batch spans into the latency windows.
  void HarvestSpans(Group& group);
  void PushSample(Group& group, const std::string& version, bool hit,
                  double latency_ms);
  void Promote(Group& group);
  void Rollback(Group& group);
  /// Swap `replicas` to `artifact`; settle the group to kStable once
  /// the last swap completes.
  void SwapAll(Group& group,
               const std::vector<services::ServiceInstance*>& replicas,
               std::shared_ptr<const ModelArtifact> artifact);

  sim::Simulator* simulator_;
  services::ServiceRegistry* registry_;
  ModelRegistry* models_;
  SchedulerLookup scheduler_lookup_;
  RolloutPolicy default_policy_;
  std::map<GroupKey, RolloutPolicy> policy_overrides_;
  std::map<GroupKey, Group> groups_;
  std::vector<GroupKey> group_order_;
  RolloutStats stats_;
};

/// Build shadow probes from an artifact's withheld holdout windows
/// (activity kind): payload {"window_features": […]}, label = ground
/// truth. Empty for artifacts without a holdout.
std::vector<RolloutController::LabeledProbe> ProbesFromHoldout(
    const ModelArtifact& artifact);

}  // namespace vp::modelreg
