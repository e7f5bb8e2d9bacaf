// Fault injection for the simulated edge cluster.
//
// The FaultInjector perturbs a running simulation the way real edge
// deployments fail: service replicas crash and restart, replicas wedge
// (accept a request and never answer — a hung container), and Wi-Fi
// links degrade (loss/latency spikes). Faults can be placed on an
// explicit schedule or drawn probabilistically from a seeded Rng, so
// every fault run is bit-for-bit reproducible.
//
// Layering: the injector lives in vp::sim and knows nothing about the
// service runtime. Replicas are registered as opaque hook bundles
// (crash / restart / wedge); the orchestrator supplies hooks that
// reach into the real ServiceInstances. Link faults act directly on
// the Network.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"

namespace vp::sim {

/// Opaque handle to one service replica. The injector drives these;
/// the registering layer decides what they do.
struct ReplicaHooks {
  /// Hard-kill the replica (in-flight work dies, callers get errors).
  std::function<void()> crash;
  /// Bring a crashed replica back (pays a cold-start).
  std::function<void()> restart;
  /// true: the replica accepts requests but never replies (hung
  /// process). false: it recovers and answers again.
  std::function<void(bool)> set_wedged;
};

/// Opaque handle to one whole device. A device crash is power loss:
/// the hook owner (the orchestrator) takes the node off the network,
/// kills every process on it and discards its frame-store RAM; reboot
/// brings the node back cold and empty.
struct DeviceHooks {
  std::function<void()> crash;
  std::function<void()> reboot;
};

/// Opaque handle to one model-backed replica group. A model poison is
/// the ML analogue of a crash: the hook owner (the orchestrator) trains
/// a deliberately bad candidate version and starts a canary rollout of
/// it — the rollout gates, not the injector, are responsible for
/// detecting and reverting it.
struct ModelHooks {
  std::function<void()> poison;
};

/// Knobs for probabilistic fault generation. All draws come from one
/// seeded Rng in a fixed order, so a given seed always produces the
/// same fault timeline.
struct RandomFaultOptions {
  /// How often the injector rolls the dice.
  Duration interval = Duration::Millis(250);
  /// Per tick, per replica: probability of a crash. Expected downtime
  /// fraction ≈ crash_probability * crash_downtime / interval.
  double crash_probability = 0.0;
  Duration crash_downtime = Duration::Millis(400);
  /// Per tick, per replica: probability of a wedge (hang).
  double wedge_probability = 0.0;
  Duration wedge_duration = Duration::Millis(400);
};

struct FaultInjectorStats {
  uint64_t crashes = 0;
  uint64_t restarts = 0;
  uint64_t wedges = 0;
  uint64_t unwedges = 0;
  uint64_t link_faults = 0;
  uint64_t link_restores = 0;
  uint64_t device_crashes = 0;
  uint64_t device_reboots = 0;
  uint64_t model_poisons = 0;
  uint64_t partitions = 0;
  uint64_t partition_heals = 0;
};

class FaultInjector {
 public:
  FaultInjector(Simulator* sim, Network* network, uint64_t seed = 1);

  /// Register a replica under `label` (e.g. "desktop/pose_detector#0").
  /// Labels must be unique; re-registering replaces the hooks.
  void RegisterReplica(const std::string& label, ReplicaHooks hooks);

  size_t replica_count() const { return order_.size(); }
  std::vector<std::string> replica_labels() const { return order_; }

  /// Register a whole device under its name. Replica labels are
  /// expected to be prefixed "device/…": a device crash also marks
  /// every matching registered replica as down (their crash hooks
  /// fire; no automatic restart — the device reboots empty).
  void RegisterDevice(const std::string& name, DeviceHooks hooks);

  size_t device_count() const { return device_order_.size(); }
  std::vector<std::string> device_labels() const { return device_order_; }

  /// Register a model-backed replica group under "device/service".
  void RegisterModelGroup(const std::string& label, ModelHooks hooks);

  size_t model_group_count() const { return model_order_.size(); }

  // -- scheduled (deterministic) faults --------------------------------
  /// Crash `label` at absolute time `at`; restart it `downtime` later.
  /// A zero/negative downtime crashes without restart.
  Status ScheduleCrash(const std::string& label, TimePoint at,
                       Duration downtime);

  /// Wedge `label` at `at`; recover it `duration` later (never, when
  /// duration is zero/negative).
  Status ScheduleWedge(const std::string& label, TimePoint at,
                       Duration duration);

  /// Replace the (symmetric) link a↔b with `degraded` at `at`, and
  /// restore the original spec `duration` later. A zero/negative
  /// duration leaves the link degraded.
  void ScheduleLinkFault(const std::string& a, const std::string& b,
                         TimePoint at, Duration duration, LinkSpec degraded);

  /// Power-cycle faults: crash device `name` at `at` and reboot it
  /// `downtime` later (never, when downtime is zero/negative). The
  /// rebooted device comes back cold and empty — nothing that ran on
  /// it is resurrected by the injector.
  Status ScheduleDeviceCrash(const std::string& name, TimePoint at,
                             Duration downtime);
  Status ScheduleDeviceReboot(const std::string& name, TimePoint at);

  /// Partition the network into `groups` at `at`; heal `duration`
  /// later (never, when duration is zero/negative). Overwrites any
  /// partition already active at that time.
  void SchedulePartition(std::vector<std::vector<std::string>> groups,
                         TimePoint at, Duration duration);

  /// Immediately heal any active partition.
  void HealPartitionNow();

  /// Poison the model of group "device/service" at `at`: fires the
  /// group's poison hook, which stages a bad candidate version through
  /// the normal canary path. There is no scheduled restore — reverting
  /// is the rollout controller's job (that is the point of the fault).
  Status ScheduleModelPoison(const std::string& label, TimePoint at);

  /// Immediate variants (same semantics, at Now()).
  Status CrashDeviceNow(const std::string& name, Duration downtime);
  Status PoisonModelNow(const std::string& label);

  // -- probabilistic faults ---------------------------------------------
  /// Start rolling for crashes/wedges every options.interval across all
  /// registered replicas. Replicas currently down or wedged are skipped.
  void StartRandomFaults(RandomFaultOptions options);

  /// Stop the probabilistic generator (scheduled faults already placed
  /// still fire; pending restores still fire so nothing stays broken).
  void StopRandomFaults() { random_running_ = false; }

  const FaultInjectorStats& stats() const { return stats_; }

 private:
  struct ReplicaState {
    ReplicaHooks hooks;
    bool down = false;
    bool wedged = false;
  };
  struct DeviceState {
    DeviceHooks hooks;
    bool down = false;
  };

  ReplicaState* FindReplica(const std::string& label);
  DeviceState* FindDevice(const std::string& name);
  void CrashNow(const std::string& label, Duration downtime);
  void WedgeNow(const std::string& label, Duration duration);
  void CrashDevice(const std::string& name, Duration downtime);
  void RebootDevice(const std::string& name);
  void RandomTick();

  Simulator* sim_;
  Network* network_;
  Rng rng_;
  std::map<std::string, ReplicaState> replicas_;
  std::vector<std::string> order_;  // registration order (determinism)
  std::map<std::string, DeviceState> devices_;
  std::vector<std::string> device_order_;
  std::map<std::string, ModelHooks> model_groups_;
  std::vector<std::string> model_order_;
  RandomFaultOptions random_options_;
  bool random_running_ = false;
  /// True while a partition placed by this injector is in force.
  bool partition_active_ = false;
  FaultInjectorStats stats_;
};

}  // namespace vp::sim
