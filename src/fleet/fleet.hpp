// Fleet: many simulated homes on ONE discrete-event engine.
//
// Each home is a full §5.1 testbed — its own Cluster (devices +
// network), its own Orchestrator (fabric, services, serving layer,
// rollout controller), its own FaultInjector and PipelineMonitor — all
// scheduling on one sharded engine (sim::ParallelSimulator) with a
// single virtual clock. A sequential fleet is the engine's one-shard
// case, run on the calling thread. The only cross-home
// couplings are deliberate: one content-addressed ModelRegistry (a
// recipe trains once per fleet, not once per home) and one optional
// CloudTier (shared slots, per-tenant fair-share/quota).
//
// Determinism contract: home h of a fleet seeded S derives every one
// of its RNG streams (cluster/network jitter, orchestrator jitter,
// container cold-start jitter, fault injector) from HomeSeed(S, h) —
// never from fleet size or sibling state. Fleet components (monitor
// rollups, controller, cloud) only *read* home state and draw no
// random numbers, so home h's metrics are bit-identical whether the
// fleet has 1, 3 or 5000 homes.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/monitor.hpp"
#include "core/orchestrator.hpp"
#include "fleet/cloud.hpp"
#include "modelreg/registry.hpp"
#include "sim/cluster.hpp"
#include "sim/fault_injector.hpp"
#include "sim/parallel.hpp"
#include "sim/simulator.hpp"

namespace vp::fleet {

/// SplitMix64 over (fleet_seed, home_id): statistically independent
/// per-home streams, stable under fleet growth (home 1's seed does not
/// change when homes 2..N are added).
uint64_t HomeSeed(uint64_t fleet_seed, int home_id);

struct FleetOptions {
  /// Homes created up front (AddHome() adds more later).
  int homes = 0;
  uint64_t seed = 42;
  /// Base orchestrator options. Per home, `seed` is overridden with
  /// HomeSeed(fleet seed, home id). A null `models.registry` is
  /// replaced with the fleet's own; a caller's registry is shared by
  /// every home and is what models() returns.
  core::OrchestratorOptions orchestrator;
  /// Shared cloud tier; disabled by default.
  bool enable_cloud = false;
  CloudOptions cloud;
  /// false = one shard, run on the calling thread; `parallel_options`
  /// is ignored. true = homes are partitioned across
  /// `parallel_options.shards` event loops run by worker threads.
  /// Per-home metrics are bit-identical either way, for the same seed
  /// at any shard and thread count (docs/sim.md).
  bool parallel = false;
  /// Engine tuning when `parallel` is set. `shards` fixes the home
  /// partition (homes map to shards round-robin, a pure function of
  /// home id) and `threads` only chooses how many cores execute it.
  /// `lookahead` is always overridden by the fleet: the one-way WAN
  /// latency to the cloud tier (20 ms) when the cloud tier is on —
  /// cloud links are the only cross-home edges — and effectively
  /// unbounded otherwise.
  sim::ParallelOptions parallel_options;
};

/// One home of the fleet.
struct Home {
  int id = 0;
  std::string name;  // "home<id>" — tenant id, telemetry label
  std::unique_ptr<sim::Cluster> cluster;
  std::unique_ptr<core::Orchestrator> orchestrator;
  std::unique_ptr<sim::FaultInjector> injector;
  /// Samples the home every 500 ms once StartAll runs.
  std::unique_ptr<core::PipelineMonitor> monitor;
  /// Pipelines deployed into this home (owner: the orchestrator).
  std::vector<core::PipelineDeployment*> pipelines;
};

class Fleet {
 public:
  explicit Fleet(FleetOptions options = {});
  ~Fleet();
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  /// Instantiate the next home (id = current size) on its shard, with
  /// all of its RNG streams derived from the fleet seed and that id.
  Home& AddHome();

  int size() const { return static_cast<int>(homes_.size()); }
  Home& home(int id) { return *homes_[static_cast<size_t>(id)]; }
  const Home& home(int id) const { return *homes_[static_cast<size_t>(id)]; }

  /// Shard 0: the cloud tier's simulator. Its clock is the fleet clock
  /// between runs and inside control tasks.
  sim::Simulator& simulator() { return engine_->shard(0); }
  /// The simulator that home `id`'s events live on: its shard.
  /// Schedule per-home work (offload ticks, faults) here.
  sim::Simulator& home_simulator(int id) {
    return engine_->shard(home_shard(id));
  }
  /// Fixed home→shard assignment: round-robin over the shard count, a
  /// pure function of home id — stable under fleet growth, balanced by
  /// construction.
  int home_shard(int id) const { return id % engine_->shards(); }
  /// The engine; never null.
  sim::ParallelSimulator* parallel_engine() { return engine_.get(); }
  /// Total events executed across the whole fleet: every shard's
  /// events plus the control tasks run at barriers.
  uint64_t executed_events() const { return engine_->executed_events(); }
  sim::SimAllocStats alloc_stats() const { return engine_->alloc_stats(); }
  /// The registry every home trains and resolves models in: the
  /// caller's `orchestrator.models.registry`, or the fleet's own.
  modelreg::ModelRegistry& models() {
    return *options_.orchestrator.models.registry;
  }
  CloudTier* cloud() { return cloud_.get(); }
  const FleetOptions& options() const { return options_; }

  /// Schedule a control-plane task `delay` from now. It runs at the
  /// first barrier fence ≥ its due time, with every shard quiesced —
  /// the only context in which reading or mutating many homes at once
  /// is safe — and counts as one executed event. The FleetController
  /// ticks through this.
  void ScheduleControl(Duration delay, sim::Task task);

  /// Submit a cloud job on behalf of `home_id`, modeling the WAN hop
  /// in both directions: the job reaches the cloud tier one WAN
  /// latency after now, and `on_done` runs back on the home's side one
  /// WAN latency after the slot finishes. Both hops are cross-shard
  /// messages (the only ones), with the same virtual timing at every
  /// shard count. Each home's effective WAN gets a +home_id
  /// microsecond stagger so distinct homes' cloud arrivals never tie.
  void CloudSubmit(int home_id, Duration cost, sim::Task on_done = nullptr);

  /// Start every home's cameras and monitor.
  void StartAll();

  /// Advance the fleet clock once, then run each home's post-run
  /// bookkeeping (the per-home RunFor would re-run boundary events).
  void RunFor(Duration duration);

  /// Homes in which model version `version_id` was ever live: served a
  /// scheduler batch, or is currently bound to a replica, or is the
  /// group's stable/candidate version. This is the rollout blast
  /// radius of a bad version.
  std::vector<int> HomesExposedTo(const std::string& version_id) const;

  /// Simulator events spent on fleet-shared machinery so far: monitor
  /// ticks + cloud tier events (the FleetController adds its own on
  /// top). Everything else is per-home workload.
  uint64_t SharedOverheadEvents() const;

 private:
  FleetOptions options_;
  std::unique_ptr<sim::ParallelSimulator> engine_;
  /// Used when the caller set no registry.
  modelreg::ModelRegistry registry_;
  std::unique_ptr<CloudTier> cloud_;
  std::vector<std::unique_ptr<Home>> homes_;
};

}  // namespace vp::fleet
