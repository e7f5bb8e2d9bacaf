#include "fleet/fleet.hpp"

#include <algorithm>
#include <cassert>

#include "services/registry.hpp"
#include "serving/request_scheduler.hpp"

namespace vp::fleet {
namespace {

/// One-way WAN latency between any home and the cloud tier. Doubles as
/// the engine's conservative lookahead window.
constexpr Duration kCloudLinkLatency = Duration::Millis(20);
/// Every home's PipelineMonitor samples at this cadence.
constexpr Duration kMonitorInterval = Duration::Millis(500);

}  // namespace

uint64_t HomeSeed(uint64_t fleet_seed, int home_id) {
  // SplitMix64 finalizer over the pair. The +1 keeps home 0 of fleet
  // seed 0 away from the all-zero fixed point.
  uint64_t z = fleet_seed + 0x9e3779b97f4a7c15ULL *
                                (static_cast<uint64_t>(home_id) + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Fleet::Fleet(FleetOptions options) : options_(options) {
  if (options_.orchestrator.models.registry == nullptr) {
    options_.orchestrator.models.registry = &registry_;
  }
  // One shard runs on the calling thread: `threads` clamps to 1.
  sim::ParallelOptions engine_options = options_.parallel_options;
  if (!options_.parallel) engine_options.shards = 1;
  // The conservative lookahead window must cover the minimum
  // cross-shard latency. Cloud links are the only cross-home edges,
  // so: the WAN latency when the cloud is on; with no cloud the homes
  // are fully independent and the window is effectively unbounded
  // (whole runs become single epochs).
  engine_options.lookahead = options_.enable_cloud ? kCloudLinkLatency
                                                  : Duration::Seconds(3600);
  engine_ = std::make_unique<sim::ParallelSimulator>(engine_options);
  if (options_.enable_cloud) {
    // Shard 0 hosts the cloud tier: jobs from every home converge
    // there through the barrier mailboxes.
    cloud_ = std::make_unique<CloudTier>(&simulator(), options_.cloud);
  }
  for (int i = 0; i < options_.homes; ++i) AddHome();
}

Fleet::~Fleet() = default;

Home& Fleet::AddHome() {
  const int id = size();
  const uint64_t seed = HomeSeed(options_.seed, id);
  auto home = std::make_unique<Home>();
  home->id = id;
  home->name = "home" + std::to_string(id);
  sim::Simulator* home_sim = &home_simulator(id);
  home->cluster = sim::MakeHomeTestbed(home_sim, seed);

  core::OrchestratorOptions orch_options = options_.orchestrator;
  orch_options.seed = seed;
  home->orchestrator = std::make_unique<core::Orchestrator>(
      home->cluster.get(), orch_options);

  // A distinct stream for fault timing, still a pure function of
  // (fleet seed, home id).
  home->injector = std::make_unique<sim::FaultInjector>(
      home_sim, &home->cluster->network(),
      HomeSeed(options_.seed ^ 0xf1ee7c0de5ULL, id));

  home->monitor = std::make_unique<core::PipelineMonitor>(
      home->orchestrator.get(), kMonitorInterval);
  if (cloud_) cloud_->RegisterTenant(home->name);

  homes_.push_back(std::move(home));
  return *homes_.back();
}

void Fleet::StartAll() {
  for (auto& home : homes_) {
    home->orchestrator->StartAll();
    home->monitor->Start();
  }
}

void Fleet::RunFor(Duration duration) {
  engine_->RunFor(duration);
  for (auto& home : homes_) home->orchestrator->Housekeep();
}

void Fleet::ScheduleControl(Duration delay, sim::Task task) {
  engine_->AtBarrier(engine_->Now() + delay, std::move(task));
}

void Fleet::CloudSubmit(int home_id, Duration cost, sim::Task on_done) {
  assert(cloud_ && "CloudSubmit without an enabled cloud tier");
  assert(home_id >= 0 && home_id < size());
  const std::string tenant = homes_[static_cast<size_t>(home_id)]->name;
  // Per-home WAN stagger: +home_id microseconds of path length. It
  // keeps distinct homes' cloud arrivals from ever tying at the same
  // (time, seq) — the one place partition-dependent tie-breaking could
  // otherwise creep in — at a cost (< 1 ms per 1000 homes) far below
  // the WAN latency it perturbs.
  const Duration wan = kCloudLinkLatency + Duration::Micros(home_id);
  const int hs = home_shard(home_id);
  sim::ParallelSimulator* engine = engine_.get();
  engine->Post(
      0, engine->shard(hs).Now() + wan,
      [this, engine, tenant, cost, hs, wan,
       done = std::move(on_done)]() mutable {
        (void)cloud_->Submit(
            tenant, cost, [engine, hs, wan, done = std::move(done)]() {
              if (done) {
                engine->Post(hs, engine->shard(0).Now() + wan,
                             std::move(done));
              }
            });
      });
}

std::vector<int> Fleet::HomesExposedTo(const std::string& version_id) const {
  std::vector<int> exposed;
  for (const auto& home : homes_) {
    const core::Orchestrator& orch = *home->orchestrator;
    bool hit = false;
    // Served traffic: any dispatched batch stamped with the version.
    for (const auto& [key, sched] : orch.schedulers()) {
      for (const auto& span : sched->spans()) {
        if (span.model_version == version_id) {
          hit = true;
          break;
        }
      }
      if (hit) break;
    }
    // Staged or live without traffic yet: replica bindings and the
    // rollout controller's own bookkeeping.
    if (!hit) {
      for (const auto& [device, service] : orch.rollout().groups()) {
        if (orch.rollout().stable_version(device, service) == version_id ||
            orch.rollout().candidate_version(device, service) == version_id) {
          hit = true;
          break;
        }
        const auto live =
            home->orchestrator->registry().LiveModelVersions(device, service);
        if (std::find(live.begin(), live.end(), version_id) != live.end()) {
          hit = true;
          break;
        }
      }
    }
    if (hit) exposed.push_back(home->id);
  }
  return exposed;
}

uint64_t Fleet::SharedOverheadEvents() const {
  uint64_t events = cloud_ ? cloud_->events() : 0;
  for (const auto& home : homes_) {
    events += home->monitor->samples().size();
  }
  return events;
}

}  // namespace vp::fleet
