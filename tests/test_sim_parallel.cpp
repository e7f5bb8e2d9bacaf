// Sharded parallel discrete-event engine: primitives, conservative
// synchronization, and the determinism contract (docs/sim.md) — the
// parallel engine must produce bit-identical per-home results to the
// sequential engine for the same seed, at ANY worker-thread count.
//
// Seed-sweepable: VP_TEST_SEED varies the fleet seed (default 42); the
// cross-check additionally sweeps seeds 1..5 explicitly.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "apps/fitness.hpp"
#include "core/monitor.hpp"
#include "fleet/cloud.hpp"
#include "fleet/controller.hpp"
#include "fleet/fleet.hpp"
#include "modelreg/registry.hpp"
#include "sim/parallel.hpp"
#include "sim/simulator.hpp"

namespace vp {
namespace {

uint64_t TestSeed() {
  const char* env = std::getenv("VP_TEST_SEED");
  return env != nullptr ? std::strtoull(env, nullptr, 10) : 42;
}

// ------------------------------------------------ engine primitives

TEST(ParallelSimulator, ExternalPostsExecuteOnTheRightShard) {
  sim::ParallelOptions opt;
  opt.shards = 4;
  opt.threads = 2;
  sim::ParallelSimulator engine(opt);
  std::vector<int> hits(4, 0);
  for (int s = 0; s < 4; ++s) {
    engine.Post(s, TimePoint::FromMicros(1000 + s), [&hits, s] {
      ++hits[static_cast<size_t>(s)];
    });
  }
  engine.RunUntil(TimePoint::FromMicros(2000));
  for (int s = 0; s < 4; ++s) EXPECT_EQ(hits[static_cast<size_t>(s)], 1);
  EXPECT_EQ(engine.executed_events(), 4u);
  EXPECT_EQ(engine.Now(), TimePoint::FromMicros(2000));
  for (int s = 0; s < 4; ++s) {
    EXPECT_EQ(engine.shard(s).Now(), TimePoint::FromMicros(2000));
  }
}

TEST(ParallelSimulator, SingleShardDegeneratesToSequential) {
  sim::ParallelOptions opt;
  opt.shards = 1;
  opt.threads = 8;  // clamped to shard count
  sim::ParallelSimulator engine(opt);
  EXPECT_EQ(engine.threads(), 1);
  std::vector<int> order;
  engine.Post(0, TimePoint::FromMicros(300), [&] { order.push_back(3); });
  engine.Post(0, TimePoint::FromMicros(100), [&] { order.push_back(1); });
  engine.Post(0, TimePoint::FromMicros(200), [&] { order.push_back(2); });
  engine.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

// A ring workload: every shard runs a periodic local tick that also
// mails the next shard, so cross-shard traffic flows continuously.
// The execution log (shard, virtual time, tag) must be identical at
// every worker-thread count — threads pick which core runs a shard,
// never what runs when.
std::vector<std::string> RunRing(int shards, int threads) {
  sim::ParallelOptions opt;
  opt.shards = shards;
  opt.threads = threads;
  opt.lookahead = Duration::Millis(20);
  sim::ParallelSimulator engine(opt);

  // Per-shard logs: during a segment only the owning thread appends;
  // the engine's barrier hand-off sequences access across segments.
  std::vector<std::vector<std::string>> logs(
      static_cast<size_t>(shards));
  auto note = [&logs](int shard, TimePoint when, const std::string& tag) {
    std::ostringstream os;
    os << shard << "@" << when.micros() << ":" << tag;
    logs[static_cast<size_t>(shard)].push_back(os.str());
  };

  // Cross-shard latency (25 ms) strictly covers the lookahead (20 ms):
  // mail posted mid-segment always lands beyond the segment end.
  struct Ring {
    sim::ParallelSimulator* engine;
    std::function<void(int, TimePoint, const std::string&)> note;
    int shards;
    std::function<void(int, int)> tick;
  };
  auto ring = std::make_shared<Ring>();
  ring->engine = &engine;
  ring->note = note;
  ring->shards = shards;
  // The tick refers to the ring weakly (the ring owns the tick); the
  // events it schedules hold the strong references.
  ring->tick = [weak = std::weak_ptr<Ring>(ring)](int shard, int hop) {
    const std::shared_ptr<Ring> ring = weak.lock();
    sim::Simulator& self = ring->engine->shard(shard);
    ring->note(shard, self.Now(), "tick" + std::to_string(hop));
    if (hop >= 12) return;
    // Local follow-up on our own shard...
    self.After(Duration::Millis(7), [ring, shard, hop] {
      ring->note(shard, ring->engine->shard(shard).Now(),
                 "local" + std::to_string(hop));
    });
    // ...and mail to the next shard in the ring.
    const int next = (shard + 1) % ring->shards;
    ring->engine->Post(next, self.Now() + Duration::Millis(25),
                       [ring, next, hop] { ring->tick(next, hop + 1); });
  };
  for (int s = 0; s < shards; ++s) {
    const int shard = s;
    engine.Post(shard, TimePoint::FromMicros(1000 * (shard + 1)),
                [ring, shard] { ring->tick(shard, 0); });
  }
  engine.RunUntil(TimePoint::FromMicros(2'000'000));

  std::vector<std::string> combined;
  for (const auto& log : logs) {
    combined.insert(combined.end(), log.begin(), log.end());
  }
  return combined;
}

TEST(ParallelSimulator, RingExecutionIdenticalAcrossThreadCounts) {
  const std::vector<std::string> at1 = RunRing(8, 1);
  EXPECT_FALSE(at1.empty());
  EXPECT_EQ(at1, RunRing(8, 2));
  EXPECT_EQ(at1, RunRing(8, 8));
}

TEST(ParallelSimulator, BarrierTasksRunQuiescedAtTheFence) {
  sim::ParallelOptions opt;
  opt.shards = 4;
  opt.threads = 4;
  opt.lookahead = Duration::Millis(5);
  sim::ParallelSimulator engine(opt);
  // Busy periodic work on every shard so the barrier really has
  // something to fence against.
  for (int s = 0; s < 4; ++s) {
    auto tick = std::make_shared<std::function<void()>>();
    sim::Simulator& shard = engine.shard(s);
    // Weak self-reference: the pending event holds the strong one, so
    // the loop is freed once it stops.
    *tick = [&shard, self = std::weak_ptr(tick)] {
      if (shard.Now() < TimePoint::FromMicros(400'000)) {
        shard.After(Duration::Millis(1), [next = self.lock()] { (*next)(); });
      }
    };
    engine.Post(s, TimePoint::FromMicros(1000), [tick] { (*tick)(); });
  }
  bool barrier_ran = false;
  const TimePoint due = TimePoint::FromMicros(123'456);
  engine.AtBarrier(due, [&] {
    barrier_ran = true;
    // Quiesced: no shard is mid-segment, every clock sits exactly on a
    // fence >= the due time, and no shard has unexecuted events in the
    // barrier's past.
    EXPECT_FALSE(engine.in_epoch());
    EXPECT_GE(engine.Now(), due);
    for (int s = 0; s < 4; ++s) {
      EXPECT_EQ(engine.shard(s).Now(), engine.Now());
      TimePoint next;
      if (engine.shard(s).PeekNextTime(&next)) {
        EXPECT_GE(next, engine.Now());
      }
    }
  });
  uint64_t cancelled = engine.AtBarrier(due, [] { FAIL(); });
  EXPECT_TRUE(engine.CancelBarrier(cancelled));
  engine.RunUntil(TimePoint::FromMicros(500'000));
  EXPECT_TRUE(barrier_ran);
}

// ------------------------------------------- event pool + tombstones

TEST(SimulatorPool, SelfReschedulingChainRecyclesNodes) {
  sim::Simulator sim;
  auto tick = std::make_shared<std::function<void()>>();
  int runs = 0;
  *tick = [&sim, self = std::weak_ptr(tick), &runs] {
    if (++runs < 10'000) {
      sim.After(Duration::Micros(10), [next = self.lock()] { (*next)(); });
    }
  };
  sim.After(Duration::Micros(10), [tick] { (*tick)(); });
  sim.RunUntilIdle();
  EXPECT_EQ(runs, 10'000);
  const sim::SimAllocStats stats = sim.alloc_stats();
  // A chain keeps at most a couple of nodes live at once; everything
  // else must come from the free list, not the heap.
  EXPECT_LE(stats.node_allocs, 4u);
  EXPECT_GE(stats.pool_reuses, 9'000u);
}

TEST(SimulatorPool, MassCancelCompactsTombstones) {
  sim::Simulator sim;
  std::vector<uint64_t> ids;
  int survivors_run = 0;
  for (int i = 0; i < 10'000; ++i) {
    const uint64_t id = sim.At(TimePoint::FromMicros(1'000'000 + i),
                               [&survivors_run] { ++survivors_run; });
    if (i % 100 != 0) ids.push_back(id);  // keep every 100th
  }
  for (uint64_t id : ids) EXPECT_TRUE(sim.Cancel(id));
  // Cancelled ids are tombstoned eagerly: double-cancel fails fast.
  EXPECT_FALSE(sim.Cancel(ids.front()));
  // The heap must have compacted instead of carrying ~9900 tombstones.
  EXPECT_GE(sim.alloc_stats().heap_compactions, 1u);
  EXPECT_EQ(sim.pending_events(), 100u);
  sim.RunUntilIdle();
  EXPECT_EQ(survivors_run, 100);
}

TEST(SimulatorPool, PostEventHooksStillFire) {
  sim::Simulator sim;
  int fired = 0;
  const uint64_t hook = sim.AddPostEventHook([&fired] { ++fired; });
  sim.After(Duration::Micros(1), [] {});
  sim.After(Duration::Micros(2), [] {});
  sim.RunUntilIdle();
  EXPECT_EQ(fired, 2);
  sim.RemovePostEventHook(hook);
  sim.After(Duration::Micros(3), [] {});
  sim.RunUntilIdle();
  EXPECT_EQ(fired, 2);
}

// ------------------------------------- sequential ⇔ parallel contract

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

void DeployFitness(fleet::Home& home, double fps) {
  auto spec = apps::fitness::Spec();
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  spec->source.fps = fps;
  core::Orchestrator::DeployArgs args;
  args.workload = apps::fitness::Workout();
  args.placement.policy = core::PlacementPolicy::kCoLocate;
  auto deployment =
      home.orchestrator->Deploy(std::move(*spec), std::move(args));
  ASSERT_TRUE(deployment.ok()) << deployment.status().ToString();
  home.pipelines.push_back(*deployment);
}

/// Everything observable about one home, rendered engine-neutrally.
/// Monitor sample timestamps are normalized to the home's first sample
/// (deploy-time clock pumping shifts absolute time uniformly per
/// engine; per-home dynamics must be invariant under that shift —
/// the same property Fleet.HomeMetricsIndependentOfFleetSize checks
/// across fleet sizes).
struct HomeResult {
  uint64_t completed = 0;
  uint64_t captured = 0;
  double fps = 0;
  uint64_t sheds = 0;
  std::vector<std::string> samples;

  bool operator==(const HomeResult& o) const {
    return completed == o.completed && captured == o.captured &&
           fps == o.fps && sheds == o.sheds && samples == o.samples;
  }
};

std::string CanonSample(const core::MonitorSample& s, TimePoint epoch) {
  std::ostringstream os;
  os << "t+" << (s.when - epoch).micros() << " bytes=" << s.network_bytes;
  for (const auto& [name, fps] : s.pipeline_fps) {
    os << " fps[" << name << "]=" << fps;
  }
  for (const auto& [name, frames] : s.frames_completed) {
    os << " done[" << name << "]=" << frames;
  }
  for (const auto& [key, depth] : s.scheduler_queue_depth) {
    os << " q[" << key << "]=" << depth;
  }
  for (const auto& [key, shed] : s.scheduler_sheds) {
    os << " shed[" << key << "]=" << shed;
  }
  for (const auto& [dev, util] : s.device_utilization) {
    os << " util[" << dev << "]=" << util;
  }
  return os.str();
}

struct FleetResult {
  std::vector<HomeResult> homes;
  uint64_t executed = 0;  // comparable across thread counts only
  uint64_t cloud_served = 0;
};

FleetResult RunCrossCheckFleet(uint64_t seed, int homes, bool cloud,
                               bool parallel, int threads,
                               double seconds = 5.0) {
  fleet::FleetOptions options;
  options.homes = homes;
  options.seed = seed;
  options.orchestrator.serving.enabled = true;
  options.parallel = parallel;
  options.parallel_options.shards = 8;
  options.parallel_options.threads = threads;
  if (cloud) {
    options.enable_cloud = true;
    options.cloud.slots = 2;
  }
  fleet::Fleet fleet(options);
  for (int id = 0; id < fleet.size(); ++id) {
    DeployFitness(fleet.home(id), 10);
    if (::testing::Test::HasFatalFailure()) return {};
  }
  // Deploys pump each home's clock (sequential: one shared clock,
  // serialized; parallel: per-shard clocks, independent). This run
  // brings every clock to the same fence on the parallel engine so
  // all homes observe the same active window below on both engines.
  fleet.RunFor(Duration::Seconds(2));
  if (cloud) {
    for (int id = 0; id < fleet.size(); ++id) {
      auto tick = std::make_shared<std::function<void()>>();
      *tick = [&fleet, id, self = std::weak_ptr(tick)] {
        fleet.CloudSubmit(id, Duration::Millis(30));
        fleet.home_simulator(id).After(Duration::Millis(250),
                                       [next = self.lock()] { (*next)(); });
      };
      fleet.home_simulator(id).After(Duration::Millis(250),
                                     [tick] { (*tick)(); });
    }
  }
  fleet.StartAll();
  fleet.RunFor(Duration::Seconds(seconds));

  FleetResult result;
  result.executed = fleet.executed_events();
  if (fleet.cloud()) result.cloud_served = fleet.cloud()->served_total();
  for (int id = 0; id < fleet.size(); ++id) {
    const auto& metrics = fleet.home(id).pipelines[0]->metrics();
    HomeResult hr;
    hr.completed = metrics.frames_completed();
    hr.captured = metrics.frames_captured();
    hr.fps = metrics.EndToEndFps();
    hr.sheds = metrics.requests_shed();
    const auto& samples = fleet.home(id).monitor->samples();
    const TimePoint epoch = samples.empty() ? TimePoint() : samples[0].when;
    for (const auto& s : samples) hr.samples.push_back(CanonSample(s, epoch));
    result.homes.push_back(std::move(hr));
  }
  return result;
}

void ExpectHomesEqual(const FleetResult& a, const FleetResult& b,
                      const std::string& what) {
  ASSERT_EQ(a.homes.size(), b.homes.size()) << what;
  for (size_t h = 0; h < a.homes.size(); ++h) {
    const HomeResult& x = a.homes[h];
    const HomeResult& y = b.homes[h];
    EXPECT_EQ(x.completed, y.completed) << what << " home " << h;
    EXPECT_EQ(x.captured, y.captured) << what << " home " << h;
    EXPECT_EQ(x.fps, y.fps) << what << " home " << h;
    EXPECT_EQ(x.sheds, y.sheds) << what << " home " << h;
    ASSERT_EQ(x.samples.size(), y.samples.size()) << what << " home " << h;
    for (size_t i = 0; i < x.samples.size(); ++i) {
      EXPECT_EQ(x.samples[i], y.samples[i])
          << what << " home " << h << " sample " << i;
    }
  }
}

TEST(ParallelFleet, BitIdenticalToSequentialAcrossSeedsAndThreads) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const FleetResult seq =
        RunCrossCheckFleet(seed, /*homes=*/8, /*cloud=*/false,
                           /*parallel=*/false, 0);
    ASSERT_FALSE(seq.homes.empty());
    FleetResult par1;
    for (int threads : {1, 2, 8}) {
      const FleetResult par = RunCrossCheckFleet(
          seed, 8, false, /*parallel=*/true, threads);
      ExpectHomesEqual(seq, par,
                       "threads=" + std::to_string(threads));
      // Across thread counts the parallel engine must agree on
      // EVERYTHING, including total executed events.
      if (threads == 1) {
        par1 = par;
      } else {
        EXPECT_EQ(par.executed, par1.executed)
            << "threads=" << threads;
      }
    }
  }
}

TEST(ParallelFleet, CloudCoupledFleetMatchesSequential) {
  const uint64_t seed = TestSeed();
  const FleetResult seq = RunCrossCheckFleet(seed, 8, /*cloud=*/true,
                                             /*parallel=*/false, 0);
  ASSERT_FALSE(seq.homes.empty());
  EXPECT_GT(seq.cloud_served, 0u);
  for (int threads : {1, 2, 8}) {
    const FleetResult par =
        RunCrossCheckFleet(seed, 8, true, /*parallel=*/true, threads);
    ExpectHomesEqual(seq, par, "cloud threads=" + std::to_string(threads));
    EXPECT_EQ(par.cloud_served, seq.cloud_served)
        << "threads=" << threads;
  }
}

// The fleet controller drives its ticks through barrier tasks on the
// parallel engine; a full staged rollout must still land (functional
// check — barrier scheduling quantizes control timing, so this is not
// a bit-exactness test against the sequential engine).
TEST(ParallelFleet, StagedRolloutCompletesOnParallelEngine) {
  fleet::FleetOptions options;
  options.homes = 3;
  options.seed = TestSeed();
  options.orchestrator.serving.enabled = true;
  options.orchestrator.models.rollout = FastPolicy();
  options.parallel = true;
  options.parallel_options.shards = 8;
  options.parallel_options.threads = 8;
  fleet::Fleet fleet(options);
  for (int id = 0; id < fleet.size(); ++id) {
    DeployFitness(fleet.home(id), 12);
    if (::testing::Test::HasFatalFailure()) return;
  }

  fleet::FleetController controller(&fleet, "activity_classifier",
                                    Duration::Millis(400));
  fleet.StartAll();
  fleet.RunFor(Duration::Seconds(1));

  modelreg::ModelSpec candidate = modelreg::DefaultActivitySpec();
  candidate.train_seed = 4242;
  fleet::FleetRolloutOptions rollout;
  rollout.policy = FastPolicy();
  ASSERT_TRUE(controller.BeginFleetRollout(candidate, rollout).ok());
  ASSERT_EQ(controller.waves().size(), 3u);

  for (int i = 0;
       i < 60 && !controller.rollout_done() && !controller.halted(); ++i) {
    fleet.RunFor(Duration::Seconds(1));
  }
  EXPECT_TRUE(controller.rollout_done());
  EXPECT_FALSE(controller.halted());
  for (int id = 0; id < fleet.size(); ++id) {
    const auto& orch = *fleet.home(id).orchestrator;
    for (const auto& [device, service] : orch.rollout().groups()) {
      if (service != "activity_classifier") continue;
      EXPECT_EQ(orch.rollout().stable_version(device, service),
                controller.candidate_version())
          << fleet.home(id).name;
    }
  }
}

}  // namespace
}  // namespace vp
