// Sharded parallel discrete-event engine: primitives, conservative
// synchronization, and the determinism contract (docs/sim.md) — a
// fleet on eight shards must produce bit-identical per-home results to
// the same fleet on one shard (a sequential fleet) for the same seed,
// at ANY worker-thread count, controller-driven rollouts included.
//
// Seed-sweepable: VP_TEST_SEED varies the fleet seed (default 42); the
// cross-check additionally runs seeds 1..5, one test per seed.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "apps/fitness.hpp"
#include "core/invariants.hpp"
#include "core/monitor.hpp"
#include "fleet/cloud.hpp"
#include "fleet/controller.hpp"
#include "fleet/fleet.hpp"
#include "json/write.hpp"
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

TEST(ParallelSimulator, BarrierTasksCountAsExecutedEvents) {
  sim::ParallelOptions opt;
  opt.shards = 1;
  sim::ParallelSimulator engine(opt);
  engine.Post(0, TimePoint::FromMicros(100), [] {});
  engine.Post(0, TimePoint::FromMicros(300), [] {});
  int ran = 0;
  engine.AtBarrier(TimePoint::FromMicros(200), [&ran] { ++ran; });
  const uint64_t cancelled =
      engine.AtBarrier(TimePoint::FromMicros(250), [] { FAIL(); });
  EXPECT_TRUE(engine.CancelBarrier(cancelled));
  engine.RunUntil(TimePoint::FromMicros(1000));
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(engine.shard(0).executed_events(), 2u);
  EXPECT_EQ(engine.executed_events(), 3u);
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

// ------------------------------------- one shard ⇔ eight shards contract

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

/// Every home's steady-state invariants hold at the end of a run:
/// credit conservation, one live lineage per module, no duplicate
/// completions and no zombie-served frames. CheckNow() only — a
/// periodic sweep would add events to the totals these tests compare.
void ExpectInvariantsHold(fleet::Fleet& fleet) {
  for (int id = 0; id < fleet.size(); ++id) {
    core::InvariantChecker checker(fleet.home(id).orchestrator.get());
    checker.CheckNow();
    EXPECT_EQ(checker.total_violations(), 0u)
        << fleet.home(id).name << "\n" << checker.Report();
  }
}

/// Everything observable about one home, rendered partition-neutrally:
/// pipeline totals and every monitor sample's JSON (its absolute
/// timestamp and every reading).
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

struct FleetResult {
  std::vector<HomeResult> homes;
  uint64_t executed = 0;
  uint64_t cloud_served = 0;
};

/// The fleet options of a cross-check run. One shard is the sequential
/// fleet (`parallel` off); any other count runs the homes partitioned.
fleet::FleetOptions PartitionedOptions(uint64_t seed, int homes, int shards,
                                       int threads) {
  fleet::FleetOptions options;
  options.homes = homes;
  options.seed = seed;
  options.orchestrator.serving.enabled = true;
  options.parallel = shards > 1;
  options.parallel_options.shards = shards;
  options.parallel_options.threads = threads;
  return options;
}

HomeResult ObserveHome(const fleet::Home& home) {
  const auto& metrics = home.pipelines[0]->metrics();
  HomeResult hr;
  hr.completed = metrics.frames_completed();
  hr.captured = metrics.frames_captured();
  hr.fps = metrics.EndToEndFps();
  hr.sheds = metrics.requests_shed();
  for (const auto& s : home.monitor->samples()) {
    hr.samples.push_back(json::Write(s.ToJson()));
  }
  return hr;
}

FleetResult ObserveFleet(fleet::Fleet& fleet) {
  FleetResult result;
  result.executed = fleet.executed_events();
  if (fleet.cloud()) result.cloud_served = fleet.cloud()->served_total();
  for (int id = 0; id < fleet.size(); ++id) {
    result.homes.push_back(ObserveHome(fleet.home(id)));
  }
  ExpectInvariantsHold(fleet);
  return result;
}

FleetResult RunCrossCheckFleet(uint64_t seed, int homes, bool cloud,
                               int shards, int threads,
                               double seconds = 5.0) {
  fleet::FleetOptions options =
      PartitionedOptions(seed, homes, shards, threads);
  if (cloud) {
    options.enable_cloud = true;
    options.cloud.slots = 2;
  }
  fleet::Fleet fleet(options);
  for (int id = 0; id < fleet.size(); ++id) {
    DeployFitness(fleet.home(id), 10);
    if (::testing::Test::HasFatalFailure()) return {};
  }
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
  return ObserveFleet(fleet);
}

/// The two runs agree on every home and on the engine-wide totals:
/// executed events and cloud jobs served.
void ExpectSameRun(const FleetResult& a, const FleetResult& b,
                   const std::string& what) {
  EXPECT_EQ(a.executed, b.executed) << what;
  EXPECT_EQ(a.cloud_served, b.cloud_served) << what;
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

// One test per seed, so each seed can run as its own ctest entry
// (tests/CMakeLists.txt) and no entry nears the per-test timeout in
// the sanitizer build.
class ParallelFleetSeed : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ParallelFleetSeed, EightShardsMatchOneShardAcrossThreads) {
  const uint64_t seed = GetParam();
  const FleetResult one =
      RunCrossCheckFleet(seed, /*homes=*/8, /*cloud=*/false, /*shards=*/1, 1);
  ASSERT_FALSE(one.homes.empty());
  for (int threads : {1, 2, 8}) {
    const FleetResult eight =
        RunCrossCheckFleet(seed, 8, false, /*shards=*/8, threads);
    ExpectSameRun(one, eight, "threads=" + std::to_string(threads));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelFleetSeed,
                         ::testing::Range<uint64_t>(1, 6),
                         ::testing::PrintToStringParamName());

TEST(ParallelFleet, CloudCoupledEightShardsMatchOneShard) {
  const uint64_t seed = TestSeed();
  const FleetResult one =
      RunCrossCheckFleet(seed, 8, /*cloud=*/true, /*shards=*/1, 1);
  ASSERT_FALSE(one.homes.empty());
  EXPECT_GT(one.cloud_served, 0u);
  for (int threads : {1, 2, 8}) {
    const FleetResult eight =
        RunCrossCheckFleet(seed, 8, true, /*shards=*/8, threads);
    ExpectSameRun(one, eight, "cloud threads=" + std::to_string(threads));
  }
}

/// A controller-driven staged rollout and everything it decided.
struct RolloutResult {
  std::vector<fleet::FleetController::Wave> waves;
  bool done = false;
  bool halted = false;
  bool poisoned = false;
  int reverted = 0;
  uint64_t overhead_events = 0;
  FleetResult fleet;
};

/// One model registry for every rollout fleet in this binary. Training
/// is a pure function of the recipe and runs outside virtual time, so
/// sharing it moves no compared field; each recipe trains once per
/// binary instead of once per fleet.
modelreg::ModelRegistry& RolloutRegistry() {
  static modelreg::ModelRegistry registry;
  return registry;
}

/// A clean rollout of a same-quality candidate over 2 homes on distinct
/// shards (waves of 1 and 1 home), or a gated one whose supply chain is
/// poisoned as wave 1 starts.
RolloutResult RunRollout(uint64_t seed, bool poison, int shards,
                         int threads) {
  fleet::FleetOptions options = PartitionedOptions(seed, 2, shards, threads);
  options.orchestrator.models.rollout = FastPolicy();
  options.orchestrator.models.registry = &RolloutRegistry();
  fleet::Fleet fleet(options);
  for (int id = 0; id < fleet.size(); ++id) {
    DeployFitness(fleet.home(id), 10);
    if (::testing::Test::HasFatalFailure()) return {};
  }

  fleet::FleetController controller(&fleet, "activity_classifier",
                                    Duration::Millis(400));
  controller.RegisterModelHooks(*fleet.home(0).injector);
  if (poison) {
    controller.on_wave_start = [&fleet](int wave) {
      if (wave == 1) {
        EXPECT_TRUE(fleet.home(0)
                        .injector->PoisonModelNow("fleet/activity_classifier")
                        .ok());
      }
    };
  }
  fleet.StartAll();
  fleet.RunFor(Duration::Seconds(1));

  modelreg::ModelSpec candidate = modelreg::DefaultActivitySpec();
  candidate.train_seed = 4242;
  fleet::FleetRolloutOptions rollout;
  rollout.policy = FastPolicy();
  EXPECT_TRUE(controller.BeginFleetRollout(candidate, rollout).ok());
  for (int i = 0;
       i < 60 && !controller.rollout_done() && !controller.halted(); ++i) {
    fleet.RunFor(Duration::Seconds(1));
  }
  fleet.RunFor(Duration::Seconds(2));  // let halt-path reverts settle

  RolloutResult result;
  result.waves = controller.waves();
  result.done = controller.rollout_done();
  result.halted = controller.halted();
  result.poisoned = controller.poisoned();
  result.reverted = controller.reverted_homes();
  result.overhead_events = controller.overhead_events();
  result.fleet = ObserveFleet(fleet);
  return result;
}

void ExpectSameRollout(const RolloutResult& a, const RolloutResult& b,
                       const std::string& what) {
  EXPECT_EQ(a.done, b.done) << what;
  EXPECT_EQ(a.halted, b.halted) << what;
  EXPECT_EQ(a.poisoned, b.poisoned) << what;
  EXPECT_EQ(a.reverted, b.reverted) << what;
  EXPECT_EQ(a.overhead_events, b.overhead_events) << what;
  ASSERT_EQ(a.waves.size(), b.waves.size()) << what;
  for (size_t w = 0; w < a.waves.size(); ++w) {
    const auto& x = a.waves[w];
    const auto& y = b.waves[w];
    const std::string wave = what + " wave " + std::to_string(w);
    EXPECT_EQ(x.state, y.state) << wave;
    EXPECT_EQ(x.members, y.members) << wave;
    EXPECT_EQ(x.staged_version, y.staged_version) << wave;
    EXPECT_EQ(x.promoted, y.promoted) << wave;
    EXPECT_EQ(x.started, y.started) << wave;
    EXPECT_EQ(x.finished, y.finished) << wave;
    EXPECT_EQ(x.candidate_accuracy, y.candidate_accuracy) << wave;
    EXPECT_EQ(x.stable_accuracy, y.stable_accuracy) << wave;
    EXPECT_EQ(x.candidate_p95_ms, y.candidate_p95_ms) << wave;
    EXPECT_EQ(x.stable_p95_ms, y.stable_p95_ms) << wave;
  }
  ExpectSameRun(a.fleet, b.fleet, what);
}

// The fleet controller runs at barriers at every shard count, so a
// whole staged rollout — wave timing, gate inputs and verdicts, the
// halt path's reverts — is bit-identical across partitions.
void ExpectRolloutIdenticalAcrossPartitions(bool poison) {
  const uint64_t seed = TestSeed();
  const RolloutResult one = RunRollout(seed, poison, /*shards=*/1, 1);
  if (::testing::Test::HasFatalFailure()) return;
  ASSERT_EQ(one.waves.size(), 2u);
  if (poison) {
    EXPECT_TRUE(one.poisoned);
    EXPECT_TRUE(one.halted);
    EXPECT_NE(one.waves[1].staged_version, one.waves[0].staged_version);
  } else {
    EXPECT_TRUE(one.done);
    EXPECT_FALSE(one.halted);
  }
  for (int threads : {1, 2, 8}) {
    const RolloutResult eight = RunRollout(seed, poison, 8, threads);
    ExpectSameRollout(one, eight, "threads=" + std::to_string(threads));
  }
}

// Training the model versions dominates these runs in the sanitizer
// build, so the two rollouts are separate tests and separate ctest
// entries, and each trains its versions once, in RolloutRegistry().
TEST(ParallelFleet, CleanRolloutIdenticalAcrossPartitions) {
  ExpectRolloutIdenticalAcrossPartitions(/*poison=*/false);
}

TEST(ParallelFleet, PoisonedRolloutIdenticalAcrossPartitions) {
  ExpectRolloutIdenticalAcrossPartitions(/*poison=*/true);
}

}  // namespace
}  // namespace vp
