// Engine benchmark: the sharded discrete-event core on a multi-home
// fleet workload, one shard against eight shards swept over
// worker-thread counts.
//
// Two workloads, both fitness@10 with the serving layer on:
//
//  * independent — no cloud tier, so homes never interact: the
//    engine's lookahead is effectively unbounded and a whole run is a
//    handful of epochs. This is the pure engine-throughput ceiling.
//  * coupled — every home offloads a 30 ms cloud job every 250 ms
//    through the shared tier, so the engine must fence at the 20 ms
//    WAN lookahead window. This prices the conservative-synchronization
//    overhead (segments column).
//
// The baseline is one shard on one thread — a sequential fleet. Every
// eight-shard run is cross-checked against it: per-home pipeline
// metrics, cloud totals and executed events must match exactly (the
// determinism contract, docs/sim.md), and its speedup is measured
// against it. Each run also reports its segments, and its event nodes
// as heap allocations against free-list reuses. One untimed, unprinted
// baseline episode runs first, so the first printed row does not carry
// the process's warm-up (page faults, allocator growth, cold caches).
//
// The ≥3× speedup acceptance gate only applies when the host actually
// has ≥8 cores (the header prints the count); determinism and pooling
// gates always apply.
#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "apps/fitness.hpp"
#include "fleet/fleet.hpp"
#include "harness.hpp"

using namespace vp;
using namespace vp::bench;

namespace {

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

struct HomeFp {
  uint64_t completed = 0;
  uint64_t captured = 0;
  double fps = 0;
  uint64_t sheds = 0;
  bool operator==(const HomeFp& o) const {
    return completed == o.completed && captured == o.captured &&
           fps == o.fps && sheds == o.sheds;
  }
};

struct RunOutcome {
  double wall_s = 0;
  uint64_t events = 0;
  uint64_t segments = 0;
  int shards = 0;
  int threads = 0;
  uint64_t cloud_served = 0;
  sim::SimAllocStats alloc;
  std::vector<HomeFp> homes;
};

/// One shard runs on the calling thread (a sequential fleet); more run
/// on `threads` worker threads.
RunOutcome RunWorkload(int homes, double seconds, bool coupled, int shards,
                       int threads) {
  fleet::FleetOptions options;
  options.homes = homes;
  options.seed = 42;
  options.orchestrator.serving.enabled = true;
  options.parallel = shards > 1;
  options.parallel_options.shards = shards;
  options.parallel_options.threads = threads;
  if (coupled) {
    options.enable_cloud = true;
    options.cloud.slots = std::max(2, homes / 4);
    options.cloud.speed = 4.0;
  }
  fleet::Fleet fleet(options);
  for (int id = 0; id < fleet.size(); ++id) {
    DeployFitnessTo(fleet.home(id), 10);
  }
  if (coupled) {
    // Per-home offload ticks live on each home's own shard; the jobs
    // themselves cross shards through the engine's barrier mailboxes.
    // The pending event owns each tick and a tick holds itself only
    // weakly, so nothing leaks.
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

  const auto start = std::chrono::steady_clock::now();
  fleet.RunFor(Duration::Seconds(seconds));
  const auto stop = std::chrono::steady_clock::now();

  RunOutcome out;
  out.wall_s = std::chrono::duration<double>(stop - start).count();
  out.events = fleet.executed_events();
  out.alloc = fleet.alloc_stats();
  out.shards = fleet.parallel_engine()->shards();
  out.threads = fleet.parallel_engine()->threads();
  out.segments = fleet.parallel_engine()->segments();
  if (fleet.cloud()) out.cloud_served = fleet.cloud()->served_total();
  for (int id = 0; id < fleet.size(); ++id) {
    const auto& metrics = fleet.home(id).pipelines[0]->metrics();
    HomeFp fp;
    fp.completed = metrics.frames_completed();
    fp.captured = metrics.frames_captured();
    fp.fps = metrics.EndToEndFps();
    fp.sheds = metrics.requests_shed();
    out.homes.push_back(fp);
  }
  return out;
}

void PrintRow(const RunOutcome& r, double speedup, const char* identical) {
  std::printf("%6d %8d %9.2f %9llu %11.0f %9llu %12llu %12llu %8.2fx %11s\n",
              r.shards, r.threads, r.wall_s,
              static_cast<unsigned long long>(r.events),
              r.wall_s > 0 ? static_cast<double>(r.events) / r.wall_s : 0.0,
              static_cast<unsigned long long>(r.segments),
              static_cast<unsigned long long>(r.alloc.node_allocs),
              static_cast<unsigned long long>(r.alloc.pool_reuses), speedup,
              identical);
}

}  // namespace

int main() {
  const bool smoke = SmokeMode();
  const int homes = smoke ? 4 : 16;
  const double seconds = smoke ? 4.0 : 20.0;
  const std::vector<int> thread_sweep = {1, 2, 4, 8};
  const unsigned host_cores = std::thread::hardware_concurrency();

  std::printf("=== Discrete-event core: 1 shard vs 8 shards "
              "(%d homes, fitness@10, %.0f s virtual, host cores: %u) ===\n",
              homes, seconds, host_cores);

  bool determinism_ok = true;
  bool pool_ok = true;
  double best_speedup_at_8 = 0;

  (void)RunWorkload(homes, seconds, /*coupled=*/false, 1, 1);  // warm-up

  for (const bool coupled : {false, true}) {
    const char* label = coupled ? "coupled (cloud, 20 ms lookahead)"
                                : "independent (no cloud)";
    std::printf("\n-- %s --\n", label);
    std::printf("%6s %8s %9s %9s %11s %9s %12s %12s %9s %11s\n",
                "shards", "threads", "wall(s)", "events", "events/s",
                "segments", "heap allocs", "pool reuses", "speedup",
                "identical");

    const RunOutcome one = RunWorkload(homes, seconds, coupled, 1, 1);
    PrintRow(one, 1.0, "-");
    // The free list should serve nearly every event after warm-up: the
    // heap allocations are what new/delete per event would cost
    // without it.
    pool_ok = pool_ok && one.alloc.pool_reuses > one.alloc.node_allocs;

    for (int threads : thread_sweep) {
      const RunOutcome eight =
          RunWorkload(homes, seconds, coupled, 8, threads);
      // Per-home metrics, cloud totals and executed events must match
      // the one-shard run exactly (docs/sim.md).
      const bool identical = eight.homes == one.homes &&
                             eight.cloud_served == one.cloud_served &&
                             eight.events == one.events;
      determinism_ok = determinism_ok && identical;
      const double speedup = eight.wall_s > 0 ? one.wall_s / eight.wall_s
                                              : 0.0;
      if (threads == 8 && speedup > best_speedup_at_8) {
        best_speedup_at_8 = speedup;
      }
      PrintRow(eight, speedup, identical ? "yes" : "NO");
    }
  }

  std::printf("\nper-home metrics and event totals of every 8-shard run "
              "identical to the 1-shard run  %s\n",
              determinism_ok ? "PASS" : "FAIL");
  std::printf("event-node pool recycles more than it allocates  %s\n",
              pool_ok ? "PASS" : "FAIL");

  // The wall-clock acceptance gate needs real cores to mean anything;
  // on smaller hosts the thread sweep still proves determinism and
  // prints the curve.
  const bool gate_speedup = host_cores >= 8;
  const bool speedup_ok = !gate_speedup || best_speedup_at_8 >= 3.0;
  if (gate_speedup) {
    std::printf("8-thread speedup %.2fx >= 3x on >=8-core host  %s\n",
                best_speedup_at_8, speedup_ok ? "PASS" : "FAIL");
  } else {
    std::printf("8-thread speedup %.2fx (host has %u cores; >=3x gate "
                "needs 8 — informational)\n",
                best_speedup_at_8, host_cores);
  }

  return (determinism_ok && pool_ok && speedup_ok) ? 0 : 1;
}
