// Discrete-event simulation kernel.
//
// The entire VideoPipe runtime is driven by simulator events: module
// execution, service compute, network transfers and video-source ticks
// are all entries on a virtual-time queue. Ties are broken by
// insertion order, which makes every run bit-for-bit deterministic.
//
// Two engines share this file's machinery:
//
//  * `Simulator` — the default single-threaded engine: one shard, one
//    clock, exactly the behavior every test and bench was written
//    against.
//  * `ParallelSimulator` (sim/parallel.hpp) — a sharded engine that
//    owns many `Simulator`s as shards and runs them on worker threads
//    under conservative synchronization. Each shard is still a plain
//    single-threaded event loop; all cross-shard coordination lives in
//    the engine.
//
// `SimulatorShard` is the extracted core: the event heap, the node
// pool, the clock and the post-event hooks. It has no knowledge of
// threads — whichever engine drives it guarantees single-threaded
// access.
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/time.hpp"

namespace vp::sim {

using Task = std::function<void()>;

class Simulator;
class ParallelSimulator;

namespace detail {
/// The shard the calling worker thread is currently executing, or
/// nullptr on a coordinator/main thread. Set by ParallelSimulator
/// around shard execution; used by the shard-affinity asserts that
/// keep intra-home events from crossing shards.
extern thread_local const Simulator* tl_running_shard;
}  // namespace detail

/// Event-node allocation counters. Event nodes are the highest-churn
/// allocation in every run (one per scheduled event), so they are
/// recycled through a per-shard free list instead of new/delete.
struct SimAllocStats {
  /// Nodes obtained from operator new — the high-water mark of
  /// concurrently outstanding events. Without the pool this would
  /// equal the total number of At() calls.
  uint64_t node_allocs = 0;
  /// Nodes recycled from the free list (allocations avoided).
  uint64_t pool_reuses = 0;
  /// Heap rebuilds that evicted accumulated Cancel() tombstones.
  uint64_t heap_compactions = 0;
};

/// The engine core: event heap + clock + hooks, single-threaded by
/// contract. `Simulator` wraps exactly one of these; the parallel
/// engine runs one per shard.
class SimulatorShard {
 public:
  SimulatorShard() = default;
  ~SimulatorShard();
  SimulatorShard(const SimulatorShard&) = delete;
  SimulatorShard& operator=(const SimulatorShard&) = delete;

  TimePoint Now() const { return now_; }

  uint64_t At(TimePoint when, Task task);

  /// Cancel a scheduled event. Returns false if it already ran or the
  /// id is unknown. O(1): the node is tombstoned in the heap and its
  /// by_id_ entry removed eagerly; once tombstones outnumber live
  /// events the heap is compacted so long soaks with heavy Cancel
  /// traffic (timeouts, watchdogs) do not grow without bound.
  bool Cancel(uint64_t id);

  /// Run until the queue drains or `until` is reached (whichever comes
  /// first). Events scheduled exactly at `until` are executed.
  void RunUntil(TimePoint until);

  void RunUntilIdle();

  uint64_t AddPostEventHook(Task hook);
  void RemovePostEventHook(uint64_t id);

  size_t pending_events() const { return live_events_; }
  uint64_t executed_events() const { return executed_; }
  const SimAllocStats& alloc_stats() const { return alloc_stats_; }

  /// Earliest pending (uncancelled) event time; false when the queue
  /// is empty. Pops tombstones off the top as a side effect.
  bool PeekNextTime(TimePoint* when);

  /// Advance the clock to `t` without running anything (never moves it
  /// backwards). The parallel engine aligns shard clocks to each
  /// barrier fence with this.
  void AdvanceTo(TimePoint t) {
    if (now_ < t) now_ = t;
  }

 private:
  struct Event {
    TimePoint when;
    uint64_t seq;
    uint64_t id;
    Task task;  // empty == cancelled
  };
  struct EventPtrLess {
    // std::push_heap builds a max-heap; invert for earliest-first.
    bool operator()(const Event* a, const Event* b) const {
      if (a->when != b->when) return a->when > b->when;
      return a->seq > b->seq;
    }
  };

  Event* AcquireNode(TimePoint when, Task task);
  void ReleaseNode(Event* ev);
  void PushNode(Event* ev);
  Event* PopTop();
  void PopAndRun();
  void CompactTombstones();

  TimePoint now_;
  uint64_t next_seq_ = 0;
  uint64_t next_id_ = 1;
  size_t live_events_ = 0;
  size_t tombstones_ = 0;
  uint64_t executed_ = 0;
  // Binary heap over pooled nodes (std::push_heap/std::pop_heap), so
  // Cancel() can tombstone without a scan and compaction can rebuild
  // in place — a std::priority_queue hides its container.
  std::vector<Event*> heap_;
  std::vector<Event*> free_nodes_;
  SimAllocStats alloc_stats_;
  std::unordered_map<uint64_t, Event*> by_id_;  // live (uncancelled) events
  std::vector<std::pair<uint64_t, Task>> post_event_hooks_;
  uint64_t next_hook_id_ = 1;
};

/// The default engine and the unit of sharding. Standalone, this is
/// the exact single-threaded simulator the whole runtime was built on.
/// Owned by a ParallelSimulator, it is one shard: the engine runs it
/// on a worker thread between barrier epochs, and the affinity checks
/// below assert that only that worker (or a quiesced engine) touches
/// it.
class Simulator {
 public:
  Simulator() = default;
  ~Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current virtual time.
  TimePoint Now() const { return shard_.Now(); }

  /// Schedule `task` at absolute time `when` (clamped to Now()).
  /// Returns an id usable with Cancel().
  uint64_t At(TimePoint when, Task task) {
    assert(InOwningContext() &&
           "event scheduled on a shard from a foreign thread");
    return shard_.At(when, std::move(task));
  }

  /// Schedule `task` after `delay`.
  uint64_t After(Duration delay, Task task) {
    return At(Now() + delay, std::move(task));
  }

  bool Cancel(uint64_t id) {
    assert(InOwningContext());
    return shard_.Cancel(id);
  }

  void RunUntil(TimePoint until) {
    assert(InOwningContext());
    shard_.RunUntil(until);
  }

  void RunUntilIdle() {
    assert(InOwningContext());
    shard_.RunUntilIdle();
  }

  /// Register `hook` to run after every executed event, at that
  /// event's virtual time. Orchestrators use this to resume suspended
  /// handler fibers at the exact event that satisfied their wait (see
  /// sim::Fiber) — never earlier, never at some later unwind point.
  /// Hooks are per-shard: on the parallel engine each home's hook runs
  /// on the thread executing that home's shard.
  uint64_t AddPostEventHook(Task hook) {
    assert(InOwningContext());
    return shard_.AddPostEventHook(std::move(hook));
  }
  void RemovePostEventHook(uint64_t id) { shard_.RemovePostEventHook(id); }

  size_t pending_events() const { return shard_.pending_events(); }
  uint64_t executed_events() const { return shard_.executed_events(); }
  const SimAllocStats& alloc_stats() const { return shard_.alloc_stats(); }

  /// Earliest pending (non-cancelled) event time, if any. Skims
  /// tombstones off the heap top, so it needs the owning context.
  bool PeekNextTime(TimePoint* when) {
    assert(InOwningContext());
    return shard_.PeekNextTime(when);
  }

  /// True when the calling thread may touch this simulator: always for
  /// a standalone simulator; for an engine-owned shard, either the
  /// engine is quiesced (between epochs: deploy paths, barrier tasks,
  /// tests) or this very shard is the one the calling worker thread is
  /// executing. Debug-only guard — release builds compile it out.
  bool InOwningContext() const;

  /// Shard index within the owning parallel engine (0 standalone).
  int shard_id() const { return shard_id_; }

 private:
  friend class ParallelSimulator;

  SimulatorShard shard_;
  ParallelSimulator* engine_ = nullptr;  // set when owned by an engine
  int shard_id_ = 0;
};

}  // namespace vp::sim
