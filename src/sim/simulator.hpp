// Discrete-event simulation kernel.
//
// The entire VideoPipe runtime is driven by simulator events: module
// execution, service compute, network transfers and video-source ticks
// are all entries on a virtual-time queue. Ties are broken by
// insertion order, which makes every run bit-for-bit deterministic.
//
// `Simulator` is the one event loop: the event heap, the node pool,
// the clock and the post-event hooks. A single home runs on a
// standalone `Simulator`. A fleet runs on `ParallelSimulator`
// (sim/parallel.hpp), which owns one `Simulator` per shard and drives
// each shard's loop between barrier fences; a sequential fleet is its
// one-shard case. A `Simulator` has no knowledge of threads — the
// engine guarantees that only one thread touches a shard at a time,
// and the affinity asserts below check it in debug builds.
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

/// The event loop: heap + clock + hooks, single-threaded by contract.
/// Standalone, it runs one home. Owned by a ParallelSimulator, it is
/// one shard: the engine runs it on a worker thread between barrier
/// epochs, and the affinity checks assert that only that worker (or a
/// quiesced engine) touches it.
class Simulator {
 public:
  Simulator() = default;
  ~Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current virtual time.
  TimePoint Now() const { return now_; }

  /// Schedule `task` at absolute time `when` (clamped to Now()).
  /// Returns an id usable with Cancel().
  uint64_t At(TimePoint when, Task task);

  /// Schedule `task` after `delay`.
  uint64_t After(Duration delay, Task task) {
    return At(Now() + delay, std::move(task));
  }

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

  /// Register `hook` to run after every executed event, at that
  /// event's virtual time. Orchestrators use this to resume suspended
  /// handler fibers at the exact event that satisfied their wait (see
  /// sim::Fiber) — never earlier, never at some later unwind point.
  /// Hooks are per-shard: in a fleet each home's hook runs on the
  /// thread executing that home's shard.
  uint64_t AddPostEventHook(Task hook);
  void RemovePostEventHook(uint64_t id);

  size_t pending_events() const { return live_events_; }
  uint64_t executed_events() const { return executed_; }
  const SimAllocStats& alloc_stats() const { return alloc_stats_; }

  /// Earliest pending (non-cancelled) event time, if any. Skims
  /// tombstones off the heap top, so it needs the owning context.
  bool PeekNextTime(TimePoint* when) {
    assert(InOwningContext());
    return NextEventTime(when);
  }

  /// True when the calling thread may touch this simulator: always for
  /// a standalone simulator; for an engine-owned shard, either the
  /// engine is quiesced (between epochs: deploy paths, barrier tasks,
  /// tests) or this very shard is the one the calling worker thread is
  /// executing. Debug-only guard — release builds compile it out.
  bool InOwningContext() const;

 private:
  friend class ParallelSimulator;

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

  /// Advance the clock to `t` without running anything (never moves it
  /// backwards). The parallel engine aligns shard clocks to each
  /// barrier fence with this.
  void AdvanceTo(TimePoint t) {
    if (now_ < t) now_ = t;
  }

  bool NextEventTime(TimePoint* when);
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
  ParallelSimulator* engine_ = nullptr;  // set when owned by an engine
  int shard_id_ = 0;                     // index within engine_
};

}  // namespace vp::sim
