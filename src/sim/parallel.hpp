// Sharded discrete-event engine with conservative synchronization.
//
// `ParallelSimulator` owns N `Simulator` shards and runs them on a
// worker-thread pool. Event sources are partitioned across shards
// (the fleet layer maps each home to a fixed shard); shards interact
// only through explicitly cross-shard messages, which in VideoPipe
// means cloud links — the sole inter-home edges. Every fleet runs on
// this engine: a sequential fleet is one shard run on the calling
// thread.
//
// Execution alternates between *segments* (epochs) and *barriers*:
//
//   barrier:  drain mailboxes, run due barrier tasks, pick the next
//             fence = min(until, next barrier task,
//                         earliest pending event + lookahead)
//   segment:  every shard runs its own heap up to the fence,
//             inclusively, in parallel — no locks on the hot path
//
// The lookahead window is the minimum cross-shard link latency: a
// message posted by an event at time t arrives at t + latency ≥ fence,
// so delivering all cross-shard messages at the next barrier can never
// deliver one into a shard's past. That is the classic conservative
// (CMB-style) argument, with the fleet topology collapsing it to a
// single global window.
//
// Determinism contract (see docs/sim.md):
//  * Results do not depend on the partition: the fence sequence is a
//    function of event times, barrier deadlines and the lookahead, not
//    of the shard count, and a home only ever sees its own events plus
//    barrier-delivered cloud messages whose virtual arrival times are
//    partition-independent. One shard is the reference every other
//    shard count reproduces.
//  * Execution is bit-identical for a given seed at ANY thread count,
//    including 1: the shard count, the fence sequence and the mailbox
//    drain order ((time, src_shard, seq), with destination-side seq
//    assigned in drain order) do not depend on threads; worker threads
//    only decide *which core* runs a shard's segment, never the order
//    of events inside it.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "sim/simulator.hpp"

namespace vp::sim {

struct ParallelOptions {
  /// Number of shards (independent event loops). Fixed per run —
  /// changing it changes the partition, not the per-home results.
  int shards = 8;
  /// Worker threads. 0 = hardware concurrency; always clamped to
  /// [1, shards]. Thread count never affects results.
  int threads = 0;
  /// Conservative lookahead window: must be ≤ the minimum latency of
  /// any cross-shard link. Larger windows mean fewer barriers.
  Duration lookahead = Duration::Millis(20);
};

class ParallelSimulator {
 public:
  explicit ParallelSimulator(ParallelOptions options = {});
  ~ParallelSimulator();
  ParallelSimulator(const ParallelSimulator&) = delete;
  ParallelSimulator& operator=(const ParallelSimulator&) = delete;

  int shards() const { return static_cast<int>(shards_.size()); }
  int threads() const { return threads_; }
  Duration lookahead() const { return options_.lookahead; }

  Simulator& shard(int i) { return *shards_[static_cast<size_t>(i)]; }
  const Simulator& shard(int i) const {
    return *shards_[static_cast<size_t>(i)];
  }

  /// Engine virtual time: the current barrier fence. Individual shard
  /// clocks are ≥ this between epochs.
  TimePoint Now() const { return fence_; }

  /// Cross-shard send: schedule `task` on `dst_shard` at `when`.
  /// Callable from a shard event during a segment (the source shard is
  /// inferred from the running thread) or from quiesced code (tests,
  /// barrier tasks), which uses a dedicated external source row.
  /// `when` must be ≥ the end of the current segment — i.e. the
  /// virtual send time plus at least the lookahead window.
  void Post(int dst_shard, TimePoint when, Task task);

  /// Run `task` on the coordinator thread at the first barrier whose
  /// fence is ≥ `when`, with every shard quiesced — safe to read or
  /// mutate any shard. Fences stop exactly at pending barrier-task
  /// times, and all shard events with time ≤ the fence execute before
  /// the task runs. The fleet controller's ticks run here. One-shot:
  /// re-register to repeat. Returns an id for CancelBarrier().
  uint64_t AtBarrier(TimePoint when, Task task);
  bool CancelBarrier(uint64_t id);

  /// Advance all shards to `until` (inclusive, like
  /// Simulator::RunUntil) through as many segment/barrier rounds as
  /// needed.
  void RunUntil(TimePoint until);
  void RunFor(Duration d) { RunUntil(fence_ + d); }

  /// Drain every shard and mailbox completely.
  void RunUntilIdle();

  /// True while worker threads are executing a segment. Quiesced-only
  /// operations (Post from outside, AtBarrier, shard access from the
  /// coordinator) assert on this.
  bool in_epoch() const { return in_epoch_.load(std::memory_order_relaxed); }

  /// Aggregates across shards. executed_events() counts each barrier
  /// task run as one event.
  uint64_t executed_events() const;
  size_t pending_events() const;  // shard heaps + undelivered mail
  SimAllocStats alloc_stats() const;
  /// Segments executed so far — the synchronization-overhead metric.
  uint64_t segments() const { return segments_; }

 private:
  struct Mail {
    TimePoint when;
    uint64_t seq;  // FIFO order within one (src,dst) row
    Task task;
  };
  struct BarrierTask {
    TimePoint when;
    uint64_t id;
    Task task;
  };

  size_t RowIndex(int src, int dst) const {
    return static_cast<size_t>(src) * shards_.size() +
           static_cast<size_t>(dst);
  }
  void DrainMailboxes();
  void RunBarrierTasksDue();
  bool EarliestShardEvent(TimePoint* when);
  bool NextBarrierTime(TimePoint* when) const;
  void ExecuteSegment(TimePoint seg_end);
  void WorkerMain();

  ParallelOptions options_;
  int threads_ = 1;
  std::vector<std::unique_ptr<Simulator>> shards_;
  TimePoint fence_;
  uint64_t segments_ = 0;

  // Mailbox rows indexed [src][dst] with src ∈ [0, shards] — row
  // `shards` is the external/quiesced source. During a segment each
  // row is appended to by exactly one thread (its source shard's
  // worker); the coordinator drains all rows at barriers.
  std::vector<std::vector<Mail>> mail_;
  std::vector<uint64_t> mail_seq_;

  std::vector<BarrierTask> barrier_tasks_;
  uint64_t next_barrier_id_ = 1;
  uint64_t barrier_tasks_run_ = 0;

  // Worker pool. Coordinator publishes an epoch (generation + fence)
  // under mu_; workers claim shards one at a time under mu_ with a
  // generation check (so a worker that overslept an epoch boundary can
  // never claim into the next epoch), run the claimed shard lock-free,
  // and report completion under mu_. All shard state handed between
  // threads is ordered through mu_.
  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  uint64_t epoch_gen_ = 0;       // guarded by mu_
  TimePoint epoch_end_;          // guarded by mu_
  int shards_remaining_ = 0;     // guarded by mu_
  int next_shard_ = 0;           // guarded by mu_
  bool shutdown_ = false;        // guarded by mu_
  std::atomic<bool> in_epoch_{false};
};

}  // namespace vp::sim
