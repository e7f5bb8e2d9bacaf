// Serving layer: a per-(device, service) request scheduler between
// callers and the replica group.
//
// The paper's scaling story (§2.2, §5.2.2, Table 2) is that stateless
// services are *shared* across pipelines — but a share-nothing dispatch
// path pays full per-invocation model setup for every frame of every
// pipeline. This subsystem is the inference-serving batcher for that
// sharing:
//
//  * micro-batching — frame-wise requests from all pipelines sharing a
//    service are coalesced (batch window + max batch size) into one
//    lane admission whose cost the service may amortize
//    (Service::BatchCost / ExecuteBatch);
//  * priority classes — pipelines declare interactive / normal /
//    background in their config; dispatch order is strict-priority
//    (with a starvation guard) or weighted-fair;
//  * deadline awareness — a request may carry the frame's admission
//    deadline; within a class the earliest deadline dispatches first
//    (EDF), and a request that cannot meet its deadline is shed with
//    kDeadlineExceeded (a real status code, catchable from vpscript)
//    instead of queuing forever.
//
// Scheduler queue stats (depth, queueing delay, batch occupancy, sheds)
// replace raw replica backlog as the autoscaler signal and feed the
// monitor + Chrome trace export.
#pragma once

#include <array>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/time.hpp"
#include "json/value.hpp"
#include "services/registry.hpp"
#include "sim/simulator.hpp"

namespace vp::serving {

/// Priority classes, best first: 0 interactive, 1 normal, 2 background.
inline constexpr int kNumPriorityClasses = 3;

/// "interactive" → 0, "normal" (or "") → 1, "background" → 2.
/// Unknown names map to normal.
int PriorityClassFromName(const std::string& name);
const char* PriorityClassName(int priority_class);

enum class SchedulingPolicy {
  /// Lower class always first; `starvation_grace` promotes requests
  /// that have waited too long.
  kStrictPriority,
  /// Dispatch slots in proportion to `class_weights` (stride-style).
  kWeightedFair,
};

struct SchedulerOptions {
  /// How long the oldest queued request may wait for company before
  /// the batch is flushed anyway.
  Duration batch_window = Duration::Millis(3);
  int max_batch_size = 8;
  SchedulingPolicy policy = SchedulingPolicy::kStrictPriority;
  /// Weighted-fair share per class {interactive, normal, background}.
  std::array<int, kNumPriorityClasses> class_weights = {4, 2, 1};
  /// Strict-priority starvation guard: a queued request older than
  /// this dispatches ahead of higher classes.
  Duration starvation_grace = Duration::Millis(250);
  /// Predictively shed on admission when the EWMA service-time model
  /// (smoothing factor 0.2) says the deadline cannot be met (in
  /// addition to shedding requests whose deadline already passed).
  bool predictive_shedding = true;
  /// Hard cap on queue residence: entries older than this fail with
  /// kUnavailable (retryable — the caller's PR 1 retry/abandon path
  /// takes over) so a dead replica group cannot grow the queue forever.
  Duration max_queue_wait = Duration::Seconds(2.0);
};

/// One request as submitted to the scheduler.
struct SchedulerRequest {
  services::ServiceRequest request;
  int priority_class = 1;
  /// Absolute deadline (typically frame capture + the pipeline's
  /// deadline_ms). nullopt = no deadline: never shed, FIFO within class.
  std::optional<TimePoint> deadline;
  /// Cost charged with the batch on top of the service's own (e.g. the
  /// decode of a remotely shipped frame).
  Duration extra_cost;
  std::function<void(Result<json::Value>)> done;
};

/// One dispatched batch, for trace export and tests.
struct BatchSpan {
  uint64_t id = 0;
  TimePoint enqueued;  // oldest member's submit time
  TimePoint dispatch;
  TimePoint complete;
  int size = 0;
  bool delivered = true;  // false: the replica swallowed the batch
  std::array<int, kNumPriorityClasses> per_class{};
  /// Model version the serving replica ran this batch on ("" for
  /// model-less services) — the rollout controller's live latency
  /// signal, and a trace annotation.
  std::string model_version;
};

struct SchedulerStats {
  uint64_t submitted = 0;
  /// Requests handed to a replica (inside some batch).
  uint64_t dispatched = 0;
  uint64_t batches = 0;
  /// Requests rejected with kDeadlineExceeded.
  uint64_t shed_deadline = 0;
  /// Requests evicted after max_queue_wait (failed kUnavailable).
  uint64_t shed_stale = 0;
  /// Batches a replica swallowed (wedge) — callers recover by timeout.
  uint64_t batches_swallowed = 0;
  std::array<uint64_t, kNumPriorityClasses> shed_per_class{};
  /// Batch size → count (the batch-size histogram).
  std::map<int, uint64_t> batch_size_histogram;
  /// EWMA per-request service time (ms), from the batch's lane start
  /// to its completion; 0 until the first completion.
  double ewma_service_ms = 0;
  Duration queue_delay_total;
  uint64_t queue_delay_samples = 0;

  double mean_queue_delay_ms() const {
    return queue_delay_samples == 0
               ? 0.0
               : queue_delay_total.millis() /
                     static_cast<double>(queue_delay_samples);
  }
  double mean_batch_occupancy() const {
    return batches == 0 ? 0.0
                        : static_cast<double>(dispatched) /
                              static_cast<double>(batches);
  }
};

class RequestScheduler {
 public:
  /// A replica that swallows a batch (wedged) sits out of scheduling
  /// for `suspect_duration`: the orchestrator passes its service-call
  /// circuit breaker (ServiceCallOptions::suspect_duration).
  RequestScheduler(sim::Simulator* simulator,
                   services::ServiceRegistry* registry, std::string device,
                   std::string service, SchedulerOptions options = {},
                   Duration suspect_duration = Duration::Seconds(1.0));

  /// Enqueue a request. The callback fires exactly once — with the
  /// service result, kDeadlineExceeded (shed), or kUnavailable (stale
  /// entry, or the replica died with the batch). Exception: a wedged
  /// replica swallows its batch and fires no callbacks — the caller's
  /// watchdog recovers.
  void Submit(SchedulerRequest request);

  /// The autoscaler's signal: (queued + in-flight) requests per
  /// available replica. Replaces raw lane backlog, which batching
  /// deliberately keeps near 1.
  double QueuePressure(TimePoint now) const;

  /// Fail every queued request (device death) with `error`.
  void FailAll(const Error& error);

  // -- model-rollout hooks ----------------------------------------------
  /// Take `replica` out of dispatch and fire `on_drained` once its
  /// outstanding batch (if any) completes — immediately when idle. The
  /// replica stays excluded until Release, which is the window where a
  /// model swap can happen with zero in-flight frames on the replica.
  /// A second Quiesce on the same replica replaces the callback.
  void Quiesce(services::ServiceInstance* replica,
               std::function<void()> on_drained);

  /// Re-admit a quiesced replica to dispatch and re-pump.
  void Release(services::ServiceInstance* replica);

  /// Route roughly `share` of dispatched batches to replicas running
  /// model `canary_version` (stride-style, deterministic), the rest to
  /// the other replicas. Either pool falls back to the other when it
  /// has no dispatchable replica — a split never stalls the queue.
  void SetTrafficSplit(const std::string& canary_version, double share);
  void ClearTrafficSplit();
  bool traffic_split_active() const { return split_active_; }
  const std::string& split_canary_version() const { return canary_version_; }

  /// Replicas currently held out of dispatch by Quiesce.
  size_t draining_count() const { return draining_.size(); }

  int queue_depth() const;
  int inflight_requests() const { return inflight_requests_; }
  const SchedulerStats& stats() const { return stats_; }
  const std::deque<BatchSpan>& spans() const { return spans_; }
  const std::string& device() const { return device_; }
  const std::string& service() const { return service_; }
  const SchedulerOptions& options() const { return options_; }

 private:
  struct Pending {
    SchedulerRequest request;
    TimePoint enqueued;
    uint64_t seq = 0;  // submission order, the deterministic tiebreak
  };

  /// Try to dispatch; arms the batch-window timer when the queue is
  /// non-empty but not yet worth flushing.
  void Pump();
  void ArmWindow(TimePoint oldest_enqueued);
  void Dispatch(services::ServiceInstance* replica, TimePoint now);
  /// Select the next request per policy (EDF within class); pops it.
  Pending PopNext(TimePoint now);
  int PickClass(TimePoint now) const;
  /// Shed queued requests whose deadline passed or whose queue
  /// residence exceeded max_queue_wait.
  void ShedExpired(TimePoint now);
  void Shed(Pending pending, bool stale, TimePoint now);
  /// Drop draining_ entries whose replica is no longer registered
  /// (retired while quiesced) — a retired replica can never be
  /// Released, and its stale entry would exclude whichever future
  /// replica reuses the address. Pending drain callbacks fire after
  /// iteration (a callback may Release→Pump→re-enter this purge).
  /// A retired replica still mid-batch keeps both entries until its
  /// completion callback fires: its drain must wait for zero in-flight
  /// frames, and InvokeBatch always completes eventually.
  void PurgeRetiredReplicas();
  services::ServiceInstance* PickReplica(TimePoint now) const;
  TimePoint OldestEnqueued() const;
  int TotalPending() const;

  sim::Simulator* simulator_;
  services::ServiceRegistry* registry_;
  std::string device_;
  std::string service_;
  SchedulerOptions options_;
  Duration suspect_duration_;

  std::array<std::deque<Pending>, kNumPriorityClasses> queues_;
  uint64_t submit_seq_ = 0;
  uint64_t window_timer_ = 0;
  bool window_armed_ = false;
  /// Replicas with an outstanding scheduler batch (≤1 per replica so
  /// queueing happens here, where batches can form, not on lanes).
  /// Value is the outstanding batch's id: the completion callback only
  /// erases when the id still matches, so a stale completion cannot
  /// evict the entry of a later replica that reused the address.
  std::map<services::ServiceInstance*, uint64_t> busy_replicas_;
  /// Quiesced replicas (excluded from PickReplica until Release). The
  /// callback fires once the replica's outstanding batch completes;
  /// the key stays until Release so the swap window stays closed.
  std::map<services::ServiceInstance*, std::function<void()>> draining_;
  /// Canary traffic split (SetTrafficSplit): stride counters make the
  /// share exact over any window, not probabilistic.
  bool split_active_ = false;
  std::string canary_version_;
  double canary_share_ = 0.0;
  uint64_t canary_batches_ = 0;
  uint64_t total_split_batches_ = 0;
  int inflight_requests_ = 0;
  /// Weighted-fair bookkeeping: dispatch slots served per class.
  std::array<uint64_t, kNumPriorityClasses> served_{};
  uint64_t next_batch_id_ = 1;
  SchedulerStats stats_;
  std::deque<BatchSpan> spans_;
};

}  // namespace vp::serving
