// Pipeline instrumentation.
//
// Records, per frame sequence number, the virtual-time trace of the
// frame through the pipeline (capture, per-module handler start/end,
// sink completion), plus source-side admission statistics. The
// benchmarks aggregate these into the paper's Fig. 6 (per-module
// latency) and Table 2 (end-to-end FPS) outputs.
//
// Trace memory is bounded: at most `trace_retention` per-frame traces
// are kept live. Older traces are folded into running aggregates
// (exact count/mean/min/max plus a seeded reservoir sample for
// percentiles) so long benches neither grow linearly nor lose their
// latency summaries.
#pragma once

#include <algorithm>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/time.hpp"

namespace vp::core {

struct StageSpan {
  TimePoint start;
  TimePoint end;
  Duration duration() const { return end - start; }
};

struct FrameTrace {
  uint64_t seq = 0;
  TimePoint capture;
  /// Module name → handler span (arrival-to-finish recorded per edge).
  std::map<std::string, StageSpan> stages;
  std::optional<TimePoint> completed;  // sink finished
};

struct LatencySummary {
  uint64_t count = 0;
  double mean_ms = 0;
  double min_ms = 0;
  double max_ms = 0;
  double p50_ms = 0;
  double p95_ms = 0;
  /// Tail percentile for the rollout latency gates and SLO reporting.
  /// From live samples when available; otherwise estimated from the
  /// RunningStat reservoir like the other percentiles.
  double p99_ms = 0;
};

LatencySummary Summarize(const std::vector<double>& samples_ms);

/// Running aggregate of samples whose raw values were discarded.
/// count/sum/min/max are exact; the bounded reservoir (Vitter's
/// algorithm R, seeded → deterministic) preserves the distribution for
/// percentile estimates.
struct RunningStat {
  uint64_t count = 0;
  double sum = 0;
  double min = 0;
  double max = 0;
  std::vector<double> reservoir;

  void Add(double value, Rng& rng, size_t reservoir_cap);
};

class PipelineMetrics {
 public:
  // -- recording (called by the runtime) ------------------------------
  void OnCaptured(uint64_t seq, TimePoint when);
  void OnStageStart(uint64_t seq, const std::string& module, TimePoint when);
  void OnStageEnd(uint64_t seq, const std::string& module, TimePoint when);
  void OnCompleted(uint64_t seq, TimePoint when);
  void OnSourceTick() { ++source_ticks_; }
  void OnSourceDrop() { ++source_drops_; }

  // -- recovery / fault-tolerance recording -----------------------------
  /// A service call attempt failed transiently and will be retried.
  void OnRetry() { ++retries_; }
  /// A service call attempt exceeded its per-attempt timeout.
  void OnCallTimeout() { ++call_timeouts_; }
  /// A frame was dropped after retry exhaustion; its credit returned.
  void OnFrameAbandoned() { ++frames_abandoned_; }
  /// The serving layer shed a request (deadline unmeetable or queue
  /// wait exceeded) instead of dispatching it.
  void OnRequestShed() { ++requests_shed_; }
  /// A service call completed, but past the frame's deadline.
  void OnDeadlineMiss() { ++deadline_misses_; }
  /// Accumulated downtime of the replicas serving this pipeline
  /// (refreshed by the orchestrator after each RunFor).
  void set_replica_downtime(Duration d) { replica_downtime_ = d; }

  // -- self-healing recording (device failures) -------------------------
  /// The failure detector confirmed a device hosting part of this
  /// pipeline as dead. `detection_ms` = confirmation − last heartbeat.
  void OnDeviceFailureDetected(double detection_ms) {
    ++device_failures_;
    last_detection_latency_ = detection_ms;
  }
  /// Recovery (re-placement + restore + relaunch) finished.
  /// `mttr_ms` = recovery done − last heartbeat from the dead device.
  void OnRecoveryComplete(double mttr_ms) {
    ++recoveries_;
    last_recovery_time_ = mttr_ms;
  }
  /// A frame died with the device (the in-flight admission slot).
  void OnFrameLostToFailure() { ++frames_lost_to_failure_; }
  /// A module resumed from a checkpoint `staleness_ms` old — the upper
  /// bound on the state rolled back by the failure.
  void OnCheckpointRestored(double staleness_ms) {
    ++checkpoints_restored_;
    last_checkpoint_staleness_ =
        std::max(last_checkpoint_staleness_, staleness_ms);
  }

  // -- partition tolerance recording ------------------------------------
  /// A message from a stale-epoch (zombie) runtime was fenced (dropped)
  /// at a receiver, or a zombie runtime was shut down at reconnect.
  void OnZombieFenced() { ++zombies_fenced_; }
  /// A stale-epoch message was accepted because fencing is disabled —
  /// the split-brain exposure the fence exists to close.
  void OnZombieServed() { ++zombies_served_; }
  /// The checkpoint store refused a checkpoint from an older placement
  /// epoch than the module's, or an older capture than the one held.
  void OnCheckpointRejectedStale() { ++checkpoints_rejected_stale_; }

  // -- retention --------------------------------------------------------
  /// Cap live per-frame traces; excess oldest traces fold into the
  /// running summaries. Must be ≥ the frames concurrently in flight
  /// (any small number is fine for a credit-paced pipeline).
  void set_trace_retention(size_t cap) { trace_retention_ = cap ? cap : 1; }
  size_t trace_retention() const { return trace_retention_; }
  uint64_t traces_evicted() const { return traces_evicted_; }

  // -- reporting --------------------------------------------------------
  uint64_t frames_captured() const { return captured_; }
  uint64_t frames_completed() const { return completed_; }
  uint64_t source_ticks() const { return source_ticks_; }
  uint64_t source_drops() const { return source_drops_; }
  uint64_t retries() const { return retries_; }
  uint64_t call_timeouts() const { return call_timeouts_; }
  uint64_t frames_abandoned() const { return frames_abandoned_; }
  uint64_t requests_shed() const { return requests_shed_; }
  uint64_t deadline_misses() const { return deadline_misses_; }
  double replica_downtime_ms() const { return replica_downtime_.millis(); }
  uint64_t device_failures() const { return device_failures_; }
  /// Last confirmed failure: confirmation − last heartbeat (ms).
  double detection_latency_ms() const { return last_detection_latency_; }
  uint64_t recoveries() const { return recoveries_; }
  /// Last recovery: done − last heartbeat (MTTR, ms).
  double recovery_time_ms() const { return last_recovery_time_; }
  uint64_t frames_lost_to_failure() const { return frames_lost_to_failure_; }
  uint64_t checkpoints_restored() const { return checkpoints_restored_; }
  /// Sink completions for a frame already completed (must stay 0 when
  /// the dedup window and epoch fences hold).
  uint64_t duplicate_completions() const { return duplicate_completions_; }
  uint64_t zombies_fenced() const { return zombies_fenced_; }
  uint64_t zombies_served() const { return zombies_served_; }
  uint64_t checkpoints_rejected_stale() const {
    return checkpoints_rejected_stale_;
  }
  /// Worst checkpoint age at restore across recoveries (ms); 0 when no
  /// checkpointed state was ever restored.
  double checkpoint_staleness_ms() const { return last_checkpoint_staleness_; }

  /// Completed-frame throughput between the first and last completion.
  double EndToEndFps() const;

  /// Handler latency of one module across completed frames.
  LatencySummary ModuleLatency(const std::string& module) const;

  /// Capture → first handler start of `module` (the paper's "Load
  /// Frame" when applied to the first processing module).
  LatencySummary CaptureToStageStart(const std::string& module) const;

  /// Capture → sink completion ("Total Duration").
  LatencySummary TotalLatency() const;

  /// Live (retained) traces only; evicted ones live in the summaries.
  const std::map<uint64_t, FrameTrace>& traces() const { return traces_; }

 private:
  /// Fold one evicted trace into the running aggregates.
  void FoldTrace(const FrameTrace& trace);

  /// Exact count/mean/min/max from `folded`+`live`; percentiles from
  /// the folded reservoir merged with the live samples.
  static LatencySummary MergedSummary(const RunningStat* folded,
                                      std::vector<double> live);

  static constexpr size_t kReservoirCap = 512;

  std::map<uint64_t, FrameTrace> traces_;
  size_t trace_retention_ = 8192;
  uint64_t traces_evicted_ = 0;
  Rng fold_rng_{0x5eed5eedULL};
  std::map<std::string, RunningStat> folded_module_latency_;
  std::map<std::string, RunningStat> folded_capture_to_start_;
  RunningStat folded_total_latency_;

  uint64_t captured_ = 0;
  uint64_t completed_ = 0;
  uint64_t source_ticks_ = 0;
  uint64_t source_drops_ = 0;
  uint64_t retries_ = 0;
  uint64_t call_timeouts_ = 0;
  uint64_t frames_abandoned_ = 0;
  uint64_t requests_shed_ = 0;
  uint64_t deadline_misses_ = 0;
  Duration replica_downtime_;
  uint64_t device_failures_ = 0;
  double last_detection_latency_ = 0;
  uint64_t recoveries_ = 0;
  double last_recovery_time_ = 0;
  uint64_t frames_lost_to_failure_ = 0;
  uint64_t checkpoints_restored_ = 0;
  double last_checkpoint_staleness_ = 0;
  uint64_t duplicate_completions_ = 0;
  uint64_t zombies_fenced_ = 0;
  uint64_t zombies_served_ = 0;
  uint64_t checkpoints_rejected_stale_ = 0;
  std::optional<TimePoint> first_completion_;
  std::optional<TimePoint> last_completion_;
};

}  // namespace vp::core
