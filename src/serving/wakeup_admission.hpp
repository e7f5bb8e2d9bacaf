// Burst wakeup admission control for hibernated pipelines.
//
// Scale-to-zero makes thundering herds structural: at fleet scale a
// shared trigger (morning alarm, power restoration, a pushed model)
// wakes hundreds of hibernated pipelines in the same instant, and an
// uncontrolled rehydration storm would saturate every device lane at
// once. This queue reuses the serving layer's priority classes
// (request_scheduler.hpp) for wakes instead of frames:
//
//  * strict priority across classes — interactive pipelines (fall
//    detection) always wake before batch/background ones;
//  * EDF within a class — earliest wake deadline first, FIFO tiebreak;
//  * bounded concurrency — at most `total_concurrency` rehydrations in
//    flight, with a per-class cap so one class cannot monopolize the
//    window;
//  * deadline shedding — a queued wake whose deadline passed is
//    dropped back to hibernation (retried by the next trigger) instead
//    of waking uselessly late. Interactive wakes are NEVER shed: a
//    fall-detection pipeline waking late still beats not waking.
//
// Everything is driven by simulator events, so a 100-pipeline burst is
// deterministic per seed, standalone or in a fleet at any shard count.
#pragma once

#include <array>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/time.hpp"
#include "serving/request_scheduler.hpp"
#include "sim/simulator.hpp"

namespace vp::serving {

struct WakeupAdmissionOptions {
  /// Rehydrations in flight at once, across all classes.
  int total_concurrency = 8;
  /// Per-class cap {interactive, normal, background}.
  std::array<int, kNumPriorityClasses> class_concurrency = {8, 4, 2};
  /// Virtual-time cost charged per wake before the rehydration runs —
  /// models context bring-up / checkpoint fetch on the control plane.
  Duration wake_cost = Duration::Millis(25);
};

struct WakeupStats {
  uint64_t submitted = 0;
  uint64_t completed = 0;
  /// Wakes whose WakeFn returned an error (e.g. target device down).
  uint64_t failed = 0;
  std::array<uint64_t, kNumPriorityClasses> admitted_per_class = {};
  std::array<uint64_t, kNumPriorityClasses> shed_per_class = {};
  uint64_t shed_deadline = 0;
  int peak_inflight = 0;
  /// Submit → wake-complete latency (virtual ms) per completed wake —
  /// the burst p95 the coldstart bench reports.
  std::vector<double> wake_latency_ms;
};

class WakeupAdmission {
 public:
  /// Performs the actual rehydration; returns its status.
  using WakeFn = std::function<Status()>;
  /// Observes terminal outcomes (completed / failed / shed).
  using DoneFn = std::function<void(const Status&)>;

  WakeupAdmission(sim::Simulator* sim, WakeupAdmissionOptions options = {});

  /// Enqueue a wake for `name` (diagnostic label). Dispatch happens on
  /// simulator events as slots free up.
  void Submit(std::string name, int priority_class, TimePoint deadline,
              WakeFn wake, DoneFn done = nullptr);

  size_t queue_depth() const;
  int inflight() const { return inflight_total_; }
  const WakeupStats& stats() const { return stats_; }
  /// p95 of wake_latency_ms (0 when no wake completed).
  double WakeLatencyP95Ms() const;

 private:
  struct Pending {
    std::string name;
    int priority_class;
    TimePoint deadline;
    TimePoint submitted;
    uint64_t seq;  // FIFO tiebreak within (class, deadline)
    WakeFn wake;
    DoneFn done;
  };

  /// Dispatch as many queued wakes as the concurrency caps allow.
  void Pump();
  void Dispatch(Pending pending);

  sim::Simulator* sim_;
  WakeupAdmissionOptions options_;
  std::array<std::deque<Pending>, kNumPriorityClasses> queues_;
  std::array<int, kNumPriorityClasses> inflight_per_class_ = {};
  int inflight_total_ = 0;
  uint64_t next_seq_ = 0;
  bool pump_scheduled_ = false;
  WakeupStats stats_;
};

}  // namespace vp::serving
