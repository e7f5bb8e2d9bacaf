// Every read of a layer's public counters lives in this file. The rest
// of the benchmark sees plain numbers, so renaming a stats accessor in
// src/ needs a change here and nowhere else in the benchmark.
#pragma once

#include <cstdint>
#include <vector>

#include "core/invariants.hpp"
#include "core/metrics.hpp"
#include "core/module_runtime.hpp"
#include "core/orchestrator.hpp"
#include "fleet/fleet.hpp"
#include "lifecycle/hibernation.hpp"
#include "script/program_cache.hpp"
#include "services/container.hpp"
#include "serving/request_scheduler.hpp"
#include "sim/network.hpp"
#include "workloads.hpp"

namespace vp::e2e::probes {

// ---- Per-object counters the event attribution polls after every
// simulator event. Each is the first public counter its layer advances
// when it does work.

inline uint64_t CaptureTicks(const core::PipelineMetrics& metrics) {
  return metrics.source_ticks();
}
inline uint64_t ScriptEvents(const core::ModuleRuntime& module) {
  return module.stats().events;
}
inline uint64_t ScriptErrors(const core::ModuleRuntime& module) {
  return module.stats().script_errors;
}
inline uint64_t ScriptServiceCalls(const core::ModuleRuntime& module) {
  return module.stats().service_calls;
}
inline uint64_t ServiceRequests(const services::ServiceInstance& replica) {
  return replica.stats().requests;
}
inline uint64_t ServingBatches(const serving::RequestScheduler& scheduler) {
  return scheduler.stats().batches;
}
inline uint64_t NetMessages(const sim::Network& network) {
  return network.stats().messages;
}
inline uint64_t LifecycleTransitions(const core::Orchestrator& orchestrator) {
  return orchestrator.hibernations() + orchestrator.wakes();
}

// ---- Object enumeration for the attribution's pointer lists.

inline std::vector<const core::PipelineMetrics*> Cameras(
    const core::Orchestrator& orchestrator) {
  std::vector<const core::PipelineMetrics*> out;
  for (const auto& pipeline : orchestrator.pipelines()) {
    out.push_back(&pipeline->metrics());
  }
  return out;
}
/// Live module runtimes. Retired ones are dropped: they stop counting
/// once retired and are freed after the drain window.
inline std::vector<const core::ModuleRuntime*> Modules(
    const core::Orchestrator& orchestrator) {
  std::vector<const core::ModuleRuntime*> out;
  for (const auto& pipeline : orchestrator.pipelines()) {
    for (const auto& module : pipeline->modules()) out.push_back(module.get());
  }
  return out;
}
inline std::vector<const services::ServiceInstance*> Replicas(
    core::Orchestrator& orchestrator) {
  std::vector<const services::ServiceInstance*> out;
  for (services::ServiceInstance* replica :
       orchestrator.registry().AllReplicas()) {
    out.push_back(replica);
  }
  return out;
}
inline std::vector<const serving::RequestScheduler*> Schedulers(
    const core::Orchestrator& orchestrator) {
  std::vector<const serving::RequestScheduler*> out;
  for (const auto& [key, scheduler] : orchestrator.schedulers()) {
    out.push_back(scheduler.get());
  }
  return out;
}
inline const sim::Network& Network(core::Orchestrator& orchestrator) {
  return orchestrator.cluster().network();
}

// ---- Cumulative counters over a whole episode, read at the start and
// the end of the timed window; metrics use the difference.

#define VP_E2E_COUNTERS(X)                                               \
  /* core */ X(source_ticks) X(source_drops) X(captured) X(abandoned)   \
  X(requests_shed) X(lost) X(credit_timeouts)                            \
  /* services */ X(service_requests) X(service_errors) X(service_busy_ms) \
  X(pose_requests) X(pose_busy_ms)                                       \
  /* serving */ X(batches) X(dispatched) X(serving_shed)                 \
  X(queue_delay_ms) X(queue_delay_samples)                               \
  /* net */ X(net_messages) X(net_bytes) X(net_dropped)                  \
  /* sim */ X(events) X(node_allocs) X(pool_reuses) X(segments)          \
  /* lifecycle */ X(pool_hits) X(pool_misses) X(wakes_completed)         \
  X(wakes_shed) X(wakes_failed) X(interactive_wakes_shed)                \
  /* fleet */ X(cloud_jobs)

struct Counters {
#define VP_E2E_FIELD(name) double name = 0;
  VP_E2E_COUNTERS(VP_E2E_FIELD)
#undef VP_E2E_FIELD
};

inline Counters operator-(const Counters& a, const Counters& b) {
  Counters d;
#define VP_E2E_SUB(name) d.name = a.name - b.name;
  VP_E2E_COUNTERS(VP_E2E_SUB)
#undef VP_E2E_SUB
  return d;
}

inline Counters ReadCounters(Episode& episode) {
  Counters c;
  auto n = [](uint64_t v) { return static_cast<double>(v); };
  for (const PipelineView& view : episode.pipelines()) {
    core::PipelineDeployment& pipeline = *view.pipeline;
    const core::PipelineMetrics& m = pipeline.metrics();
    c.source_ticks += n(m.source_ticks());
    c.source_drops += n(m.source_drops());
    c.captured += n(m.frames_captured());
    c.abandoned += n(m.frames_abandoned());
    c.requests_shed += n(m.requests_shed());
    c.lost += n(m.frames_lost_to_failure());
    c.credit_timeouts += n(pipeline.camera().credit_timeouts());
  }
  for (const HomeView& home : episode.homes()) {
    core::Orchestrator& orchestrator = *home.orchestrator;
    for (services::ServiceInstance* replica :
         orchestrator.registry().AllReplicas()) {
      const services::ServiceInstanceStats& s = replica->stats();
      c.service_requests += n(s.requests);
      c.service_errors += n(s.errors);
      c.service_busy_ms += s.busy.millis();
      if (replica->service_name() == "pose_detector") {
        c.pose_requests += n(s.requests);
        c.pose_busy_ms += s.busy.millis();
      }
    }
    for (const auto& [key, scheduler] : orchestrator.schedulers()) {
      const serving::SchedulerStats& s = scheduler->stats();
      c.batches += n(s.batches);
      c.dispatched += n(s.dispatched);
      c.serving_shed += n(s.shed_deadline + s.shed_stale);
      c.queue_delay_ms += s.queue_delay_total.millis();
      c.queue_delay_samples += n(s.queue_delay_samples);
    }
    const sim::NetworkStats& net = Network(orchestrator).stats();
    c.net_messages += n(net.messages);
    c.net_bytes += n(net.bytes);
    c.net_dropped += n(net.device_drops + net.partition_drops +
                       orchestrator.fabric().dropped_messages());
  }
  if (fleet::Fleet* fleet = episode.fleet()) {
    c.events = n(fleet->executed_events());
    const sim::SimAllocStats alloc = fleet->alloc_stats();
    c.node_allocs = n(alloc.node_allocs);
    c.pool_reuses = n(alloc.pool_reuses);
    if (fleet->parallel_engine()) {
      c.segments = n(fleet->parallel_engine()->segments());
    }
    if (fleet->cloud()) c.cloud_jobs = n(fleet->cloud()->served_total());
  } else {
    const sim::Simulator& simulator = *episode.homes().front().simulator;
    c.events = n(simulator.executed_events());
    c.node_allocs = n(simulator.alloc_stats().node_allocs);
    c.pool_reuses = n(simulator.alloc_stats().pool_reuses);
  }
  if (lifecycle::HibernationManager* manager = episode.lifecycle()) {
    const lifecycle::ContextPoolStats pool = manager->pool().stats();
    c.pool_hits = n(pool.hits);
    c.pool_misses = n(pool.misses);
    const serving::WakeupStats& admission = manager->admission().stats();
    c.wakes_completed = n(admission.completed);
    for (uint64_t shed : admission.shed_per_class) c.wakes_shed += n(shed);
    c.interactive_wakes_shed = n(admission.shed_per_class[0]);
    c.wakes_failed = n(admission.failed);
  }
  return c;
}

/// The process-wide program cache's (hits, misses) so far.
struct ProgramCacheCounts {
  double hits = 0;
  double misses = 0;
};
inline ProgramCacheCounts ReadProgramCache() {
  const script::ProgramCacheStats stats =
      script::ProgramCache::Global().stats();
  return {static_cast<double>(stats.hits), static_cast<double>(stats.misses)};
}

/// Runtime-invariant violations (credit conservation, single lineage,
/// no duplicate completions, no zombie-served frames) found by one
/// sweep over every home now.
inline uint64_t InvariantViolations(Episode& episode) {
  uint64_t violations = 0;
  for (const HomeView& home : episode.homes()) {
    core::InvariantChecker checker(home.orchestrator);
    checker.CheckNow();
    violations += checker.total_violations();
  }
  return violations;
}

// ---- End-of-window readings.

/// Frames of `pipeline` that completed at or after `since`, as
/// (capture, completion, summed handler time) in virtual time.
struct FrameRecord {
  uint64_t seq = 0;
  TimePoint capture;
  TimePoint completed;
  /// Capture → start of the first module handler.
  Duration load;
  /// Sum of every module handler span.
  Duration handlers;
};
inline std::vector<FrameRecord> CompletedFrames(
    const core::PipelineDeployment& pipeline, TimePoint since) {
  std::vector<FrameRecord> out;
  for (const auto& [seq, trace] : pipeline.metrics().traces()) {
    if (!trace.completed || *trace.completed < since) continue;
    FrameRecord record{seq, trace.capture, *trace.completed, {}, {}};
    bool first = true;
    TimePoint first_start;
    for (const auto& [module, span] : trace.stages) {
      record.handlers = record.handlers + span.duration();
      if (first || span.start < first_start) first_start = span.start;
      first = false;
    }
    record.load = first ? Duration::Zero() : first_start - trace.capture;
    out.push_back(record);
  }
  return out;
}

/// Sequence numbers `pipeline` admitted at or after `since`.
inline std::vector<uint64_t> AdmittedSeqs(
    const core::PipelineDeployment& pipeline, TimePoint since) {
  std::vector<uint64_t> out;
  for (const auto& [seq, trace] : pipeline.metrics().traces()) {
    if (trace.capture >= since) out.push_back(seq);
  }
  return out;
}

/// Submit → done latency of every completed wake, in virtual ms.
inline std::vector<double> WakeLatenciesMs(Episode& episode) {
  lifecycle::HibernationManager* manager = episode.lifecycle();
  if (manager == nullptr) return {};
  return manager->admission().stats().wake_latency_ms;
}

inline int AdmissionPeakInflight(Episode& episode) {
  lifecycle::HibernationManager* manager = episode.lifecycle();
  return manager ? manager->admission().stats().peak_inflight : 0;
}

inline double FrameStoreBytes(Episode& episode) {
  double bytes = 0;
  for (const HomeView& home : episode.homes()) {
    for (const sim::Device* device : home.orchestrator->cluster().devices()) {
      bytes += static_cast<double>(
          home.orchestrator->store(device->name()).resident_bytes());
    }
  }
  return bytes;
}

inline double ScriptResidentBytes(Episode& episode) {
  double bytes = 0;
  for (const PipelineView& view : episode.pipelines()) {
    bytes += static_cast<double>(
        lifecycle::HibernationManager::ResidentScriptBytes(*view.pipeline));
  }
  return bytes;
}

inline int PoseReplicas(Episode& episode) {
  int replicas = 0;
  for (const HomeView& home : episode.homes()) {
    for (services::ServiceInstance* replica :
         home.orchestrator->registry().AllReplicas()) {
      if (replica->service_name() == "pose_detector") ++replicas;
    }
  }
  return replicas;
}

inline size_t FallAlerts(const Episode& episode) {
  return episode.alert_log() ? episode.alert_log()->alerts().size() : 0;
}

}  // namespace vp::e2e::probes
