// Service autoscaler — the paper's future-work item, implemented
// (§7: "scale up services automatically based on workload"; §5.2.2:
// "It also implies that we should scale the services at this point,
// which is convenient in our design as the services are stateless").
//
// Periodically samples per-group load; when the average load per
// replica exceeds the high-water mark, launches another replica of the
// same service on the same device (if container cores remain). When it
// stays below the low-water mark for a sustained run of checks, an
// idle replica is gracefully retired (keeping at least one) so batched
// dispatch does not strand over-provisioned replicas.
//
// The load signal defaults to raw replica lane backlog; the serving
// layer plugs in a LoadProbe so scheduler queue pressure (queued +
// in-flight per available replica) drives scaling instead.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "services/registry.hpp"

namespace vp::services {

struct AutoscalerOptions {
  Duration check_interval = Duration::Millis(500);
  /// Scale up when average load per replica exceeds this.
  double backlog_high_water = 2.0;
  /// Scale down when average load per replica stays below this …
  double backlog_low_water = 0.1;
  /// … for this many consecutive checks (0 disables scale-down).
  int scale_down_grace_checks = 4;
  int max_replicas_per_group = 4;
};

struct ScaleEvent {
  TimePoint when;
  std::string device;
  std::string service;
  int replicas_after = 0;
  /// +1 for a scale-up, -1 for a scale-down.
  int direction = +1;
};

/// Optional override of the load signal for one (device, service)
/// group. Return nullopt to fall back to raw replica backlog.
using LoadProbe = std::function<std::optional<double>(
    const std::string& device, const std::string& service)>;

class Autoscaler {
 public:
  Autoscaler(sim::Cluster* cluster, ContainerRuntime* containers,
             ServiceRegistry* registry, AutoscalerOptions options = {});

  /// Begin periodic checks (schedules itself on the simulator).
  void Start();
  void Stop() { running_ = false; }

  /// Watch a (device, service) group for scaling.
  void Watch(const std::string& device, const std::string& service);

  /// Replace the load signal (e.g. serving scheduler queue pressure).
  void set_load_probe(LoadProbe probe) { load_probe_ = std::move(probe); }

  const std::vector<ScaleEvent>& events() const { return events_; }

 private:
  void Check();

  sim::Cluster* cluster_;
  ContainerRuntime* containers_;
  ServiceRegistry* registry_;
  AutoscalerOptions options_;
  std::vector<std::pair<std::string, std::string>> watched_;
  std::vector<ScaleEvent> events_;
  LoadProbe load_probe_;
  /// Consecutive below-low-water checks per watched group.
  std::map<std::pair<std::string, std::string>, int> idle_checks_;
  bool running_ = false;
};

}  // namespace vp::services
