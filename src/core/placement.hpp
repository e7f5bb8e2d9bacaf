// Placement: deciding which device runs each module and where the
// containerized services live.
//
// Two built-in policies reproduce the paper's comparison:
//   * kCoLocate  — VideoPipe (Fig. 4): modules are placed on the
//     device hosting the services they call; source/sink honor device
//     capabilities (camera, display). "modules are deployed in a way
//     that they are co-located with the corresponding services" §5.1.
//   * kSingleDevice — the EdgeEye-inspired baseline (Fig. 5): every
//     module stays on the source device; all service calls go to a
//     remote server over the network.
//   * kLatencyAware — the paper's future-work "scheduling" component:
//     each service is hosted on the container device minimizing
//     estimated per-call cost (compute at that device's speed + frame
//     transfer from the source); modules co-locate as usual.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "core/config.hpp"
#include "sim/cluster.hpp"

namespace vp::core {

enum class PlacementPolicy { kCoLocate, kSingleDevice, kLatencyAware };

/// Reference per-call compute cost (ms) used by the latency-aware
/// planner's estimates; falls back to 10 ms for unknown services.
double ServiceCostHintMs(const std::string& service);

/// Whether calls to this service ship a frame (so cross-device hosting
/// pays a per-call transfer).
bool ServiceTakesFrames(const std::string& service);

const char* PlacementPolicyName(PlacementPolicy policy);

struct DeploymentPlan {
  /// module name → device name.
  std::map<std::string, std::string> module_device;
  /// service name → device name hosting its replica(s).
  std::map<std::string, std::string> service_device;
  /// Services launched natively (outside containers) — e.g. "display"
  /// on the TV panel.
  std::vector<std::string> native_services;

  bool IsNative(const std::string& service) const;
  std::string ToString() const;
};

struct PlacementOptions {
  PlacementPolicy policy = PlacementPolicy::kCoLocate;
  /// Baseline: the remote server hosting all services (default: the
  /// fastest container-capable device).
  std::string server_device;
};

/// Compute a deployment plan. Honors explicit `device` pins in the
/// spec; errors when constraints are unsatisfiable (no camera device,
/// no container device, pinned device unknown…).
Result<DeploymentPlan> PlanDeployment(const PipelineSpec& spec,
                                      sim::Cluster& cluster,
                                      const PlacementOptions& options = {});

}  // namespace vp::core
