#include "core/placement.hpp"

#include <algorithm>

#include "common/strings.hpp"

namespace vp::core {

const char* PlacementPolicyName(PlacementPolicy policy) {
  switch (policy) {
    case PlacementPolicy::kCoLocate: return "co-locate (VideoPipe)";
    case PlacementPolicy::kSingleDevice: return "single-device (baseline)";
    case PlacementPolicy::kLatencyAware: return "latency-aware (scheduler)";
  }
  return "?";
}

double ServiceCostHintMs(const std::string& service) {
  if (service == "pose_detector") return 55.0;
  if (service == "object_detector") return 25.0;
  if (service == "face_detector") return 20.0;
  if (service == "image_classifier") return 9.0;
  if (service == "activity_classifier") return 7.0;
  if (service == "rep_counter") return 3.5;
  if (service == "object_tracker") return 2.0;
  if (service == "fall_detector") return 1.5;
  if (service == "display") return 2.5;
  return 10.0;
}

bool ServiceTakesFrames(const std::string& service) {
  return service == "pose_detector" || service == "object_detector" ||
         service == "face_detector" || service == "image_classifier" ||
         service == "object_tracker" || service == "display";
}

bool DeploymentPlan::IsNative(const std::string& service) const {
  return std::find(native_services.begin(), native_services.end(), service) !=
         native_services.end();
}

std::string DeploymentPlan::ToString() const {
  std::string out = "modules:";
  for (const auto& [m, d] : module_device) {
    out += " " + m + "→" + d;
  }
  out += " | services:";
  for (const auto& [s, d] : service_device) {
    out += " " + s + "@" + d + (IsNative(s) ? "(native)" : "");
  }
  return out;
}

namespace {

/// The fastest *live* container-capable device (deterministic
/// tie-break by insertion order). Down devices never receive new
/// placements — this is what lets recovery re-plan around a crash.
sim::Device* BestContainerDevice(sim::Cluster& cluster) {
  sim::Device* best = nullptr;
  for (sim::Device* device : cluster.container_devices()) {
    if (!device->up()) continue;
    if (best == nullptr || device->spec().cpu_speed > best->spec().cpu_speed) {
      best = device;
    }
  }
  return best;
}

sim::Device* DeviceWithCapability(sim::Cluster& cluster,
                                  const std::string& capability) {
  for (sim::Device* device : cluster.devices()) {
    if (!device->up()) continue;
    if (device->spec().HasCapability(capability)) return device;
  }
  return nullptr;
}

}  // namespace

Result<DeploymentPlan> PlanDeployment(const PipelineSpec& spec,
                                      sim::Cluster& cluster,
                                      const PlacementOptions& options) {
  VP_RETURN_IF_ERROR_R(ValidatePipelineSpec(spec));
  DeploymentPlan plan;

  // ---- Source device: camera-capable (or pinned). --------------------
  const ModuleSpec* source = spec.FindModule(spec.source.module);
  std::string source_device;
  if (!source->device.empty()) {
    sim::Device* pinned = cluster.FindDevice(source->device);
    if (pinned == nullptr) {
      return NotFound("pinned device '" + source->device + "' not in cluster");
    }
    if (!pinned->up()) {
      return FailedPrecondition("pinned device '" + source->device +
                                "' is down");
    }
    source_device = source->device;
  } else if (sim::Device* camera = DeviceWithCapability(cluster, "camera")) {
    source_device = camera->name();
  } else {
    return FailedPrecondition("no camera-capable device in the cluster");
  }
  plan.module_device[source->name] = source_device;

  // ---- Service hosts. --------------------------------------------------
  std::string server = options.server_device;
  if (server.empty()) {
    sim::Device* best = BestContainerDevice(cluster);
    if (best == nullptr) {
      return FailedPrecondition("no container-capable device in the cluster");
    }
    server = best->name();
  } else {
    sim::Device* pinned = cluster.FindDevice(server);
    if (pinned == nullptr) {
      return NotFound("server device '" + server + "' not in cluster");
    }
    if (!pinned->up()) {
      return FailedPrecondition("server device '" + server + "' is down");
    }
  }

  // Collect every service any module calls.
  std::vector<std::string> all_services;
  for (const ModuleSpec& m : spec.modules) {
    for (const std::string& s : m.services) {
      if (std::find(all_services.begin(), all_services.end(), s) ==
          all_services.end()) {
        all_services.push_back(s);
      }
    }
  }

  for (const std::string& service : all_services) {
    // The display service binds to the device with the "display"
    // capability (the TV) and runs natively there, except under the
    // baseline, which (Fig. 5) hosts *all* services on the remote
    // server.
    if (service == "display" &&
        options.policy != PlacementPolicy::kSingleDevice) {
      if (sim::Device* device = DeviceWithCapability(cluster, "display")) {
        plan.service_device[service] = device->name();
        plan.native_services.push_back(service);
        continue;
      }
    }

    if (options.policy == PlacementPolicy::kLatencyAware) {
      continue;  // decided by the chain walk below
    }
    plan.service_device[service] = server;
  }

  if (options.policy == PlacementPolicy::kLatencyAware) {
    // Chain-aware greedy scheduling: walk the modules in declaration
    // order (configs list the pipeline in flow order) and, for each
    // module's services, pick the container device minimizing
    //   Σ service compute at that device's speed
    //   + the hop from the previous stage's device (a full frame for
    //     frame-taking services, a small message otherwise).
    std::string previous_device = source_device;
    for (const ModuleSpec& m : spec.modules) {
      if (m.services.empty()) continue;
      // Already-pinned services (capability-bound, e.g. display) fix
      // this module's stage device.
      std::string pinned;
      for (const std::string& service : m.services) {
        if (auto it = plan.service_device.find(service);
            it != plan.service_device.end()) {
          pinned = it->second;
        }
      }
      if (!pinned.empty()) {
        for (const std::string& service : m.services) {
          plan.service_device.emplace(service, pinned);
        }
        previous_device = pinned;
        continue;
      }

      bool takes_frames = false;
      double compute_hint = 0;
      for (const std::string& service : m.services) {
        takes_frames |= ServiceTakesFrames(service);
        compute_hint += ServiceCostHintMs(service);
      }
      const size_t hop_bytes = takes_frames ? 20000 : 4000;

      sim::Device* best = nullptr;
      double best_cost = 0;
      for (sim::Device* candidate : cluster.container_devices()) {
        if (!candidate->up()) continue;
        double cost_ms = compute_hint / candidate->spec().cpu_speed;
        if (candidate->name() != previous_device) {
          cost_ms += cluster.network()
                         .EstimateDelay(previous_device, candidate->name(),
                                        hop_bytes)
                         .millis();
        }
        if (best == nullptr || cost_ms < best_cost) {
          best = candidate;
          best_cost = cost_ms;
        }
      }
      if (best == nullptr) {
        return FailedPrecondition("no container-capable device");
      }
      for (const std::string& service : m.services) {
        plan.service_device.emplace(service, best->name());
      }
      previous_device = best->name();
    }
  }

  // ---- Module placement. ---------------------------------------------
  for (const ModuleSpec& m : spec.modules) {
    if (m.name == source->name) continue;
    if (!m.device.empty()) {
      sim::Device* pinned = cluster.FindDevice(m.device);
      if (pinned == nullptr) {
        return NotFound("pinned device '" + m.device + "' not in cluster");
      }
      if (!pinned->up()) {
        return FailedPrecondition("pinned device '" + m.device + "' is down");
      }
      plan.module_device[m.name] = m.device;
      continue;
    }
    if (options.policy == PlacementPolicy::kSingleDevice) {
      plan.module_device[m.name] = source_device;
      continue;
    }
    // Co-locate: put the module where its first service lives.
    if (!m.services.empty()) {
      plan.module_device[m.name] = plan.service_device[m.services.front()];
      continue;
    }
    plan.module_device[m.name] = "";  // resolved below from predecessors
  }

  // Service-less modules inherit their (transitively placed)
  // predecessor's device; iterate in topological-ish passes.
  for (int pass = 0; pass < static_cast<int>(spec.modules.size()); ++pass) {
    bool changed = false;
    for (const ModuleSpec& m : spec.modules) {
      for (const std::string& next : m.next_modules) {
        auto& target = plan.module_device[next];
        const auto& mine = plan.module_device[m.name];
        if (target.empty() && !mine.empty()) {
          target = mine;
          changed = true;
        }
      }
    }
    if (!changed) break;
  }
  for (auto& [name, device] : plan.module_device) {
    if (device.empty()) device = source_device;  // unreachable modules
  }
  return plan;
}

}  // namespace vp::core
