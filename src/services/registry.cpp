#include "services/registry.hpp"

#include <algorithm>

namespace vp::services {

void ServiceRegistry::Add(std::unique_ptr<ServiceInstance> instance) {
  const Key key{instance->device(), instance->service_name()};
  groups_[key].push_back(std::move(instance));
}

ServiceInstance* ServiceRegistry::Find(const std::string& device,
                                       const std::string& service) {
  auto it = groups_.find(Key{device, service});
  if (it == groups_.end() || it->second.empty()) return nullptr;
  const TimePoint now = cluster_->Now();
  // Least-backlog among healthy replicas; crashed or timeout-suspected
  // replicas are excluded from balancing until they restart/recover.
  ServiceInstance* best = nullptr;
  for (const auto& candidate : it->second) {
    if (!candidate->available(now)) continue;
    if (best == nullptr || candidate->backlog(now) < best->backlog(now)) {
      best = candidate.get();
    }
  }
  return best;
}

std::vector<std::string> ServiceRegistry::LiveModelVersions(
    const std::string& device, const std::string& service) {
  std::vector<std::string> out;
  auto it = groups_.find(Key{device, service});
  if (it == groups_.end()) return out;
  for (const auto& instance : it->second) {
    const std::string version = instance->model_version();
    if (version.empty()) continue;
    if (std::find(out.begin(), out.end(), version) == out.end()) {
      out.push_back(version);
    }
  }
  return out;
}

std::vector<ServiceInstance*> ServiceRegistry::AllReplicas() {
  std::vector<ServiceInstance*> out;
  for (const auto& [key, group] : groups_) {
    for (const auto& instance : group) out.push_back(instance.get());
  }
  return out;
}

Duration ServiceRegistry::TotalDowntime(TimePoint now) const {
  Duration total;
  for (const auto& [key, group] : groups_) {
    for (const auto& instance : group) total += instance->downtime(now);
  }
  // Replicas retired by RetireDevice keep accruing downtime until their
  // device's work is relaunched elsewhere — skipping them would make
  // recovery look cheaper the harder the failure was.
  for (const auto& instance : graveyard_) total += instance->downtime(now);
  return total;
}

size_t ServiceRegistry::AvailableReplicaCount(const std::string& device,
                                              const std::string& service) {
  size_t n = 0;
  const TimePoint now = cluster_->Now();
  auto it = groups_.find(Key{device, service});
  if (it == groups_.end()) return 0;
  for (const auto& instance : it->second) {
    if (instance->available(now)) ++n;
  }
  return n;
}

std::vector<ServiceInstance*> ServiceRegistry::Replicas(
    const std::string& device, const std::string& service) {
  std::vector<ServiceInstance*> out;
  auto it = groups_.find(Key{device, service});
  if (it == groups_.end()) return out;
  out.reserve(it->second.size());
  for (const auto& instance : it->second) out.push_back(instance.get());
  return out;
}

std::vector<std::string> ServiceRegistry::DevicesHosting(
    const std::string& service) const {
  std::vector<std::string> out;
  for (const auto& [key, group] : groups_) {
    if (key.second == service && !group.empty()) {
      out.push_back(key.first);
    }
  }
  return out;
}

size_t ServiceRegistry::total_instances() const {
  size_t total = 0;
  for (const auto& [key, group] : groups_) total += group.size();
  return total;
}

size_t ServiceRegistry::RetireDevice(const std::string& device,
                                     TimePoint now) {
  size_t retired = 0;
  for (auto it = groups_.begin(); it != groups_.end();) {
    if (it->first.first != device) {
      ++it;
      continue;
    }
    for (auto& instance : it->second) {
      instance->Crash(now);  // no-op if already crashed
      graveyard_.push_back(std::move(instance));
      ++retired;
    }
    it = groups_.erase(it);
  }
  return retired;
}

size_t ServiceRegistry::RetireGroup(const std::string& device,
                                    const std::string& service,
                                    TimePoint now) {
  auto it = groups_.find(Key{device, service});
  if (it == groups_.end()) return 0;
  size_t retired = 0;
  for (auto& instance : it->second) {
    instance->Crash(now);  // no-op if already crashed
    graveyard_.push_back(std::move(instance));
    ++retired;
  }
  groups_.erase(it);
  return retired;
}

uint64_t ServiceRegistry::RequestCount(const std::string& device,
                                       const std::string& service) {
  uint64_t total = 0;
  for (ServiceInstance* instance : Replicas(device, service)) {
    total += instance->stats().requests;
  }
  // Retired replicas served real traffic before their device died (or
  // before scale-down); the group's request history must keep it.
  for (const auto& instance : graveyard_) {
    if (instance->device() == device &&
        instance->service_name() == service) {
      total += instance->stats().requests;
    }
  }
  return total;
}

bool ServiceRegistry::RetireIdleReplica(const std::string& device,
                                        const std::string& service,
                                        size_t keep, TimePoint now) {
  auto it = groups_.find(Key{device, service});
  if (it == groups_.end() || it->second.size() <= keep) return false;
  // Pick an idle, healthy, containerized replica — never interrupt
  // in-flight work and never touch native singletons (camera, display).
  auto& group = it->second;
  for (auto member = group.begin(); member != group.end(); ++member) {
    ServiceInstance* candidate = member->get();
    if (candidate->native() || !candidate->available(now) ||
        candidate->backlog(now) != 0) {
      continue;
    }
    // Return the container core; the lane object stays alive for any
    // stale event still referencing it. The instance moves to the
    // graveyard (not crashed — scale-down is not downtime) so its
    // request history keeps counting toward the group.
    if (sim::Device* dev = cluster_->FindDevice(device)) {
      dev->ReleaseContainerLane(candidate->lane());
    }
    graveyard_.push_back(std::move(*member));
    group.erase(member);
    return true;
  }
  return false;
}

}  // namespace vp::services
