#include "services/autoscaler.hpp"

#include "common/log.hpp"

namespace vp::services {
namespace {

/// Scale-down never retires below this many replicas.
constexpr int kMinReplicasPerGroup = 1;

}  // namespace

Autoscaler::Autoscaler(sim::Cluster* cluster, ContainerRuntime* containers,
                       ServiceRegistry* registry, AutoscalerOptions options)
    : cluster_(cluster), containers_(containers), registry_(registry),
      options_(options) {}

void Autoscaler::Start() {
  if (running_) return;
  running_ = true;
  cluster_->simulator().After(options_.check_interval, [this] { Check(); });
}

void Autoscaler::Watch(const std::string& device, const std::string& service) {
  watched_.emplace_back(device, service);
}

void Autoscaler::Check() {
  if (!running_) return;
  const TimePoint now = cluster_->Now();
  for (const auto& [device, service] : watched_) {
    auto replicas = registry_->Replicas(device, service);
    if (replicas.empty()) continue;
    const auto key = std::make_pair(device, service);

    double load;
    std::optional<double> probed =
        load_probe_ ? load_probe_(device, service) : std::nullopt;
    if (probed.has_value()) {
      load = *probed;
    } else {
      int total_backlog = 0;
      for (ServiceInstance* replica : replicas) {
        total_backlog += replica->backlog(now);
      }
      load = static_cast<double>(total_backlog) /
             static_cast<double>(replicas.size());
    }

    if (load > options_.backlog_high_water &&
        static_cast<int>(replicas.size()) < options_.max_replicas_per_group) {
      idle_checks_[key] = 0;
      auto instance = containers_->Launch(device, service);
      if (instance.ok()) {
        registry_->Add(std::move(*instance));
        events_.push_back(ScaleEvent{now, device, service,
                                     static_cast<int>(replicas.size()) + 1,
                                     +1});
        VP_INFO("autoscaler")
            << "scaled " << service << " on " << device << " to "
            << replicas.size() + 1 << " replicas (load " << load << ")";
      } else {
        VP_WARN("autoscaler") << "scale-up of " << service << " on " << device
                              << " failed: " << instance.error().ToString();
      }
      continue;
    }

    // Scale-down: a sustained idle streak retires one replica at a
    // time (gracefully — only an idle replica, never below the floor).
    if (options_.scale_down_grace_checks > 0 &&
        load < options_.backlog_low_water &&
        static_cast<int>(replicas.size()) > kMinReplicasPerGroup) {
      if (++idle_checks_[key] >= options_.scale_down_grace_checks) {
        idle_checks_[key] = 0;
        if (registry_->RetireIdleReplica(device, service, kMinReplicasPerGroup,
                                         now)) {
          const int after = static_cast<int>(replicas.size()) - 1;
          events_.push_back(ScaleEvent{now, device, service, after, -1});
          VP_INFO("autoscaler")
              << "retired idle replica of " << service << " on " << device
              << " (now " << after << ", load " << load << ")";
        }
      }
    } else {
      idle_checks_[key] = 0;
    }
  }
  cluster_->simulator().After(options_.check_interval, [this] { Check(); });
}

}  // namespace vp::services
