// Service registry: where replicas live and how callers find them.
//
// Keyed by (device, service). Lookup returns the least-loaded replica
// in the group (power-of-all-choices — groups are tiny), which is what
// gives stateless services their horizontal-scaling payoff (§2.2,
// §5.2.2).
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "services/container.hpp"

namespace vp::services {

class ServiceRegistry {
 public:
  explicit ServiceRegistry(sim::Cluster* cluster) : cluster_(cluster) {}

  /// Take ownership of a launched replica.
  void Add(std::unique_ptr<ServiceInstance> instance);

  /// Least-backlog *available* replica of `service` on `device` —
  /// crashed and timeout-suspected replicas do not participate in
  /// balancing. nullptr when none is available.
  ServiceInstance* Find(const std::string& device,
                        const std::string& service);

  /// All replicas of `service` on `device` (healthy or not).
  std::vector<ServiceInstance*> Replicas(const std::string& device,
                                         const std::string& service);

  /// Every replica in the registry (fault-injection wiring, reports).
  std::vector<ServiceInstance*> AllReplicas();

  /// Replicas of the group currently eligible for balancing.
  size_t AvailableReplicaCount(const std::string& device,
                               const std::string& service);

  /// Distinct model versions live in one group, in first-seen order.
  /// A completed promote/rollback must leave exactly one.
  std::vector<std::string> LiveModelVersions(const std::string& device,
                                             const std::string& service);

  /// Cluster-wide accumulated replica downtime (recovery metric).
  Duration TotalDowntime(TimePoint now) const;

  /// Devices hosting at least one replica of `service`.
  std::vector<std::string> DevicesHosting(const std::string& service) const;

  /// Total replicas across the cluster.
  size_t total_instances() const;

  /// Aggregate request count for one service group (tests/metrics).
  uint64_t RequestCount(const std::string& device,
                        const std::string& service);

  /// Device death: crash every replica on `device` and move them out of
  /// their groups so lookups stop finding them. The corpses are kept
  /// alive in a graveyard — in-flight dispatch watchdogs hold raw
  /// ServiceInstance pointers — until registry destruction. Returns the
  /// number of replicas retired.
  size_t RetireDevice(const std::string& device, TimePoint now);

  /// Retire every replica of one (device, service) group — used to
  /// fence zombie replicas on a reconnecting device whose work was
  /// healed onto survivors during a partition. Same graveyard
  /// semantics as RetireDevice. Returns the number retired.
  size_t RetireGroup(const std::string& device, const std::string& service,
                     TimePoint now);

  /// Scale-down: gracefully retire one idle containerized replica of
  /// the group, keeping at least `keep` replicas. The replica must be
  /// available with an empty lane (no in-flight work is interrupted);
  /// its container core is released and the instance moves to the
  /// graveyard (uncrashed — scale-down is not downtime) so the group's
  /// request history survives. Returns false when no replica fits.
  bool RetireIdleReplica(const std::string& device,
                         const std::string& service, size_t keep,
                         TimePoint now);

  size_t retired_instances() const { return graveyard_.size(); }

 private:
  using Key = std::pair<std::string, std::string>;  // (device, service)
  sim::Cluster* cluster_;
  std::map<Key, std::vector<std::unique_ptr<ServiceInstance>>> groups_;
  std::vector<std::unique_ptr<ServiceInstance>> graveyard_;
};

}  // namespace vp::services
