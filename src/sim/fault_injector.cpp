#include "sim/fault_injector.hpp"

namespace vp::sim {

FaultInjector::FaultInjector(Simulator* sim, Network* network, uint64_t seed)
    : sim_(sim), network_(network), rng_(seed) {}

void FaultInjector::RegisterReplica(const std::string& label,
                                    ReplicaHooks hooks) {
  auto it = replicas_.find(label);
  if (it == replicas_.end()) {
    replicas_[label] = ReplicaState{std::move(hooks), false, false};
    order_.push_back(label);
  } else {
    it->second.hooks = std::move(hooks);
  }
}

void FaultInjector::RegisterDevice(const std::string& name,
                                   DeviceHooks hooks) {
  auto it = devices_.find(name);
  if (it == devices_.end()) {
    devices_[name] = DeviceState{std::move(hooks), false};
    device_order_.push_back(name);
  } else {
    it->second.hooks = std::move(hooks);
  }
}

FaultInjector::ReplicaState* FaultInjector::FindReplica(
    const std::string& label) {
  auto it = replicas_.find(label);
  return it == replicas_.end() ? nullptr : &it->second;
}

FaultInjector::DeviceState* FaultInjector::FindDevice(
    const std::string& name) {
  auto it = devices_.find(name);
  return it == devices_.end() ? nullptr : &it->second;
}

void FaultInjector::CrashNow(const std::string& label, Duration downtime) {
  ReplicaState* replica = FindReplica(label);
  if (replica == nullptr || replica->down) return;
  replica->down = true;
  ++stats_.crashes;
  if (replica->hooks.crash) replica->hooks.crash();
  if (downtime > Duration::Zero()) {
    sim_->After(downtime, [this, label] {
      ReplicaState* r = FindReplica(label);
      if (r == nullptr || !r->down) return;
      r->down = false;
      ++stats_.restarts;
      if (r->hooks.restart) r->hooks.restart();
    });
  }
}

void FaultInjector::WedgeNow(const std::string& label, Duration duration) {
  ReplicaState* replica = FindReplica(label);
  if (replica == nullptr || replica->wedged || replica->down) return;
  replica->wedged = true;
  ++stats_.wedges;
  if (replica->hooks.set_wedged) replica->hooks.set_wedged(true);
  if (duration > Duration::Zero()) {
    sim_->After(duration, [this, label] {
      ReplicaState* r = FindReplica(label);
      if (r == nullptr || !r->wedged) return;
      r->wedged = false;
      ++stats_.unwedges;
      if (r->hooks.set_wedged) r->hooks.set_wedged(false);
    });
  }
}

void FaultInjector::CrashDevice(const std::string& name, Duration downtime) {
  DeviceState* device = FindDevice(name);
  if (device == nullptr || device->down) return;
  device->down = true;
  ++stats_.device_crashes;
  // Power first: the hook owner takes the node off the network and
  // tears down what it knows lived there…
  if (device->hooks.crash) device->hooks.crash();
  // …then mark every registered replica on the node as down so the
  // random generator stops rolling for them. Their crash hooks fire
  // (idempotently, if the device hook already killed them) and no
  // restart is scheduled: the device reboots empty.
  const std::string prefix = name + "/";
  for (const std::string& label : order_) {
    if (label.compare(0, prefix.size(), prefix) != 0) continue;
    ReplicaState* replica = FindReplica(label);
    if (replica == nullptr || replica->down) continue;
    replica->down = true;
    ++stats_.crashes;
    if (replica->hooks.crash) replica->hooks.crash();
  }
  if (downtime > Duration::Zero()) {
    sim_->After(downtime, [this, name] { RebootDevice(name); });
  }
}

void FaultInjector::RebootDevice(const std::string& name) {
  DeviceState* device = FindDevice(name);
  if (device == nullptr || !device->down) return;
  device->down = false;
  ++stats_.device_reboots;
  if (device->hooks.reboot) device->hooks.reboot();
}

Status FaultInjector::ScheduleDeviceCrash(const std::string& name,
                                          TimePoint at, Duration downtime) {
  if (FindDevice(name) == nullptr) {
    return Status(StatusCode::kNotFound,
                  "no registered device '" + name + "'");
  }
  sim_->At(at, [this, name, downtime] { CrashDevice(name, downtime); });
  return Status::Ok();
}

Status FaultInjector::ScheduleDeviceReboot(const std::string& name,
                                           TimePoint at) {
  if (FindDevice(name) == nullptr) {
    return Status(StatusCode::kNotFound,
                  "no registered device '" + name + "'");
  }
  sim_->At(at, [this, name] { RebootDevice(name); });
  return Status::Ok();
}

Status FaultInjector::CrashDeviceNow(const std::string& name,
                                     Duration downtime) {
  if (FindDevice(name) == nullptr) {
    return Status(StatusCode::kNotFound,
                  "no registered device '" + name + "'");
  }
  CrashDevice(name, downtime);
  return Status::Ok();
}

void FaultInjector::RegisterModelGroup(const std::string& label,
                                       ModelHooks hooks) {
  auto it = model_groups_.find(label);
  if (it == model_groups_.end()) {
    model_groups_[label] = std::move(hooks);
    model_order_.push_back(label);
  } else {
    it->second = std::move(hooks);
  }
}

Status FaultInjector::ScheduleModelPoison(const std::string& label,
                                          TimePoint at) {
  if (model_groups_.find(label) == model_groups_.end()) {
    return Status(StatusCode::kNotFound,
                  "no registered model group '" + label + "'");
  }
  sim_->At(at, [this, label] { (void)PoisonModelNow(label); });
  return Status::Ok();
}

Status FaultInjector::PoisonModelNow(const std::string& label) {
  auto it = model_groups_.find(label);
  if (it == model_groups_.end()) {
    return Status(StatusCode::kNotFound,
                  "no registered model group '" + label + "'");
  }
  if (it->second.poison) {
    ++stats_.model_poisons;
    it->second.poison();
  }
  return Status::Ok();
}

Status FaultInjector::ScheduleCrash(const std::string& label, TimePoint at,
                                    Duration downtime) {
  if (FindReplica(label) == nullptr) {
    return Status(StatusCode::kNotFound,
                  "no registered replica '" + label + "'");
  }
  sim_->At(at, [this, label, downtime] { CrashNow(label, downtime); });
  return Status::Ok();
}

Status FaultInjector::ScheduleWedge(const std::string& label, TimePoint at,
                                    Duration duration) {
  if (FindReplica(label) == nullptr) {
    return Status(StatusCode::kNotFound,
                  "no registered replica '" + label + "'");
  }
  sim_->At(at, [this, label, duration] { WedgeNow(label, duration); });
  return Status::Ok();
}

void FaultInjector::ScheduleLinkFault(const std::string& a,
                                      const std::string& b, TimePoint at,
                                      Duration duration, LinkSpec degraded) {
  sim_->At(at, [this, a, b, duration, degraded] {
    // Capture the current per-direction specs so the restore is exact
    // even when the two directions were configured asymmetrically.
    const LinkSpec original_ab = network_->link(a, b);
    const LinkSpec original_ba = network_->link(b, a);
    network_->SetLink(a, b, degraded);
    network_->SetLink(b, a, degraded);
    if (duration > Duration::Zero()) {
      sim_->After(duration, [this, a, b, original_ab, original_ba] {
        network_->SetLink(a, b, original_ab);
        network_->SetLink(b, a, original_ba);
      });
    }
  });
}

void FaultInjector::SchedulePartition(
    std::vector<std::vector<std::string>> groups, TimePoint at,
    Duration duration) {
  sim_->At(at, [this, groups = std::move(groups), duration] {
    network_->Partition(groups);
    partition_active_ = true;
    ++stats_.partitions;
    if (duration > Duration::Zero()) {
      sim_->After(duration, [this] { HealPartitionNow(); });
    }
  });
}

void FaultInjector::HealPartitionNow() {
  if (!partition_active_ && !network_->partitioned()) return;
  network_->Heal();
  partition_active_ = false;
  ++stats_.partition_heals;
}

void FaultInjector::StartRandomFaults(RandomFaultOptions options) {
  random_options_ = options;
  if (random_running_) return;
  random_running_ = true;
  sim_->After(random_options_.interval, [this] { RandomTick(); });
}

void FaultInjector::RandomTick() {
  if (!random_running_) return;
  // Iterate in registration order: the draw sequence — and therefore
  // the whole fault timeline — depends only on the seed.
  for (const std::string& label : order_) {
    ReplicaState* replica = FindReplica(label);
    if (replica == nullptr || replica->down || replica->wedged) continue;
    if (random_options_.crash_probability > 0.0 &&
        rng_.NextBool(random_options_.crash_probability)) {
      CrashNow(label, random_options_.crash_downtime);
      continue;
    }
    if (random_options_.wedge_probability > 0.0 &&
        rng_.NextBool(random_options_.wedge_probability)) {
      WedgeNow(label, random_options_.wedge_duration);
    }
  }
  sim_->After(random_options_.interval, [this] { RandomTick(); });
}

}  // namespace vp::sim
