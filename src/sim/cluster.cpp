#include "sim/cluster.hpp"

#include <cassert>

namespace vp::sim {
namespace {

void InstallLiveness(Cluster* cluster) {
  // The network's notion of liveness is the device's power state:
  // unknown names (e.g. test-only endpoints) count as up.
  cluster->network().set_liveness_check([cluster](const std::string& name) {
    const Device* device = cluster->FindDevice(name);
    return device == nullptr || device->up();
  });
}

}  // namespace

Cluster::Cluster(uint64_t seed)
    : owned_sim_(std::make_unique<Simulator>()), sim_(owned_sim_.get()) {
  network_ = std::make_unique<Network>(sim_, seed);
  InstallLiveness(this);
}

Cluster::Cluster(Simulator* simulator, uint64_t seed) : sim_(simulator) {
  network_ = std::make_unique<Network>(sim_, seed);
  InstallLiveness(this);
}

Result<Device*> Cluster::AddDevice(DeviceSpec spec) {
  // A cluster and every device in it live on one simulator. On the
  // parallel fleet engine that simulator is the owning home's shard;
  // building a cluster (or growing it later) is a quiesced-only or
  // owning-shard operation, never a cross-shard one.
  assert(sim_->InOwningContext() &&
         "cluster mutated from a foreign shard");
  if (devices_.count(spec.name) != 0) {
    return AlreadyExists("device '" + spec.name + "' already exists");
  }
  const std::string name = spec.name;
  auto device = std::make_unique<Device>(sim_, std::move(spec));
  Device* ptr = device.get();
  devices_[name] = std::move(device);
  order_.push_back(name);
  return ptr;
}

Device* Cluster::FindDevice(const std::string& name) {
  auto it = devices_.find(name);
  return it == devices_.end() ? nullptr : it->second.get();
}

const Device* Cluster::FindDevice(const std::string& name) const {
  auto it = devices_.find(name);
  return it == devices_.end() ? nullptr : it->second.get();
}

std::vector<Device*> Cluster::devices() {
  std::vector<Device*> out;
  out.reserve(order_.size());
  for (const auto& name : order_) out.push_back(devices_[name].get());
  return out;
}

std::vector<std::string> Cluster::device_names() const { return order_; }

std::vector<Device*> Cluster::container_devices() {
  std::vector<Device*> out;
  for (Device* d : devices()) {
    if (d->spec().supports_containers) out.push_back(d);
  }
  return out;
}

namespace {

void PopulateHomeTestbed(Cluster& cluster) {
  DeviceSpec phone;
  phone.name = "phone";
  phone.cpu_speed = 0.35;
  phone.supports_containers = false;
  phone.capabilities = {"camera"};
  (void)cluster.AddDevice(phone);

  DeviceSpec desktop;
  desktop.name = "desktop";
  desktop.cpu_speed = 1.0;
  desktop.supports_containers = true;
  desktop.container_cores = 6;
  (void)cluster.AddDevice(desktop);

  DeviceSpec tv;
  tv.name = "tv";
  tv.cpu_speed = 0.5;
  tv.supports_containers = true;
  tv.container_cores = 2;
  tv.capabilities = {"display"};
  (void)cluster.AddDevice(tv);

  LinkSpec wifi;
  wifi.latency = Duration::Millis(3.5);
  wifi.bandwidth_bps = 80e6;
  wifi.jitter = Duration::Millis(0.8);
  cluster.network().set_default_link(wifi);
}

void AddNuc(Cluster& cluster) {
  DeviceSpec nuc;
  nuc.name = "nuc";
  nuc.cpu_speed = 0.8;
  nuc.supports_containers = true;
  nuc.container_cores = 4;
  (void)cluster.AddDevice(nuc);
}

}  // namespace

std::unique_ptr<Cluster> MakeHomeTestbed(uint64_t seed) {
  auto cluster = std::make_unique<Cluster>(seed);
  PopulateHomeTestbed(*cluster);
  return cluster;
}

std::unique_ptr<Cluster> MakeHomeTestbed(Simulator* simulator, uint64_t seed) {
  auto cluster = std::make_unique<Cluster>(simulator, seed);
  PopulateHomeTestbed(*cluster);
  return cluster;
}

std::unique_ptr<Cluster> MakeExtendedTestbed(uint64_t seed) {
  auto cluster = MakeHomeTestbed(seed);
  AddNuc(*cluster);
  return cluster;
}

}  // namespace vp::sim
