// Cluster: the simulated home — a Simulator, a set of Devices and the
// Network connecting them. Includes the canonical three-device testbed
// from the paper's evaluation (§5.1): a 2018 flagship phone, a desktop
// and a TV, connected over Wi-Fi.
//
// A Cluster normally owns its Simulator (one home, one clock). For
// fleet-scale workloads (src/fleet) many clusters share one external
// Simulator: every home lives on the same virtual clock, while devices,
// network and RNG streams stay strictly per-home.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "sim/device.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"

namespace vp::sim {

class Cluster {
 public:
  explicit Cluster(uint64_t seed = 42);

  /// Share an external simulator (fleet mode): the cluster schedules on
  /// `simulator` but owns everything else (devices, network, RNG
  /// streams seeded from `seed`). `simulator` must outlive the cluster.
  Cluster(Simulator* simulator, uint64_t seed);

  Simulator& simulator() { return *sim_; }
  Network& network() { return *network_; }
  TimePoint Now() const { return sim_->Now(); }
  /// False when the cluster runs on an external (fleet) simulator.
  bool owns_simulator() const { return owned_sim_ != nullptr; }

  /// Add a device; name must be unique.
  Result<Device*> AddDevice(DeviceSpec spec);

  Device* FindDevice(const std::string& name);
  const Device* FindDevice(const std::string& name) const;

  std::vector<Device*> devices();
  std::vector<std::string> device_names() const;

  /// Devices able to host containerized services.
  std::vector<Device*> container_devices();

 private:
  // Owned when constructed standalone; null in fleet (shared-sim) mode.
  std::unique_ptr<Simulator> owned_sim_;
  Simulator* sim_;
  std::unique_ptr<Network> network_;
  std::map<std::string, std::unique_ptr<Device>> devices_;
  std::vector<std::string> order_;  // insertion order
};

/// The paper's §5.1 testbed:
///  - "phone":   2018 flagship, no containers, camera capability
///  - "desktop": reference speed 1.0, containers (6 cores)
///  - "tv":      mid-range SoC, containers (2 cores), display capability
/// All pairs connected by home Wi-Fi (3.5 ms, 80 Mbit/s, 0.8 ms jitter).
std::unique_ptr<Cluster> MakeHomeTestbed(uint64_t seed = 42);

/// The §5.1 testbed on an external (shared) simulator — one home of a
/// fleet. Behaves identically to the owning variant on the same seed.
std::unique_ptr<Cluster> MakeHomeTestbed(Simulator* simulator, uint64_t seed);

/// The §5.1 testbed plus a spare mini-PC — "nuc": speed 0.8,
/// containers (4 cores), no native capabilities. Used by the
/// failure-recovery scenarios, which need somewhere for the desktop's
/// services to land when the desktop dies (the TV's 2 cores are not
/// enough for the fitness pipeline's 3 containerized services).
std::unique_ptr<Cluster> MakeExtendedTestbed(uint64_t seed = 42);

}  // namespace vp::sim
