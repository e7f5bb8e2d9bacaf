// Simulated IoT device hub for the gesture-control application
// (§4.2: "using 'clapping' to toggle the light in the living room and
// using 'waving' to toggle a doorbell camera").
#pragma once

#include <map>
#include <string>
#include <vector>

#include "common/time.hpp"
#include "script/vm.hpp"
#include "sim/simulator.hpp"

namespace vp::apps {

class IoTHub {
 public:
  struct Command {
    TimePoint when;
    std::string device;
    std::string action;
  };
  struct DeviceState {
    bool on = false;
    int toggles = 0;
  };

  /// Register a controllable device.
  void AddDevice(const std::string& name) { devices_[name]; }

  /// Apply a command ("toggle", "on", "off"). Unknown devices/actions
  /// are recorded but ignored.
  void Execute(const std::string& device, const std::string& action,
               TimePoint when);

  const std::vector<Command>& log() const { return log_; }
  const DeviceState* Find(const std::string& device) const;

  /// Host function `iot_command(device, action)` for module scripts.
  script::HostFunction MakeHostFunction(sim::Simulator* sim);

 private:
  std::map<std::string, DeviceState> devices_;
  std::vector<Command> log_;
};

}  // namespace vp::apps
