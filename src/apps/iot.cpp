#include "apps/iot.hpp"

namespace vp::apps {

void IoTHub::Execute(const std::string& device, const std::string& action,
                     TimePoint when) {
  log_.push_back(Command{when, device, action});
  auto it = devices_.find(device);
  if (it == devices_.end()) return;
  DeviceState& state = it->second;
  if (action == "toggle") {
    state.on = !state.on;
    ++state.toggles;
  } else if (action == "on") {
    if (!state.on) ++state.toggles;
    state.on = true;
  } else if (action == "off") {
    if (state.on) ++state.toggles;
    state.on = false;
  }
}

const IoTHub::DeviceState* IoTHub::Find(const std::string& device) const {
  auto it = devices_.find(device);
  return it == devices_.end() ? nullptr : &it->second;
}

script::HostFunction IoTHub::MakeHostFunction(sim::Simulator* sim) {
  return [this, sim](script::Vm&,
                     script::HostArgs args) -> Result<script::VpValue> {
    if (args.size() < 2 || !args[0].is_string() || !args[1].is_string()) {
      return ScriptError("iot_command(device, action) expects two strings");
    }
    Execute(args[0].AsString(), args[1].AsString(), sim->Now());
    return script::VpValue::Boolean(true);
  };
}

}  // namespace vp::apps
