#include "fleet/trace.hpp"

#include <string>

#include "core/trace_export.hpp"

namespace vp::fleet {

json::Value FleetChromeTrace(Fleet& fleet, int pids_per_home) {
  json::Value doc = json::Value::MakeObject();
  json::Value::Array events;

  for (int id = 0; id < fleet.size(); ++id) {
    Home& home = fleet.home(id);
    const std::string prefix = home.name + "/";
    const auto& pipelines = home.orchestrator->pipelines();
    int pid_base = id * pids_per_home;
    for (size_t p = 0; p < pipelines.size(); ++p) {
      core::TraceLabel label;
      label.process_prefix = prefix;
      label.pid_base = pid_base;
      // The first pipeline's document carries the home's serving lanes
      // (pid_base + 2); later pipelines contribute module slices only.
      json::Value sub =
          p == 0 ? core::ChromeTrace(*pipelines[p], *home.orchestrator, label)
                 : core::ChromeTrace(*pipelines[p], label);
      json::Value::Array& sub_events = sub["traceEvents"].AsArray();
      for (auto& event : sub_events) events.push_back(std::move(event));
      pid_base += 2;
    }
  }

  doc["traceEvents"] = json::Value(std::move(events));
  doc["displayTimeUnit"] = json::Value("ms");
  return doc;
}

}  // namespace vp::fleet
