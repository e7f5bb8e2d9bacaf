// Fleet-wide Chrome trace: every home's pipelines and serving lanes in
// ONE chrome://tracing / Perfetto document, process names prefixed
// "home<id>/" and pid ranges kept disjoint per home so lanes never
// collide.
#pragma once

#include "fleet/fleet.hpp"
#include "json/value.hpp"

namespace vp::fleet {

/// Merge ChromeTrace(pipeline, orchestrator) across every home. Home h
/// gets pid range [h * pids_per_home + 1, ...) and the process-name
/// prefix "home<h>/".
json::Value FleetChromeTrace(Fleet& fleet, int pids_per_home = 8);

}  // namespace vp::fleet
