#include "apps/fall.hpp"

namespace vp::apps::fall {

script::HostFunction AlertLog::MakeHostFunction(sim::Simulator* sim) {
  return [this, sim](script::Vm&,
                     script::HostArgs args) -> Result<script::VpValue> {
    Alert alert;
    alert.when = sim->Now();
    if (!args.empty() && args[0].IsHeapType(script::GcType::kObject)) {
      auto* details = static_cast<script::GcObject*>(args[0].AsHeap());
      if (const script::VpValue* v = details->Find("fallen_fraction");
          v != nullptr && v->is_number()) {
        alert.fallen_fraction = v->AsNumber();
      }
      if (const script::VpValue* v = details->Find("torso_angle_deg");
          v != nullptr && v->is_number()) {
        alert.torso_angle_deg = v->AsNumber();
      }
    }
    alerts_.push_back(alert);
    return script::VpValue::Boolean(true);
  };
}

namespace {

const char* kPoseDetectionModule = R"JS(
function event_received(msg) {
  var pose = call_service("pose_detector", { frame_id: msg.frame_id });
  call_module("fall_monitor_module", { seq: msg.seq, pose: pose });
}
)JS";

const char* kFallMonitorModule = R"JS(
// Sliding window of recent poses fed to the stateless fall_detector
// service; alerts once per fall episode (rising edge).
var window = [];
var was_fallen = false;

function event_received(msg) {
  window.push(msg.pose);
  if (window.length > 10) window.shift();

  var verdict = { fallen: false };
  if (window.length >= 5) {
    verdict = call_service("fall_detector", { poses: window });
  }
  if (verdict.fallen && !was_fallen) {
    raise_alert({
      fallen_fraction: verdict.fallen_fraction,
      torso_angle_deg: verdict.torso_angle_deg
    });
  }
  was_fallen = verdict.fallen;
}
)JS";

}  // namespace

std::string ConfigJson() {
  return R"CFG(
// Fall-detection pipeline (paper §4.3).
{
  "name": "fall_detection",
  "priority": "interactive",
  "source": { "module": "video_streaming_module",
              "fps": 15, "width": 320, "height": 240 },
  "modules": [
    { "name": "video_streaming_module", "type": "source",
      "endpoint": "bind#tcp://*:6060",
      "next_module": ["pose_detection_module"] },

    { "name": "pose_detection_module",
      "include": "FallPoseModule.js",
      "service": ["pose_detector"],
      "endpoint": "bind#tcp://*:6061",
      "next_module": ["fall_monitor_module"] },

    { "name": "fall_monitor_module",
      "include": "FallMonitorModule.js",
      "service": ["fall_detector"],
      "endpoint": "bind#tcp://*:6062",
      "signal_source": true,
      "next_module": [] }
  ]
}
)CFG";
}

core::ScriptResolver Scripts() {
  return core::MapResolver({
      {"FallPoseModule.js", kPoseDetectionModule},
      {"FallMonitorModule.js", kFallMonitorModule},
  });
}

Result<core::PipelineSpec> Spec() {
  return core::ParsePipelineConfigText(ConfigJson(), Scripts());
}

media::MotionScript FallSession() {
  media::MotionParams fall_params;
  fall_params.period = 6.0;  // stand 2.4 s, fall over 1.8 s, lie still
  auto script = media::MotionScript::Make({
      {"idle", 4.0, {}},
      {"squat", 6.0, {}},
      {"idle", 2.0, {}},
      {"fall", 8.0, fall_params},
  });
  return std::move(*script);
}

core::Orchestrator::DeployArgs MakeDeployArgs(AlertLog& log,
                                              sim::Simulator* sim) {
  core::Orchestrator::DeployArgs args;
  args.workload = FallSession();
  args.seed = 13;
  args.extra_host_functions["fall_monitor_module"].emplace_back(
      "raise_alert", log.MakeHostFunction(sim));
  return args;
}

}  // namespace vp::apps::fall
