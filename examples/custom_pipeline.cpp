// Build-your-own pipeline: a front-door monitor assembled from the
// remaining builtin services (image_classifier, face_detector,
// object_detector) on a CUSTOM device cluster — showing everything a
// downstream user needs: devices, links, config, module scripts, extra
// host functions, scene props.
//
//   $ ./custom_pipeline [path/to/pipeline.json]
#include <cstdio>
#include <fstream>
#include <sstream>

#include "core/orchestrator.hpp"
#include "media/video_source.hpp"
#include "sim/cluster.hpp"

using namespace vp;

namespace {

// A doorbell camera (weak, no containers), a hallway hub (runs the
// services) and a tablet (the notification surface).
std::unique_ptr<sim::Cluster> MakeDoorwayCluster() {
  auto cluster = std::make_unique<sim::Cluster>(/*seed=*/99);
  sim::DeviceSpec camera;
  camera.name = "doorbell";
  camera.cpu_speed = 0.2;
  camera.capabilities = {"camera"};
  (void)cluster->AddDevice(camera);

  sim::DeviceSpec hub;
  hub.name = "hub";
  hub.cpu_speed = 0.8;
  hub.supports_containers = true;
  hub.container_cores = 3;
  (void)cluster->AddDevice(hub);

  sim::DeviceSpec tablet;
  tablet.name = "tablet";
  tablet.cpu_speed = 0.4;
  tablet.capabilities = {"display"};
  (void)cluster->AddDevice(tablet);

  sim::LinkSpec wifi;
  wifi.latency = Duration::Millis(4.0);
  wifi.bandwidth_bps = 40e6;  // far corner of the house
  wifi.jitter = Duration::Millis(1.0);
  cluster->network().set_default_link(wifi);
  return cluster;
}

const char* kDefaultConfig = R"CFG(
// Front-door monitor: classify the scene; when someone is present,
// look for a face and for packages, then notify the tablet.
{
  "name": "doorway_monitor",
  "source": { "module": "camera_module", "fps": 8,
              "width": 320, "height": 240 },
  "modules": [
    { "name": "camera_module", "type": "source",
      "endpoint": "bind#tcp://*:7100",
      "next_module": ["scene_module"] },

    { "name": "scene_module",
      "service": ["image_classifier"],
      "endpoint": "bind#tcp://*:7101",
      "next_module": ["analysis_module", "notify_module"],
      "code": "
        function event_received(msg) {
          var verdict = call_service('image_classifier',
                                     { frame_id: msg.frame_id });
          if (verdict.label == 'person_present') {
            call_module('analysis_module', {
              frame_id: msg.frame_id, seq: msg.seq });
          } else {
            // Nothing to analyze; close the loop at the sink.
            call_module('notify_module', { seq: msg.seq, quiet: true });
          }
        }" },

    { "name": "analysis_module",
      "service": ["face_detector", "object_detector"],
      "endpoint": "bind#tcp://*:7102",
      "next_module": ["notify_module"],
      "code": "
        function event_received(msg) {
          var face = call_service('face_detector',
                                  { frame_id: msg.frame_id });
          var objects = call_service('object_detector', {
            frame_id: msg.frame_id,
            classes: [ { name: 'package', r: 170, g: 110, b: 40 } ]
          });
          var packages = 0;
          for (var i = 0; i < objects.objects.length; i++) {
            if (objects.objects[i]['class'] == 'package') {
              packages = packages + 1;
            }
          }
          call_module('notify_module', {
            seq: msg.seq,
            face: face.found,
            packages: packages
          });
        }" },

    { "name": "notify_module",
      "device": "tablet",
      "endpoint": "bind#tcp://*:7103",
      "signal_source": true,
      "next_module": [],
      "code": "
        var visitors = 0;
        var packages_seen = 0;
        var was_present = false;
        function event_received(msg) {
          if (msg.quiet) { was_present = false; return; }
          if (msg.face != undefined) {
            if (msg.face && !was_present) {
              visitors = visitors + 1;
              notify('visitor at the door');
            }
            was_present = msg.face;
            if (msg.packages > packages_seen) {
              packages_seen = msg.packages;
              notify('package spotted');
            }
          }
        }" }
  ]
}
)CFG";

}  // namespace

int main(int argc, char** argv) {
  std::printf("VideoPipe custom pipeline — front-door monitor\n\n");

  std::string config_text = kDefaultConfig;
  if (argc > 1) {
    std::ifstream file(argv[1]);
    if (!file) {
      std::fprintf(stderr, "cannot open %s\n", argv[1]);
      return 1;
    }
    std::stringstream buffer;
    buffer << file.rdbuf();
    config_text = buffer.str();
  }

  auto cluster = MakeDoorwayCluster();
  core::Orchestrator orchestrator(cluster.get());

  auto spec = core::ParsePipelineConfigText(config_text,
                                            core::MapResolver({}));
  if (!spec.ok()) {
    std::fprintf(stderr, "config: %s\n", spec.error().ToString().c_str());
    return 1;
  }

  // The camera watches the porch: mostly empty, a visitor walks up
  // (idle person on camera), leaves, comes back.
  auto workload = media::MotionScript::Make({
      {"idle", 6.0, {}},          // visitor standing at the door
      {"wave", 3.0, {}},          // waves at the camera
      {"idle", 4.0, {}},
  });
  core::Orchestrator::DeployArgs args;
  args.workload = std::move(*workload);
  args.seed = 31;
  // Porch scene: a delivered package sits by the door.
  args.scene.props.push_back(
      media::Prop{"package", 0.72, 0.78, 0.14, 0.14,
                  media::Rgb{170, 110, 40}});
  // Notification host function for the notify module.
  std::vector<std::pair<double, std::string>> notifications;
  args.extra_host_functions["notify_module"].emplace_back(
      "notify",
      [&notifications, sim = &cluster->simulator()](
          script::Vm&, script::HostArgs fn_args) -> Result<script::VpValue> {
        notifications.emplace_back(
            sim->Now().seconds(),
            fn_args.empty() ? "?" : script::Vm::ToDisplayString(fn_args[0]));
        return script::VpValue::Boolean(true);
      });

  auto deployment = orchestrator.Deploy(std::move(*spec), std::move(args));
  if (!deployment.ok()) {
    std::fprintf(stderr, "deploy: %s\n",
                 deployment.error().ToString().c_str());
    return 1;
  }
  std::printf("plan: %s\n\n", (*deployment)->plan().ToString().c_str());

  (*deployment)->Start();
  orchestrator.RunFor(Duration::Seconds(14));

  std::printf("notifications on the tablet:\n");
  for (const auto& [when, text] : notifications) {
    std::printf("  t=%5.2fs  %s\n", when, text.c_str());
  }
  core::ModuleRuntime* notify = (*deployment)->FindModule("notify_module");
  std::printf("\nvisitors counted: %s, packages seen: %s\n",
              notify->context().GetGlobal("visitors").Dump().c_str(),
              notify->context().GetGlobal("packages_seen").Dump().c_str());
  std::printf("pipeline: %.2f fps over %llu frames\n",
              (*deployment)->metrics().EndToEndFps(),
              static_cast<unsigned long long>(
                  (*deployment)->metrics().frames_completed()));
  return notifications.empty() ? 1 : 0;
}
