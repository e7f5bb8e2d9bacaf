#include "core/self_healing.hpp"

#include "common/log.hpp"

namespace vp::core {

SelfHealer::SelfHealer(Orchestrator* orchestrator, SelfHealingOptions options)
    : orchestrator_(orchestrator), options_(std::move(options)) {}

Status SelfHealer::Start() {
  if (running_) return Status::Ok();
  controller_ = options_.detector.controller_device;
  if (controller_.empty()) {
    // Default controller: the fastest container-capable device that is
    // currently up (in the home testbed, the desktop).
    double best = -1;
    for (sim::Device* device : orchestrator_->cluster().container_devices()) {
      if (!device->up()) continue;
      if (device->spec().cpu_speed > best) {
        best = device->spec().cpu_speed;
        controller_ = device->name();
      }
    }
  }
  if (controller_.empty()) {
    return Status(StatusCode::kFailedPrecondition,
                  "no live container-capable device to host the controller");
  }
  FailureDetectorOptions detector_options = options_.detector;
  detector_options.controller_device = controller_;
  detector_ = std::make_unique<FailureDetector>(
      &orchestrator_->cluster(), &orchestrator_->fabric(), detector_options);
  detector_->set_on_device_down(
      [this](const std::string& device, TimePoint last_heard) {
        OnDeviceDown(device, last_heard);
      });
  detector_->set_on_device_up(
      [this](const std::string& device) { OnDeviceUp(device); });
  VP_RETURN_IF_ERROR(detector_->Start());
  running_ = true;
  VP_INFO("self-healing") << "controller on '" << controller_
                          << "', checkpoint every "
                          << options_.checkpoint_interval.millis() << " ms";
  orchestrator_->cluster().simulator().After(options_.checkpoint_interval,
                                             [this] { CheckpointTick(); });
  return Status::Ok();
}

void SelfHealer::Stop() {
  if (!running_) return;
  running_ = false;
  if (detector_) detector_->Stop();
}

void SelfHealer::CheckpointTick() {
  if (!running_) return;
  const TimePoint now = orchestrator_->cluster().Now();
  for (const auto& pipeline : orchestrator_->pipelines()) {
    if (pipeline->paused()) continue;  // nothing new while paused
    // A hibernated pipeline has no live runtimes; its sleep snapshot
    // is already in its store and cannot change until wake.
    if (pipeline->hibernated()) continue;
    for (const ModuleSpec& m : pipeline->spec().modules) {
      if (m.type != ModuleType::kScript) continue;
      ModuleRuntime* runtime = pipeline->FindModule(m.name);
      if (runtime == nullptr) continue;
      sim::Device* host =
          orchestrator_->cluster().FindDevice(runtime->device());
      if (host == nullptr || !host->up()) continue;  // nobody to snapshot
      json::Value state = runtime->context().SnapshotState();
      net::Message message("checkpoint", state);
      const size_t bytes = message.ByteSize();
      ++stats_.checkpoints_shipped;
      const uint64_t serial = pipeline->serial();
      const std::string module_name = m.name;
      const uint64_t epoch = runtime->epoch();
      // Capture the state by value: the checkpoint must not reference
      // the runtime (which may be retired and reclaimed mid-flight).
      // If the shipping device dies before delivery, the network's
      // liveness gate drops the transfer — the store keeps the older
      // checkpoint, exactly like a real half-written upload.
      orchestrator_->cluster().network().Send(
          runtime->device(), controller_, bytes,
          [this, serial, module_name, state, now, epoch] {
            OnCheckpointArrived(serial, module_name,
                                ModuleCheckpoint{state, now, epoch});
          });
    }
  }
  orchestrator_->cluster().simulator().After(options_.checkpoint_interval,
                                             [this] { CheckpointTick(); });
}

void SelfHealer::OnCheckpointArrived(uint64_t serial,
                                     const std::string& module,
                                     ModuleCheckpoint incoming) {
  // Only the deployment whose runtime took the snapshot may store it:
  // after an undeploy, a successor under the same name is another
  // lineage.
  for (const auto& pipeline : orchestrator_->pipelines()) {
    if (pipeline->serial() != serial) continue;
    if (orchestrator_->AdmitCheckpoint(*pipeline, module,
                                       std::move(incoming))) {
      ++stats_.checkpoints_stored;
    } else {
      ++stats_.checkpoints_rejected_stale;
    }
    return;
  }
}

void SelfHealer::OnDeviceDown(const std::string& device,
                              TimePoint last_heard) {
  if (device == controller_) {
    // Should not happen (the check loop pauses with the controller),
    // but guard anyway: with the controller gone nobody serves
    // restores or runs recovery.
    VP_WARN("self-healing")
        << "controller '" << controller_
        << "' is down — no recovery possible (single point of "
           "coordination, see docs/robustness.md)";
    return;
  }
  if (detector_->health(controller_) == DeviceHealth::kDown) return;
  Status recovered =
      orchestrator_->RecoverFromDeviceFailure(device, last_heard, controller_);
  if (recovered.ok()) {
    ++stats_.recoveries;
  } else {
    VP_ERROR("self-healing") << "recovery from loss of '" << device
                             << "' failed: " << recovered.ToString();
  }
}

void SelfHealer::OnDeviceUp(const std::string& device) {
  Status resumed = orchestrator_->ResumeAfterDeviceReturn(device, controller_);
  if (resumed.ok()) {
    ++stats_.resumes;
  } else {
    VP_ERROR("self-healing") << "resume after return of '" << device
                             << "' failed: " << resumed.ToString();
  }
}

}  // namespace vp::core
