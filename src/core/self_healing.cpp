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
    // A hibernated pipeline has no live runtimes; its sleep-time state
    // is already in the store (the HibernationManager ships it at
    // hibernate via Store) and cannot change until wake.
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
      const std::string pipeline_name = pipeline->spec().name;
      const std::string module_name = m.name;
      const uint64_t epoch = runtime->epoch();
      // Capture the state by value: the checkpoint must not reference
      // the runtime (which may be retired and reclaimed mid-flight).
      // If the shipping device dies before delivery, the network's
      // liveness gate drops the transfer — the store keeps the older
      // checkpoint, exactly like a real half-written upload.
      orchestrator_->cluster().network().Send(
          runtime->device(), controller_, bytes,
          [this, pipeline_name, module_name, state, now, epoch] {
            StoreCheckpoint(pipeline_name, module_name,
                            ModuleCheckpoint{state, now, epoch});
          });
    }
  }
  orchestrator_->cluster().simulator().After(options_.checkpoint_interval,
                                             [this] { CheckpointTick(); });
}

void SelfHealer::StoreCheckpoint(const std::string& pipeline_name,
                                 const std::string& module_name,
                                 ModuleCheckpoint incoming) {
  // Fencing at the store: a checkpoint from a superseded placement
  // epoch (a zombie still snapshotting across a heal, or a transfer
  // delayed past a recovery) must never overwrite newer state.
  for (const auto& pipeline : orchestrator_->pipelines()) {
    if (pipeline->spec().name != pipeline_name) continue;
    if (incoming.epoch < pipeline->module_epoch(module_name)) {
      ++stats_.checkpoints_rejected_stale;
      pipeline->metrics().OnCheckpointRejectedStale();
      VP_WARN("self-healing")
          << "rejecting stale checkpoint for " << pipeline_name << "/"
          << module_name << " (epoch " << incoming.epoch << " < "
          << pipeline->module_epoch(module_name) << ")";
      return;
    }
    break;
  }
  auto it = checkpoints_.find({pipeline_name, module_name});
  if (it != checkpoints_.end()) {
    const ModuleCheckpoint& stored = it->second;
    // Same-lineage ordering: never replace a stored snapshot with one
    // from an older epoch, nor an older capture of the same epoch
    // (reordered arrivals).
    if (incoming.epoch < stored.epoch ||
        (incoming.epoch == stored.epoch &&
         incoming.taken_at < stored.taken_at)) {
      ++stats_.checkpoints_rejected_stale;
      return;
    }
  }
  checkpoints_[{pipeline_name, module_name}] = std::move(incoming);
  ++stats_.checkpoints_stored;
}

CheckpointLookup SelfHealer::MakeLookup() const {
  return [this](const std::string& pipeline, const std::string& module)
             -> const ModuleCheckpoint* {
    auto it = checkpoints_.find({pipeline, module});
    return it == checkpoints_.end() ? nullptr : &it->second;
  };
}

const ModuleCheckpoint* SelfHealer::checkpoint(
    const std::string& pipeline, const std::string& module) const {
  auto it = checkpoints_.find({pipeline, module});
  return it == checkpoints_.end() ? nullptr : &it->second;
}

void SelfHealer::OnDeviceDown(const std::string& device,
                              TimePoint last_heard) {
  if (device == controller_) {
    // Should not happen (the check loop pauses with the controller),
    // but guard anyway: with the controller gone there is no store to
    // restore from and nobody to run recovery.
    VP_WARN("self-healing")
        << "controller '" << controller_
        << "' is down — no recovery possible (single point of "
           "coordination, see docs/robustness.md)";
    return;
  }
  if (detector_->health(controller_) == DeviceHealth::kDown) return;
  if (!options_.auto_recover) {
    VP_WARN("self-healing") << "auto-recover disabled; ignoring loss of '"
                            << device << "'";
    return;
  }
  Status recovered = orchestrator_->RecoverFromDeviceFailure(
      device, last_heard, MakeLookup(), controller_);
  if (recovered.ok()) {
    ++stats_.recoveries;
  } else {
    ++stats_.failed_recoveries;
    VP_ERROR("self-healing") << "recovery from loss of '" << device
                             << "' failed: " << recovered.ToString();
  }
}

void SelfHealer::OnDeviceUp(const std::string& device) {
  if (!options_.auto_recover) return;
  Status resumed = orchestrator_->ResumeAfterDeviceReturn(
      device, MakeLookup(), controller_);
  if (resumed.ok()) {
    ++stats_.resumes;
  } else {
    VP_ERROR("self-healing") << "resume after return of '" << device
                             << "' failed: " << resumed.ToString();
  }
}

}  // namespace vp::core
