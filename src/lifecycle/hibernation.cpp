#include "lifecycle/hibernation.hpp"

#include "common/log.hpp"

namespace vp::lifecycle {
namespace {

/// Delay between hibernation and arming the doorbells. In-flight
/// data-plane messages (the written-off frame, late service replies)
/// drain into the unbound addresses during this window instead of
/// ringing a doorbell and waking the pipeline right back up.
constexpr Duration kDoorbellGrace = Duration::Millis(250);

}  // namespace

HibernationManager::HibernationManager(core::Orchestrator* orchestrator,
                                       HibernationOptions options)
    : orchestrator_(orchestrator), options_(std::move(options)),
      admission_(&orchestrator->cluster().simulator(), options_.admission),
      pool_(options_.pool) {}

void HibernationManager::Start() {
  if (running_) return;
  running_ = true;
  orchestrator_->cluster().simulator().After(options_.check_interval,
                                             [this] { IdleTick(); });
}

void HibernationManager::IdleTick() {
  if (!running_) return;
  const TimePoint now = orchestrator_->cluster().Now();
  if (options_.auto_hibernate) {
    // Collect candidates first: Hibernate mutates nothing in
    // pipelines() itself, but keeps the loop's reads honest.
    std::vector<core::PipelineDeployment*> idle_pipelines;
    for (const auto& pipeline : orchestrator_->pipelines()) {
      if (pipeline->hibernated() || pipeline->paused()) continue;
      const std::string& name = pipeline->spec().name;
      const uint64_t completed = pipeline->metrics().frames_completed();
      IdleTrack& track = idle_[name];
      if (!track.seen || completed != track.last_completed) {
        track.seen = true;
        track.last_completed = completed;
        track.last_progress = now;
        continue;
      }
      if (now - track.last_progress >= options_.idle_window) {
        idle_pipelines.push_back(pipeline.get());
      }
    }
    for (core::PipelineDeployment* pipeline : idle_pipelines) {
      VP_INFO("lifecycle") << "pipeline '" << pipeline->spec().name
                           << "' idle for "
                           << (now - idle_[pipeline->spec().name]
                                         .last_progress).millis()
                           << " ms — hibernating";
      Status status = Hibernate(pipeline);
      if (!status.ok()) {
        VP_WARN("lifecycle") << "hibernate of '" << pipeline->spec().name
                             << "' failed: " << status.ToString();
      }
    }
  }
  orchestrator_->cluster().simulator().After(options_.check_interval,
                                             [this] { IdleTick(); });
}

Status HibernationManager::Hibernate(core::PipelineDeployment* pipeline) {
  if (pipeline->hibernated()) return Status::Ok();
  // A wake in flight for this pipeline means it is between doorbell
  // and rehydration — putting it back to sleep now would race the
  // admission dispatch.
  if (wake_pending_.count(pipeline->spec().name) != 0) {
    return Status(StatusCode::kFailedPrecondition,
                  "pipeline '" + pipeline->spec().name +
                      "' has a wake in flight");
  }
  Status status = orchestrator_->HibernatePipeline(pipeline);
  if (!status.ok()) {
    ++stats_.hibernate_failures;
    return status;
  }
  ++stats_.hibernations;

  // Pre-warm pooled contexts so the wake is a hot start. Failures are
  // fine — that module just cold-starts (through the program cache).
  for (const core::ModuleSpec& m : pipeline->spec().modules) {
    if (m.type != core::ModuleType::kScript) continue;
    (void)pool_.Prewarm(
        m.code,
        core::ModuleScriptSeed(orchestrator_->options().seed, m.name));
  }

  // Arm the doorbells only after the grace window: the frame that was
  // in flight at hibernation (already written off) would otherwise
  // ring them the moment it lands.
  const std::string name = pipeline->spec().name;
  orchestrator_->cluster().simulator().After(kDoorbellGrace, [this, name] {
    core::PipelineDeployment* p = Find(name);
    if (p == nullptr || !p->hibernated() || wake_pending_.count(name) != 0) {
      return;  // woken (or gone) before the grace window elapsed
    }
    ArmDoorbells(p);
  });
  idle_.erase(pipeline->spec().name);
  return Status::Ok();
}

void HibernationManager::ArmDoorbells(core::PipelineDeployment* pipeline) {
  // Rebind the pipeline's (now-released) addresses with doorbells: a
  // "frame" message arriving at any of them is the wake trigger. The
  // bindings cost a map entry each — no context, no lanes.
  const std::string name = pipeline->spec().name;
  std::vector<net::Address> bound;
  auto doorbell = [this, name](net::Message message, net::Responder) {
    if (message.type() == "frame") OnDoorbell(name);
  };
  std::vector<net::Address> addresses;
  addresses.push_back(pipeline->camera_address());
  for (const core::ModuleSpec& m : pipeline->spec().modules) {
    if (auto address = pipeline->ModuleAddress(m.name); address.ok()) {
      addresses.push_back(*address);
    }
  }
  for (const net::Address& address : addresses) {
    if (orchestrator_->fabric().IsBound(address)) continue;
    if (orchestrator_->fabric().Bind(address, doorbell).ok()) {
      bound.push_back(address);
    }
  }
  doorbells_[name] = std::move(bound);
}

void HibernationManager::RemoveDoorbells(const std::string& pipeline) {
  auto it = doorbells_.find(pipeline);
  if (it == doorbells_.end()) return;
  for (const net::Address& address : it->second) {
    orchestrator_->fabric().Unbind(address);
  }
  doorbells_.erase(it);
}

void HibernationManager::OnDoorbell(const std::string& pipeline) {
  core::PipelineDeployment* p = Find(pipeline);
  if (p == nullptr || !p->hibernated()) return;
  if (wake_pending_.count(pipeline) != 0) return;  // already ringing
  ++stats_.doorbell_wakes;
  VP_INFO("lifecycle") << "doorbell for hibernated pipeline '" << pipeline
                       << "' — queueing wake";
  SubmitWake(pipeline, nullptr);
}

void HibernationManager::RequestWake(const std::string& pipeline,
                                     serving::WakeupAdmission::DoneFn done) {
  core::PipelineDeployment* p = Find(pipeline);
  if (p == nullptr) {
    if (done) {
      done(Status(StatusCode::kNotFound,
                  "no deployed pipeline '" + pipeline + "'"));
    }
    return;
  }
  if (!p->hibernated() || wake_pending_.count(pipeline) != 0) {
    // Already awake or a wake is queued: coalesce.
    if (done) done(Status::Ok());
    return;
  }
  ++stats_.requested_wakes;
  SubmitWake(pipeline, std::move(done));
}

void HibernationManager::SubmitWake(const std::string& name,
                                    serving::WakeupAdmission::DoneFn done) {
  core::PipelineDeployment* p = Find(name);
  if (p == nullptr) return;
  wake_pending_.insert(name);
  const int priority_class = PriorityClassOf(*p);
  const TimePoint deadline =
      orchestrator_->cluster().Now() +
      (p->spec().deadline_ms > 0
           ? Duration::Millis(p->spec().deadline_ms)
           : options_.default_wake_deadline);
  auto wake = [this, name]() -> Status {
    core::PipelineDeployment* pipeline = Find(name);
    if (pipeline == nullptr) {
      return Status(StatusCode::kNotFound,
                    "pipeline '" + name + "' undeployed before wake");
    }
    if (!pipeline->hibernated()) return Status::Ok();
    // The real endpoints take the doorbells' place.
    RemoveDoorbells(name);
    Status woken = orchestrator_->WakePipeline(pipeline,
                                               MakeContextProvider());
    if (!woken.ok() && pipeline->hibernated()) {
      // Preflight refused (e.g. a target device is down): stay
      // hibernated and re-arm — the next trigger retries.
      ArmDoorbells(pipeline);
    }
    return woken;
  };
  auto finished = [this, name, done = std::move(done)](const Status& status) {
    wake_pending_.erase(name);
    if (status.ok()) {
      ++stats_.wakes;
      // Fresh idle window: a just-woken pipeline must not re-hibernate
      // before it has a chance to make progress.
      idle_.erase(name);
    } else {
      ++stats_.failed_wakes;
    }
    if (done) done(status);
  };
  admission_.Submit(name, priority_class, deadline, std::move(wake),
                    std::move(finished));
}

core::Orchestrator::ContextProvider
HibernationManager::MakeContextProvider() {
  return [this](const core::ModuleSpec& spec,
                const std::string& device) -> std::unique_ptr<script::Context> {
    (void)device;
    return pool_.Acquire(spec.code, core::ModuleScriptSeed(
                                        orchestrator_->options().seed,
                                        spec.name));
  };
}

int HibernationManager::PriorityClassOf(
    const core::PipelineDeployment& pipeline) const {
  return serving::PriorityClassFromName(pipeline.spec().priority);
}

core::PipelineDeployment* HibernationManager::Find(
    const std::string& pipeline) {
  for (const auto& owned : orchestrator_->pipelines()) {
    if (owned->spec().name == pipeline) return owned.get();
  }
  return nullptr;
}

size_t HibernationManager::ResidentScriptBytes(
    const core::PipelineDeployment& pipeline) {
  size_t bytes = 0;
  for (const auto& module : pipeline.modules()) {
    bytes += module->context().MemoryBytes();
  }
  for (const core::ModuleRuntime* retired : pipeline.retired_runtimes()) {
    bytes += retired->context().MemoryBytes();
  }
  return bytes;
}

}  // namespace vp::lifecycle
