#include "core/orchestrator.hpp"

#include <algorithm>

#include "common/log.hpp"
#include "media/codec.hpp"
#include "services/models.hpp"

namespace vp::core {

namespace {

net::Message MakeReply(const Result<json::Value>& result) {
  net::Message reply("reply");
  json::Value payload = json::Value::MakeObject();
  if (result.ok()) {
    payload["ok"] = json::Value(true);
    payload["result"] = result.value();
  } else {
    payload["ok"] = json::Value(false);
    payload["code"] = json::Value(StatusCodeName(result.error().code()));
    payload["message"] = json::Value(result.error().message());
  }
  reply.set_payload(std::move(payload));
  return reply;
}

Result<json::Value> ParseReply(const net::Message& reply) {
  const json::Value& payload = reply.payload();
  if (payload.GetBool("ok")) {
    const json::Value* result = payload.Find("result");
    return result ? *result : json::Value();
  }
  // Reconstruct the remote code faithfully: the retry policy must see
  // UNAVAILABLE/TIMEOUT as transient and everything else as final.
  return Error(StatusCodeFromName(payload.GetString("code", "UNKNOWN")),
               "service error: " + payload.GetString("message"));
}

bool RetryableCode(StatusCode code) {
  return code == StatusCode::kUnavailable || code == StatusCode::kTimeout;
}

/// The frame a payload's "frame_id" names; nullopt when it names none.
/// A number that is not a valid id maps to kInvalidFrameId, which
/// resolves nowhere — the NOT_FOUND an evicted id gets.
std::optional<media::FrameId> FrameIdOf(const json::Value& payload) {
  const json::Value* id = payload.Find("frame_id");
  if (id == nullptr || !id->is_number()) return std::nullopt;
  return media::FrameIdFromNumber(id->AsDouble());
}

/// A blocking call waits by suspending the handler fiber it runs on.
/// init() and top-level module code have none: they run synchronously
/// while a module starts (deploy, wake, migrate, restore), outside
/// virtual time. The blocking entry points check this before they
/// schedule anything, so a refused call leaves no event behind.
Status RequireHandlerFiber() {
  if (sim::Fiber::Current() != nullptr) return Status::Ok();
  return Status(StatusCode::kFailedPrecondition,
                "blocking call outside an event handler: init() runs "
                "outside virtual time; block from a set_timer(0, ...) "
                "event instead");
}

}  // namespace

ModuleRuntime* PipelineDeployment::FindModule(const std::string& name) {
  for (const auto& module : modules_) {
    if (module->name() == name) return module.get();
  }
  return nullptr;
}

Result<net::Address> PipelineDeployment::ModuleAddress(
    const std::string& name) const {
  auto it = addresses_.find(name);
  if (it == addresses_.end()) {
    return NotFound("no address for module '" + name + "'");
  }
  return it->second;
}

Orchestrator::Orchestrator(sim::Cluster* cluster, OrchestratorOptions options)
    : cluster_(cluster), options_(options), jitter_rng_(options.seed) {
  fabric_ = std::make_unique<net::Fabric>(cluster_);
  catalog_ = services::ServiceCatalog::WithBuiltins();
  services::ContainerOptions container_options = options_.container_options;
  container_options.cost_jitter = options_.service_cost_jitter;
  container_options.jitter_seed = options_.seed;
  containers_ = std::make_unique<services::ContainerRuntime>(
      cluster_, &catalog_, container_options);
  registry_ = std::make_unique<services::ServiceRegistry>(cluster_);
  autoscaler_ = std::make_unique<services::Autoscaler>(
      cluster_, containers_.get(), registry_.get(),
      options_.autoscaler_options);
  if (options_.serving.enabled) {
    // Batching keeps lane backlog pinned near 1 — queueing moves into
    // the scheduler, so the scheduler's pressure (queued + in-flight
    // per replica) is the honest autoscaler signal.
    autoscaler_->set_load_probe(
        [this](const std::string& device,
               const std::string& service) -> std::optional<double> {
          auto it = schedulers_.find({device, service});
          if (it == schedulers_.end()) return std::nullopt;
          return it->second->QueuePressure(cluster_->Now());
        });
  }

  // Model lifecycle: every replica of a model-backed service resolves
  // its version through the rollout controller, so replicas of one
  // group can run different versions (canary) and be hot-swapped.
  models_ = options_.models.registry != nullptr
                ? options_.models.registry
                : &modelreg::SharedModelRegistry();
  rollout_ = std::make_unique<modelreg::RolloutController>(
      &cluster_->simulator(), registry_.get(), models_);
  rollout_->set_default_policy(options_.models.rollout);
  rollout_->set_scheduler_lookup(
      [this](const std::string& device, const std::string& service) {
        return scheduler(device, service);
      });
  containers_->set_model_resolver(
      [this](const std::string& device, const std::string& service,
             const std::string& kind)
          -> std::shared_ptr<modelreg::ModelHandle> {
        // A managed group pins new replicas to its stable version
        // (mid-rollout scale-ups must not widen the canary surface).
        auto artifact = rollout_->StableArtifact(device, service);
        if (artifact == nullptr) {
          auto spec = services::DefaultModelSpecForService(service);
          if (!spec.has_value()) {
            return std::make_shared<modelreg::ModelHandle>(
                services::DefaultArtifactForKind(kind));
          }
          auto trained = models_->TrainOrGet(*spec);
          if (!trained.ok()) {
            VP_ERROR("orchestrator")
                << "model for " << device << "/" << service
                << " failed to train: " << trained.status().ToString();
            return nullptr;
          }
          artifact = *trained;
        }
        return std::make_shared<modelreg::ModelHandle>(std::move(artifact));
      });
  fiber_hook_ = cluster_->simulator().AddPostEventHook(
      [this]() { PumpFiberWaiters(); });
}

serving::RequestScheduler* Orchestrator::scheduler(
    const std::string& device, const std::string& service) {
  if (!options_.serving.enabled) return nullptr;
  auto it = schedulers_.find({device, service});
  if (it == schedulers_.end()) {
    it = schedulers_
             .emplace(std::make_pair(device, service),
                      std::make_unique<serving::RequestScheduler>(
                          &cluster_->simulator(), registry_.get(), device,
                          service, options_.serving.scheduler))
             .first;
  }
  return it->second.get();
}

Orchestrator::~Orchestrator() {
  // Unwind blocked handlers while members are still alive: each fiber
  // holds module/pipeline state on its stack whose destructors may
  // touch the orchestrator.
  DrainFibers();
  cluster_->simulator().RemovePostEventHook(fiber_hook_);
}

media::FrameStore& Orchestrator::store(const std::string& device) {
  auto it = stores_.find(device);
  if (it == stores_.end()) {
    it = stores_
             .emplace(device, std::make_unique<media::FrameStore>(
                                  options_.frame_store_capacity))
             .first;
  }
  return *it->second;
}

Status Orchestrator::Await(const bool& done) {
  if (done) return Status::Ok();
  VP_RETURN_IF_ERROR(RequireHandlerFiber());
  if (draining_fibers_) {
    return Status(StatusCode::kInternal,
                  "orchestrator shutting down while a module was blocked "
                  "on a service response");
  }
  // Suspend back to the simulator loop, never step it from here (a
  // re-entrant wait resumes late — see sim::Fiber). The post-event
  // hook resumes this fiber at the exact event that flips `done`.
  fiber_waiters_.push_back({&done, sim::Fiber::Current()});
  sim::Fiber::Suspend();
  if (!done) {
    // Woken by DrainFibers, not by the response: unwind.
    return Status(StatusCode::kInternal,
                  "orchestrator shut down while a module was blocked on "
                  "a service response");
  }
  return Status::Ok();
}

void Orchestrator::RunOnFiber(std::function<void()> body) {
  sim::Fiber* fiber = sim::Fiber::Spawn(std::move(body));
  // A suspended fiber registered itself in fiber_waiters_ (Await) and
  // is owned by the resume path from here on.
  if (fiber->finished()) delete fiber;
}

void Orchestrator::PumpFiberWaiters() {
  // Resume in suspension order. A resumed handler may finish, block
  // again (re-registering at the back) or flip another waiter's flag,
  // so rescan from the front until no waiter is ready.
  bool progress = true;
  while (progress) {
    progress = false;
    for (size_t i = 0; i < fiber_waiters_.size(); ++i) {
      if (!*fiber_waiters_[i].flag) continue;
      FiberWaiter waiter = fiber_waiters_[i];
      fiber_waiters_.erase(fiber_waiters_.begin() +
                           static_cast<ptrdiff_t>(i));
      waiter.fiber->Resume();
      if (waiter.fiber->finished()) delete waiter.fiber;
      progress = true;
      break;
    }
  }
}

void Orchestrator::DrainFibers() {
  draining_fibers_ = true;
  while (!fiber_waiters_.empty()) {
    FiberWaiter waiter = fiber_waiters_.front();
    fiber_waiters_.erase(fiber_waiters_.begin());
    waiter.fiber->Resume();
    // Await bounces re-blocks while draining, so the handler must have
    // run to completion.
    if (waiter.fiber->finished()) delete waiter.fiber;
  }
}

Status Orchestrator::BlockOnLane(sim::ExecutionLane& lane, Duration cost) {
  VP_RETURN_IF_ERROR(RequireHandlerFiber());
  bool done = false;
  lane.Run(cost, [&done] { done = true; });
  return Await(done);
}

Status Orchestrator::SleepFor(Duration d) {
  bool done = false;
  cluster_->simulator().After(d, [&done] { done = true; });
  return Await(done);
}

net::Address Orchestrator::ServiceGateway(const std::string& device,
                                          const std::string& service) const {
  auto it = gateways_.find({device, service});
  return it == gateways_.end() ? net::Address{} : it->second;
}

Status Orchestrator::BindServiceGateway(const std::string& device,
                                        const std::string& service) {
  if (gateways_.count({device, service}) != 0) return Status::Ok();
  const net::Address address{device, AllocatePort()};
  Status bound = fabric_->Bind(
      address, [this, device, service](net::Message message,
                                       net::Responder respond) {
        if (!respond) return;  // services are request/response only

        if (serving::RequestScheduler* sched = scheduler(device, service)) {
          // Serving path: strip the piggybacked scheduling plan and
          // submit to the scheduler (which owns replica choice and
          // health). The gateway watchdog stays — a wedged replica
          // swallows its whole batch and the remote caller must still
          // get a timely TIMEOUT.
          auto answered = std::make_shared<bool>(false);
          net::Responder once = [answered, respond](net::Message reply) {
            if (*answered) return;
            *answered = true;
            respond(std::move(reply));
          };
          const Duration timeout = options_.service_call.timeout;
          cluster_->simulator().After(
              timeout, [answered, once, device, service, timeout] {
                if (*answered) return;
                once(MakeReply(Timeout(
                    "replica of '" + service + "' on " + device +
                    " did not answer within " +
                    std::to_string(
                        static_cast<long long>(timeout.millis())) +
                    " ms")));
              });

          json::Value payload = std::move(message.payload());
          serving::SchedulerRequest sreq;
          if (const json::Value* sv = payload.Find("__serving");
              sv != nullptr && sv->is_object()) {
            sreq.priority_class =
                serving::PriorityClassFromName(sv->GetString("class"));
            if (const json::Value* d = sv->Find("deadline_us");
                d != nullptr && d->is_number()) {
              sreq.deadline = TimePoint::FromMicros(
                  static_cast<int64_t>(d->AsDouble()));
            }
            payload.AsObject().Erase("__serving");
          }
          if (!message.parts().empty()) {
            // Remote caller shipped the frame. Decode cost is charged
            // with the batch (extra_cost) — the replica is not chosen
            // until dispatch, so there is no lane to charge yet.
            Bytes part = std::move(message.mutable_parts().front());
            sreq.extra_cost = media::DecodeCost(part.size());
            auto frame = media::EncodedFrame::Parse(std::move(part));
            if (!frame.ok()) {
              once(MakeReply(frame.error()));
              return;
            }
            sreq.request.frame =
                std::make_shared<const media::EncodedFrame>(std::move(*frame));
          }
          sreq.request.payload = std::move(payload);
          sreq.done = [once](Result<json::Value> result) {
            once(MakeReply(result));
          };
          sched->Submit(std::move(sreq));
          return;
        }

        services::ServiceInstance* instance =
            registry_->Find(device, service);
        if (instance == nullptr) {
          respond(MakeReply(
              Unavailable("no replica of '" + service + "' on " + device)));
          return;
        }

        // Gateway watchdog: first of {replica reply, timeout} wins. A
        // wedged replica swallows the request, so without this the
        // remote caller would hang for its full (laxer) budget and the
        // replica would never be health-marked.
        auto answered = std::make_shared<bool>(false);
        net::Responder once = [answered, respond](net::Message reply) {
          if (*answered) return;
          *answered = true;
          respond(std::move(reply));
        };
        const Duration timeout = options_.service_call.timeout;
        cluster_->simulator().After(
            timeout, [this, answered, instance, once, device, service,
                      timeout] {
              if (*answered) return;
              instance->MarkSuspected(cluster_->Now() +
                                      options_.service_call.suspect_duration);
              once(MakeReply(Timeout(
                  "replica of '" + service + "' on " + device +
                  " did not answer within " +
                  std::to_string(static_cast<long long>(timeout.millis())) +
                  " ms")));
            });

        json::Value payload = std::move(message.payload());
        if (!message.parts().empty()) {
          // Remote caller shipped the frame: decode on this replica's
          // lane (charged), then handle.
          Bytes part = std::move(message.mutable_parts().front());
          const Duration decode_cost = media::DecodeCost(part.size());
          instance->lane()->Run(
              decode_cost,
              [instance, payload = std::move(payload),
               part = std::move(part), once]() mutable {
                services::ServiceRequest request;
                request.payload = std::move(payload);
                auto frame = media::EncodedFrame::Parse(std::move(part));
                if (!frame.ok()) {
                  once(MakeReply(frame.error()));
                  return;
                }
                request.frame = std::make_shared<const media::EncodedFrame>(
                    std::move(*frame));
                instance->Invoke(std::move(request),
                                 [once](Result<json::Value> result) {
                                   once(MakeReply(result));
                                 });
              });
          return;
        }
        services::ServiceRequest request;
        request.payload = std::move(payload);
        instance->Invoke(std::move(request),
                         [once](Result<json::Value> result) {
                           once(MakeReply(result));
                         });
      });
  if (!bound.ok()) return bound;
  gateways_[{device, service}] = address;
  return Status::Ok();
}

Status Orchestrator::EnsureServiceDeployed(const std::string& device,
                                           const std::string& service,
                                           bool native) {
  VP_RETURN_IF_ERROR(BindServiceGateway(device, service));
  if (registry_->Find(device, service) != nullptr) {
    return Status::Ok();  // shared with a previously deployed pipeline
  }
  auto instance = native ? containers_->LaunchNative(device, service)
                         : containers_->Launch(device, service);
  if (!instance.ok()) return instance.status();
  const bool model_backed = (*instance)->model_handle() != nullptr;
  auto stable = model_backed ? (*instance)->model_handle()->artifact()
                             : nullptr;
  registry_->Add(std::move(*instance));
  if (stable != nullptr) {
    // First replica of a model-backed group: the rollout controller
    // starts managing it with the replica's version as stable
    // (idempotent for an already-managed group).
    VP_RETURN_IF_ERROR(rollout_->AdoptGroup(device, service, stable));
  }
  VP_INFO("orchestrator") << "launched " << service << " on " << device
                          << (native ? " (native)" : " (container)");
  return Status::Ok();
}

Status Orchestrator::ScaleService(const std::string& device,
                                  const std::string& service) {
  if (registry_->Find(device, service) == nullptr) {
    return Status(StatusCode::kNotFound,
                  "no existing replica of '" + service + "' on " + device);
  }
  auto instance = containers_->Launch(device, service);
  if (!instance.ok()) return instance.status();
  registry_->Add(std::move(*instance));
  return Status::Ok();
}

Status Orchestrator::BeginModelRollout(
    const std::string& device, const std::string& service,
    const modelreg::ModelSpec& candidate_spec,
    std::optional<modelreg::RolloutPolicy> policy) {
  if (registry_->Find(device, service) == nullptr) {
    return Status(StatusCode::kNotFound,
                  "no deployed replica of '" + service + "' on " + device);
  }
  // Canary needs company: at least one replica keeps the incumbent.
  while (registry_->Replicas(device, service).size() < 2) {
    VP_RETURN_IF_ERROR(ScaleService(device, service));
  }
  auto candidate = models_->TrainOrGet(candidate_spec);
  if (!candidate.ok()) return candidate.status();
  return rollout_->BeginRollout(device, service, *candidate,
                                std::move(policy));
}

Status Orchestrator::AbortModelRollout(const std::string& device,
                                       const std::string& service) {
  if (!rollout_->Manages(device, service)) {
    return Status(StatusCode::kNotFound,
                  "no managed model group " + device + "/" + service);
  }
  if (rollout_->phase(device, service) != modelreg::RolloutPhase::kCanary) {
    return Status::Ok();  // nothing in flight
  }
  return rollout_->CancelRollout(device, service);
}

Status Orchestrator::RevertModel(const std::string& device,
                                 const std::string& service,
                                 const std::string& version_id) {
  if (!rollout_->Manages(device, service)) {
    return Status(StatusCode::kNotFound,
                  "no managed model group " + device + "/" + service);
  }
  auto artifact = models_->Find(version_id);
  if (artifact == nullptr) {
    return Status(StatusCode::kNotFound,
                  "model version '" + version_id + "' not in the registry");
  }
  if (rollout_->phase(device, service) == modelreg::RolloutPhase::kCanary) {
    VP_RETURN_IF_ERROR(rollout_->CancelRollout(device, service));
  }
  if (rollout_->stable_version(device, service) == version_id) {
    // Already on (or draining back to) the requested version.
    return Status::Ok();
  }
  if (rollout_->phase(device, service) != modelreg::RolloutPhase::kStable) {
    return Status(StatusCode::kUnavailable,
                  device + "/" + service +
                      " is still settling a rollback; retry the revert");
  }
  return rollout_->UpgradeStable(device, service, artifact);
}

void Orchestrator::RegisterModelGroupsForFaults(
    sim::FaultInjector& injector) {
  for (const auto& [device, service] : rollout_->groups()) {
    sim::ModelHooks hooks;
    hooks.poison = [this, device = device, service = service] {
      auto stable = rollout_->StableArtifact(device, service);
      if (stable == nullptr) return;
      const modelreg::ModelSpec bad = modelreg::PoisonedVariant(stable->spec);
      VP_WARN("orchestrator")
          << "model poison on " << device << "/" << service
          << ": staging bad candidate " << bad.ContentId();
      const Status status = BeginModelRollout(device, service, bad);
      if (!status.ok()) {
        VP_ERROR("orchestrator") << "poison rollout failed to start: "
                                 << status.ToString();
      }
    };
    injector.RegisterModelGroup(device + "/" + service, std::move(hooks));
  }
}

Result<PipelineDeployment*> Orchestrator::Deploy(PipelineSpec spec,
                                                 DeployArgs args) {
  auto plan = PlanDeployment(spec, *cluster_, args.placement);
  if (!plan.ok()) return plan.error();

  auto deployment = std::make_unique<PipelineDeployment>();
  deployment->spec_ = std::move(spec);
  deployment->plan_ = std::move(*plan);
  deployment->placement_ = args.placement;  // re-planned on device failure
  deployment->metrics_.set_trace_retention(options_.trace_retention);
  const PipelineSpec& pspec = deployment->spec_;
  const DeploymentPlan& pplan = deployment->plan_;
  deployment->source_device_ = pplan.module_device.at(pspec.source.module);

  // 1. Services (shared across pipelines when already running).
  for (const auto& [service, device] : pplan.service_device) {
    VP_RETURN_IF_ERROR_R(
        EnsureServiceDeployed(device, service, pplan.IsNative(service)));
    // A config "rollout" block tunes the canary policy of every
    // model-backed group the pipeline touches.
    if (pspec.rollout.has_value() && rollout_->Manages(device, service)) {
      rollout_->SetGroupPolicy(device, service, *pspec.rollout);
    }
  }

  // 2. Module addresses. Configured ports are honored when free;
  //    conflicts (e.g. two pipelines from the same template) fall back
  //    to auto-assigned ports.
  for (const ModuleSpec& m : pspec.modules) {
    const std::string& device = pplan.module_device.at(m.name);
    uint16_t port = m.endpoint.port;
    if (port == 0 || fabric_->IsBound(net::Address{device, port})) {
      port = AllocatePort();
    }
    deployment->addresses_[m.name] = net::Address{device, port};
  }

  // 3. Script module runtimes.
  deployment->extra_host_functions_ = args.extra_host_functions;
  for (const ModuleSpec& m : pspec.modules) {
    if (m.type != ModuleType::kScript) continue;
    const std::string& device = pplan.module_device.at(m.name);
    auto runtime = std::make_unique<ModuleRuntime>(
        this, deployment.get(), &m, device, deployment->addresses_[m.name]);
    ModuleRuntime* raw = runtime.get();
    VP_RETURN_IF_ERROR_R(fabric_->Bind(
        deployment->addresses_[m.name],
        [raw](net::Message message, net::Responder) {
          raw->OnMessage(std::move(message));
        }));
    std::vector<std::pair<std::string, script::HostFunction>> extras;
    if (auto it = args.extra_host_functions.find(m.name);
        it != args.extra_host_functions.end()) {
      extras = it->second;
    }
    VP_RETURN_IF_ERROR_R(runtime->Initialize(extras));
    deployment->modules_.push_back(std::move(runtime));
  }

  // 4. Camera (source module + native video-source service).
  const ModuleSpec* source = pspec.FindModule(pspec.source.module);
  sim::Device* source_device =
      cluster_->FindDevice(deployment->source_device_);
  deployment->camera_lane_ = std::make_unique<sim::ExecutionLane>(
      &cluster_->simulator(), deployment->source_device_ + "/camera",
      source_device->spec().cpu_speed);

  media::SceneOptions scene = args.scene;
  scene.width = pspec.source.width;
  scene.height = pspec.source.height;
  media::SyntheticVideoSource video_source(std::move(args.workload),
                                           pspec.source.fps, scene,
                                           args.seed);

  deployment->camera_address_ =
      net::Address{deployment->source_device_, AllocatePort()};

  PipelineDeployment* raw_deployment = deployment.get();
  std::vector<std::string> targets = source->next_modules;
  auto emit = [this, raw_deployment, targets](uint64_t seq,
                                              TimePoint capture,
                                              Bytes encoded) {
    (void)capture;
    for (const std::string& target : targets) {
      net::Message message("frame");
      message.set_sender(raw_deployment->spec_.source.module);
      message.set_seq(seq);
      // Stamp the source module's placement epoch so receivers can
      // fence frames from a superseded (zombie) source instance.
      message.set_fence_epoch(
          raw_deployment->module_epoch(raw_deployment->spec_.source.module));
      json::Value payload = json::Value::MakeObject();
      payload["seq"] = json::Value(static_cast<double>(seq));
      message.set_payload(std::move(payload));
      message.AddPart(encoded);  // copy when fanning out
      Status pushed = fabric_->Push(raw_deployment->source_device_,
                                    raw_deployment->addresses_.at(target),
                                    std::move(message));
      if (!pushed.ok()) {
        VP_WARN("orchestrator")
            << "camera push failed: " << pushed.ToString();
      }
    }
  };
  deployment->camera_ = std::make_unique<CameraDriver>(
      &cluster_->simulator(), deployment->camera_lane_.get(),
      std::move(video_source), &deployment->metrics_, std::move(emit),
      options_.camera_options);

  CameraDriver* camera = deployment->camera_.get();
  VP_RETURN_IF_ERROR_R(fabric_->Bind(
      deployment->camera_address_,
      [camera](net::Message message, net::Responder) {
        if (message.type() == "credit") camera->OnCredit(message.seq());
      }));

  VP_INFO("orchestrator") << "deployed pipeline '" << pspec.name
                          << "': " << pplan.ToString();
  pipelines_.push_back(std::move(deployment));
  return pipelines_.back().get();
}

void Orchestrator::StartAll() {
  for (const auto& pipeline : pipelines_) pipeline->Start();
}

void Orchestrator::RunFor(Duration duration) {
  cluster_->simulator().RunUntil(cluster_->Now() + duration);
  Housekeep();
}

void Orchestrator::Housekeep() {
  SyncReplicaDowntime();
  ReclaimDrained();
}

void Orchestrator::ReclaimDrained() {
  const Duration window = options_.retired_drain_window;
  if (!(window > Duration::Zero())) return;
  const TimePoint now = cluster_->Now();
  // A runtime is drained once it is idle and the window has elapsed
  // past both its retirement and its drain watermark (the latest time
  // any in-flight sim event — lane completion, set_timer() — may still
  // dereference it).
  auto drained = [&](const ModuleRuntime& rt, TimePoint since) {
    return !rt.busy() && now >= since + window &&
           now >= rt.drain_deadline() + window;
  };
  for (const auto& pipeline : pipelines_) {
    auto& retired = pipeline->retired_modules_;
    retired.erase(
        std::remove_if(retired.begin(), retired.end(),
                       [&](const PipelineDeployment::RetiredModule& r) {
                         return drained(*r.runtime, r.retired_at);
                       }),
        retired.end());
  }
  undeployed_.erase(
      std::remove_if(undeployed_.begin(), undeployed_.end(),
                     [&](const Undeployed& u) {
                       if (now < u.at + window) return false;
                       for (const auto& m : u.pipeline->modules_) {
                         if (!drained(*m, u.at)) return false;
                       }
                       for (const auto& r : u.pipeline->retired_modules_) {
                         if (!drained(*r.runtime, r.retired_at)) return false;
                       }
                       return true;
                     }),
      undeployed_.end());
}

void Orchestrator::SyncReplicaDowntime() {
  const TimePoint now = cluster_->Now();
  for (const auto& pipeline : pipelines_) {
    Duration downtime;
    for (const auto& [service, device] : pipeline->plan().service_device) {
      for (services::ServiceInstance* replica :
           registry_->Replicas(device, service)) {
        downtime = downtime + replica->downtime(now);
      }
    }
    pipeline->metrics().set_replica_downtime(downtime);
  }
}

Result<json::Value> Orchestrator::CallService(ModuleRuntime& caller,
                                              const std::string& service,
                                              json::Value payload) {
  VP_RETURN_IF_ERROR_R(RequireHandlerFiber());
  const DeploymentPlan& plan = caller.pipeline().plan();
  auto it = plan.service_device.find(service);
  if (it == plan.service_device.end()) {
    return NotFound("service '" + service + "' not in the deployment plan");
  }
  const std::string& host_device = it->second;
  const ServiceCallOptions& rc = options_.service_call;
  PipelineMetrics& metrics = caller.pipeline().metrics();

  // Serving-layer plan: the pipeline's declared priority class, and —
  // when the spec sets deadline_ms — the absolute deadline measured
  // from the *frame's capture time* (queueing upstream already ate
  // part of the budget), falling back to now for non-frame calls.
  const int priority =
      serving::PriorityClassFromName(caller.pipeline().spec().priority);
  std::optional<TimePoint> deadline;
  if (options_.serving.enabled && caller.pipeline().spec().deadline_ms > 0) {
    TimePoint base = cluster_->Now();
    auto trace = metrics.traces().find(caller.current_seq());
    if (trace != metrics.traces().end()) base = trace->second.capture;
    deadline = base + Duration::Millis(caller.pipeline().spec().deadline_ms);
  }

  Result<json::Value> result{json::Value()};
  for (int attempt = 0;; ++attempt) {
    result = CallServiceOnce(caller, service, host_device, payload, priority,
                             deadline);
    if (result.ok()) break;
    if (result.error().code() == StatusCode::kTimeout) {
      metrics.OnCallTimeout();
    }
    if (!RetryableCode(result.error().code()) || attempt >= rc.max_retries) {
      break;
    }
    metrics.OnRetry();
    Duration backoff = rc.backoff_base;
    for (int k = 0; k < attempt; ++k) backoff = backoff * rc.backoff_multiplier;
    if (backoff > Duration::Zero()) VP_RETURN_IF_ERROR_R(SleepFor(backoff));
  }
  if (result.ok()) {
    if (deadline.has_value() && cluster_->Now() > *deadline) {
      metrics.OnDeadlineMiss();
    }
    return result;
  }
  if (result.error().code() == StatusCode::kDeadlineExceeded) {
    // The serving layer shed the request. Same graceful-degradation
    // contract as retry exhaustion: a handler may catch
    // DEADLINE_EXCEEDED and degrade; an uncaught one drops the frame
    // and returns its credit instead of wedging the pipeline.
    metrics.OnRequestShed();
    caller.NoteServiceCallExhausted();
    VP_WARN("orchestrator")
        << caller.name() << ": call to '" << service
        << "' shed by the serving layer: " << result.error().ToString();
    return result;
  }
  if (RetryableCode(result.error().code())) {
    // Retry budget exhausted on a transient failure. Flag the caller:
    // if its handler does not catch and recover, the frame is dropped
    // and its credit returned (graceful degradation — the pipeline
    // never wedges on a dead service).
    caller.NoteServiceCallExhausted();
    VP_WARN("orchestrator")
        << caller.name() << ": call to '" << service << "' failed after "
        << (rc.max_retries + 1)
        << " attempts: " << result.error().ToString();
  }
  return result;
}

Result<json::Value> Orchestrator::CallServiceOnce(
    ModuleRuntime& caller, const std::string& service,
    const std::string& host_device, const json::Value& payload,
    int priority_class, std::optional<TimePoint> deadline) {
  const ServiceCallOptions& rc = options_.service_call;

  // ---- Co-located: in-process call, frame by reference. --------------
  if (host_device == caller.device()) {
    services::ServiceRequest request;
    if (auto frame_id = FrameIdOf(payload)) {
      auto frame = store(caller.device()).Get(*frame_id);
      if (!frame.ok()) return frame.error();
      request.frame = *frame;
    }
    request.payload = payload;  // copy: a retry reuses the original

    if (serving::RequestScheduler* sched = scheduler(host_device, service)) {
      // Serving path: same caller-side timeout scaffolding as the
      // direct path, but the request goes through the scheduler, which
      // owns replica choice, batching and health — so a timeout here
      // (could be queueing, not a sick replica) marks nothing suspect.
      auto state = std::make_shared<PendingResult>();
      const uint64_t timer = cluster_->simulator().After(
          rc.timeout, [state, service, host_device, rc] {
            if (state->done) return;
            state->done = true;
            state->value = Result<json::Value>(Timeout(
                "call to '" + service + "' on " + host_device +
                " timed out after " +
                std::to_string(static_cast<long long>(rc.timeout.millis())) +
                " ms"));
          });
      const Duration ipc = cluster_->network().loopback_delay();
      cluster_->simulator().After(
          ipc, [this, sched, state, ipc, priority_class, deadline,
                request = std::move(request)]() mutable {
            serving::SchedulerRequest sreq;
            sreq.request = std::move(request);
            sreq.priority_class = priority_class;
            sreq.deadline = deadline;
            sreq.done = [this, state, ipc](Result<json::Value> result) {
              cluster_->simulator().After(
                  ipc, [state, result = std::move(result)]() mutable {
                    if (state->done) return;
                    state->value = std::move(result);
                    state->done = true;
                  });
            };
            sched->Submit(std::move(sreq));
          });
      VP_RETURN_IF_ERROR_R(Await(state->done));
      cluster_->simulator().Cancel(timer);  // no-op if it already fired
      return std::move(state->value);
    }

    services::ServiceInstance* instance =
        registry_->Find(host_device, service);
    if (instance == nullptr) {
      return Unavailable("no available replica of '" + service + "' on " +
                         host_device);
    }
    // The call state is shared: after a timeout resolves the attempt,
    // the late replica reply (if it ever comes) must find the state
    // alive and see done == true, not a dangling stack frame.
    auto state = std::make_shared<PendingResult>();
    const uint64_t deadline = cluster_->simulator().After(
        rc.timeout, [this, state, instance, service, host_device, rc] {
          if (state->done) return;
          state->done = true;
          state->value = Result<json::Value>(Timeout(
              "call to '" + service + "' on " + host_device +
              " timed out after " +
              std::to_string(static_cast<long long>(rc.timeout.millis())) +
              " ms"));
          instance->MarkSuspected(cluster_->Now() + rc.suspect_duration);
        });
    const Duration ipc = cluster_->network().loopback_delay();
    cluster_->simulator().After(
        ipc, [this, instance, state, ipc,
              request = std::move(request)]() mutable {
          instance->Invoke(
              std::move(request),
              [this, state, ipc](Result<json::Value> result) {
                cluster_->simulator().After(
                    ipc, [state, result = std::move(result)]() mutable {
                      if (state->done) return;
                      state->value = std::move(result);
                      state->done = true;
                    });
              });
        });
    VP_RETURN_IF_ERROR_R(Await(state->done));
    cluster_->simulator().Cancel(deadline);  // no-op if it already fired
    return std::move(state->value);
  }

  // ---- Remote: ship the request (and the frame) over the network. -----
  net::Message message("request");
  message.set_sender(caller.name());
  message.set_seq(caller.current_seq());
  json::Value body = payload;  // copy: a retry rebuilds from the original
  if (auto frame_id = FrameIdOf(body)) {
    auto frame = store(caller.device()).Get(*frame_id);
    if (!frame.ok()) return frame.error();
    body.AsObject().Erase("frame_id");  // remote ids are meaningless
    message.AddPart((*frame)->wire());
  }
  if (options_.serving.enabled) {
    // Piggyback the scheduling plan; the remote gateway strips it
    // before the payload reaches the service handler.
    json::Value sv = json::Value::MakeObject();
    sv["class"] =
        json::Value(std::string(serving::PriorityClassName(priority_class)));
    if (deadline.has_value()) {
      sv["deadline_us"] =
          json::Value(static_cast<double>(deadline->micros()));
    }
    body["__serving"] = std::move(sv);
  }
  message.set_payload(std::move(body));

  const net::Address gateway = ServiceGateway(host_device, service);
  if (gateway.device.empty()) {
    return Unavailable("no gateway for '" + service + "' on " + host_device);
  }
  // Caller-side backstop: the gateway already enforces `timeout` per
  // replica, so grant it slack for the two network legs; this timer
  // only decides when the gateway's answer (or the message) was lost.
  auto state = std::make_shared<PendingResult>();
  const Duration budget = rc.timeout + rc.remote_slack;
  const uint64_t backstop = cluster_->simulator().After(
      budget, [state, service, host_device, budget] {
        if (state->done) return;
        state->done = true;
        state->value = Result<json::Value>(Timeout(
            "no reply from gateway of '" + service + "' on " + host_device +
            " within " +
            std::to_string(static_cast<long long>(budget.millis())) + " ms"));
      });
  Status sent = fabric_->Request(
      caller.device(), gateway, std::move(message),
      [state](Result<net::Message> reply) {
        if (state->done) return;
        state->value = reply.ok() ? ParseReply(*reply)
                                  : Result<json::Value>(reply.error());
        state->done = true;
      });
  if (!sent.ok()) {
    cluster_->simulator().Cancel(backstop);
    return sent.error();
  }
  VP_RETURN_IF_ERROR_R(Await(state->done));
  cluster_->simulator().Cancel(backstop);
  return std::move(state->value);
}

Status Orchestrator::SendToModule(ModuleRuntime& caller,
                                  const std::string& target,
                                  json::Value payload) {
  PipelineDeployment& pipeline = caller.pipeline();
  auto address = pipeline.ModuleAddress(target);
  if (!address.ok()) return address.status();
  const std::string& target_device = pipeline.plan().module_device.at(target);

  net::Message message("event");
  message.set_sender(caller.name());
  message.set_seq(caller.current_seq());
  // Stamp the caller's placement epoch: if this runtime was superseded
  // by failure recovery while partitioned away, receivers fence it.
  message.set_fence_epoch(caller.epoch());

  if (auto frame_id = FrameIdOf(payload)) {
    auto frame = store(caller.device()).Get(*frame_id);
    if (target_device != caller.device()) {
      if (!frame.ok()) return frame.status();
      payload.AsObject().Erase("frame_id");
      message.AddPart((*frame)->wire());
    } else if (frame.ok()) {
      // The id travels as is; the message keeps the frame resident
      // until the receiving handler is done with it.
      message.Hold(std::move(*frame));
    }
  }
  message.set_payload(std::move(payload));
  return fabric_->Push(caller.device(), *address, std::move(message));
}

Status Orchestrator::MigrateModule(PipelineDeployment& pipeline,
                                   const std::string& module,
                                   const std::string& target_device) {
  if (cluster_->FindDevice(target_device) == nullptr) {
    return Status(StatusCode::kNotFound,
                  "unknown device '" + target_device + "'");
  }
  ModuleRuntime* old_runtime = pipeline.FindModule(module);
  if (old_runtime == nullptr) {
    return Status(StatusCode::kNotFound,
                  "no script module '" + module + "' in pipeline '" +
                      pipeline.spec().name + "'");
  }
  const ModuleSpec* spec = pipeline.spec().FindModule(module);
  if (old_runtime->device() == target_device) return Status::Ok();

  // Snapshot, then cut the old instance off the fabric. Messages that
  // arrive before the new instance is up are dropped (watchdog
  // recovers the credit).
  const json::Value snapshot = old_runtime->context().SnapshotState();
  const std::string old_device = old_runtime->device();
  fabric_->Unbind(old_runtime->address());

  const net::Address new_address{target_device, AllocatePort()};
  auto runtime = std::make_unique<ModuleRuntime>(
      this, &pipeline, spec, target_device, new_address);
  std::vector<std::pair<std::string, script::HostFunction>> extras;
  if (auto it = pipeline.extra_host_functions_.find(module);
      it != pipeline.extra_host_functions_.end()) {
    extras = it->second;
  }
  VP_RETURN_IF_ERROR(runtime->Initialize(extras));
  VP_RETURN_IF_ERROR(runtime->context().RestoreState(snapshot));
  // Migration is a synchronous same-lineage handoff: the new instance
  // keeps the epoch (no fence — in-flight frames stay valid).
  runtime->set_epoch(old_runtime->epoch());

  ModuleRuntime* raw = runtime.get();
  // Ship the state over the network; the new instance goes live (binds
  // its endpoint) when the snapshot arrives. Reliable: a transient
  // partition or corrupted transfer must delay the cutover, not leave
  // the module permanently unbound.
  net::Message state_transfer("migrate", snapshot);
  const size_t transfer_bytes = state_transfer.ByteSize();
  cluster_->network().SendReliable(
      old_device, target_device, transfer_bytes,
      [this, raw, new_address] {
        Status bound = fabric_->Bind(
            new_address, [raw](net::Message message, net::Responder) {
              raw->OnMessage(std::move(message));
            });
        if (!bound.ok()) {
          VP_ERROR("orchestrator")
              << "migration bind failed: " << bound.ToString();
        }
      });

  // Retire the old runtime (kept alive: an in-flight handler may still
  // be executing on it) and route the module name to the new one.
  for (auto& owned : pipeline.modules_) {
    if (owned.get() == old_runtime) {
      pipeline.retired_modules_.push_back(
          {std::move(owned), cluster_->Now()});
      owned = std::move(runtime);
      break;
    }
  }
  pipeline.addresses_[module] = new_address;
  pipeline.plan_.module_device[module] = target_device;
  VP_INFO("orchestrator") << "migrated " << module << ": " << old_device
                          << " → " << target_device << " ("
                          << transfer_bytes << " B of state)";
  return Status::Ok();
}

Status Orchestrator::Undeploy(PipelineDeployment* pipeline) {
  auto it = std::find_if(pipelines_.begin(), pipelines_.end(),
                         [pipeline](const auto& owned) {
                           return owned.get() == pipeline;
                         });
  if (it == pipelines_.end()) {
    return Status(StatusCode::kNotFound,
                  "pipeline is not currently deployed");
  }
  pipeline->Stop();
  fabric_->Unbind(pipeline->camera_address());
  for (const auto& [module, address] : pipeline->addresses_) {
    fabric_->Unbind(address);
  }
  VP_INFO("orchestrator") << "undeployed pipeline '"
                          << pipeline->spec().name << "'";
  undeployed_.push_back({std::move(*it), cluster_->Now()});
  pipelines_.erase(it);
  return Status::Ok();
}

Status Orchestrator::HibernatePipeline(PipelineDeployment* pipeline) {
  auto it = std::find_if(pipelines_.begin(), pipelines_.end(),
                         [pipeline](const auto& owned) {
                           return owned.get() == pipeline;
                         });
  if (it == pipelines_.end()) {
    return Status(StatusCode::kNotFound,
                  "pipeline is not currently deployed");
  }
  if (pipeline->hibernated_) return Status::Ok();
  if (pipeline->paused_by_failure_) {
    return Status(StatusCode::kFailedPrecondition,
                  "pipeline '" + pipeline->spec_.name +
                      "' is paused by a source-device failure");
  }
  const TimePoint now = cluster_->Now();

  // 1. Snapshot every module BEFORE touching anything, so a failure
  // here leaves the pipeline running untouched. Snapshotting a busy
  // module is safe: globals are readable mid-handler, and the retired
  // runtime below finishes its handler on its own fiber.
  pipeline->hibernation_checkpoints_.clear();
  for (const auto& m : pipeline->modules_) {
    ModuleCheckpoint checkpoint;
    checkpoint.state = m->context().SnapshotState();
    checkpoint.taken_at = now;
    checkpoint.epoch = m->epoch();
    pipeline->hibernation_checkpoints_[m->name()] = std::move(checkpoint);
  }

  // 2. Quiesce the source. The camera object stays constructed (it is
  // the device's sensor and holds the seq counter the single-slot
  // credit protocol depends on) — it just stops emitting. The
  // in-flight frame, if any, is written off: its credit would
  // otherwise chase endpoints we are about to unbind.
  pipeline->camera_->Stop();
  pipeline->camera_->WriteOffOutstanding();

  // 3. Release the network: camera credit endpoint + module endpoints.
  // The addresses themselves are REMEMBERED (addresses_) — wake
  // rebinds the same ports so the emit path and port-layout
  // determinism survive a hibernate/wake cycle.
  fabric_->Unbind(pipeline->camera_address_);
  for (const auto& [module, address] : pipeline->addresses_) {
    fabric_->Unbind(address);
  }

  // 4. Release the script contexts: retire every runtime. In-flight
  // events (handler completions, set_timer callbacks) keep the retired
  // instance alive until its drain watermark passes; ReclaimDrained
  // then frees the context memory — the actual scale-to-zero win.
  for (auto& m : pipeline->modules_) {
    pipeline->retired_modules_.push_back({std::move(m), now});
  }
  pipeline->modules_.clear();

  // 5. Frame-store buffers: clear stores on devices no other active
  // pipeline touches (shared devices keep their slots — another
  // pipeline's frames may be resident).
  auto device_shared = [&](const std::string& device) {
    for (const auto& other : pipelines_) {
      if (other.get() == pipeline || other->hibernated_) continue;
      if (other->source_device_ == device) return true;
      for (const auto& [mod, dev] : other->plan_.module_device) {
        if (dev == device) return true;
      }
      for (const auto& [svc, dev] : other->plan_.service_device) {
        if (dev == device) return true;
      }
    }
    return false;
  };
  std::vector<std::string> devices;
  devices.push_back(pipeline->source_device_);
  for (const auto& [mod, dev] : pipeline->plan_.module_device) {
    devices.push_back(dev);
  }
  std::sort(devices.begin(), devices.end());
  devices.erase(std::unique(devices.begin(), devices.end()), devices.end());
  for (const std::string& device : devices) {
    if (device_shared(device)) continue;
    if (auto sit = stores_.find(device); sit != stores_.end()) {
      sit->second->Clear();
    }
  }

  pipeline->hibernated_ = true;
  pipeline->hibernated_at_ = now;
  ++hibernations_;
  VP_INFO("orchestrator") << "hibernated pipeline '" << pipeline->spec_.name
                          << "' (" << pipeline->hibernation_checkpoints_.size()
                          << " module checkpoints held)";
  return Status::Ok();
}

Status Orchestrator::WakePipeline(PipelineDeployment* pipeline,
                                  const ContextProvider& contexts) {
  auto it = std::find_if(pipelines_.begin(), pipelines_.end(),
                         [pipeline](const auto& owned) {
                           return owned.get() == pipeline;
                         });
  if (it == pipelines_.end()) {
    return Status(StatusCode::kNotFound,
                  "pipeline is not currently deployed");
  }
  if (!pipeline->hibernated_) return Status::Ok();

  // Preflight: every device the placement needs must be up, or the
  // pipeline STAYS hibernated (retryable — the admission queue or the
  // next frame trigger tries again after recovery).
  auto device_up = [&](const std::string& name) {
    sim::Device* dev = cluster_->FindDevice(name);
    return dev != nullptr && dev->up();
  };
  if (!device_up(pipeline->source_device_)) {
    return Status(StatusCode::kFailedPrecondition,
                  "wake blocked: source device '" +
                      pipeline->source_device_ + "' is down");
  }
  for (const auto& [module, device] : pipeline->plan_.module_device) {
    if (!device_up(device)) {
      return Status(StatusCode::kFailedPrecondition,
                    "wake blocked: device '" + device + "' is down");
    }
  }

  // Rebuild the module runtimes in spec order (same as Deploy). Each
  // wake starts a new placement epoch — anything a pre-hibernation
  // zombie still emits is fenced — but REUSES the old address, so the
  // camera's emit closure and the port layout are untouched.
  const TimePoint now = cluster_->Now();
  for (const ModuleSpec& m : pipeline->spec_.modules) {
    if (m.type != ModuleType::kScript) continue;
    const std::string& device = pipeline->plan_.module_device.at(m.name);
    const uint64_t new_epoch = pipeline->module_epoch(m.name) + 1;
    pipeline->module_epochs_[m.name] = new_epoch;
    const net::Address address = pipeline->addresses_.at(m.name);

    auto runtime = std::make_unique<ModuleRuntime>(this, pipeline, &m,
                                                   device, address);
    runtime->set_epoch(new_epoch);
    std::vector<std::pair<std::string, script::HostFunction>> extras;
    if (auto eit = pipeline->extra_host_functions_.find(m.name);
        eit != pipeline->extra_host_functions_.end()) {
      extras = eit->second;
    }
    // Hot path: a pooled, pre-Loaded context skips parse + resolve +
    // compile + Load. Cold path: full Initialize (which itself hits
    // the shared program cache for the compile step).
    std::unique_ptr<script::Context> pooled =
        contexts ? contexts(m, device) : nullptr;
    VP_RETURN_IF_ERROR(pooled != nullptr
                           ? runtime->InitializeWith(std::move(pooled),
                                                     extras)
                           : runtime->Initialize(extras));

    if (auto cit = pipeline->hibernation_checkpoints_.find(m.name);
        cit != pipeline->hibernation_checkpoints_.end()) {
      const ModuleCheckpoint& checkpoint = cit->second;
      if (checkpoint.epoch + 1 < new_epoch) {
        // A recovery ran between snapshot and wake: the snapshot would
        // roll that state back. Start clean instead.
        pipeline->metrics_.OnCheckpointRejectedStale();
        VP_WARN("orchestrator")
            << "wake of '" << m.name << "': hibernation checkpoint is "
            << "stale (epoch " << checkpoint.epoch << " < current "
            << (new_epoch - 1) << "), starting clean";
      } else {
        VP_RETURN_IF_ERROR(
            runtime->context().RestoreState(checkpoint.state));
        pipeline->metrics_.OnCheckpointRestored(
            (now - checkpoint.taken_at).millis());
      }
    }

    // Bind synchronously: unlike failure recovery, the state never
    // left the home — there is no transfer to wait for.
    ModuleRuntime* raw = runtime.get();
    VP_RETURN_IF_ERROR(fabric_->Bind(
        address, [raw](net::Message message, net::Responder) {
          raw->OnMessage(std::move(message));
        }));
    pipeline->modules_.push_back(std::move(runtime));
  }

  // Rewire the camera's credit endpoint and restart the source.
  if (!fabric_->IsBound(pipeline->camera_address_)) {
    CameraDriver* camera = pipeline->camera_.get();
    VP_RETURN_IF_ERROR(fabric_->Bind(
        pipeline->camera_address_,
        [camera](net::Message message, net::Responder) {
          if (message.type() == "credit") camera->OnCredit(message.seq());
        }));
  }
  pipeline->hibernated_ = false;
  pipeline->camera_->WriteOffOutstanding();
  pipeline->camera_->Start();
  ++wakes_;
  VP_INFO("orchestrator") << "woke pipeline '" << pipeline->spec_.name
                          << "' after "
                          << (now - pipeline->hibernated_at_).millis()
                          << " ms hibernated";
  return Status::Ok();
}

size_t Orchestrator::hibernated_count() const {
  size_t count = 0;
  for (const auto& pipeline : pipelines_) {
    if (pipeline->hibernated_) ++count;
  }
  return count;
}

void Orchestrator::SignalSource(PipelineDeployment& pipeline,
                                const std::string& from_device,
                                uint64_t seq) {
  net::Message credit("credit");
  credit.set_sender("sink");
  credit.set_seq(seq);
  Status pushed = fabric_->Push(from_device, pipeline.camera_address_,
                                std::move(credit));
  if (!pushed.ok()) {
    VP_WARN("orchestrator") << "credit push failed: " << pushed.ToString();
  }
}

void Orchestrator::AbandonFrame(ModuleRuntime& caller, uint64_t seq) {
  PipelineDeployment& pipeline = caller.pipeline();
  pipeline.metrics().OnFrameAbandoned();
  VP_WARN("orchestrator") << "abandoning frame " << seq << " at module '"
                          << caller.name()
                          << "' (service retries exhausted); credit returned";
  SignalSource(pipeline, caller.device(), seq);
}

void Orchestrator::RegisterReplicasForFaults(sim::FaultInjector& injector) {
  std::map<std::pair<std::string, std::string>, int> index;
  for (services::ServiceInstance* instance : registry_->AllReplicas()) {
    if (instance->native()) continue;
    const int i = index[{instance->device(), instance->service_name()}]++;
    const std::string label = instance->device() + "/" +
                              instance->service_name() + "#" +
                              std::to_string(i);
    sim::ReplicaHooks hooks;
    hooks.crash = [this, instance] { instance->Crash(cluster_->Now()); };
    hooks.restart = [this, instance] {
      instance->Restart(cluster_->Now(), options_.container_options.startup);
    };
    hooks.set_wedged = [instance](bool wedged) {
      instance->SetWedged(wedged);
    };
    injector.RegisterReplica(label, std::move(hooks));
  }
}

void Orchestrator::RegisterDevicesForFaults(sim::FaultInjector& injector) {
  for (sim::Device* device : cluster_->devices()) {
    const std::string name = device->name();
    sim::DeviceHooks hooks;
    hooks.crash = [this, name] { HandleDeviceCrash(name); };
    hooks.reboot = [this, name] { HandleDeviceReboot(name); };
    injector.RegisterDevice(name, std::move(hooks));
  }
}

void Orchestrator::HandleDeviceCrash(const std::string& device) {
  sim::Device* dev = cluster_->FindDevice(device);
  if (dev == nullptr || !dev->up()) return;
  dev->Crash();
  // Everything in the device's RAM dies with it. The injector fires
  // per-replica crash hooks right after this (idempotent with the
  // retirement below — ServiceInstance::Crash is a no-op on a corpse).
  if (auto it = stores_.find(device); it != stores_.end()) {
    it->second->Clear();
  }
  const size_t replicas = registry_->RetireDevice(device, cluster_->Now());
  const size_t endpoints = fabric_->UnbindDevice(device);
  // Queued serving requests die with the device: UNAVAILABLE (still
  // retryable — the caller's PR 1 retry/abandon path takes over).
  for (auto& [key, sched] : schedulers_) {
    if (key.first == device) {
      sched->FailAll(Unavailable("device '" + device + "' is down"));
    }
  }
  for (auto it = gateways_.begin(); it != gateways_.end();) {
    if (it->first.first == device) {
      it = gateways_.erase(it);
    } else {
      ++it;
    }
  }
  VP_WARN("orchestrator") << "device '" << device << "' lost power: "
                          << replicas << " replicas and " << endpoints
                          << " endpoints gone";
}

void Orchestrator::HandleDeviceReboot(const std::string& device) {
  sim::Device* dev = cluster_->FindDevice(device);
  if (dev == nullptr || dev->up()) return;
  dev->Reboot();
  // Cold and empty: replicas/modules come back only through
  // ResumeAfterDeviceReturn (triggered by the detector's revival).
  VP_INFO("orchestrator") << "device '" << device
                          << "' rebooted (cold, empty)";
}

Status Orchestrator::RestoreModule(PipelineDeployment& pipeline,
                                   const std::string& module,
                                   const std::string& target_device,
                                   const ModuleCheckpoint* checkpoint,
                                   const std::string& ship_from) {
  const ModuleSpec* spec = pipeline.spec_.FindModule(module);
  ModuleRuntime* old_runtime = pipeline.FindModule(module);
  if (spec == nullptr || old_runtime == nullptr) {
    return Status(StatusCode::kNotFound,
                  "no script module '" + module + "' in pipeline '" +
                      pipeline.spec_.name + "'");
  }
  const std::string& from = ship_from.empty() ? target_device : ship_from;
  // Unbind the dead instance's endpoint — unless its device is alive
  // but unreachable (a partition, not a crash): the control plane
  // cannot mutate state across a partition, so the old instance stays
  // bound as a zombie until the heal fences it.
  sim::Device* old_dev = cluster_->FindDevice(old_runtime->device());
  const bool old_alive = old_dev != nullptr && old_dev->up();
  if (!old_alive ||
      cluster_->network().Reachable(from, old_runtime->device())) {
    fabric_->Unbind(old_runtime->address());  // no-op if the crash got it
  }

  // Fencing: the replacement starts a new placement epoch. Anything
  // the superseded instance still emits carries the old epoch and is
  // dropped at receivers.
  const uint64_t new_epoch = pipeline.module_epoch(module) + 1;
  pipeline.module_epochs_[module] = new_epoch;

  const net::Address new_address{target_device, AllocatePort()};
  auto runtime = std::make_unique<ModuleRuntime>(
      this, &pipeline, spec, target_device, new_address);
  runtime->set_epoch(new_epoch);
  std::vector<std::pair<std::string, script::HostFunction>> extras;
  if (auto it = pipeline.extra_host_functions_.find(module);
      it != pipeline.extra_host_functions_.end()) {
    extras = it->second;
  }
  VP_RETURN_IF_ERROR(runtime->Initialize(extras));
  json::Value state = json::Value::MakeObject();
  if (checkpoint != nullptr && checkpoint->epoch + 1 < new_epoch) {
    // The snapshot predates the previous recovery of this module:
    // restoring it would roll back state the newer instance already
    // superseded. Start from scratch instead.
    pipeline.metrics_.OnCheckpointRejectedStale();
    VP_WARN("orchestrator")
        << "rejecting stale checkpoint for '" << module << "' (epoch "
        << checkpoint->epoch << " < current " << (new_epoch - 1) << ")";
    checkpoint = nullptr;
  }
  if (checkpoint != nullptr) {
    VP_RETURN_IF_ERROR(runtime->context().RestoreState(checkpoint->state));
    pipeline.metrics_.OnCheckpointRestored(
        (cluster_->Now() - checkpoint->taken_at).millis());
    state = checkpoint->state;
  }

  ModuleRuntime* raw = runtime.get();
  // Ship the checkpointed state from the controller to the target; the
  // fresh instance goes live (binds its endpoint) on arrival. With no
  // checkpoint the transfer is just the (tiny) init message. Reliable:
  // dup/reorder/corruption or a transient partition must delay the
  // bind, not lose it.
  net::Message transfer("restore", state);
  const size_t transfer_bytes = transfer.ByteSize();
  cluster_->network().SendReliable(
      from, target_device, transfer_bytes, [this, raw, new_address] {
        Status bound = fabric_->Bind(
            new_address, [raw](net::Message message, net::Responder) {
              raw->OnMessage(std::move(message));
            });
        if (!bound.ok()) {
          VP_ERROR("orchestrator")
              << "restore bind failed: " << bound.ToString();
        }
      });

  for (auto& owned : pipeline.modules_) {
    if (owned.get() == old_runtime) {
      pipeline.retired_modules_.push_back(
          {std::move(owned), cluster_->Now()});
      owned = std::move(runtime);
      break;
    }
  }
  pipeline.addresses_[module] = new_address;
  pipeline.plan_.module_device[module] = target_device;
  VP_INFO("orchestrator") << "restored module '" << module << "' on "
                          << target_device
                          << (checkpoint != nullptr ? " from checkpoint"
                                                    : " from scratch")
                          << " (" << transfer_bytes << " B)";
  return Status::Ok();
}

Status Orchestrator::RecoverFromDeviceFailure(
    const std::string& device, TimePoint failed_since,
    const CheckpointLookup& checkpoints, const std::string& checkpoint_host) {
  const double detection_ms = (cluster_->Now() - failed_since).millis();
  Status worst = Status::Ok();
  for (const auto& pipeline : pipelines_) {
    // A hibernated pipeline has nothing placed — no live modules, no
    // bound endpoints, no in-flight frame. Rebuilding it here would
    // waste the recovery window; WakePipeline's device preflight
    // handles a still-dead device when the wake actually comes.
    if (pipeline->hibernated_) continue;
    const bool source_lost = pipeline->source_device_ == device;
    std::vector<std::string> lost_services;
    for (const auto& [service, host] : pipeline->plan_.service_device) {
      if (host == device) lost_services.push_back(service);
    }
    // Collect names first: RestoreModule mutates modules_.
    std::vector<std::string> lost_modules;
    for (const auto& m : pipeline->modules_) {
      if (m->device() == device) lost_modules.push_back(m->name());
    }
    if (!source_lost && lost_services.empty() && lost_modules.empty()) {
      continue;  // this pipeline never touched the dead device
    }
    pipeline->metrics_.OnDeviceFailureDetected(detection_ms);

    if (source_lost) {
      // The camera IS the dead device's sensor: nothing to migrate it
      // to. Pause; ResumeAfterDeviceReturn restarts the pipeline when
      // (if) the device reboots.
      if (pipeline->camera_->has_outstanding()) {
        pipeline->metrics_.OnFrameLostToFailure();
      }
      pipeline->camera_->Stop();
      pipeline->paused_by_failure_ = true;
      VP_WARN("orchestrator")
          << "pipeline '" << pipeline->spec_.name
          << "' paused: source device '" << device << "' is down";
      continue;
    }

    // Re-plan over the surviving devices. Only the lost pieces move —
    // survivors keep their placement to minimize disruption.
    auto fresh =
        PlanDeployment(pipeline->spec_, *cluster_, pipeline->placement_);
    if (!fresh.ok()) {
      VP_ERROR("orchestrator")
          << "recovery of '" << pipeline->spec_.name
          << "' failed: no feasible placement without '" << device
          << "': " << fresh.status().ToString();
      worst = fresh.status();
      continue;
    }
    for (const std::string& service : lost_services) {
      const std::string& target = fresh->service_device.at(service);
      Status launched =
          EnsureServiceDeployed(target, service, fresh->IsNative(service));
      if (!launched.ok()) {
        worst = launched;
        continue;
      }
      pipeline->plan_.service_device[service] = target;
    }
    pipeline->plan_.native_services = fresh->native_services;
    for (const std::string& module : lost_modules) {
      Status restored = RestoreModule(
          *pipeline, module, fresh->module_device.at(module),
          checkpoints ? checkpoints(pipeline->spec_.name, module) : nullptr,
          checkpoint_host);
      if (!restored.ok()) worst = restored;
    }
    // The in-flight frame was (with overwhelming likelihood) somewhere
    // on the dead device's path. Write it off now instead of waiting
    // out the watchdog; seq-tagged stale-credit discard keeps this
    // safe even if the frame actually survived.
    if (pipeline->camera_->has_outstanding()) {
      pipeline->metrics_.OnFrameLostToFailure();
      pipeline->camera_->WriteOffOutstanding();
    }
    pipeline->metrics_.OnRecoveryComplete(
        (cluster_->Now() - failed_since).millis());
    VP_INFO("orchestrator") << "pipeline '" << pipeline->spec_.name
                            << "' recovered from loss of '" << device
                            << "' (" << lost_services.size()
                            << " services, " << lost_modules.size()
                            << " modules relocated)";
  }
  return worst;
}

size_t Orchestrator::FenceStaleRuntimes(const std::string& device) {
  size_t fenced = 0;
  for (const auto& pipeline : pipelines_) {
    for (auto& retired : pipeline->retired_modules_) {
      ModuleRuntime* rt = retired.runtime.get();
      if (rt->device() != device || rt->fenced()) continue;
      if (rt->epoch() >= pipeline->module_epoch(rt->name())) continue;
      // A superseded instance the partition kept alive: shut it down
      // before it can double-serve anything post-heal.
      rt->Fence();
      fabric_->Unbind(rt->address());
      pipeline->metrics_.OnZombieFenced();
      ++fenced;
      VP_WARN("orchestrator")
          << "fenced zombie module '" << rt->name() << "' on " << device
          << " (epoch " << rt->epoch() << " < "
          << pipeline->module_epoch(rt->name()) << ")";
    }
  }
  // Zombie service replicas: the device still runs groups whose work
  // was healed onto survivors (no plan maps them here anymore).
  std::vector<std::pair<std::string, std::string>> stale_groups;
  for (services::ServiceInstance* instance : registry_->AllReplicas()) {
    if (instance->device() != device) continue;
    bool planned = false;
    for (const auto& pipeline : pipelines_) {
      auto it = pipeline->plan_.service_device.find(instance->service_name());
      if (it != pipeline->plan_.service_device.end() &&
          it->second == device) {
        planned = true;
        break;
      }
    }
    if (!planned) {
      stale_groups.emplace_back(device, instance->service_name());
    }
  }
  std::sort(stale_groups.begin(), stale_groups.end());
  stale_groups.erase(std::unique(stale_groups.begin(), stale_groups.end()),
                     stale_groups.end());
  for (const auto& [dev_name, service] : stale_groups) {
    const size_t retired =
        registry_->RetireGroup(dev_name, service, cluster_->Now());
    fenced += retired;
    if (retired > 0) {
      if (auto git = gateways_.find({dev_name, service});
          git != gateways_.end()) {
        fabric_->Unbind(git->second);
        gateways_.erase(git);
      }
      VP_WARN("orchestrator") << "fenced " << retired
                              << " zombie replica(s) of '" << service
                              << "' on " << dev_name;
    }
  }
  return fenced;
}

Status Orchestrator::ResumeAfterDeviceReturn(
    const std::string& device, const CheckpointLookup& checkpoints,
    const std::string& checkpoint_host) {
  sim::Device* dev = cluster_->FindDevice(device);
  if (dev == nullptr) {
    return Status(StatusCode::kNotFound, "unknown device '" + device + "'");
  }
  if (!dev->up()) {
    return Status(StatusCode::kFailedPrecondition,
                  "device '" + device + "' is still down");
  }
  // Before resuming anything: fence what recovery superseded while the
  // device was away. Runs for every pipeline, not just source-paused
  // ones — any module healed off this device left a potential zombie.
  if (options_.epoch_fencing) FenceStaleRuntimes(device);
  Status worst = Status::Ok();
  for (const auto& pipeline : pipelines_) {
    if (pipeline->hibernated_ || !pipeline->paused_by_failure_ ||
        pipeline->source_device_ != device) {
      continue;
    }
    // Relaunch the plan's replicas that lived on the rebooted device.
    for (const auto& [service, host] : pipeline->plan_.service_device) {
      if (host != device) continue;
      Status launched = EnsureServiceDeployed(
          device, service, pipeline->plan_.IsNative(service));
      if (!launched.ok()) worst = launched;
    }
    // Rebuild its modules (the reboot came back empty).
    std::vector<std::string> dead_modules;
    for (const auto& m : pipeline->modules_) {
      if (m->device() == device) dead_modules.push_back(m->name());
    }
    for (const std::string& module : dead_modules) {
      Status restored = RestoreModule(
          *pipeline, module, device,
          checkpoints ? checkpoints(pipeline->spec_.name, module) : nullptr,
          checkpoint_host);
      if (!restored.ok()) worst = restored;
    }
    // The camera's credit endpoint died with the device; rebind it.
    if (!fabric_->IsBound(pipeline->camera_address_)) {
      CameraDriver* camera = pipeline->camera_.get();
      Status bound = fabric_->Bind(
          pipeline->camera_address_,
          [camera](net::Message message, net::Responder) {
            if (message.type() == "credit") camera->OnCredit(message.seq());
          });
      if (!bound.ok()) worst = bound;
    }
    pipeline->paused_by_failure_ = false;
    pipeline->camera_->WriteOffOutstanding();
    pipeline->camera_->Start();
    VP_INFO("orchestrator") << "pipeline '" << pipeline->spec_.name
                            << "' resumed: source device '" << device
                            << "' is back";
  }
  return worst;
}

}  // namespace vp::core
