// Orchestrator: the VideoPipe control plane.
//
// Owns the cluster-wide runtime pieces — message fabric, service
// catalog/containers/registry, per-device frame stores — and deploys
// pipelines onto them: places modules (placement policy), launches or
// *reuses* service replicas (stateless sharing across pipelines,
// §5.2.2), binds endpoints, wires module edges and the flow-control
// credit path, and drives the simulation.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/camera.hpp"
#include "core/config.hpp"
#include "core/metrics.hpp"
#include "core/module_runtime.hpp"
#include "core/placement.hpp"
#include "media/frame_store.hpp"
#include "modelreg/rollout.hpp"
#include "net/fabric.hpp"
#include "services/autoscaler.hpp"
#include "services/container.hpp"
#include "services/registry.hpp"
#include "serving/request_scheduler.hpp"
#include "sim/cluster.hpp"
#include "sim/fault_injector.hpp"
#include "sim/fiber.hpp"

namespace vp::core {

/// Fault tolerance of the module → service call path: per-attempt
/// timeout, bounded retry with exponential backoff, and a circuit
/// breaker for replicas that time out. Defaults are deliberately
/// generous — they must never trip on a merely busy replica (container
/// cold start is 350 ms and backlogs add tens of ms); fault benches
/// tighten them explicitly.
struct ServiceCallOptions {
  /// Per-attempt budget, measured on the replica group's device (see
  /// Orchestrator::DispatchCall): from the call co-located, from the
  /// gateway's receipt of the request remote.
  Duration timeout = Duration::Seconds(1.0);
  /// Extra slack the *caller* grants a remote gateway on top of
  /// `timeout` (transfer + reply time); the caller-side timer is the
  /// backstop for a gateway that vanished entirely.
  Duration remote_slack = Duration::Millis(400);
  /// Retries after the first failed attempt; only UNAVAILABLE and
  /// TIMEOUT are retried (deterministic handler errors are not).
  int max_retries = 2;
  /// Backoff before retry k (0-based): backoff_base * 2^k.
  Duration backoff_base = Duration::Millis(25);
  /// How long a timed-out replica — or, with serving on, one that
  /// swallowed a batch — sits out of load balancing before the breaker
  /// half-opens and it may be tried again.
  Duration suspect_duration = Duration::Seconds(1.0);
};

/// The serving layer (src/serving): per-(device, service) request
/// schedulers that micro-batch frame-wise calls across pipelines,
/// order them by priority class + deadline, and shed requests whose
/// deadline cannot be met. Off by default: the dispatch path is then
/// byte-identical to the direct PR 1 path (one request at a time to
/// the least-backlog replica).
struct ServingOptions {
  bool enabled = false;
  serving::SchedulerOptions scheduler;
};

/// Model lifecycle (src/modelreg): the registry that trains and stores
/// versioned artifacts, and the default canary-rollout policy. A null
/// registry means the process-wide SharedModelRegistry() — tests pass
/// their own to isolate training state.
struct ModelLifecycleOptions {
  modelreg::ModelRegistry* registry = nullptr;
  modelreg::RolloutPolicy rollout;
};

/// Every module context runs under the default script::ScriptLimits,
/// cold-started or drawn from the lifecycle warm pool.
struct OrchestratorOptions {
  CameraOptions camera_options;
  /// Frame-store capacity per device: an overflow bound on the frames
  /// in flight there (past it, the oldest ids stop resolving).
  size_t frame_store_capacity = 64;
  services::AutoscalerOptions autoscaler_options;
  ServiceCallOptions service_call;
  /// Per-frame traces kept live in PipelineMetrics; older traces fold
  /// into running summaries (bounded memory on long runs).
  size_t trace_retention = 8192;
  /// How long a retired module runtime (migration/recovery leftover) or
  /// an undeployed pipeline must sit idle past its drain watermark
  /// before RunFor() reclaims its memory. In-flight events (including
  /// pending set_timer() deadlines) hold the watermark forward, so the
  /// window only needs to cover sim-event delivery slop, not script
  /// timer horizons. <= 0 disables reclamation (everything is kept
  /// until the orchestrator dies, the pre-PR-2 behavior).
  Duration retired_drain_window = Duration::Seconds(30);
  ServingOptions serving;
  ModelLifecycleOptions models;
  /// Split-brain fencing: each module placement carries an epoch,
  /// bumped on failure recovery. Receivers drop frames stamped with a
  /// stale epoch and reconnecting zombie runtimes are shut down instead
  /// of double-serving. Off only for the bench that measures the
  /// exposure fencing closes.
  bool epoch_fencing = true;
  uint64_t seed = 42;
};

/// Last checkpoint of one module's script state, held in its
/// pipeline's store (PipelineDeployment::checkpoints): a snapshot the
/// SelfHealer shipped to the controller, or the one HibernatePipeline
/// took at sleep.
struct ModuleCheckpoint {
  json::Value state;
  TimePoint taken_at;
  /// Placement epoch of the lineage the state belongs to: the runtime
  /// the snapshot was taken from, moved to the new epoch when a start
  /// restores it. A checkpoint from an older epoch than the module's
  /// would roll state back across a recovery; the store refuses it.
  uint64_t epoch = 1;
};

/// One deployed pipeline: spec + plan + live modules + camera + metrics.
class PipelineDeployment {
 public:
  const PipelineSpec& spec() const { return spec_; }
  const DeploymentPlan& plan() const { return plan_; }
  PipelineMetrics& metrics() { return metrics_; }
  const PipelineMetrics& metrics() const { return metrics_; }
  CameraDriver& camera() { return *camera_; }

  /// Begin producing frames. A hibernated pipeline ignores Start —
  /// only WakePipeline may bring it back (the modules are gone).
  void Start() {
    if (!hibernated_) camera_->Start();
  }
  void Stop() { camera_->Stop(); }

  ModuleRuntime* FindModule(const std::string& name);
  Result<net::Address> ModuleAddress(const std::string& name) const;
  const net::Address& camera_address() const { return camera_address_; }
  const std::string& source_device() const { return source_device_; }

  /// True while the pipeline is paused because its *source* device
  /// died: the camera cannot move (it is the device's sensor), so the
  /// pipeline waits for the device to reboot instead of recovering.
  bool paused() const { return paused_by_failure_; }

  /// Scale-to-zero: the pipeline's module contexts have been
  /// checkpointed and released; the camera is stopped. No frames flow
  /// until WakePipeline rebuilds the modules.
  bool hibernated() const { return hibernated_; }
  /// When the pipeline entered hibernation (meaningful only while
  /// hibernated()).
  TimePoint hibernated_at() const { return hibernated_at_; }
  /// The pipeline's checkpoint store, module name → latest checkpoint:
  /// shipped snapshots and sleep snapshots, admitted by
  /// Orchestrator::AdmitCheckpoint, read by every restore and wake.
  /// Each one is at its module's current epoch (InvariantChecker
  /// rule 6).
  const std::map<std::string, ModuleCheckpoint>& checkpoints() const {
    return checkpoints_;
  }
  /// Identity of this deployment within its orchestrator: a shipped
  /// checkpoint lands only in the deployment whose runtime took it,
  /// never in a successor deployed under the same name.
  uint64_t serial() const { return serial_; }

  /// Retired runtimes (migration/recovery leftovers) not yet reclaimed.
  size_t retired_module_count() const { return retired_modules_.size(); }

  /// Current placement epoch of `module` (1 until its first failure
  /// recovery). Messages stamped with an older epoch come from a
  /// zombie instance and are fenced at the receiver.
  uint64_t module_epoch(const std::string& module) const {
    auto it = module_epochs_.find(module);
    return it == module_epochs_.end() ? 1 : it->second;
  }

  /// Live module runtimes (read-only; for monitors and the invariant
  /// checker).
  const std::vector<std::unique_ptr<ModuleRuntime>>& modules() const {
    return modules_;
  }
  /// Retired-but-undrained runtimes (read-only; the invariant checker
  /// verifies none of them is still live at the current epoch).
  std::vector<const ModuleRuntime*> retired_runtimes() const {
    std::vector<const ModuleRuntime*> out;
    out.reserve(retired_modules_.size());
    for (const auto& r : retired_modules_) out.push_back(r.runtime.get());
    return out;
  }

 private:
  friend class Orchestrator;
  friend class ModuleRuntime;

  /// A runtime replaced by migration or failure recovery. Kept alive —
  /// in-flight events (lane completions, set_timer() callbacks)
  /// capture the raw pointer — until `runtime->drain_deadline()` and
  /// `retired_at` are both comfortably in the past.
  struct RetiredModule {
    std::unique_ptr<ModuleRuntime> runtime;
    TimePoint retired_at;
  };

  uint64_t serial_ = 0;
  PipelineSpec spec_;
  DeploymentPlan plan_;
  PlacementOptions placement_;  // re-run on device failure
  PipelineMetrics metrics_;
  std::map<std::string, net::Address> addresses_;
  net::Address camera_address_;
  std::string source_device_;
  bool paused_by_failure_ = false;
  bool hibernated_ = false;
  TimePoint hibernated_at_;
  /// The checkpoint store (see checkpoints()).
  std::map<std::string, ModuleCheckpoint> checkpoints_;
  /// module name → placement epoch (absent = 1). Recorded when a
  /// start commits: restore and wake bump it; live migration keeps it
  /// (same lineage, synchronous handoff).
  std::map<std::string, uint64_t> module_epochs_;
  std::vector<std::unique_ptr<ModuleRuntime>> modules_;
  std::vector<RetiredModule> retired_modules_;
  /// Per-module extra host functions from DeployArgs, registered by
  /// every start of the module.
  std::map<std::string,
           std::vector<std::pair<std::string, script::HostFunction>>>
      extra_host_functions_;
  std::unique_ptr<sim::ExecutionLane> camera_lane_;
  std::unique_ptr<CameraDriver> camera_;
};

class Orchestrator {
 public:
  explicit Orchestrator(sim::Cluster* cluster,
                        OrchestratorOptions options = {});
  ~Orchestrator();
  Orchestrator(const Orchestrator&) = delete;
  Orchestrator& operator=(const Orchestrator&) = delete;

  struct DeployArgs {
    /// What the camera films.
    media::MotionScript workload;
    media::SceneOptions scene;  // width/height overridden by the spec
    uint64_t seed = 7;
    PlacementOptions placement;
    /// Extra host functions per module name (e.g. IoT control).
    std::map<std::string,
             std::vector<std::pair<std::string, script::HostFunction>>>
        extra_host_functions;
  };

  /// Deploy a pipeline. Existing service replicas satisfying the plan
  /// are shared; missing ones are launched.
  Result<PipelineDeployment*> Deploy(PipelineSpec spec, DeployArgs args);

  void StartAll();
  /// Advance virtual time by `duration`: run every event due by
  /// Now() + duration, then Housekeep(). A handler still blocked at the
  /// horizon stays suspended until a later run.
  void RunFor(Duration duration);

  /// Post-run bookkeeping (replica-downtime sync, drained-runtime
  /// reclamation). RunFor calls this automatically; a fleet driving
  /// many orchestrators on one shared simulator advances the clock
  /// once and then calls Housekeep on each home.
  void Housekeep();

  // -- module-runtime service interface --------------------------------
  /// `payload` must be an object or null (INVALID_ARGUMENT otherwise);
  /// once issued it is immutable and shared, never copied per attempt.
  Result<json::Value> CallService(ModuleRuntime& caller,
                                  const std::string& service,
                                  json::Value payload);
  Status SendToModule(ModuleRuntime& caller, const std::string& target,
                      json::Value payload);
  /// Return the credit for frame `seq` to the camera. Credits are
  /// seq-tagged: the camera discards ones for frames it already wrote
  /// off (stale), preserving the single-slot invariant of §2.3.
  void SignalSource(PipelineDeployment& pipeline,
                    const std::string& from_device, uint64_t seq);

  /// Graceful degradation: drop `caller`'s current frame after a
  /// service call exhausted its retries, returning the frame's credit
  /// to the source so the pipeline keeps flowing.
  void AbandonFrame(ModuleRuntime& caller, uint64_t seq);

  /// Wire every containerized replica in the registry into `injector`
  /// (labels "device/service#i" in registration order). Native
  /// replicas (camera, display) are skipped — they are not containers
  /// and the paper's fault model does not crash them.
  void RegisterReplicasForFaults(sim::FaultInjector& injector);

  /// Wire every cluster device into `injector` (labels = device names)
  /// so ScheduleDeviceCrash/Reboot drive the orchestrator's crash
  /// bookkeeping: lane teardown, replica retirement, endpoint unbind,
  /// frame-store wipe. Detection and recovery are NOT triggered here —
  /// the control plane only learns of the death through missed
  /// heartbeats (FailureDetector → SelfHealer).
  void RegisterDevicesForFaults(sim::FaultInjector& injector);

  /// Wire every rollout-managed model group into `injector` under
  /// "device/service" labels. The poison hook trains a deliberately
  /// bad variant of the group's stable spec and stages it through the
  /// normal canary path — the rollout gates must catch and revert it.
  void RegisterModelGroupsForFaults(sim::FaultInjector& injector);

  /// Train `candidate_spec` (off the hot path — the registry dedupes)
  /// and start a canary rollout of it on the (device, service) group,
  /// scaling the group to ≥ 2 replicas first if needed (at least one
  /// replica must keep serving the incumbent).
  Status BeginModelRollout(
      const std::string& device, const std::string& service,
      const modelreg::ModelSpec& candidate_spec,
      std::optional<modelreg::RolloutPolicy> policy = std::nullopt);

  // -- external rollout driving (fleet control plane) --------------------

  /// Warm-swap the group back to `version_id` (which must exist in the
  /// model registry — e.g. the incumbent recorded before a fleet-wide
  /// rollout). Cancels an in-flight canary first; a group already on
  /// `version_id` is a no-op. This is the fleet controller's blast-
  /// radius containment path: a wave that regresses rolls every
  /// already-promoted home back through here.
  Status RevertModel(const std::string& device, const std::string& service,
                     const std::string& version_id);

  /// Live gate inputs for one rollout-managed group (monitor/fleet
  /// visibility) — empty view when unmanaged.
  modelreg::RolloutController::GroupView ModelGroupView(
      const std::string& device, const std::string& service) const {
    return rollout_->View(device, service);
  }

  // -- self-healing ------------------------------------------------------

  /// The checkpoint store's one admission rule, for shipped and sleep
  /// snapshots alike: refuse a checkpoint from an epoch older than the
  /// module's, or an older capture than the one held (counted in
  /// `checkpoints_rejected_stale()`). Returns whether it was stored.
  bool AdmitCheckpoint(PipelineDeployment& pipeline,
                       const std::string& module, ModuleCheckpoint checkpoint);

  /// React to a *confirmed* device death (the failure detector's
  /// suspicion window elapsed): for every pipeline touching `device`,
  /// re-plan over the surviving devices, restore lost script modules
  /// from the pipeline's checkpoints (shipped from `checkpoint_host`),
  /// relaunch lost service replicas, and write off the in-flight frame
  /// if it died with the device. A pipeline whose *source* device died
  /// pauses instead (the camera is that device's sensor) and resumes
  /// via ResumeAfterDeviceReturn. `failed_since` is the detector's last
  /// heartbeat from the device — detection latency and MTTR are
  /// measured from it (the control plane's honest clock).
  Status RecoverFromDeviceFailure(const std::string& device,
                                  TimePoint failed_since,
                                  const std::string& checkpoint_host);

  /// A dead device came back (heartbeats resumed after a reboot). The
  /// machine is cold and empty: relaunch its planned replicas, rebuild
  /// its modules (from the pipeline's checkpoints where held) and
  /// un-pause any pipeline that was waiting on its source device.
  /// Zombies are fenced first (see FenceStaleRuntimes) — a device that
  /// was merely partitioned, not crashed, comes back warm and stale.
  Status ResumeAfterDeviceReturn(const std::string& device,
                                 const std::string& checkpoint_host);

  /// Split-brain cleanup on device reconnect: shut down (fence +
  /// unbind) every retired runtime on `device` whose placement epoch
  /// was superseded while it was unreachable, and retire service
  /// replica groups on `device` that no pipeline plan maps there
  /// anymore. Returns the number of zombies fenced.
  size_t FenceStaleRuntimes(const std::string& device);

  // -- accessors ---------------------------------------------------------
  sim::Cluster& cluster() { return *cluster_; }
  net::Fabric& fabric() { return *fabric_; }
  services::ServiceRegistry& registry() { return *registry_; }
  services::ContainerRuntime& containers() { return *containers_; }
  services::Autoscaler& autoscaler() { return *autoscaler_; }
  const services::ServiceCatalog& catalog() const { return catalog_; }
  modelreg::ModelRegistry& models() { return *models_; }
  modelreg::RolloutController& rollout() { return *rollout_; }
  const modelreg::RolloutController& rollout() const { return *rollout_; }
  media::FrameStore& store(const std::string& device);
  const OrchestratorOptions& options() const { return options_; }
  const std::vector<std::unique_ptr<PipelineDeployment>>& pipelines() const {
    return pipelines_;
  }
  /// Live service gateway endpoints (one per (device, service) pair).
  size_t gateway_count() const { return gateways_.size(); }
  /// The gateway bound for `service` on `device`; empty when none.
  net::Address ServiceGateway(const std::string& device,
                              const std::string& service) const;
  /// Undeployed pipelines still held for in-flight-event drain.
  size_t undeployed_count() const { return undeployed_.size(); }

  /// Launch an extra replica of an already-deployed service group
  /// (manual scale-up; the Autoscaler uses the same path).
  Status ScaleService(const std::string& device, const std::string& service);

  /// The serving-layer scheduler for (device, service), lazily created
  /// on first use. Returns nullptr when the serving layer is disabled.
  serving::RequestScheduler* scheduler(const std::string& device,
                                       const std::string& service);
  /// All live schedulers, keyed (device, service). Empty when disabled.
  const std::map<std::pair<std::string, std::string>,
                 std::unique_ptr<serving::RequestScheduler>>&
  schedulers() const {
    return schedulers_;
  }

  /// Live-migrate a script module to another device (§7 "automatic
  /// deployment, scheduling"): snapshot its serializable state and
  /// start the module from it on the target, at a new port and the same
  /// epoch; only then cut the old instance off, ship the state and bind
  /// the new address when it arrives. Messages arriving during the
  /// cutover are dropped; the camera's credit watchdog recovers any
  /// frame lost this way. The deployment plan is updated, so
  /// subsequent co-location decisions (local vs remote service calls)
  /// follow the module. A start that fails (init() errs on the target)
  /// leaves the module where it was, bound and serving.
  Status MigrateModule(PipelineDeployment& pipeline,
                       const std::string& module,
                       const std::string& target_device);

  /// Tear a pipeline down: stop its camera, unbind every endpoint it
  /// owns and remove it from pipelines(). Shared service replicas stay
  /// up (other pipelines may use them). The deployment object remains
  /// valid until the orchestrator is destroyed (in-flight events may
  /// still reference it) but receives no further messages.
  Status Undeploy(PipelineDeployment* pipeline);

  // -- scale-to-zero lifecycle -------------------------------------------

  /// Builds a pre-Loaded script context for (spec, device) — the
  /// lifecycle warm pool's hot path. Returning nullptr means "no
  /// pooled context, cold-init instead".
  using ContextProvider = std::function<std::unique_ptr<script::Context>(
      const ModuleSpec& spec, const std::string& device)>;

  /// Put an idle pipeline to sleep: snapshot every script module's
  /// state into the pipeline's checkpoint store, stop the
  /// camera (it stays constructed — restartable), unbind the module
  /// and camera endpoints, and retire the module runtimes so
  /// ReclaimDrained frees their contexts. Frame-store slots for
  /// devices no other active pipeline shares are cleared. Shared
  /// service replicas stay up; the autoscaler may retire idle ones.
  Status HibernatePipeline(PipelineDeployment* pipeline);

  /// Rebuild a hibernated pipeline and start it: fresh runtimes (new
  /// placement epoch, SAME addresses — port layout is part of the
  /// determinism contract), state restored from the pipeline's
  /// checkpoints, endpoints bound once every module has started, camera
  /// restarted. `contexts`, when set, supplies pre-Loaded warm-pool
  /// contexts so a wake skips parse/resolve/compile AND Load. Fails
  /// with FAILED_PRECONDITION when any target device is down, or with
  /// a module's init() error; either way the pipeline stays hibernated
  /// at its old epochs with its checkpoints, retryable.
  Status WakePipeline(PipelineDeployment* pipeline,
                      const ContextProvider& contexts = nullptr);

  /// Currently hibernated pipelines.
  size_t hibernated_count() const;
  /// Cumulative lifecycle transitions (monitor/fleet counters).
  uint64_t hibernations() const { return hibernations_; }
  uint64_t wakes() const { return wakes_; }

 private:
  friend class ModuleRuntime;

  struct PendingResult {
    bool done = false;
    Result<json::Value> value{json::Value()};
  };

  /// Block until `done` flips: suspend the calling handler's fiber,
  /// which is resumed at the exact event that flips the flag. Off a
  /// fiber (init() and top-level module code) it returns
  /// FAILED_PRECONDITION: a wait never steps the simulator.
  Status Await(const bool& done);

  /// Run `body` (a module handler) on its own fiber, which a blocking
  /// Await inside it suspends.
  void RunOnFiber(std::function<void()> body);

  /// Resume any blocked handler whose Await flag the event that just
  /// executed flipped (registered as a simulator post-event hook).
  void PumpFiberWaiters();

  /// Shutdown: resume every blocked handler with its wait unsatisfied
  /// so its stack unwinds (Await returns an error) while the
  /// orchestrator's members are still alive.
  void DrainFibers();

  /// True while DrainFibers unwinds blocked handlers at shutdown;
  /// handler errors in that window are expected and not logged.
  bool draining_fibers() const { return draining_fibers_; }

  /// Block the caller for `d` of virtual time (retry backoff).
  Status SleepFor(Duration d);
  /// Run `cost` on `lane`, blocking (in virtual time) until done
  /// (busy_ms).
  Status BlockOnLane(sim::ExecutionLane& lane, Duration cost);

  /// One attempt of a service call (no retries). Timed: an attempt
  /// that outlives the per-attempt budget resolves to kTimeout and the
  /// late reply, if any, is discarded. `payload` is the issued one,
  /// shared by every attempt (null or an object).
  Result<json::Value> CallServiceOnce(
      ModuleRuntime& caller, const std::string& service,
      const std::string& host_device,
      const std::shared_ptr<const json::Value>& payload, int priority_class,
      std::optional<TimePoint> deadline);

  /// The one way a module's request reaches the (device, service)
  /// replica group, co-located or through the gateway: the group's
  /// scheduler when serving is on, else the least-backlog replica
  /// (UNAVAILABLE at once when there is none). Arms the
  /// `service_call.timeout` watchdog, then delivers after `hop` and
  /// replies after `hop` (the loopback delay co-located; zero, inline,
  /// at the gateway). A `shipped_frame` is decoded on the picked
  /// replica's lane before the call, or charged as the batch's
  /// extra_cost. `done` is answered exactly once; a watchdog that wins
  /// answers TIMEOUT and suspects the replica it picked (nothing behind
  /// a scheduler: there a timeout may be queueing, and the scheduler
  /// suspects a replica that swallows its batch).
  void DispatchCall(const std::string& device, const std::string& service,
                    services::ServiceRequest request,
                    std::optional<Bytes> shipped_frame, int priority_class,
                    std::optional<TimePoint> deadline, Duration hop,
                    std::function<void(Result<json::Value>)> done);

  /// Refresh each pipeline's replica_downtime metric from the registry.
  void SyncReplicaDowntime();

  /// Physical consequences of a device crash (called from the fault
  /// injector's device hook): mark the device down, retire its service
  /// replicas, wipe its frame store, unbind its fabric endpoints and
  /// drop its gateways. No recovery — that is the detector's job.
  void HandleDeviceCrash(const std::string& device);
  /// Physical reboot: the device is up again, cold and empty.
  void HandleDeviceReboot(const std::string& device);

  /// Replace `module`'s (dead or retired) runtime with a fresh one on
  /// `target_device` at a new port and the next epoch, restoring the
  /// pipeline's checkpoint of it when one is held, and shipping the
  /// state bytes from `ship_from` (the controller). The new endpoint
  /// binds when the state transfer arrives; a start that fails changes
  /// nothing.
  Status RestoreModule(PipelineDeployment& pipeline,
                       const std::string& module,
                       const std::string& target_device,
                       const std::string& ship_from);

  /// The one way a module runtime starts (deploy, migrate, restore,
  /// wake): construct it at `address` and `epoch`, run init() (in
  /// `pooled`, a warm-pool context, when set) and restore `state` when
  /// set. It binds and records nothing. On failure the half-built
  /// runtime is fenced and retired into `pipeline`, so events its
  /// init() armed still find it (and are dropped).
  Result<std::unique_ptr<ModuleRuntime>> StartModule(
      PipelineDeployment& pipeline, const ModuleSpec& spec,
      const std::string& device, const net::Address& address,
      uint64_t epoch, const json::Value* state,
      std::unique_ptr<script::Context> pooled);

  /// Deploy's and wake's start: every script module at its address,
  /// `epoch_step` past its epoch, from the pipeline's checkpoint of it.
  /// Once all have started, bind every endpoint and record; a failure
  /// unbinds what it bound and retires what it started.
  Status StartModules(PipelineDeployment& pipeline, uint64_t epoch_step,
                      const ContextProvider& contexts);

  /// Migrate's and restore's start: `old_runtime`'s module on
  /// `target_device` at a new port and `epoch`, from `state`. Once it
  /// started, cut the old instance off, ship the state from `ship_from`
  /// (a `transfer` message) and bind the new endpoint on arrival.
  Status MoveModule(PipelineDeployment& pipeline, ModuleRuntime& old_runtime,
                    const std::string& target_device, uint64_t epoch,
                    const json::Value* state, const std::string& ship_from,
                    const char* transfer);

  /// Record a committed start at `epoch`: the module's epoch, and the
  /// checkpoint it restored (if the store holds one), moved to `epoch`.
  void RecordStart(PipelineDeployment& pipeline, const std::string& module,
                   uint64_t epoch);

  /// Unbind the camera's credit endpoint and every module address.
  void ReleaseEndpoints(PipelineDeployment& pipeline);

  /// Reclaim retired runtimes and undeployed pipelines whose drain
  /// watermark is `retired_drain_window` in the past (satellite:
  /// bounded growth for long-running orchestrators).
  void ReclaimDrained();

  Status EnsureServiceDeployed(const std::string& device,
                               const std::string& service, bool native);
  Status BindServiceGateway(const std::string& device,
                            const std::string& service);
  uint16_t AllocatePort() { return next_port_++; }

  sim::Cluster* cluster_;
  OrchestratorOptions options_;
  std::unique_ptr<net::Fabric> fabric_;
  services::ServiceCatalog catalog_;
  std::unique_ptr<services::ContainerRuntime> containers_;
  std::unique_ptr<services::ServiceRegistry> registry_;
  std::unique_ptr<services::Autoscaler> autoscaler_;
  /// Serving-layer schedulers, keyed (device, service). Declared after
  /// registry_ so they are destroyed first — pending entries hold
  /// ServiceInstance pointers owned by the registry.
  std::map<std::pair<std::string, std::string>,
           std::unique_ptr<serving::RequestScheduler>>
      schedulers_;
  /// Model lifecycle. The registry may be external (options.models);
  /// the rollout controller holds raw registry_/scheduler pointers, so
  /// it is declared after them and destroyed first.
  modelreg::ModelRegistry* models_ = nullptr;
  std::unique_ptr<modelreg::RolloutController> rollout_;
  std::map<std::string, std::unique_ptr<media::FrameStore>> stores_;
  std::map<std::pair<std::string, std::string>, net::Address> gateways_;
  std::vector<std::unique_ptr<PipelineDeployment>> pipelines_;
  /// Torn-down pipelines kept for in-flight events, reclaimed once
  /// every runtime has drained past the watermark (see ReclaimDrained).
  struct Undeployed {
    std::unique_ptr<PipelineDeployment> pipeline;
    TimePoint at;
  };
  std::vector<Undeployed> undeployed_;
  uint64_t hibernations_ = 0;
  uint64_t wakes_ = 0;
  uint64_t next_serial_ = 1;
  uint16_t next_port_ = 20000;
  Rng jitter_rng_;
  /// Handlers blocked in Await() on a fiber, in suspension order. The
  /// post-event hook resumes them the moment their flag flips — at the
  /// flipping event's virtual time, which is what keeps one home's
  /// timing independent of its co-tenants on a shared simulator.
  struct FiberWaiter {
    const bool* flag;
    sim::Fiber* fiber;
  };
  std::vector<FiberWaiter> fiber_waiters_;
  uint64_t fiber_hook_ = 0;
  bool draining_fibers_ = false;
};

}  // namespace vp::core
