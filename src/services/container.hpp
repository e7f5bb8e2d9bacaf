// Container runtime simulation.
//
// "we can only deploy the services on the devices that support
//  containers as services will be running inside containers" (§2.2).
//
// A ServiceInstance is one running replica: a Service implementation
// bound to a dedicated ExecutionLane on its device (containers run in
// parallel with each other and with the module runtime). Launching a
// container charges a startup delay; native services (camera, display
// — the paper's blue boxes in Fig. 4) skip the container path and can
// run on constrained devices.
#pragma once

#include <memory>
#include <string>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "modelreg/artifact.hpp"
#include "services/service.hpp"
#include "sim/cluster.hpp"

namespace vp::services {

struct ServiceInstanceStats {
  uint64_t requests = 0;
  uint64_t errors = 0;
  Duration busy;
  /// Requests a wedged replica accepted and never answered.
  uint64_t swallowed = 0;
  /// Requests refused or voided because the replica was crashed.
  uint64_t refused = 0;
};

/// One member of a micro-batch: the request plus its caller's
/// completion callback.
struct BatchEntry {
  ServiceRequest request;
  std::function<void(Result<json::Value>)> done;
};

class ServiceInstance {
 public:
  ServiceInstance(std::string device, std::unique_ptr<Service> impl,
                  sim::ExecutionLane* lane, bool native,
                  double cost_jitter = 0.0, uint64_t jitter_seed = 1)
      : device_(std::move(device)), impl_(std::move(impl)), lane_(lane),
        native_(native), name_(impl_->name()), cost_jitter_(cost_jitter),
        jitter_rng_(jitter_seed) {}

  const std::string& device() const { return device_; }
  const std::string& service_name() const { return name_; }
  bool native() const { return native_; }
  sim::ExecutionLane* lane() const { return lane_; }
  const ServiceInstanceStats& stats() const { return stats_; }

  /// Tasks admitted but not finished on this replica's lane.
  int backlog(TimePoint now) const { return lane_->backlog(now); }

  /// Asynchronously handle one request: a batch of one (InvokeBatch
  /// with no extra cost), which costs exactly `impl->Cost(request)`,
  /// jittered once, and is answered by `impl->Handle(request)`.
  void Invoke(ServiceRequest request,
              std::function<void(Result<json::Value>)> done);

  /// Execute several requests as ONE lane admission (micro-batching):
  /// the batch is charged `impl->BatchCost(batch) + extra_cost`,
  /// jittered once, so services with per-call setup amortize it, and
  /// each entry's `done` fires at completion with its result. Faults
  /// are batch-wide: a crashed replica refuses every entry immediately
  /// with kUnavailable (connection refused); a wedge accepts the batch
  /// and never answers (no entry's `done` fires — callers recover by
  /// timeout); a crash mid-batch fails every entry with kUnavailable
  /// and nothing is handled twice. `batch_done(delivered)` fires when
  /// the batch resolves — `delivered` is false only for the swallowed
  /// case, so a scheduler can health-mark the replica.
  void InvokeBatch(std::vector<BatchEntry> entries, Duration extra_cost,
                   std::function<void(bool delivered)> batch_done);

  // -- fault surface (driven by the FaultInjector / orchestrator) ------
  /// Hard-kill: in-flight requests die with the process (their `done`
  /// fires with an error), new requests are refused until Restart.
  void Crash(TimePoint now);

  /// Bring a crashed replica back up; charges `startup_cost` on the
  /// lane (container cold start) and clears all health marks.
  void Restart(TimePoint now, Duration startup_cost);

  /// Wedge (true): accept requests, never reply. Unwedge (false) also
  /// clears any suspicion so the replica rejoins balancing.
  void SetWedged(bool wedged);

  /// Health mark set by the runtime when a call to this replica timed
  /// out; the replica is excluded from balancing until `until` (or a
  /// Restart/unwedge) — a circuit breaker with automatic half-open.
  void MarkSuspected(TimePoint until) {
    if (until > suspected_until_) suspected_until_ = until;
  }

  // -- model lifecycle (model-backed services only) ---------------------
  /// Bind this replica's model slot (and hand it to the impl). The
  /// rollout machinery swaps the handle's artifact to upgrade/canary/
  /// roll back this one replica without touching its group.
  void BindModel(std::shared_ptr<modelreg::ModelHandle> handle) {
    model_ = handle;
    impl_->BindModel(std::move(handle));
  }
  const std::shared_ptr<modelreg::ModelHandle>& model_handle() const {
    return model_;
  }
  /// Content id of the replica's current model version; "" for
  /// services without a model.
  std::string model_version() const {
    return model_ != nullptr ? model_->version() : "";
  }

  bool crashed() const { return crashed_; }
  bool wedged() const { return wedged_; }
  bool suspected(TimePoint now) const { return now < suspected_until_; }
  /// Eligible for load balancing at `now`.
  bool available(TimePoint now) const {
    return !crashed_ && !suspected(now);
  }
  /// Total time spent crashed, including the open interval at `now`.
  Duration downtime(TimePoint now) const {
    return crashed_ ? downtime_ + (now - down_since_) : downtime_;
  }

 private:
  std::string device_;
  std::unique_ptr<Service> impl_;
  sim::ExecutionLane* lane_;
  bool native_;
  std::string name_;
  /// Multiplicative compute-time variance (σ of a clamped Gaussian) —
  /// real devices do not execute a CNN in constant time.
  double cost_jitter_;
  Rng jitter_rng_;
  ServiceInstanceStats stats_;
  std::shared_ptr<modelreg::ModelHandle> model_;

  // Fault state. `epoch_` counts crashes: a lane task captured before
  // a crash observes the mismatch on completion and errors out instead
  // of delivering a result computed by a dead process.
  bool crashed_ = false;
  bool wedged_ = false;
  uint64_t epoch_ = 0;
  TimePoint suspected_until_;
  TimePoint down_since_;
  Duration downtime_;
};

/// Container cold-start delay (image already present on device): a
/// fresh or restarted replica's lane is busy this long before its
/// first request runs.
inline constexpr Duration kContainerStartup = Duration::Millis(350);

struct ContainerOptions {
  /// Service compute-time jitter (multiplicative σ; 0 = deterministic).
  double cost_jitter = 0.0;
  uint64_t jitter_seed = 1;
};

/// Launches replicas on cluster devices.
class ContainerRuntime {
 public:
  ContainerRuntime(sim::Cluster* cluster, const ServiceCatalog* catalog,
                   ContainerOptions options = {})
      : cluster_(cluster), catalog_(catalog), options_(options) {}

  /// Launch a containerized replica of `service` on `device`.
  /// Fails on unknown device/service, non-container device, or core
  /// exhaustion. The instance becomes usable after the startup delay
  /// (callers may invoke earlier; work queues behind the startup).
  Result<std::unique_ptr<ServiceInstance>> Launch(
      const std::string& device, const std::string& service);

  /// Launch a native (non-containerized) service — allowed on any
  /// device; runs on a dedicated native lane.
  Result<std::unique_ptr<ServiceInstance>> LaunchNative(
      const std::string& device, const std::string& service);

  /// Resolves the model version a fresh replica of (device, service)
  /// must run — supplied by the orchestrator, which consults the
  /// rollout controller's stable version and the model registry.
  using ModelResolver = std::function<std::shared_ptr<modelreg::ModelHandle>(
      const std::string& device, const std::string& service,
      const std::string& kind)>;
  void set_model_resolver(ModelResolver resolver) {
    model_resolver_ = std::move(resolver);
  }

  const ContainerOptions& options() const { return options_; }

 private:
  Result<std::unique_ptr<ServiceInstance>> LaunchImpl(
      const std::string& device, const std::string& service, bool native);

  sim::Cluster* cluster_;
  const ServiceCatalog* catalog_;
  ContainerOptions options_;
  ModelResolver model_resolver_;
  uint64_t launch_counter_ = 0;
  // Lanes for native services; kept alive for the cluster's lifetime.
  std::vector<std::unique_ptr<sim::ExecutionLane>> native_lanes_;
};

}  // namespace vp::services
