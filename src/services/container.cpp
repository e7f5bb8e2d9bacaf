#include "services/container.hpp"

#include <algorithm>

namespace vp::services {
namespace {

/// Native services start almost immediately.
constexpr Duration kNativeStartup = Duration::Millis(5);

}  // namespace

void ServiceInstance::Invoke(ServiceRequest request,
                             std::function<void(Result<json::Value>)> done) {
  std::vector<BatchEntry> entries;
  entries.push_back(BatchEntry{std::move(request), std::move(done)});
  InvokeBatch(std::move(entries), Duration::Zero(), nullptr);
}

void ServiceInstance::InvokeBatch(
    std::vector<BatchEntry> entries, Duration extra_cost,
    std::function<void(bool delivered)> batch_done) {
  stats_.requests += entries.size();
  if (crashed_) {
    // Connection refused: callers learn immediately, not via a timeout.
    stats_.refused += entries.size();
    stats_.errors += entries.size();
    for (BatchEntry& entry : entries) {
      if (entry.done) {
        entry.done(Unavailable("replica of '" + name_ + "' on " + device_ +
                               " is down"));
      }
    }
    if (batch_done) batch_done(true);
    return;
  }
  ServiceBatch batch;
  batch.reserve(entries.size());
  for (const BatchEntry& entry : entries) batch.push_back(&entry.request);
  Duration cost = impl_->BatchCost(batch) + extra_cost;
  if (cost_jitter_ > 0.0) {
    const double factor =
        std::max(0.5, 1.0 + jitter_rng_.NextGaussian(0.0, cost_jitter_));
    cost = cost * factor;
  }
  stats_.busy += cost;
  const uint64_t epoch = epoch_;
  lane_->Run(cost, [this, epoch, entries = std::move(entries),
                    batch_done = std::move(batch_done)]() mutable {
    if (wedged_) {
      // Hung process: the batch was accepted and is now lost. Only a
      // timeout can recover from this.
      stats_.swallowed += entries.size();
      if (batch_done) batch_done(false);
      return;
    }
    if (epoch != epoch_ || crashed_) {
      // The replica crashed after admitting the batch; the results died
      // with the process.
      stats_.refused += entries.size();
      stats_.errors += entries.size();
      for (BatchEntry& entry : entries) {
        if (entry.done) {
          entry.done(Unavailable("replica of '" + name_ + "' on " + device_ +
                                 " crashed mid-request"));
        }
      }
      if (batch_done) batch_done(true);
      return;
    }
    ServiceBatch batch;
    batch.reserve(entries.size());
    for (const BatchEntry& entry : entries) batch.push_back(&entry.request);
    std::vector<Result<json::Value>> results = impl_->ExecuteBatch(batch);
    for (size_t i = 0; i < entries.size(); ++i) {
      Result<json::Value> result =
          i < results.size()
              ? std::move(results[i])
              : Result<json::Value>(Internal(
                    "batched '" + name_ + "' returned too few results"));
      if (!result.ok()) ++stats_.errors;
      if (entries[i].done) entries[i].done(std::move(result));
    }
    if (batch_done) batch_done(true);
  });
}

void ServiceInstance::Crash(TimePoint now) {
  if (crashed_) return;
  crashed_ = true;
  ++epoch_;
  down_since_ = now;
}

void ServiceInstance::Restart(TimePoint now, Duration startup_cost) {
  if (crashed_) {
    downtime_ += now - down_since_;
    crashed_ = false;
  }
  wedged_ = false;
  suspected_until_ = TimePoint();
  // Cold start occupies the lane; early requests queue behind it.
  if (startup_cost > Duration::Zero()) lane_->Run(startup_cost, nullptr);
}

void ServiceInstance::SetWedged(bool wedged) {
  wedged_ = wedged;
  if (!wedged) suspected_until_ = TimePoint();
}

Result<std::unique_ptr<ServiceInstance>> ContainerRuntime::LaunchImpl(
    const std::string& device, const std::string& service, bool native) {
  sim::Device* dev = cluster_->FindDevice(device);
  if (dev == nullptr) return NotFound("unknown device '" + device + "'");

  auto impl = catalog_->Create(service);
  if (!impl.ok()) return impl.error();

  sim::ExecutionLane* lane = nullptr;
  if (native) {
    native_lanes_.push_back(std::make_unique<sim::ExecutionLane>(
        &cluster_->simulator(), device + "/native:" + service,
        dev->spec().cpu_speed));
    lane = native_lanes_.back().get();
  } else {
    if (!dev->spec().supports_containers) {
      return FailedPrecondition("device '" + device +
                                "' cannot run containers");
    }
    lane = dev->AllocateContainerLane("svc:" + service);
    if (lane == nullptr) {
      return ResourceExhausted("device '" + device +
                               "' is out of container cores");
    }
  }

  // Startup: occupy the new lane for the cold-start duration so early
  // requests queue behind it.
  lane->Run(native ? kNativeStartup : kContainerStartup, nullptr);

  // Model-backed services get their version resolved per replica, so
  // different replicas of one group can run different versions (the
  // rollout controller's canary mechanism).
  std::shared_ptr<modelreg::ModelHandle> model;
  const std::string kind = (*impl)->ModelKind();
  if (model_resolver_ && !kind.empty()) {
    model = model_resolver_(device, service, kind);
  }

  auto instance = std::make_unique<ServiceInstance>(
      device, std::move(*impl), lane, native, options_.cost_jitter,
      options_.jitter_seed + ++launch_counter_);
  if (model != nullptr) instance->BindModel(std::move(model));
  return instance;
}

Result<std::unique_ptr<ServiceInstance>> ContainerRuntime::Launch(
    const std::string& device, const std::string& service) {
  return LaunchImpl(device, service, /*native=*/false);
}

Result<std::unique_ptr<ServiceInstance>> ContainerRuntime::LaunchNative(
    const std::string& device, const std::string& service) {
  return LaunchImpl(device, service, /*native=*/true);
}

}  // namespace vp::services
