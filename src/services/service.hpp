// Stateless services (paper §2.2).
//
// "The main video analytics are performed by stateless services
//  accessible to modules. … These services all receive needed data as
//  input so they do not require saving state. This allows the services
//  to be shared among different applications and also allows for
//  horizontal scaling."
//
// A Service is a pure request → response handler plus a compute-cost
// model. Handlers MUST NOT keep per-caller state; anything evolving
// (e.g. the rep counter's cluster state) travels inside the request
// and response. Tests assert replica-count invariance of results.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/time.hpp"
#include "json/value.hpp"
#include "media/codec.hpp"

namespace vp::modelreg {
class ModelHandle;
}

namespace vp::services {

struct ServiceRequest {
  /// The caller's payload, immutable once the call is issued: its
  /// retries, the gateway and the replica share this one tree instead
  /// of copying it. nullptr reads as a JSON null (see body()).
  std::shared_ptr<const json::Value> payload;
  /// The frame the caller's "frame_id" named (co-located) or shipped
  /// (remote); nullptr when the request carries no frame. Holding it
  /// keeps a co-located frame resident, queued or not. Its pixels
  /// decode on first read, so a service that needs none reads none.
  media::FrameRef frame;

  /// *payload, or JSON null when the request carries none.
  const json::Value& body() const;
};

/// A micro-batch of requests handed to one replica in a single
/// admission (non-owning views; the batch lives for the call only).
using ServiceBatch = std::vector<const ServiceRequest*>;

class Service {
 public:
  virtual ~Service() = default;

  virtual std::string name() const = 0;

  /// Reference-device compute cost of handling `request`.
  virtual Duration Cost(const ServiceRequest& request) const = 0;

  /// Pure handler. Runs when the simulated compute completes.
  virtual Result<json::Value> Handle(const ServiceRequest& request) = 0;

  /// Reference-device compute cost of handling `batch` in one
  /// admission. The default is the unbatched sum — no free lunch.
  /// Services with per-call setup (model/network warm path, weight
  /// paging) override this to amortize the setup across the batch; see
  /// AmortizedBatchCost.
  virtual Duration BatchCost(const ServiceBatch& batch) const;

  /// Batched execution hook: handle several requests in one admission,
  /// returning one result per request, in order. The default loops
  /// over Handle() so every existing service works unmodified.
  virtual std::vector<Result<json::Value>> ExecuteBatch(
      const ServiceBatch& batch);

  // -- model lifecycle (src/modelreg) -----------------------------------
  /// Non-empty for model-backed services: the modelreg kind whose
  /// artifacts this service runs (e.g. modelreg::kActivityKind). The
  /// container runtime binds a per-replica ModelHandle at launch.
  virtual std::string ModelKind() const { return ""; }
  /// Bind the replica's model slot. Model-backed services resolve
  /// their model through it on every request; the rollout machinery
  /// swaps its artifact to upgrade/canary/roll back the replica.
  virtual void BindModel(std::shared_ptr<modelreg::ModelHandle> handle) {
    (void)handle;
  }
  /// The bound handle; nullptr for services without one.
  virtual std::shared_ptr<modelreg::ModelHandle> model_handle() const {
    return nullptr;
  }
};

/// Batch-cost helper for services whose per-call cost includes a fixed
/// `setup` component (load weights, set up the inference graph): the
/// first request pays full price, each later one saves `setup`, floored
/// at 20% of its unbatched cost so a batch never becomes free.
Duration AmortizedBatchCost(const Service& service, const ServiceBatch& batch,
                            Duration setup);

using ServiceFactory = std::function<std::unique_ptr<Service>()>;

/// Catalog of installable service images ("services are preinstalled
/// on some edge devices", §2.2). Name → factory.
class ServiceCatalog {
 public:
  Status Register(const std::string& name, ServiceFactory factory);
  Result<std::unique_ptr<Service>> Create(const std::string& name) const;
  bool Contains(const std::string& name) const {
    return factories_.count(name) != 0;
  }
  std::vector<std::string> names() const;

  /// Catalog with every builtin VideoPipe service registered:
  /// pose_detector, activity_classifier, rep_counter, object_detector,
  /// face_detector, fall_detector, image_classifier, display.
  static ServiceCatalog WithBuiltins();

 private:
  std::map<std::string, ServiceFactory> factories_;
};

/// Register the builtin services into an existing catalog.
void RegisterBuiltinServices(ServiceCatalog& catalog);

}  // namespace vp::services
