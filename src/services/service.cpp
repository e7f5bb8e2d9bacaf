#include "services/service.hpp"

namespace vp::services {

const json::Value& ServiceRequest::body() const {
  static const json::Value kNull;
  return payload ? *payload : kNull;
}

Duration Service::BatchCost(const ServiceBatch& batch) const {
  Duration total;
  for (const ServiceRequest* request : batch) total += Cost(*request);
  return total;
}

std::vector<Result<json::Value>> Service::ExecuteBatch(
    const ServiceBatch& batch) {
  std::vector<Result<json::Value>> out;
  out.reserve(batch.size());
  for (const ServiceRequest* request : batch) out.push_back(Handle(*request));
  return out;
}

Duration AmortizedBatchCost(const Service& service, const ServiceBatch& batch,
                            Duration setup) {
  Duration total;
  bool first = true;
  for (const ServiceRequest* request : batch) {
    const Duration cost = service.Cost(*request);
    if (first) {
      total += cost;
      first = false;
      continue;
    }
    const Duration floor = cost * 0.2;
    const Duration marginal = cost - setup;
    total += marginal > floor ? marginal : floor;
  }
  return total;
}

Status ServiceCatalog::Register(const std::string& name,
                                ServiceFactory factory) {
  if (factories_.count(name) != 0) {
    return Status(StatusCode::kAlreadyExists,
                  "service '" + name + "' already registered");
  }
  factories_[name] = std::move(factory);
  return Status::Ok();
}

Result<std::unique_ptr<Service>> ServiceCatalog::Create(
    const std::string& name) const {
  auto it = factories_.find(name);
  if (it == factories_.end()) {
    return NotFound("service '" + name + "' not in catalog");
  }
  return it->second();
}

std::vector<std::string> ServiceCatalog::names() const {
  std::vector<std::string> out;
  out.reserve(factories_.size());
  for (const auto& [name, factory] : factories_) out.push_back(name);
  return out;
}

ServiceCatalog ServiceCatalog::WithBuiltins() {
  ServiceCatalog catalog;
  RegisterBuiltinServices(catalog);
  return catalog;
}

}  // namespace vp::services
