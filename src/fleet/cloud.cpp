#include "fleet/cloud.hpp"

#include <algorithm>

#include "serving/fair_share.hpp"

namespace vp::fleet {

CloudTier::CloudTier(sim::Simulator* simulator, CloudOptions options)
    : sim_(simulator), options_(options) {
  if (options_.slots < 1) options_.slots = 1;
  if (options_.speed <= 0) options_.speed = 1.0;
}

void CloudTier::RegisterTenant(const std::string& tenant, int weight) {
  auto it = index_.find(tenant);
  if (it != index_.end()) {
    tenants_[static_cast<size_t>(it->second)].weight = weight;
    return;
  }
  Tenant t;
  t.name = tenant;
  t.weight = weight < 1 ? 1 : weight;
  // Start with a full bucket so the first window is not artificially
  // throttled.
  if (options_.quota_share > 0) {
    t.tokens = options_.quota_share * options_.slots * options_.speed *
               options_.quota_window.seconds() * kQuotaBurstWindows;
  }
  index_[tenant] = static_cast<int>(tenants_.size());
  tenants_.push_back(std::move(t));
  if (options_.quota_share > 0) ScheduleRefill();
}

Status CloudTier::Submit(const std::string& tenant, Duration cost,
                         std::function<void()> on_done) {
  auto it = index_.find(tenant);
  if (it == index_.end()) {
    return Status(StatusCode::kNotFound, "unknown cloud tenant " + tenant);
  }
  Tenant& t = tenants_[static_cast<size_t>(it->second)];
  ++t.submitted;
  t.queue.push_back(Job{cost, std::move(on_done)});
  MaybeDispatch();
  return Status::Ok();
}

void CloudTier::MaybeDispatch() {
  while (busy_slots_ < options_.slots) {
    const bool quota = options_.quota_share > 0;
    const int pick = serving::PickFairShare(
        static_cast<int>(tenants_.size()),
        [&](int i) {
          return static_cast<int64_t>(
              tenants_[static_cast<size_t>(i)].served);
        },
        [&](int i) { return tenants_[static_cast<size_t>(i)].weight; },
        [&](int i) {
          const Tenant& t = tenants_[static_cast<size_t>(i)];
          return !t.queue.empty() && (!quota || t.tokens > 0);
        });
    if (pick < 0) return;
    Tenant& t = tenants_[static_cast<size_t>(pick)];
    Job job = std::move(t.queue.front());
    t.queue.pop_front();
    ++busy_slots_;
    const double cost_seconds = job.cost.seconds();
    t.tokens -= cost_seconds;
    const Duration wall = Duration::Seconds(cost_seconds / options_.speed);
    const int tenant_index = pick;
    sim_->After(wall, [this, tenant_index, cost_seconds,
                       done = std::move(job.on_done)]() {
      ++events_;
      --busy_slots_;
      Tenant& owner = tenants_[static_cast<size_t>(tenant_index)];
      ++owner.served;
      owner.served_cost_seconds += cost_seconds;
      ++served_total_;
      if (done) done();
      MaybeDispatch();
    });
  }
}

void CloudTier::ScheduleRefill() {
  if (refill_running_) return;
  refill_running_ = true;
  sim_->After(options_.quota_window, [this]() {
    ++events_;
    refill_running_ = false;
    const double refill = options_.quota_share * options_.slots *
                          options_.speed * options_.quota_window.seconds();
    const double cap = refill * kQuotaBurstWindows;
    for (Tenant& t : tenants_) {
      t.tokens = std::min(cap, t.tokens + refill);
    }
    ScheduleRefill();
    MaybeDispatch();
  });
}

CloudTier::TenantStats CloudTier::tenant_stats(
    const std::string& tenant) const {
  TenantStats stats;
  auto it = index_.find(tenant);
  if (it == index_.end()) return stats;
  const Tenant& t = tenants_[static_cast<size_t>(it->second)];
  stats.submitted = t.submitted;
  stats.served = t.served;
  stats.served_cost_seconds = t.served_cost_seconds;
  stats.backlog = static_cast<int>(t.queue.size());
  return stats;
}

std::vector<std::string> CloudTier::tenants() const {
  std::vector<std::string> out;
  out.reserve(tenants_.size());
  for (const Tenant& t : tenants_) out.push_back(t.name);
  return out;
}

}  // namespace vp::fleet
