// Shared cloud inference tier for a fleet of homes.
//
// Every home offloads heavy jobs (re-identification, long-window
// re-training inference, clip summarisation) to one pool of cloud
// slots. The pool multiplexes tenants with the serving layer's stride
// fair-share discipline — lowest served/weight progress dispatches
// next — at *tenant* granularity instead of priority-class
// granularity, plus an optional hard per-tenant quota enforced by a
// token bucket so one noisy home cannot starve the rest even when the
// pool has idle slots.
//
// Deterministic by construction: no RNG, dispatch order is a pure
// function of submission order and the fair-share scan, so fleet runs
// replay bit-for-bit.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/time.hpp"
#include "sim/simulator.hpp"

namespace vp::fleet {

/// Token-bucket depth of a tenant quota, in refill windows (burst
/// allowance).
inline constexpr double kQuotaBurstWindows = 2.0;

struct CloudOptions {
  /// Concurrent jobs the pool executes.
  int slots = 4;
  /// Slot speed relative to the reference edge device (1.0). A job of
  /// cost C occupies a slot for C / speed of wall (virtual) time.
  double speed = 4.0;
  /// Hard per-tenant ceiling as a fraction of total pool capacity
  /// (cost-seconds per wall-second = slots * speed). 0 disables the
  /// quota: fair-share alone arbitrates and spare capacity is
  /// work-conserving.
  double quota_share = 0.0;
  /// Token-bucket refill cadence when the quota is on.
  Duration quota_window = Duration::Millis(250);
};

class CloudTier {
 public:
  CloudTier(sim::Simulator* simulator, CloudOptions options);

  /// Add a tenant (one home). Weight scales its fair share.
  void RegisterTenant(const std::string& tenant, int weight = 1);

  /// Enqueue one job of `cost` (reference-device compute seconds) for
  /// `tenant`; `on_done` fires at completion. Unknown tenants are
  /// rejected.
  Status Submit(const std::string& tenant, Duration cost,
                std::function<void()> on_done = nullptr);

  struct TenantStats {
    uint64_t submitted = 0;
    uint64_t served = 0;
    /// Total job cost served (reference compute-seconds).
    double served_cost_seconds = 0;
    int backlog = 0;
  };
  TenantStats tenant_stats(const std::string& tenant) const;
  std::vector<std::string> tenants() const;

  uint64_t served_total() const { return served_total_; }
  int busy_slots() const { return busy_slots_; }
  /// Simulator events this tier has executed (completion + refill
  /// ticks) — the fleet's overhead accounting reads this.
  uint64_t events() const { return events_; }

  const CloudOptions& options() const { return options_; }

 private:
  struct Job {
    Duration cost;
    std::function<void()> on_done;
  };
  struct Tenant {
    std::string name;
    int weight = 1;
    std::deque<Job> queue;
    uint64_t submitted = 0;
    uint64_t served = 0;
    double served_cost_seconds = 0;
    /// Token bucket, in cost-seconds. Eligible while > 0 (a job may
    /// overdraw slightly; the debt repays on refill).
    double tokens = 0;
  };

  void MaybeDispatch();
  void ScheduleRefill();

  sim::Simulator* sim_;
  CloudOptions options_;
  std::vector<Tenant> tenants_;
  std::map<std::string, int> index_;
  int busy_slots_ = 0;
  uint64_t served_total_ = 0;
  uint64_t events_ = 0;
  bool refill_running_ = false;
};

}  // namespace vp::fleet
