#include "serving/request_scheduler.hpp"

#include <algorithm>

#include "common/log.hpp"
#include "serving/fair_share.hpp"

namespace vp::serving {
namespace {

/// EWMA smoothing factor for the per-request service-time estimate.
constexpr double kEwmaAlpha = 0.2;
/// Completed batch spans kept for Chrome trace export.
constexpr size_t kSpanRetention = 4096;

}  // namespace

int PriorityClassFromName(const std::string& name) {
  if (name == "interactive") return 0;
  if (name == "background") return 2;
  return 1;
}

const char* PriorityClassName(int priority_class) {
  switch (priority_class) {
    case 0: return "interactive";
    case 2: return "background";
    default: return "normal";
  }
}

RequestScheduler::RequestScheduler(sim::Simulator* simulator,
                                   services::ServiceRegistry* registry,
                                   std::string device, std::string service,
                                   SchedulerOptions options,
                                   Duration suspect_duration)
    : simulator_(simulator), registry_(registry), device_(std::move(device)),
      service_(std::move(service)), options_(options),
      suspect_duration_(suspect_duration) {
  if (options_.max_batch_size < 1) options_.max_batch_size = 1;
}

int RequestScheduler::TotalPending() const {
  int total = 0;
  for (const auto& queue : queues_) total += static_cast<int>(queue.size());
  return total;
}

int RequestScheduler::queue_depth() const { return TotalPending(); }

TimePoint RequestScheduler::OldestEnqueued() const {
  TimePoint oldest;
  bool found = false;
  for (const auto& queue : queues_) {
    // Deques are FIFO per class: the front is that class's oldest.
    if (queue.empty()) continue;
    if (!found || queue.front().enqueued < oldest) {
      oldest = queue.front().enqueued;
      found = true;
    }
  }
  return oldest;
}

double RequestScheduler::QueuePressure(TimePoint now) const {
  (void)now;
  const size_t available =
      std::max<size_t>(1, registry_->AvailableReplicaCount(device_, service_));
  return static_cast<double>(TotalPending() + inflight_requests_) /
         static_cast<double>(available);
}

void RequestScheduler::Submit(SchedulerRequest request) {
  const TimePoint now = simulator_->Now();
  ++stats_.submitted;
  request.priority_class =
      std::clamp(request.priority_class, 0, kNumPriorityClasses - 1);

  if (request.deadline.has_value()) {
    if (*request.deadline < now) {
      Shed(Pending{std::move(request), now, submit_seq_++},
           /*stale=*/false, now);
      return;
    }
    if (options_.predictive_shedding && stats_.ewma_service_ms > 0) {
      // Admission control: with `ahead` requests in line and the EWMA
      // per-request service time, would this request finish in time?
      const double ahead =
          static_cast<double>(TotalPending() + inflight_requests_);
      const double replicas = static_cast<double>(std::max<size_t>(
          1, registry_->AvailableReplicaCount(device_, service_)));
      const double finish_ms =
          (ahead / replicas + 1.0) * stats_.ewma_service_ms;
      if (now + Duration::Millis(finish_ms) > *request.deadline) {
        Shed(Pending{std::move(request), now, submit_seq_++},
             /*stale=*/false, now);
        return;
      }
    }
  }

  const int cls = request.priority_class;
  queues_[cls].push_back(Pending{std::move(request), now, submit_seq_++});
  Pump();
}

void RequestScheduler::Shed(Pending pending, bool stale, TimePoint now) {
  ++stats_.shed_per_class[pending.request.priority_class];
  std::function<void(Result<json::Value>)> done =
      std::move(pending.request.done);
  if (stale) {
    ++stats_.shed_stale;
    if (done) {
      done(Unavailable("request to '" + service_ + "' on " + device_ +
                       " waited out the scheduler queue (" +
                       std::to_string(static_cast<long long>(
                           (now - pending.enqueued).millis())) +
                       " ms)"));
    }
    return;
  }
  ++stats_.shed_deadline;
  if (done) {
    done(DeadlineExceeded("request to '" + service_ + "' on " + device_ +
                          " shed: frame deadline cannot be met"));
  }
}

void RequestScheduler::ShedExpired(TimePoint now) {
  for (auto& queue : queues_) {
    for (auto it = queue.begin(); it != queue.end();) {
      const bool expired = it->request.deadline.has_value() &&
                           *it->request.deadline < now;
      const bool stale = now - it->enqueued > options_.max_queue_wait;
      if (!expired && !stale) {
        ++it;
        continue;
      }
      Pending victim = std::move(*it);
      it = queue.erase(it);
      Shed(std::move(victim), /*stale=*/stale && !expired, now);
    }
  }
}

void RequestScheduler::FailAll(const Error& error) {
  for (auto& queue : queues_) {
    while (!queue.empty()) {
      Pending victim = std::move(queue.front());
      queue.pop_front();
      if (victim.request.done) victim.request.done(error);
    }
  }
  if (window_armed_) {
    simulator_->Cancel(window_timer_);
    window_armed_ = false;
  }
}

void RequestScheduler::Quiesce(services::ServiceInstance* replica,
                               std::function<void()> on_drained) {
  draining_[replica] = std::move(on_drained);
  if (busy_replicas_.count(replica) != 0) return;  // fires on completion
  auto it = draining_.find(replica);
  std::function<void()> drained = std::move(it->second);
  it->second = nullptr;  // keep the key: still excluded until Release
  if (drained) drained();
}

void RequestScheduler::Release(services::ServiceInstance* replica) {
  draining_.erase(replica);
  Pump();
}

void RequestScheduler::PurgeRetiredReplicas() {
  if (draining_.empty()) return;
  std::set<services::ServiceInstance*> live;
  for (services::ServiceInstance* replica :
       registry_->Replicas(device_, service_)) {
    live.insert(replica);
  }
  std::vector<std::function<void()>> fired;
  for (auto it = draining_.begin(); it != draining_.end();) {
    if (live.count(it->first) != 0) {
      ++it;
      continue;
    }
    // The replica was retired (autoscaler scale-down, device death)
    // while quiesced. Without this purge the entry would stay forever:
    // Release is never called for a replica the rollout controller no
    // longer sees, and whichever future replica reuses the freed
    // address would be permanently excluded from dispatch. If a batch
    // is still in flight the drain has NOT happened yet — leave both
    // entries alone; the completion callback (which InvokeBatch always
    // delivers, even for crashed replicas) fires the drain, and the
    // next purge removes the tombstone.
    if (busy_replicas_.count(it->first) != 0) {
      ++it;
      continue;
    }
    std::function<void()> drained = std::move(it->second);
    it = draining_.erase(it);
    if (drained) fired.push_back(std::move(drained));
  }
  // Fire outside the loop: a drain callback typically swaps and calls
  // Release, whose Pump re-enters this purge — erasing under the
  // outer iterator would be UB.
  for (auto& drained : fired) drained();
}

void RequestScheduler::SetTrafficSplit(const std::string& canary_version,
                                       double share) {
  split_active_ = true;
  canary_version_ = canary_version;
  canary_share_ = std::clamp(share, 0.0, 1.0);
  canary_batches_ = 0;
  total_split_batches_ = 0;
}

void RequestScheduler::ClearTrafficSplit() {
  split_active_ = false;
  canary_version_.clear();
  canary_share_ = 0.0;
}

services::ServiceInstance* RequestScheduler::PickReplica(
    TimePoint now) const {
  // With a traffic split active the group is two pools, keyed by model
  // version; least-backlog within each pool.
  services::ServiceInstance* best_canary = nullptr;
  services::ServiceInstance* best_rest = nullptr;
  for (services::ServiceInstance* replica :
       registry_->Replicas(device_, service_)) {
    if (!replica->available(now)) continue;
    // One outstanding batch per replica: excess demand queues HERE,
    // where it can coalesce, not on a lane where it cannot.
    if (busy_replicas_.count(replica) != 0) continue;
    if (draining_.count(replica) != 0) continue;  // quiesced for a swap
    const bool canary =
        split_active_ && replica->model_version() == canary_version_;
    services::ServiceInstance*& slot = canary ? best_canary : best_rest;
    if (slot == nullptr || replica->backlog(now) < slot->backlog(now)) {
      slot = replica;
    }
  }
  if (!split_active_) return best_rest;
  // Stride: the canary pool is due whenever it is behind its share.
  const bool canary_due =
      static_cast<double>(canary_batches_) <
      canary_share_ * static_cast<double>(total_split_batches_ + 1);
  services::ServiceInstance* preferred = canary_due ? best_canary : best_rest;
  services::ServiceInstance* fallback = canary_due ? best_rest : best_canary;
  return preferred != nullptr ? preferred : fallback;
}

int RequestScheduler::PickClass(TimePoint now) const {
  if (options_.policy == SchedulingPolicy::kWeightedFair) {
    // Stride-style: serve the class furthest behind its weighted share
    // (same machinery the fleet tier uses per tenant).
    return PickFairShare(
        kNumPriorityClasses,
        [this](int cls) { return served_[static_cast<size_t>(cls)]; },
        [this](int cls) {
          return options_.class_weights[static_cast<size_t>(cls)];
        },
        [this](int cls) {
          return !queues_[static_cast<size_t>(cls)].empty();
        });
  }
  // Strict priority — but a request that has waited past the
  // starvation grace beats everything (oldest such head first).
  int starving = -1;
  TimePoint starving_since;
  for (int cls = 0; cls < kNumPriorityClasses; ++cls) {
    if (queues_[cls].empty()) continue;
    const TimePoint head = queues_[cls].front().enqueued;
    if (now - head >= options_.starvation_grace &&
        (starving < 0 || head < starving_since)) {
      starving = cls;
      starving_since = head;
    }
  }
  if (starving >= 0) return starving;
  for (int cls = 0; cls < kNumPriorityClasses; ++cls) {
    if (!queues_[cls].empty()) return cls;
  }
  return -1;
}

RequestScheduler::Pending RequestScheduler::PopNext(TimePoint now) {
  const int cls = PickClass(now);
  auto& queue = queues_[cls];
  // EDF within the class: earliest deadline first; requests without a
  // deadline come after deadlined ones. The deque is already in
  // submission order, so ties and the no-deadline case stay FIFO.
  auto best = queue.begin();
  for (auto it = std::next(queue.begin()); it != queue.end(); ++it) {
    const auto& a = it->request.deadline;
    const auto& b = best->request.deadline;
    if (a.has_value() && (!b.has_value() || *a < *b)) best = it;
  }
  Pending out = std::move(*best);
  queue.erase(best);
  ++served_[cls];
  return out;
}

void RequestScheduler::ArmWindow(TimePoint flush_at) {
  // An already-armed timer was set for an entry at least as old, so it
  // fires no later than needed; the re-pump re-arms if necessary.
  if (window_armed_) return;
  window_armed_ = true;
  const TimePoint now = simulator_->Now();
  const Duration delay =
      flush_at > now ? flush_at - now : Duration::Zero();
  window_timer_ = simulator_->After(delay, [this] {
    window_armed_ = false;
    Pump();
  });
}

void RequestScheduler::Pump() {
  PurgeRetiredReplicas();
  while (true) {
    const TimePoint now = simulator_->Now();
    ShedExpired(now);
    if (TotalPending() == 0) return;
    services::ServiceInstance* replica = PickReplica(now);
    if (replica == nullptr) return;  // re-pumped on batch completion
    const bool full = TotalPending() >= options_.max_batch_size;
    const TimePoint flush_at = OldestEnqueued() + options_.batch_window;
    if (!full && flush_at > now) {
      // Worth waiting: another pipeline's frame may still join.
      ArmWindow(flush_at);
      return;
    }
    Dispatch(replica, now);
  }
}

void RequestScheduler::Dispatch(services::ServiceInstance* replica,
                                TimePoint now) {
  std::vector<services::BatchEntry> entries;
  BatchSpan span;
  span.id = next_batch_id_++;
  span.dispatch = now;
  span.enqueued = now;
  Duration extra_cost;
  while (static_cast<int>(entries.size()) < options_.max_batch_size &&
         TotalPending() > 0) {
    Pending pending = PopNext(now);
    if (pending.request.deadline.has_value() &&
        *pending.request.deadline < now) {
      Shed(std::move(pending), /*stale=*/false, now);
      continue;
    }
    stats_.queue_delay_total += now - pending.enqueued;
    ++stats_.queue_delay_samples;
    if (pending.enqueued < span.enqueued) span.enqueued = pending.enqueued;
    ++span.per_class[pending.request.priority_class];
    extra_cost += pending.request.extra_cost;
    entries.push_back(services::BatchEntry{std::move(pending.request.request),
                                           std::move(pending.request.done)});
  }
  if (entries.empty()) return;  // everything shed at the last moment

  const int size = static_cast<int>(entries.size());
  span.size = size;
  span.model_version = replica->model_version();
  if (split_active_) {
    ++total_split_batches_;
    if (span.model_version == canary_version_) ++canary_batches_;
  }
  ++stats_.batches;
  stats_.dispatched += static_cast<uint64_t>(size);
  ++stats_.batch_size_histogram[size];
  inflight_requests_ += size;
  busy_replicas_[replica] = span.id;
  // Service time counts from when the lane can start the batch: a
  // replica's cold start is not service time, and counting it would
  // shed every deadlined request behind a model that never resamples.
  const TimePoint start = std::max(now, replica->lane()->busy_until());

  replica->InvokeBatch(
      std::move(entries), extra_cost,
      [this, replica, span, size, start](bool delivered) mutable {
        const TimePoint done_at = simulator_->Now();
        // Guarded by batch id: if this replica was retired mid-batch
        // and a later replica reused the address, its entry belongs to
        // a different batch — leave it.
        if (auto busy = busy_replicas_.find(replica);
            busy != busy_replicas_.end() && busy->second == span.id) {
          busy_replicas_.erase(busy);
        }
        inflight_requests_ -= size;
        // A quiesce requested mid-batch is now satisfied: the replica
        // has zero in-flight frames until Release re-admits it.
        if (auto drain = draining_.find(replica);
            drain != draining_.end() && drain->second != nullptr) {
          std::function<void()> drained = std::move(drain->second);
          drain->second = nullptr;
          drained();
        }
        span.complete = done_at;
        span.delivered = delivered;
        if (!delivered) {
          // The replica swallowed the batch (wedge): the service-call
          // circuit breaker, marked here because a caller's watchdog
          // suspects nothing behind a scheduler.
          ++stats_.batches_swallowed;
          replica->MarkSuspected(done_at + suspect_duration_);
          VP_WARN("serving") << device_ << "/" << service_
                             << ": replica swallowed a batch of " << size
                             << "; suspected";
        } else {
          const double per_request_ms = (done_at - start).millis() / size;
          stats_.ewma_service_ms =
              stats_.ewma_service_ms == 0
                  ? per_request_ms
                  : kEwmaAlpha * per_request_ms +
                        (1.0 - kEwmaAlpha) * stats_.ewma_service_ms;
        }
        spans_.push_back(span);
        if (spans_.size() > kSpanRetention) spans_.pop_front();
        Pump();
      });
}

}  // namespace vp::serving
