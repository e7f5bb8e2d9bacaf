#include "serving/wakeup_admission.hpp"

#include <algorithm>

#include "common/log.hpp"
#include "common/percentile.hpp"

namespace vp::serving {

WakeupAdmission::WakeupAdmission(sim::Simulator* sim,
                                 WakeupAdmissionOptions options)
    : sim_(sim), options_(options) {}

void WakeupAdmission::Submit(std::string name, int priority_class,
                             TimePoint deadline, WakeFn wake, DoneFn done) {
  priority_class =
      std::clamp(priority_class, 0, kNumPriorityClasses - 1);
  Pending pending;
  pending.name = std::move(name);
  pending.priority_class = priority_class;
  pending.submitted = sim_->Now();
  pending.deadline = deadline;
  pending.seq = next_seq_++;
  pending.wake = std::move(wake);
  pending.done = std::move(done);
  ++stats_.submitted;
  queues_[priority_class].push_back(std::move(pending));
  // Defer the pump one simulator event: a burst of Submits within one
  // event then dispatches in a single deterministic pass instead of
  // first-submitted-wins-regardless-of-class.
  if (!pump_scheduled_) {
    pump_scheduled_ = true;
    sim_->After(Duration::Zero(), [this] {
      pump_scheduled_ = false;
      Pump();
    });
  }
}

void WakeupAdmission::Pump() {
  const TimePoint now = sim_->Now();
  for (int cls = 0; cls < kNumPriorityClasses; ++cls) {
    auto& queue = queues_[cls];
    // Shed expired non-interactive wakes before they consume a slot.
    // Interactive never sheds — late beats never for that class.
    if (cls != 0) {
      for (auto it = queue.begin(); it != queue.end();) {
        if (now > it->deadline) {
          ++stats_.shed_per_class[cls];
          ++stats_.shed_deadline;
          VP_WARN("wakeup") << "shed wake '" << it->name << "' ("
                            << PriorityClassName(cls)
                            << "): deadline passed while queued";
          if (it->done) {
            it->done(Status(StatusCode::kDeadlineExceeded,
                            "wake deadline passed while queued"));
          }
          it = queue.erase(it);
        } else {
          ++it;
        }
      }
    }
    while (!queue.empty() && inflight_total_ < options_.total_concurrency &&
           inflight_per_class_[cls] < options_.class_concurrency[cls]) {
      // EDF within the class, FIFO on ties.
      auto best = queue.begin();
      for (auto it = std::next(queue.begin()); it != queue.end(); ++it) {
        if (it->deadline < best->deadline ||
            (it->deadline == best->deadline && it->seq < best->seq)) {
          best = it;
        }
      }
      Pending pending = std::move(*best);
      queue.erase(best);
      Dispatch(std::move(pending));
    }
  }
}

void WakeupAdmission::Dispatch(Pending pending) {
  const int cls = pending.priority_class;
  ++inflight_per_class_[cls];
  ++inflight_total_;
  stats_.peak_inflight = std::max(stats_.peak_inflight, inflight_total_);
  ++stats_.admitted_per_class[cls];
  sim_->After(options_.wake_cost,
              [this, pending = std::move(pending)]() mutable {
    Status status = pending.wake ? pending.wake() : Status::Ok();
    if (status.ok()) {
      ++stats_.completed;
      stats_.wake_latency_ms.push_back(
          (sim_->Now() - pending.submitted).millis());
    } else {
      ++stats_.failed;
      VP_WARN("wakeup") << "wake '" << pending.name
                        << "' failed: " << status.ToString();
    }
    if (pending.done) pending.done(status);
    --inflight_per_class_[pending.priority_class];
    --inflight_total_;
    Pump();
  });
}

size_t WakeupAdmission::queue_depth() const {
  size_t depth = 0;
  for (const auto& queue : queues_) depth += queue.size();
  return depth;
}

double WakeupAdmission::WakeLatencyP95Ms() const {
  return Percentile(stats_.wake_latency_ms, 0.95);
}

}  // namespace vp::serving
