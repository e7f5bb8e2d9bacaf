// Pipeline monitoring — one of the paper's named future-work items
// (§7: "we aim to include automatic deployment, scheduling and
// monitoring components to VideoPipe").
//
// The monitor samples every deployed pipeline and every watched
// service group on a fixed virtual-time cadence, keeps the timeseries,
// and can publish each sample on a fabric PUB/SUB topic so dashboards
// (or the autoscaler of tomorrow) can subscribe from any device.
//
// A sample is one list of labeled readings, filled in one pass by
// PipelineMonitor::Sample from the counters the layers already keep.
// Its JSON writer and Report() read every reading without knowing its
// name, so a new home signal is one line in Sample(). A fleet
// controller exports each home's latest sample under a "home" label.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "core/failure_detector.hpp"
#include "core/orchestrator.hpp"
#include "sim/fault_injector.hpp"

namespace vp::core {

/// (label, value) pairs naming what a reading is about: "pipeline",
/// "group" ("device/service"), "device" or "replica" (its index in
/// the group).
using Labels = std::vector<std::pair<std::string, std::string>>;

/// One monitor reading: a number, or a text (health, model version,
/// rollout phase).
struct Reading {
  std::string name;
  Labels labels;
  std::variant<double, std::string> value;
};

struct MonitorSample {
  TimePoint when;
  /// In Sample()'s iteration order, which is deterministic.
  std::vector<Reading> readings;

  void Add(std::string name, Labels labels, double value);
  void Add(std::string name, Labels labels, std::string text);

  /// The number (or text) reading `name` with exactly `labels`;
  /// nullopt when the sample holds none.
  std::optional<double> Number(std::string_view name,
                               const Labels& labels = {}) const;
  std::optional<std::string> Text(std::string_view name,
                                  const Labels& labels = {}) const;

  /// {"t_ms", optional "home", then each reading name → a list of
  /// {<label>: …, "value": x} or {<label>: …, "text": "…"} entries}.
  /// A fleet controller passes `home` so one merged document stays
  /// attributable.
  json::Value ToJson(const std::string& home = std::string()) const;
};

class PipelineMonitor {
 public:
  explicit PipelineMonitor(Orchestrator* orchestrator,
                           Duration interval = Duration::Millis(1000));

  /// Include a (device, service) group in every sample.
  void WatchService(const std::string& device, const std::string& service);

  /// Include the failure detector's per-device liveness in every
  /// sample. The detector must outlive the monitor's sampling.
  void WatchDetector(const FailureDetector* detector) {
    detector_ = detector;
  }

  /// Include the fault injector's partition counter in every sample
  /// (duplicates/reorders/corruptions come from the network and fabric
  /// regardless). The injector must outlive the monitor's sampling.
  void WatchInjector(const sim::FaultInjector* injector) {
    injector_ = injector;
  }

  /// Publish each sample as a "telemetry" message on this fabric topic
  /// from this device (optional).
  void PublishTo(const std::string& from_device, const std::string& topic);

  void Start();
  void Stop() { running_ = false; }

  const std::vector<MonitorSample>& samples() const { return samples_; }
  /// Most recent sample, or nullptr before the first tick.
  const MonitorSample* latest() const {
    return samples_.empty() ? nullptr : &samples_.back();
  }
  Duration interval() const { return interval_; }

  /// Multi-line text summary: min/mean/max of each numeric reading
  /// over the samples, and the last value of each text reading.
  std::string Report() const;

 private:
  void Sample();

  Orchestrator* orchestrator_;
  Duration interval_;
  bool running_ = false;
  std::vector<std::pair<std::string, std::string>> watched_services_;
  const FailureDetector* detector_ = nullptr;
  const sim::FaultInjector* injector_ = nullptr;
  std::string publish_device_;
  std::string publish_topic_;
  std::map<std::string, uint64_t> last_completed_;
  std::map<std::string, Duration> last_busy_;
  std::vector<MonitorSample> samples_;
};

}  // namespace vp::core
