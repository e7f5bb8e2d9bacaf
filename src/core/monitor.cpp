#include "core/monitor.hpp"

#include <algorithm>

#include "common/strings.hpp"

namespace vp::core {

void MonitorSample::Add(std::string name, Labels labels, double value) {
  readings.push_back(Reading{std::move(name), std::move(labels), value});
}

void MonitorSample::Add(std::string name, Labels labels, std::string text) {
  readings.push_back(
      Reading{std::move(name), std::move(labels), std::move(text)});
}

namespace {

template <typename T>
std::optional<T> FindReading(const std::vector<Reading>& readings,
                             std::string_view name, const Labels& labels) {
  for (const Reading& r : readings) {
    const T* value = std::get_if<T>(&r.value);
    if (value != nullptr && r.name == name && r.labels == labels) {
      return *value;
    }
  }
  return std::nullopt;
}

}  // namespace

std::optional<double> MonitorSample::Number(std::string_view name,
                                            const Labels& labels) const {
  return FindReading<double>(readings, name, labels);
}

std::optional<std::string> MonitorSample::Text(std::string_view name,
                                               const Labels& labels) const {
  return FindReading<std::string>(readings, name, labels);
}

json::Value MonitorSample::ToJson(const std::string& home) const {
  json::Value out = json::Value::MakeObject();
  out["t_ms"] = json::Value(when.millis());
  if (!home.empty()) out["home"] = json::Value(home);
  for (const Reading& r : readings) {
    json::Value entry = json::Value::MakeObject();
    for (const auto& [label, value] : r.labels) {
      entry[label] = json::Value(value);
    }
    if (const auto* text = std::get_if<std::string>(&r.value)) {
      entry["text"] = json::Value(*text);
    } else {
      entry["value"] = json::Value(std::get<double>(r.value));
    }
    out[r.name].PushBack(std::move(entry));
  }
  return out;
}

PipelineMonitor::PipelineMonitor(Orchestrator* orchestrator,
                                 Duration interval)
    : orchestrator_(orchestrator), interval_(interval) {}

void PipelineMonitor::WatchService(const std::string& device,
                                   const std::string& service) {
  watched_services_.emplace_back(device, service);
}

void PipelineMonitor::PublishTo(const std::string& from_device,
                                const std::string& topic) {
  publish_device_ = from_device;
  publish_topic_ = topic;
}

void PipelineMonitor::Start() {
  if (running_) return;
  running_ = true;
  orchestrator_->cluster().simulator().After(interval_, [this] { Sample(); });
}

void PipelineMonitor::Sample() {
  if (!running_) return;
  const TimePoint now = orchestrator_->cluster().Now();
  MonitorSample sample;
  sample.when = now;

  uint64_t zombies_fenced = 0;
  for (const auto& pipeline : orchestrator_->pipelines()) {
    const std::string& name = pipeline->spec().name;
    const uint64_t completed = pipeline->metrics().frames_completed();
    uint64_t& previous = last_completed_[name];
    sample.Add("frames_completed", {{"pipeline", name}}, completed);
    sample.Add("pipeline_fps", {{"pipeline", name}},
               static_cast<double>(completed - previous) / interval_.seconds());
    previous = completed;
    zombies_fenced += pipeline->metrics().zombies_fenced();
  }

  for (const auto& [device, service] : watched_services_) {
    const std::string group = device + "/" + service;
    auto replicas = orchestrator_->registry().Replicas(device, service);
    int backlog = 0;
    for (services::ServiceInstance* replica : replicas) {
      backlog += replica->backlog(now);
    }
    sample.Add("service_backlog", {{"group", group}}, backlog);
    sample.Add("service_replicas", {{"group", group}}, replicas.size());
    const bool managed = orchestrator_->rollout().Manages(device, service);
    for (size_t i = 0; i < replicas.size(); ++i) {
      const Labels replica = {{"group", group}, {"replica", std::to_string(i)}};
      // The circuit breaker's view of each replica: crashed replicas are
      // down, timed-out ones sit suspect until the breaker half-opens.
      sample.Add("replica_health", replica,
                 replicas[i]->crashed()        ? "down"
                 : replicas[i]->suspected(now) ? "suspect"
                                               : "healthy");
      // Canaries show up as a mixed set of replica versions.
      if (managed) {
        sample.Add("replica_model_version", replica,
                   replicas[i]->model_version());
      }
    }
    if (managed) {
      sample.Add("model_version", {{"group", group}},
                 orchestrator_->rollout().stable_version(device, service));
      sample.Add("rollout_phase", {{"group", group}},
                 modelreg::RolloutPhaseName(
                     orchestrator_->rollout().phase(device, service)));
    }
  }
  if (detector_ != nullptr) {
    for (const auto& [device, health] : detector_->snapshot()) {
      sample.Add("device_health", {{"device", device}},
                 DeviceHealthName(health));
    }
  }
  // Module-lane utilization over the last interval, in [0, 1].
  for (sim::Device* device : orchestrator_->cluster().devices()) {
    const Duration busy = device->module_lane().busy_time();
    Duration& previous = last_busy_[device->name()];
    sample.Add(
        "device_utilization", {{"device", device->name()}},
        std::min(1.0, (busy - previous).seconds() / interval_.seconds()));
    previous = busy;
  }

  const sim::NetworkStats& net_stats =
      orchestrator_->cluster().network().stats();
  sample.Add("network_bytes", {}, net_stats.bytes);
  // Cumulative fault counters: duplicates and reorders the network's
  // knobs made, corrupted frames the fabric's checksum gate dropped,
  // partitions the watched injector started (0 without one), and
  // stale-epoch runtimes fenced across pipelines.
  sample.Add("duplicates_delivered", {}, net_stats.duplicates_delivered);
  sample.Add("reorders", {}, net_stats.reorders);
  sample.Add("corruptions_dropped", {},
             orchestrator_->fabric().dedup_stats().corruptions_dropped);
  sample.Add("partitions", {},
             injector_ != nullptr ? injector_->stats().partitions : 0);
  sample.Add("zombies_fenced", {}, zombies_fenced);
  // Scale-to-zero: pipelines asleep now, and transitions since deploy.
  sample.Add("hibernated_pipelines", {}, orchestrator_->hibernated_count());
  sample.Add("hibernations", {}, orchestrator_->hibernations());
  sample.Add("wakes", {}, orchestrator_->wakes());

  // Serving layer (no readings when it is off).
  for (const auto& [key, sched] : orchestrator_->schedulers()) {
    const Labels group = {{"group", key.first + "/" + key.second}};
    const serving::SchedulerStats& stats = sched->stats();
    sample.Add("scheduler_queue_depth", group, sched->queue_depth());
    sample.Add("scheduler_queue_delay_ms", group, stats.mean_queue_delay_ms());
    sample.Add("scheduler_batch_occupancy", group,
               stats.mean_batch_occupancy());
    sample.Add("scheduler_sheds", group,
               stats.shed_deadline + stats.shed_stale);
  }

  if (!publish_topic_.empty()) {
    net::Message telemetry("telemetry", sample.ToJson());
    (void)orchestrator_->fabric().Publish(publish_device_, publish_topic_,
                                          telemetry);
  }
  samples_.push_back(std::move(sample));
  orchestrator_->cluster().simulator().After(interval_, [this] { Sample(); });
}

std::string PipelineMonitor::Report() const {
  if (samples_.empty()) return "no samples\n";
  struct Series {
    double low = 0, high = 0, total = 0;
    size_t count = 0;
    std::string text;  // last value of a text reading
  };
  // Keyed by "name{label=value,…}", so a name's readings print together.
  std::map<std::string, Series> series;
  for (const MonitorSample& sample : samples_) {
    for (const Reading& r : sample.readings) {
      std::string key = r.name;
      for (const auto& [label, value] : r.labels) {
        key += (key.size() == r.name.size() ? "{" : ",") + label + "=" + value;
      }
      if (!r.labels.empty()) key += "}";
      Series& s = series[key];
      if (const auto* text = std::get_if<std::string>(&r.value)) {
        s.text = *text;
        continue;
      }
      const double x = std::get<double>(r.value);
      s.low = s.count == 0 ? x : std::min(s.low, x);
      s.high = s.count == 0 ? x : std::max(s.high, x);
      s.total += x;
      ++s.count;
    }
  }
  std::string out =
      Format("monitor: %zu samples over %.1f s\n", samples_.size(),
             (samples_.back().when - samples_.front().when).seconds());
  for (const auto& [key, s] : series) {
    if (s.count == 0) {
      out += Format("  %-56s = %s\n", key.c_str(), s.text.c_str());
    } else {
      out += Format("  %-56s min/mean/max = %.2f / %.2f / %.2f\n",
                    key.c_str(), s.low,
                    s.total / static_cast<double>(s.count), s.high);
    }
  }
  return out;
}

}  // namespace vp::core
