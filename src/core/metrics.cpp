#include "core/metrics.hpp"

#include <algorithm>

#include "common/percentile.hpp"

namespace vp::core {

LatencySummary Summarize(const std::vector<double>& samples_ms) {
  LatencySummary out;
  if (samples_ms.empty()) return out;
  std::vector<double> sorted = samples_ms;
  std::sort(sorted.begin(), sorted.end());
  out.count = sorted.size();
  out.min_ms = sorted.front();
  out.max_ms = sorted.back();
  double sum = 0;
  for (double s : sorted) sum += s;
  out.mean_ms = sum / static_cast<double>(sorted.size());
  out.p50_ms = PercentileOfSorted(sorted, 0.50);
  out.p95_ms = PercentileOfSorted(sorted, 0.95);
  out.p99_ms = PercentileOfSorted(sorted, 0.99);
  return out;
}

void RunningStat::Add(double value, Rng& rng, size_t reservoir_cap) {
  if (count == 0) {
    min = max = value;
  } else {
    min = std::min(min, value);
    max = std::max(max, value);
  }
  ++count;
  sum += value;
  // Vitter's algorithm R: each of the `count` samples seen so far ends
  // up in the reservoir with probability reservoir_cap / count.
  if (reservoir.size() < reservoir_cap) {
    reservoir.push_back(value);
    return;
  }
  const int64_t j = rng.NextInt(0, static_cast<int64_t>(count) - 1);
  if (j < static_cast<int64_t>(reservoir_cap)) {
    reservoir[static_cast<size_t>(j)] = value;
  }
}

void PipelineMetrics::OnCaptured(uint64_t seq, TimePoint when) {
  FrameTrace& trace = traces_[seq];
  trace.seq = seq;
  trace.capture = when;
  ++captured_;
  while (traces_.size() > trace_retention_) {
    FoldTrace(traces_.begin()->second);
    traces_.erase(traces_.begin());
    ++traces_evicted_;
  }
}

void PipelineMetrics::OnStageStart(uint64_t seq, const std::string& module,
                                   TimePoint when) {
  StageSpan& span = traces_[seq].stages[module];
  // A module can handle several messages for one frame (fan-in edges);
  // the stage span records the FIRST, which is the data-path one.
  if (span.end > span.start || span.start > TimePoint()) return;
  span.start = when;
}

void PipelineMetrics::OnStageEnd(uint64_t seq, const std::string& module,
                                 TimePoint when) {
  StageSpan& span = traces_[seq].stages[module];
  if (span.end > span.start) return;  // keep the first completed span
  span.end = when;
}

void PipelineMetrics::OnCompleted(uint64_t seq, TimePoint when) {
  FrameTrace& trace = traces_[seq];
  if (trace.completed.has_value()) {
    // Effectively-once accounting: a frame finishing the sink twice
    // means the transport's dedup or the epoch fence leaked.
    ++duplicate_completions_;
    return;
  }
  trace.completed = when;
  ++completed_;
  if (!first_completion_) first_completion_ = when;
  last_completion_ = when;
}

void PipelineMetrics::FoldTrace(const FrameTrace& trace) {
  for (const auto& [module, span] : trace.stages) {
    folded_capture_to_start_[module].Add((span.start - trace.capture).millis(),
                                         fold_rng_, kReservoirCap);
    if (span.end < span.start) continue;  // incomplete handler span
    folded_module_latency_[module].Add(span.duration().millis(), fold_rng_,
                                       kReservoirCap);
  }
  if (trace.completed) {
    folded_total_latency_.Add((*trace.completed - trace.capture).millis(),
                              fold_rng_, kReservoirCap);
  }
}

LatencySummary PipelineMetrics::MergedSummary(const RunningStat* folded,
                                              std::vector<double> live) {
  if (folded == nullptr || folded->count == 0) return Summarize(live);
  // Percentiles: reservoir (a uniform sample of the evicted values)
  // pooled with the live samples. Count/mean/min/max: exact.
  std::vector<double> pool = folded->reservoir;
  pool.insert(pool.end(), live.begin(), live.end());
  LatencySummary out = Summarize(pool);
  double sum = folded->sum;
  double lo = folded->min;
  double hi = folded->max;
  for (double s : live) {
    sum += s;
    lo = std::min(lo, s);
    hi = std::max(hi, s);
  }
  out.count = folded->count + live.size();
  out.mean_ms = sum / static_cast<double>(out.count);
  out.min_ms = lo;
  out.max_ms = hi;
  return out;
}

double PipelineMetrics::EndToEndFps() const {
  if (completed_ < 2 || !first_completion_ || !last_completion_) return 0;
  const double seconds = (*last_completion_ - *first_completion_).seconds();
  if (seconds <= 0) return 0;
  return static_cast<double>(completed_ - 1) / seconds;
}

LatencySummary PipelineMetrics::ModuleLatency(const std::string& module) const {
  std::vector<double> samples;
  for (const auto& [seq, trace] : traces_) {
    auto it = trace.stages.find(module);
    if (it == trace.stages.end()) continue;
    if (it->second.end < it->second.start) continue;  // incomplete
    samples.push_back(it->second.duration().millis());
  }
  auto folded = folded_module_latency_.find(module);
  return MergedSummary(
      folded == folded_module_latency_.end() ? nullptr : &folded->second,
      std::move(samples));
}

LatencySummary PipelineMetrics::CaptureToStageStart(
    const std::string& module) const {
  std::vector<double> samples;
  for (const auto& [seq, trace] : traces_) {
    auto it = trace.stages.find(module);
    if (it == trace.stages.end()) continue;
    samples.push_back((it->second.start - trace.capture).millis());
  }
  auto folded = folded_capture_to_start_.find(module);
  return MergedSummary(
      folded == folded_capture_to_start_.end() ? nullptr : &folded->second,
      std::move(samples));
}

LatencySummary PipelineMetrics::TotalLatency() const {
  std::vector<double> samples;
  for (const auto& [seq, trace] : traces_) {
    if (!trace.completed) continue;
    samples.push_back((*trace.completed - trace.capture).millis());
  }
  return MergedSummary(&folded_total_latency_, std::move(samples));
}

}  // namespace vp::core
