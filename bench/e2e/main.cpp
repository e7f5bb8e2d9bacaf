// vp_bench: the repository's end-to-end benchmark (see README.md).
//
//   vp_bench --workload W [--seed S] [--trace] [--repeat-check]
//            [--out FILE]
//   vp_bench --summarize OUT RUN.json...
//   vp_bench --compare OLD.json NEW.json
//   vp_bench --list
//
// A run executes episodes of one workload — set-up, warm-up, timed
// window — and checks each for correctness. A run is kSeedsPerRun
// episodes with distinct seeds derived from --seed, pooled for the
// virtual-time metrics, which are therefore deterministic per --seed;
// wall-clock metrics are medians over the episodes (set-up time over
// WorkloadInfo::setups set-ups). --repeat-check runs every seed a
// second time, which must reproduce the virtual results exactly. A
// --trace run instead runs the first seed untraced and then traced
// (ledger.hpp), and reports the per-layer metrics. The last stdout
// line is a one-line JSON summary of the run: correct, attempted,
// failed and the metrics BENCHMARK.json registers.
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "json/write.hpp"
#include "ledger.hpp"
#include "probes.hpp"
#include "report.hpp"
#include "workloads.hpp"

namespace vp::e2e {
namespace {

constexpr int kSeedsPerRun = 3;
/// A reported percentile keeps at least this many samples above it.
constexpr size_t kTailSupport = 10;
/// The traced run must bill at least this share of the window.
constexpr double kMinAttributedPct = 99.0;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  bool trace = false;
  bool repeat_check = false;
  std::string out;
};

struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

struct EpisodeResult {
  int seed_index = 0;
  bool traced = false;
  bool sequential = false;
  int threads = 1;
  double setup_s = 0;
  double window_us = 0;
  double window_cpu_us = 0;
  std::vector<Span> spans;

  probes::Counters delta;
  double program_hits = 0;
  double program_misses = 0;
  double wakes_requested = 0;
  std::vector<double> latency_ms;
  std::vector<double> interactive_ms;
  std::vector<double> wake_ms;
  double load_ms = 0;
  double handler_ms = 0;
  double total_ms = 0;
  double frame_store_bytes = 0;
  double script_resident_bytes = 0;
  int peak_inflight = 0;
  int pose_replicas = 0;
  uint64_t fingerprint = 0;
  /// Per pipeline, a hash of its window's frame records. On
  /// fleet_parallel each home runs one pipeline, so these are the
  /// per-home results the engine cross-check compares.
  std::vector<uint64_t> pipeline_prints;
  std::vector<std::string> failed_checks;

  // Traced episodes only.
  std::array<double, kNumLayers> layer_ns{};
  double ledger_self_ns = 0;
  double script_events = 0;
  double script_errors = 0;
  double script_service_calls = 0;
  KernelCosts kernels;

  double frames() const { return static_cast<double>(latency_ms.size()); }
  double attempted() const { return delta.captured + wakes_requested; }
  double failed() const {
    return delta.abandoned + delta.requests_shed + delta.lost +
           delta.credit_timeouts + delta.wakes_shed + delta.wakes_failed;
  }
};

class Fnv {
 public:
  void Add(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xff;
      hash_ *= 1099511628211ULL;
    }
  }
  void Add(double d) {
    uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof bits);
    Add(bits);
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 1469598103934665603ULL;
};

double CpuUs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e6 +
         static_cast<double>(ts.tv_nsec) / 1e3;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// A fixed serial integer recurrence: the same work on every run, so
/// its time tracks host speed and nothing else.
double CalibrateUs() {
  const int64_t start = WallNs();
  uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (int i = 0; i < 10'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  const int64_t end = WallNs();
  volatile uint64_t sink = x;
  (void)sink;
  return static_cast<double>(end - start) / 1e3;
}

double Median(std::vector<double> values) {
  return QuartilesOf(std::move(values)).median;
}

/// Nearest-rank percentile and how many samples lie above it.
struct Percentile {
  double value = 0;
  size_t samples = 0;
  size_t beyond = 0;
};
Percentile PercentileOf(std::vector<double> values, double p) {
  Percentile out;
  out.samples = values.size();
  if (values.empty()) return out;
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  const size_t rank =
      std::max<size_t>(1, static_cast<size_t>(std::ceil(p * n)));
  out.value = values[rank - 1];
  out.beyond = values.size() - rank;
  return out;
}

EpisodeResult RunEpisode(const WorkloadInfo& info, uint64_t seed,
                         int seed_index, bool traced, bool sequential) {
  EpisodeResult r;
  r.seed_index = seed_index;
  r.traced = traced;
  r.sequential = sequential;
  const probes::ProgramCacheCounts programs_before = probes::ReadProgramCache();

  const int64_t start_ns = WallNs();
  Episode episode(info, seed, sequential);
  episode.Setup();
  const int64_t setup_ns = WallNs();
  r.setup_s = static_cast<double>(setup_ns - start_ns) / 1e9;
  episode.WarmUp();
  const int64_t warm_ns = WallNs();

  const probes::Counters before = probes::ReadCounters(episode);
  std::optional<Attribution> attribution;
  if (traced) attribution.emplace(episode);
  const double cpu_before = CpuUs();
  const int64_t window_ns = WallNs();
  episode.RunWindow([&] {
    if (attribution) attribution->BeforeSegment();
  });
  const int64_t window_end_ns = WallNs();
  r.window_cpu_us = CpuUs() - cpu_before;
  r.window_us = static_cast<double>(window_end_ns - window_ns) / 1e3;
  r.threads = episode.threads();
  if (attribution) {
    attribution->Finish();
    r.layer_ns = attribution->layer_ns();
    r.ledger_self_ns = attribution->self_ns();
    r.script_events = attribution->script_events();
    r.script_errors = attribution->script_errors();
    r.script_service_calls = attribution->script_service_calls();
  }
  const probes::Counters after = probes::ReadCounters(episode);
  r.delta = after - before;
  const probes::ProgramCacheCounts programs_after = probes::ReadProgramCache();
  r.program_hits = programs_after.hits - programs_before.hits;
  r.program_misses = programs_after.misses - programs_before.misses;

  Fnv fingerprint;
  for (const PipelineView& view : episode.pipelines()) {
    Fnv print;
    const auto frames = probes::CompletedFrames(
        *view.pipeline, episode.window_start()[static_cast<size_t>(view.home)]);
    if (frames.empty()) {
      r.failed_checks.push_back("pipeline " + view.pipeline->spec().name +
                                " completed no frame in the window");
    }
    const bool interactive =
        std::find(episode.interactive().begin(), episode.interactive().end(),
                  view.pipeline) != episode.interactive().end();
    for (const probes::FrameRecord& frame : frames) {
      const double total = (frame.completed - frame.capture).millis();
      r.latency_ms.push_back(total);
      if (interactive) r.interactive_ms.push_back(total);
      r.load_ms += frame.load.millis();
      r.handler_ms += frame.handlers.millis();
      r.total_ms += total;
      print.Add(frame.seq);
      print.Add(static_cast<uint64_t>(frame.capture.micros()));
      print.Add(static_cast<uint64_t>(frame.completed.micros()));
      print.Add(static_cast<uint64_t>(frame.handlers.micros()));
    }
    r.pipeline_prints.push_back(print.value());
    fingerprint.Add(print.value());
  }
  r.wake_ms = probes::WakeLatenciesMs(episode);
  for (double ms : r.wake_ms) fingerprint.Add(ms);
  fingerprint.Add(r.failed());
  r.fingerprint = fingerprint.value();

  r.wakes_requested = static_cast<double>(episode.wakes_requested());
  r.frame_store_bytes = probes::FrameStoreBytes(episode);
  r.script_resident_bytes = probes::ScriptResidentBytes(episode);
  r.peak_inflight = probes::AdmissionPeakInflight(episode);
  r.pose_replicas = probes::PoseReplicas(episode);

  // Correctness gate.
  auto check = [&](bool ok, const std::string& what) {
    if (!ok) r.failed_checks.push_back(what);
  };
  check(probes::InvariantViolations(episode) == 0,
        "runtime invariant violated (credit conservation, single lineage, "
        "duplicate completions or zombie-served frames)");
  if (info.id == WorkloadId::kSharedServing) {
    check(probes::FallAlerts(episode) > 0, "the fall pipeline raised no alert");
  }
  if (info.id == WorkloadId::kWakeBurst) {
    check(r.delta.wakes_completed == r.wakes_requested,
          "not every wake completed");
    check(r.delta.interactive_wakes_shed == 0, "an interactive wake was shed");
  }

  if (traced) r.kernels = ReplayKernels(episode);
  const int64_t end_ns = WallNs();

  r.spans = {{"setup", start_ns, setup_ns},
             {"warm-up", setup_ns, warm_ns},
             {"window", window_ns, window_end_ns},
             {traced ? "collect + replay" : "collect", window_end_ns, end_ns}};
  for (const Episode::WakeSpan& wake : episode.wake_spans()) {
    r.spans.push_back({"wake " + wake.pipeline, wake.start_ns, wake.end_ns});
  }
  return r;
}

void WriteChromeTrace(const std::string& path,
                      const std::vector<EpisodeResult>& episodes) {
  if (episodes.empty() || episodes.front().spans.empty()) return;
  const int64_t origin = episodes.front().spans.front().start_ns;
  json::Value events = json::Value::MakeArray();
  for (size_t i = 0; i < episodes.size(); ++i) {
    const EpisodeResult& episode = episodes[i];
    const std::string lane = "episode " + std::to_string(i) + " (seed index " +
                             std::to_string(episode.seed_index) +
                             (episode.traced ? ", traced" : "") +
                             (episode.sequential ? ", sequential" : "") + ")";
    json::Value meta = json::Value::MakeObject();
    meta["name"] = json::Value("thread_name");
    meta["ph"] = json::Value("M");
    meta["pid"] = json::Value(1);
    meta["tid"] = json::Value(static_cast<int>(i + 1));
    meta["args"] = json::Value::MakeObject();
    meta["args"]["name"] = json::Value(lane);
    events.PushBack(std::move(meta));
    for (const Span& span : episode.spans) {
      json::Value event = json::Value::MakeObject();
      event["name"] = json::Value(span.name);
      event["ph"] = json::Value("X");
      event["pid"] = json::Value(1);
      event["tid"] = json::Value(static_cast<int>(i + 1));
      event["ts"] =
          json::Value(static_cast<double>(span.start_ns - origin) / 1e3);
      event["dur"] =
          json::Value(static_cast<double>(span.end_ns - span.start_ns) / 1e3);
      events.PushBack(std::move(event));
    }
  }
  json::Value doc = json::Value::MakeObject();
  doc["traceEvents"] = std::move(events);
  std::ofstream file(path);
  file << json::Write(doc) << "\n";
}

double Ratio(double a, double b) { return b > 0 ? a / b : 0.0; }

/// Run-level checks: every episode's gate, and every repeat of a seed
/// reproducing that seed's first episode.
std::vector<std::string> CheckRun(
    const std::vector<EpisodeResult>& episodes,
    const std::vector<const EpisodeResult*>& first) {
  std::vector<std::string> failed;
  for (const EpisodeResult& e : episodes) {
    const std::string label = "seed index " + std::to_string(e.seed_index) +
                              (e.traced ? " (traced)" : "") +
                              (e.sequential ? " (sequential)" : "") + ": ";
    for (const std::string& check : e.failed_checks) {
      failed.push_back(label + check);
    }
    const EpisodeResult& reference = *first[static_cast<size_t>(e.seed_index)];
    if (e.sequential) {
      if (e.pipeline_prints != reference.pipeline_prints) {
        failed.push_back(label +
                         "per-home frame records differ from the parallel "
                         "engine");
      }
    } else if (e.fingerprint != reference.fingerprint) {
      failed.push_back(label + "virtual results differ from the first "
                               "episode with this seed");
    }
  }
  return failed;
}

/// End-to-end metrics. Virtual ones pool the first episode of each
/// seed; wall-clock ones are medians over every episode.
std::vector<Metric> EndToEnd(const WorkloadInfo& info,
                             const std::vector<EpisodeResult>& episodes,
                             const std::vector<const EpisodeResult*>& first,
                             const std::vector<double>& setup_s,
                             double peak_rss_mb,
                             std::vector<std::string>& failed_checks) {
  double frames = 0, attempted = 0, failed = 0;
  std::vector<double> latency, interactive, wake;
  for (const EpisodeResult* e : first) {
    frames += e->frames();
    attempted += e->attempted();
    failed += e->failed();
    latency.insert(latency.end(), e->latency_ms.begin(), e->latency_ms.end());
    interactive.insert(interactive.end(), e->interactive_ms.begin(),
                       e->interactive_ms.end());
    wake.insert(wake.end(), e->wake_ms.begin(), e->wake_ms.end());
  }
  std::vector<double> wall_per_frame, cpu_per_frame;
  for (const EpisodeResult& e : episodes) {
    wall_per_frame.push_back(e.window_us / e.frames());
    cpu_per_frame.push_back(e.window_cpu_us / e.frames());
  }

  std::vector<Metric> metrics;
  auto add = [&](const std::string& name, double value, const char* unit) {
    metrics.push_back({name, value, unit});
  };
  // A tail percentile without kTailSupport samples above it is noise.
  auto add_tail = [&](const std::string& name, const std::vector<double>& v,
                      double p) {
    const Percentile pct = PercentileOf(v, p);
    add(name, pct.value, "ms");
    if (pct.beyond < kTailSupport) {
      failed_checks.push_back(name + " has only " + std::to_string(pct.beyond) +
                              " samples beyond it");
    }
  };
  add("fps", frames / (static_cast<double>(first.size()) * info.window_s),
      "frames/s");
  add("latency_p50_ms", PercentileOf(latency, 0.50).value, "ms");
  add_tail("latency_p99_ms", latency, 0.99);
  add("latency_samples", static_cast<double>(latency.size()), "count");
  if (!interactive.empty()) {
    add_tail("interactive_p95_ms", interactive, 0.95);
    add("interactive_samples", static_cast<double>(interactive.size()),
        "count");
  }
  if (!wake.empty()) {
    add("wake_p50_ms", PercentileOf(wake, 0.50).value, "ms");
    add_tail("wake_p95_ms", wake, 0.95);
    add("wake_samples", static_cast<double>(wake.size()), "count");
  }
  add("success_ratio", Ratio(attempted - failed, attempted), "ratio");
  add("wall_us_per_frame", Median(wall_per_frame), "us");
  add("setup_s", Median(setup_s), "s");
  add("peak_rss_mb", peak_rss_mb, "MB");
  add("host.cpu_us_per_frame", Median(cpu_per_frame), "us");
  return metrics;
}

/// Per-layer metrics of the traced run: counters from the untraced
/// episode (the traced one reproduces them exactly), the wall-clock
/// ledger and the kernel replay from the traced one.
std::vector<Metric> PerLayer(const WorkloadInfo& info,
                             const EpisodeResult& base,
                             const EpisodeResult& traced,
                             const EpisodeResult* sequential,
                             std::vector<std::string>& failed_checks) {
  const probes::Counters& d = base.delta;
  const KernelCosts& k = traced.kernels;
  const double per_frame = 1.0 / base.frames();
  const double traced_frames = traced.frames();
  double billed_ns = 0;
  for (double ns : traced.layer_ns) billed_ns += ns;
  const double attributed_pct =
      100.0 * Ratio(billed_ns / 1e3, traced.window_us * traced.threads);
  if (attributed_pct < kMinAttributedPct) {
    failed_checks.push_back("the ledger billed only " +
                            std::to_string(attributed_pct) + "% of the window");
  }
  // Frames carrying an encoded image dominate the wire bytes, so bytes
  // over the encoded size estimates the decode calls.
  const double decodes = Ratio(d.net_bytes, k.encoded_bytes);

  std::vector<Metric> metrics;
  auto add = [&](const std::string& name, double value, const char* unit) {
    metrics.push_back({name, value, unit});
  };
  add("sim.events_per_frame", d.events * per_frame, "count");
  add("sim.ns_per_event", Ratio(base.window_us * 1e3, d.events), "ns");
  for (int i = 0; i < kNumLayers; ++i) {
    add(std::string("sim.wall_us.") + kLayerNames[i],
        Ratio(traced.layer_ns[i] / 1e3 / traced.threads, traced_frames), "us");
  }
  add("sim.attributed_pct", attributed_pct, "%");
  add("sim.pool_reuse_ratio",
      Ratio(d.pool_reuses, d.pool_reuses + d.node_allocs), "ratio");
  add("sim.segments", d.segments, "count");
  add("sim.parallel_speedup",
      sequential ? Ratio(sequential->window_us, base.window_us) : 1.0, "ratio");
  add("media.render_us", k.render_us * d.captured * per_frame, "us");
  add("media.encode_us", k.encode_us * d.captured * per_frame, "us");
  add("media.decode_us", k.decode_us * decodes * per_frame, "us");
  add("media.encoded_kb_per_frame", k.encoded_bytes / 1024, "KB");
  add("media.frame_store_mb", base.frame_store_bytes / 1e6, "MB");
  add("cv.pose_us", k.pose_us * d.pose_requests * per_frame, "us");
  add("net.messages_per_frame", d.net_messages * per_frame, "count");
  add("net.kb_per_frame", d.net_bytes / 1024 * per_frame, "KB");
  add("net.dropped", d.net_dropped, "count");
  add("script.events_per_frame", Ratio(traced.script_events, traced_frames),
      "count");
  add("script.service_calls_per_frame",
      Ratio(traced.script_service_calls, traced_frames), "count");
  add("script.errors", traced.script_errors, "count");
  add("script.resident_kb", base.script_resident_bytes / 1024, "KB");
  add("script.program_cache_hit_ratio",
      Ratio(base.program_hits, base.program_hits + base.program_misses),
      "ratio");
  add("services.busy_ms_per_frame", d.service_busy_ms * per_frame, "ms");
  add("services.pose_utilization",
      Ratio(d.pose_busy_ms, base.pose_replicas * info.window_s * 1e3), "ratio");
  add("services.requests_per_frame", d.service_requests * per_frame, "count");
  add("services.errors", d.service_errors, "count");
  add("serving.queue_delay_ms", Ratio(d.queue_delay_ms, d.queue_delay_samples),
      "ms");
  add("serving.batch_occupancy", Ratio(d.dispatched, d.batches), "count");
  add("serving.shed", d.serving_shed, "count");
  add("core.load_frame_ms", base.load_ms * per_frame, "ms");
  add("core.hop_ms",
      (base.total_ms - base.load_ms - base.handler_ms) * per_frame, "ms");
  add("core.handler_ms", base.handler_ms * per_frame, "ms");
  add("core.source_drop_ratio",
      Ratio(d.source_drops, d.source_drops + d.source_ticks), "ratio");
  add("core.credit_timeouts", d.credit_timeouts, "count");
  add("core.frames_abandoned", d.abandoned, "count");
  add("lifecycle.pool_hit_ratio",
      Ratio(d.pool_hits, d.pool_hits + d.pool_misses), "ratio");
  add("lifecycle.admission_peak_inflight", base.peak_inflight, "count");
  add("lifecycle.wakes_shed", d.wakes_shed, "count");
  add("fleet.cloud_jobs", d.cloud_jobs, "count");
  add("host.cpu_us_per_frame", base.window_cpu_us * per_frame, "us");
  add("host.ledger_self_pct",
      100.0 * Ratio(traced.ledger_self_ns / 1e3,
                    traced.window_us * traced.threads),
      "%");
  add("host.tracing_overhead_pct",
      100.0 * (Ratio(traced.window_us / traced_frames,
                     base.window_us * per_frame) -
               1.0),
      "%");
  return metrics;
}

int RunBenchmark(const Options& options, const WorkloadInfo& info,
                 const Registry& registry) {
  const double calib_before = CalibrateUs();
  auto seed_of = [&](int index) {
    return options.seed * kSeedsPerRun + static_cast<uint64_t>(index);
  };
  std::vector<EpisodeResult> episodes;
  std::vector<double> setup_s;
  // Sampled after the seeded episodes, so a --repeat-check run reports
  // the same memory as a plain one.
  double peak_rss_mb = 0;
  if (options.trace) {
    // The same seed untraced, then traced: the pair gives the overhead
    // and must agree on every virtual result.
    episodes.push_back(RunEpisode(info, seed_of(0), 0, false, false));
    episodes.push_back(RunEpisode(info, seed_of(0), 0, true, false));
    if (info.id == WorkloadId::kFleetParallel) {
      episodes.push_back(RunEpisode(info, seed_of(0), 0, false, true));
    }
  } else {
    const int count = options.repeat_check ? 2 * kSeedsPerRun : kSeedsPerRun;
    for (int k = 0; k < count; ++k) {
      episodes.push_back(RunEpisode(info, seed_of(k % kSeedsPerRun),
                                    k % kSeedsPerRun, false, false));
      if (k + 1 == kSeedsPerRun) peak_rss_mb = PeakRssMb();
      setup_s.push_back(episodes.back().setup_s);
    }
    for (int k = count; k < info.setups; ++k) {
      const int64_t start_ns = WallNs();
      Episode episode(info, seed_of(k % kSeedsPerRun));
      episode.Setup();
      setup_s.push_back(static_cast<double>(WallNs() - start_ns) / 1e9);
    }
  }
  const double calib_us = (calib_before + CalibrateUs()) / 2;

  // The first untraced episode of each seed.
  std::vector<const EpisodeResult*> first;
  for (const EpisodeResult& e : episodes) {
    if (!e.traced && !e.sequential &&
        static_cast<size_t>(e.seed_index) == first.size()) {
      first.push_back(&e);
    }
  }
  std::vector<std::string> failed_checks = CheckRun(episodes, first);
  uint64_t attempted = 0;
  uint64_t failed = 0;
  for (const EpisodeResult& e : episodes) {
    attempted += static_cast<uint64_t>(e.attempted());
    failed += static_cast<uint64_t>(e.failed());
  }

  std::vector<Metric> metrics;
  if (options.trace) {
    const EpisodeResult* sequential =
        episodes.size() > 2 ? &episodes[2] : nullptr;
    metrics = PerLayer(info, episodes[0], episodes[1], sequential,
                       failed_checks);
  } else {
    metrics =
        EndToEnd(info, episodes, first, setup_s, peak_rss_mb, failed_checks);
  }
  metrics.push_back({"host.calib_us", calib_us, "us"});

  const std::vector<Metric> registered = SelectRegistered(
      options.trace ? registry.per_layer : registry.end_to_end, metrics,
      failed_checks);
  const bool correct = failed_checks.empty();
  for (const std::string& check : failed_checks) {
    std::fprintf(stderr, "vp_bench: %s: FAILED CHECK: %s\n", info.name,
                 check.c_str());
  }
  for (const Metric& metric : metrics) {
    std::printf("%s %s %.6g %s\n", info.name, metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
  if (!options.out.empty()) {
    std::ofstream file(options.out);
    file << json::Write(RunDocument(info.name, options.seed, options.trace,
                                    correct, attempted, failed, failed_checks,
                                    metrics),
                        1)
         << "\n";
    if (options.trace) {
      std::string trace_path = options.out;
      const size_t dot = trace_path.rfind(".json");
      if (dot != std::string::npos) trace_path.erase(dot);
      WriteChromeTrace(trace_path + ".trace.json", episodes);
    }
  }
  const std::string summary =
      SummaryLine(correct, attempted, failed, registered);
  std::printf("%s\n", summary.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

[[noreturn]] void Usage(const char* error) {
  std::fprintf(stderr,
               "vp_bench: %s\n"
               "usage: vp_bench --workload W [--seed S] [--trace] "
               "[--repeat-check] [--out FILE]\n"
               "       vp_bench --summarize OUT RUN.json...\n"
               "       vp_bench --compare OLD.json NEW.json\n"
               "       vp_bench --list\n",
               error);
  std::exit(2);
}

}  // namespace
}  // namespace vp::e2e

int main(int argc, char** argv) {
  using namespace vp::e2e;
  std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty()) Usage("no arguments");
  if (args[0] == "--list") {
    for (const WorkloadInfo& info : AllWorkloads()) {
      std::printf("%s\n", info.name);
    }
    return 0;
  }
  if (args[0] == "--summarize") {
    if (args.size() < 3) Usage("--summarize takes OUT and run files");
    return Summarize(args[1], {args.begin() + 2, args.end()});
  }
  Registry registry;
  if (!LoadRegistry(&registry)) return 2;
  if (args[0] == "--compare") {
    if (args.size() != 3) Usage("--compare takes OLD and NEW");
    return Compare(registry, args[1], args[2]);
  }
  Options options;
  for (size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    auto value = [&]() -> const std::string& {
      if (i + 1 >= args.size()) Usage((arg + " needs a value").c_str());
      return args[++i];
    };
    if (arg == "--workload") {
      options.workload = value();
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--trace") {
      options.trace = true;
    } else if (arg == "--repeat-check") {
      options.repeat_check = true;
    } else if (arg == "--out") {
      options.out = value();
    } else {
      Usage(("unknown argument " + arg).c_str());
    }
  }
  const WorkloadInfo* info = FindWorkload(options.workload);
  if (info == nullptr) {
    Usage(("unknown workload '" + options.workload + "'").c_str());
  }
  return RunBenchmark(options, *info, registry);
}
