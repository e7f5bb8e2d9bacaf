#include "report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "json/parse.hpp"
#include "json/write.hpp"

namespace vp::e2e {

Quartiles QuartilesOf(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  if (n == 0) return {};
  if (n == 1) return {values[0], values[0], values[0]};
  // statistics.quantiles(values, n=4), method "exclusive".
  double q[3];
  const long m = static_cast<long>(n) + 1;
  for (long i = 1; i <= 3; ++i) {
    long j = i * m / 4;
    j = std::clamp(j, 1L, static_cast<long>(n) - 1);
    const long delta = i * m - j * 4;
    const double lo = values[static_cast<size_t>(j - 1)];
    const double hi = values[static_cast<size_t>(j)];
    q[i - 1] = (lo * static_cast<double>(4 - delta) +
                hi * static_cast<double>(delta)) /
               4.0;
  }
  return {q[0], q[1], q[2]};
}

namespace {

json::Value MetricsObject(const std::vector<Metric>& metrics) {
  json::Value out = json::Value::MakeObject();
  for (const Metric& metric : metrics) {
    json::Value entry = json::Value::MakeObject();
    entry["value"] = json::Value(metric.value);
    entry["unit"] = json::Value(metric.unit);
    out[metric.name] = std::move(entry);
  }
  return out;
}

bool ReadJson(const std::string& path, json::Value* out) {
  std::ifstream file(path);
  if (!file) {
    std::fprintf(stderr, "vp_bench: cannot read %s\n", path.c_str());
    return false;
  }
  std::stringstream text;
  text << file.rdbuf();
  auto parsed = json::Parse(text.str());
  if (!parsed.ok()) {
    std::fprintf(stderr, "vp_bench: %s: %s\n", path.c_str(),
                 parsed.error().ToString().c_str());
    return false;
  }
  *out = std::move(*parsed);
  return true;
}

bool WriteJson(const std::string& path, const json::Value& doc) {
  std::ofstream file(path);
  file << json::Write(doc, 1) << "\n";
  if (!file) {
    std::fprintf(stderr, "vp_bench: cannot write %s\n", path.c_str());
    return false;
  }
  return true;
}

/// A summary's view of one metric: unit, values, quartiles.
json::Value SummaryEntry(const std::string& unit,
                         const std::vector<double>& values) {
  json::Value entry = json::Value::MakeObject();
  entry["unit"] = json::Value(unit);
  json::Value list = json::Value::MakeArray();
  for (double v : values) list.PushBack(json::Value(v));
  entry["values"] = std::move(list);
  const Quartiles q = QuartilesOf(values);
  entry["median"] = json::Value(q.median);
  entry["q1"] = json::Value(q.q1);
  entry["q3"] = json::Value(q.q3);
  return entry;
}

/// Load a summary; a single run file is read as a one-run summary.
bool LoadSummary(const std::string& path, json::Value* summary) {
  json::Value doc;
  if (!ReadJson(path, &doc)) return false;
  if (const json::Value* workloads = doc.Find("workloads")) {
    if (!workloads->is_object()) {
      std::fprintf(stderr, "vp_bench: %s: bad summary\n", path.c_str());
      return false;
    }
    *summary = std::move(doc);
    return true;
  }
  const json::Value* metrics = doc.Find("metrics");
  if (metrics == nullptr || !metrics->is_object()) {
    std::fprintf(stderr, "vp_bench: %s is neither a run nor a summary\n",
                 path.c_str());
    return false;
  }
  json::Value entries = json::Value::MakeObject();
  for (const auto& [name, metric] : metrics->AsObject()) {
    entries[name] = SummaryEntry(metric.GetString("unit"),
                                 {metric.GetDouble("value")});
  }
  json::Value workload = json::Value::MakeObject();
  workload["runs"] = json::Value(1);
  workload["metrics"] = std::move(entries);
  *summary = json::Value::MakeObject();
  (*summary)["workloads"] = json::Value::MakeObject();
  (*summary)["workloads"][doc.GetString("workload")] = std::move(workload);
  return true;
}

/// Virtual-time metrics only some workloads report, so BENCHMARK.json,
/// which lists what every workload reports, cannot register them.
/// Lower is better for each.
const char* const kWorkloadLatencies[] = {"interactive_p95_ms", "wake_p50_ms",
                                          "wake_p95_ms"};

/// A virtual-time metric compared at one seed may move by at most this
/// share (or its registered bound, if tighter) before --compare flags
/// it.
constexpr double kVirtualTolerance = 0.01;

/// (q3 - q1) / median of a summary entry.
double Spread(const json::Value& entry) {
  const double median = entry.GetDouble("median");
  return median == 0 ? 0.0
                     : (entry.GetDouble("q3") - entry.GetDouble("q1")) /
                           std::abs(median);
}

/// Whether a summary entry holds two or more runs that all read the
/// same: a virtual-time metric measured at one seed.
bool Repeats(const json::Value& entry) {
  const json::Value* values = entry.Find("values");
  if (values == nullptr || values->AsArray().size() < 2) return false;
  for (const json::Value& v : values->AsArray()) {
    if (v.AsDouble() != values->AsArray().front().AsDouble()) return false;
  }
  return true;
}

bool ReadDefs(const json::Value& doc, const char* key, bool bounded,
              std::vector<MetricDef>* out) {
  const json::Value* list = doc.Find(key);
  if (list == nullptr || !list->is_array()) return false;
  for (const json::Value& entry : list->AsArray()) {
    const std::string better = entry.GetString("better");
    if (better != "higher" && better != "lower") return false;
    MetricDef def{entry.GetString("name"), entry.GetString("unit"),
                  better == "higher", bounded ? entry.GetDouble("bound") : 0};
    if (def.name.empty() || def.unit.empty()) return false;
    out->push_back(std::move(def));
  }
  return true;
}

}  // namespace

bool LoadRegistry(Registry* out) {
  json::Value doc;
  if (!ReadJson(VP_E2E_BENCHMARK_JSON, &doc)) return false;
  if (!ReadDefs(doc, "end_to_end", true, &out->end_to_end) ||
      !ReadDefs(doc, "per_layer", false, &out->per_layer)) {
    std::fprintf(stderr, "vp_bench: %s: bad metric list\n",
                 VP_E2E_BENCHMARK_JSON);
    return false;
  }
  return true;
}

std::vector<Metric> SelectRegistered(const std::vector<MetricDef>& defs,
                                     const std::vector<Metric>& metrics,
                                     std::vector<std::string>& failed_checks) {
  std::vector<Metric> out;
  for (const MetricDef& def : defs) {
    auto it = std::find_if(metrics.begin(), metrics.end(),
                           [&](const Metric& m) { return m.name == def.name; });
    if (it == metrics.end() || it->unit != def.unit) {
      failed_checks.push_back("registered metric " + def.name + " (" +
                              def.unit + ") was not measured");
      continue;
    }
    out.push_back(*it);
  }
  return out;
}

json::Value RunDocument(const std::string& workload, uint64_t seed,
                        bool trace, bool correct, uint64_t attempted,
                        uint64_t failed,
                        const std::vector<std::string>& failed_checks,
                        const std::vector<Metric>& metrics) {
  json::Value doc = json::Value::MakeObject();
  doc["workload"] = json::Value(workload);
  doc["seed"] = json::Value(static_cast<double>(seed));
  doc["trace"] = json::Value(trace);
  doc["correct"] = json::Value(correct);
  doc["attempted"] = json::Value(static_cast<double>(attempted));
  doc["failed"] = json::Value(static_cast<double>(failed));
  json::Value checks = json::Value::MakeArray();
  for (const std::string& check : failed_checks) {
    checks.PushBack(json::Value(check));
  }
  doc["failed_checks"] = std::move(checks);
  doc["metrics"] = MetricsObject(metrics);
  return doc;
}

std::string SummaryLine(bool correct, uint64_t attempted, uint64_t failed,
                        const std::vector<Metric>& registered) {
  json::Value line = json::Value::MakeObject();
  line["correct"] = json::Value(correct);
  line["attempted"] = json::Value(static_cast<double>(attempted));
  line["failed"] = json::Value(static_cast<double>(failed));
  line["metrics"] = MetricsObject(registered);
  return json::Write(line);
}

int Summarize(const std::string& out_path,
              const std::vector<std::string>& run_paths) {
  // workload → metric → {"unit", "values"}, in first-seen order.
  json::Value series = json::Value::MakeObject();
  for (const std::string& path : run_paths) {
    json::Value doc;
    if (!ReadJson(path, &doc)) return 2;
    if (!doc.GetBool("correct")) {
      std::fprintf(stderr, "vp_bench: %s failed its checks\n", path.c_str());
      return 1;
    }
    const json::Value* metrics = doc.Find("metrics");
    if (metrics == nullptr || !metrics->is_object()) {
      std::fprintf(stderr, "vp_bench: %s has no metrics\n", path.c_str());
      return 2;
    }
    json::Value& workload = series[doc.GetString("workload")];
    for (const auto& [name, entry] : metrics->AsObject()) {
      json::Value& metric = workload[name];
      metric["unit"] = json::Value(entry.GetString("unit"));
      metric["values"].PushBack(json::Value(entry.GetDouble("value")));
    }
  }
  json::Value workloads = json::Value::MakeObject();
  for (const auto& [name, metrics] : series.AsObject()) {
    json::Value entries = json::Value::MakeObject();
    size_t runs = 0;
    for (const auto& [metric, data] : metrics.AsObject()) {
      std::vector<double> values;
      for (const json::Value& v : data.Find("values")->AsArray()) {
        values.push_back(v.AsDouble());
      }
      runs = std::max(runs, values.size());
      entries[metric] = SummaryEntry(data.GetString("unit"), values);
    }
    workloads[name]["runs"] = json::Value(runs);
    workloads[name]["metrics"] = std::move(entries);
  }
  json::Value summary = json::Value::MakeObject();
  summary["workloads"] = std::move(workloads);
  return WriteJson(out_path, summary) ? 0 : 2;
}

int Compare(const Registry& registry, const std::string& old_path,
            const std::string& new_path) {
  json::Value old_summary, new_summary;
  if (!LoadSummary(old_path, &old_summary) ||
      !LoadSummary(new_path, &new_summary)) {
    return 2;
  }
  std::vector<MetricDef> defs = registry.end_to_end;
  for (const char* name : kWorkloadLatencies) {
    defs.push_back({name, "ms", false, kVirtualTolerance});
  }
  bool regressed = false;
  std::printf("%-18s %-20s %14s %14s %9s  %s\n", "workload", "metric", "old",
              "new", "change", "verdict");
  for (const auto& [workload, new_entry] :
       new_summary["workloads"].AsObject()) {
    const json::Value* old_entry = old_summary["workloads"].Find(workload);
    if (old_entry == nullptr) continue;
    const json::Value* old_metrics = old_entry->Find("metrics");
    const json::Value* new_metrics = new_entry.Find("metrics");
    if (old_metrics == nullptr || new_metrics == nullptr) continue;
    for (const MetricDef& def : defs) {
      const json::Value* o = old_metrics->Find(def.name);
      const json::Value* n = new_metrics->Find(def.name);
      if (o == nullptr || n == nullptr) continue;
      const double old_median = o->GetDouble("median");
      const double new_median = n->GetDouble("median");
      const double change =
          old_median == 0 ? 0.0 : (new_median - old_median) / old_median;
      // Share by which the new median is worse (negative = better).
      const double worse = def.higher_is_better ? -change : change;
      std::string verdict = "ok";
      if (Repeats(*o) && Repeats(*n)) {
        // Virtual time with one seed on both sides: a registered bound
        // wider than the tolerance covers seed-to-seed spread, which
        // this comparison does not have.
        const double tolerance = std::min(def.bound, kVirtualTolerance);
        if (worse > tolerance) {
          verdict = "REGRESSION";
        } else if (std::abs(change) > tolerance) {
          verdict = "changed";
        }
      } else if (std::max(Spread(*o), Spread(*n)) > def.bound) {
        verdict = "unresolved";
      } else if (worse > def.bound) {
        verdict = "REGRESSION";
      }
      if (verdict == "REGRESSION") regressed = true;
      std::printf("%-18s %-20s %14.6g %14.6g %+8.2f%%  %s\n", workload.c_str(),
                  def.name.c_str(), old_median, new_median, 100.0 * change,
                  verdict.c_str());
    }
    // Host speed drift explains wall-clock moves the code did not make.
    const json::Value* o = old_metrics->Find("host.calib_us");
    const json::Value* n = new_metrics->Find("host.calib_us");
    if (o != nullptr && n != nullptr && o->GetDouble("median") != 0) {
      const double old_calib = o->GetDouble("median");
      const double new_calib = n->GetDouble("median");
      std::printf("%-18s %-20s %14.6g %14.6g %+8.2f%%  %s\n", workload.c_str(),
                  "host.calib_us", old_calib, new_calib,
                  100.0 * (new_calib - old_calib) / old_calib, "host");
    }
  }
  return regressed ? 1 : 0;
}

}  // namespace vp::e2e
