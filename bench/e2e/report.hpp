// Registered metrics, result files, and the baseline comparator.
#pragma once

#include <string>
#include <vector>

#include "json/value.hpp"

namespace vp::e2e {

/// One metric as BENCHMARK.json registers it.
struct MetricDef {
  std::string name;
  std::string unit;
  bool higher_is_better = false;
  /// Share of the old median by which the metric may worsen (0 for
  /// per-layer metrics, which have no bound).
  double bound = 0;
};

/// The metrics every run reports: `end_to_end` untraced, `per_layer`
/// with --trace.
struct Registry {
  std::vector<MetricDef> end_to_end;
  std::vector<MetricDef> per_layer;
};

/// Reads the repository's BENCHMARK.json, the one place metric names,
/// units, directions and bounds are defined. False (with a message on
/// stderr) when it is missing or malformed.
bool LoadRegistry(Registry* out);

/// One named measurement of a run.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// The measured value of each of `defs`, in registry order. A def the
/// run did not measure, or measured in another unit, is a failed check.
std::vector<Metric> SelectRegistered(const std::vector<MetricDef>& defs,
                                     const std::vector<Metric>& metrics,
                                     std::vector<std::string>& failed_checks);

/// A run's result file: {"workload", "seed", "trace", "correct",
/// "attempted", "failed", "failed_checks": [...], "metrics": {name:
/// {value, unit}}}.
json::Value RunDocument(const std::string& workload, uint64_t seed,
                        bool trace, bool correct, uint64_t attempted,
                        uint64_t failed,
                        const std::vector<std::string>& failed_checks,
                        const std::vector<Metric>& metrics);

/// A run's one-line JSON summary: correct, attempted, failed and
/// `registered` (from SelectRegistered).
std::string SummaryLine(bool correct, uint64_t attempted, uint64_t failed,
                        const std::vector<Metric>& registered);

/// Merge run files into a summary: per workload and metric, every
/// value plus median and quartiles. Returns the process exit code.
int Summarize(const std::string& out_path,
              const std::vector<std::string>& run_paths);

/// Compare two summaries (or run files) metric by metric: the
/// registered end-to-end metrics with their bounds, plus the
/// workload-specific latencies. Returns the process exit code: 1 when
/// any metric regressed.
int Compare(const Registry& registry, const std::string& old_path,
            const std::string& new_path);

/// Quartiles as Python's statistics.quantiles(values, n=4) gives them
/// (the "exclusive" method); a single value is its own quartiles.
struct Quartiles {
  double q1 = 0;
  double median = 0;
  double q3 = 0;
};
Quartiles QuartilesOf(std::vector<double> values);

}  // namespace vp::e2e
