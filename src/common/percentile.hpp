// The one percentile rule: the sample at nearest rank q·(n−1). Run
// summaries, rollout gate windows and burst wake latencies all read
// their percentiles through it.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <span>
#include <vector>

namespace vp {

/// The q-quantile (q in [0, 1]) of ascending `sorted` samples: the
/// sample at rank llround(q·(n−1)); 0 when there are none.
inline double PercentileOfSorted(std::span<const double> sorted, double q) {
  if (sorted.empty()) return 0;
  const double rank = q * static_cast<double>(sorted.size() - 1);
  return sorted[static_cast<size_t>(std::llround(rank))];
}

/// PercentileOfSorted over `samples` in any order.
inline double Percentile(std::vector<double> samples, double q) {
  std::sort(samples.begin(), samples.end());
  return PercentileOfSorted(samples, q);
}

}  // namespace vp
