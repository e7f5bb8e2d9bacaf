// k-means clustering (Lloyd's algorithm with deterministic k-means++
// style seeding). Used by the rep counter (§4.1.3: "We use k-means
// with k = 2 to classify the frames into a cluster that occurs near
// the start of the exercise and a cluster that occurs near the end").
#pragma once

#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace vp::cv {

struct KMeansResult {
  std::vector<std::vector<double>> centroids;
  /// Cluster index per input point.
  std::vector<int> assignment;
  /// Sum of squared distances to assigned centroids.
  double inertia = 0;
  int iterations = 0;
};

struct KMeansOptions {
  uint64_t seed = 17;
};

/// Cluster `points` into k groups, in at most 50 Lloyd iterations.
/// Errors when points.size() < k or dimensions are inconsistent.
Result<KMeansResult> KMeans(const std::vector<std::vector<double>>& points,
                            int k, const KMeansOptions& options = {});

/// Index of the nearest centroid to `point`.
int NearestCentroid(const std::vector<std::vector<double>>& centroids,
                    const std::vector<double>& point);

}  // namespace vp::cv
