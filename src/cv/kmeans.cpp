#include "cv/kmeans.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "cv/features.hpp"

namespace vp::cv {
namespace {

/// Lloyd iterations before KMeans stops without converging.
constexpr int kMaxIterations = 50;

}  // namespace

int NearestCentroid(const std::vector<std::vector<double>>& centroids,
                    const std::vector<double>& point) {
  int best = 0;
  double best_dist = std::numeric_limits<double>::infinity();
  for (size_t c = 0; c < centroids.size(); ++c) {
    const double d = L2Distance(centroids[c], point);
    if (d < best_dist) {
      best_dist = d;
      best = static_cast<int>(c);
    }
  }
  return best;
}

Result<KMeansResult> KMeans(const std::vector<std::vector<double>>& points,
                            int k, const KMeansOptions& options) {
  if (k <= 0) return InvalidArgument("k must be positive");
  if (points.size() < static_cast<size_t>(k)) {
    return InvalidArgument("fewer points than clusters");
  }
  const size_t dim = points[0].size();
  for (const auto& p : points) {
    if (p.size() != dim) {
      return InvalidArgument("inconsistent point dimensions");
    }
  }

  // k-means++ seeding (deterministic via the option seed).
  Rng rng(options.seed);
  KMeansResult result;
  result.centroids.push_back(
      points[static_cast<size_t>(rng.NextInt(
          0, static_cast<int64_t>(points.size()) - 1))]);
  while (result.centroids.size() < static_cast<size_t>(k)) {
    // Choose the next centroid proportional to squared distance.
    std::vector<double> d2(points.size());
    double total = 0;
    for (size_t i = 0; i < points.size(); ++i) {
      double best = std::numeric_limits<double>::infinity();
      for (const auto& c : result.centroids) {
        best = std::min(best, L2Distance(c, points[i]));
      }
      d2[i] = best * best;
      total += d2[i];
    }
    if (total <= 1e-12) {
      // All points identical to existing centroids; duplicate one.
      result.centroids.push_back(points[0]);
      continue;
    }
    double target = rng.NextDouble() * total;
    size_t chosen = points.size() - 1;
    for (size_t i = 0; i < points.size(); ++i) {
      target -= d2[i];
      if (target <= 0) {
        chosen = i;
        break;
      }
    }
    result.centroids.push_back(points[chosen]);
  }

  result.assignment.assign(points.size(), -1);
  for (int iter = 0; iter < kMaxIterations; ++iter) {
    result.iterations = iter + 1;
    // Assign.
    bool changed = false;
    for (size_t i = 0; i < points.size(); ++i) {
      const int c = NearestCentroid(result.centroids, points[i]);
      if (c != result.assignment[i]) {
        result.assignment[i] = c;
        changed = true;
      }
    }
    if (!changed && iter > 0) break;
    // Update.
    std::vector<std::vector<double>> sums(
        static_cast<size_t>(k), std::vector<double>(dim, 0.0));
    std::vector<int> counts(static_cast<size_t>(k), 0);
    for (size_t i = 0; i < points.size(); ++i) {
      const auto c = static_cast<size_t>(result.assignment[i]);
      for (size_t d = 0; d < dim; ++d) sums[c][d] += points[i][d];
      ++counts[c];
    }
    for (size_t c = 0; c < static_cast<size_t>(k); ++c) {
      if (counts[c] == 0) continue;  // keep the old centroid
      for (size_t d = 0; d < dim; ++d) {
        result.centroids[c][d] = sums[c][d] / counts[c];
      }
    }
  }

  result.inertia = 0;
  for (size_t i = 0; i < points.size(); ++i) {
    const double d = L2Distance(
        result.centroids[static_cast<size_t>(result.assignment[i])],
        points[i]);
    result.inertia += d * d;
  }
  return result;
}

}  // namespace vp::cv
