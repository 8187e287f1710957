// K-means over user profiles under a PCC objective (Section IV-C).
//
// Users are assigned to the cluster whose centroid they correlate with
// most (Eq. 6 with the centroid as a pseudo-user).  A centroid cell is the
// mean rating of the cluster's raters of that item; cells no cluster
// member rated fall back to the cluster's overall mean rating, so the
// centroid is a dense pseudo-profile.
//
// Determinism: seeded centroid initialisation (distinct random users),
// stable tie-breaking (lowest cluster id wins), and empty-cluster repair
// that re-seeds from the largest cluster's least-correlated member.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "matrix/dense_matrix.hpp"
#include "matrix/rating_matrix.hpp"

namespace cfsf::cluster {

struct KMeansConfig {
  std::size_t num_clusters = 30;  // paper default C = 30
  std::size_t max_iterations = 25;
  /// Stop early when fewer than this fraction of users changed cluster.
  double min_reassigned_fraction = 0.005;
  std::uint64_t seed = 7;
  bool parallel = true;
};

struct KMeansResult {
  /// assignments[u] = cluster id in [0, num_clusters).
  std::vector<std::uint32_t> assignments;
  /// num_clusters × num_items dense centroid ratings.
  matrix::DenseMatrix centroids;
  /// Per-centroid mean (over all items) — the pseudo-user's r̄.
  std::vector<double> centroid_means;
  std::vector<std::size_t> cluster_sizes;
  std::size_t iterations = 0;
  bool converged = false;
};

KMeansResult RunKMeans(const matrix::RatingMatrix& matrix,
                       const KMeansConfig& config);

/// PCC between a user's sparse row and a dense centroid row, over the
/// user's rated items (exposed for tests and for assigning new users).
double UserCentroidPcc(const matrix::RatingMatrix& matrix, matrix::UserId user,
                       std::span<const double> centroid, double centroid_mean);

/// UserCentroidPcc against every centroid in one pass over the user's row
/// — the assignment step's kernel.  `centroids_by_item` is the item-major
/// Q×C centroid table (row i holds every centroid's cell on item i);
/// `similarity` receives the C results and `scratch` (C long) is
/// overwritten.  Each cluster's sums run in row order, so similarity[c]
/// equals UserCentroidPcc against centroid c bit for bit.
void UserCentroidPccs(const matrix::RatingMatrix& matrix, matrix::UserId user,
                      const matrix::DenseMatrix& centroids_by_item,
                      std::span<const double> centroid_means,
                      std::span<double> similarity, std::span<double> scratch);

}  // namespace cfsf::cluster
