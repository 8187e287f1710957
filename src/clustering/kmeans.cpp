#include "clustering/kmeans.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "parallel/parallel_for.hpp"
#include "util/check.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"

namespace cfsf::cluster {

double UserCentroidPcc(const matrix::RatingMatrix& matrix, matrix::UserId user,
                       std::span<const double> centroid, double centroid_mean) {
  const auto row = matrix.UserRow(user);
  const double user_mean = matrix.UserMean(user);
  double dot = 0.0;
  double sq_u = 0.0;
  double sq_c = 0.0;
  for (const auto& e : row) {
    CFSF_ASSERT(e.index < centroid.size(), "centroid narrower than item space");
    const double du = e.value - user_mean;
    const double dc = centroid[e.index] - centroid_mean;
    dot += du * dc;
    sq_u += du * du;
    sq_c += dc * dc;
  }
  const double denom = std::sqrt(sq_u) * std::sqrt(sq_c);
  return denom > 0.0 ? dot / denom : 0.0;
}

void UserCentroidPccs(const matrix::RatingMatrix& matrix, matrix::UserId user,
                      const matrix::DenseMatrix& centroids_by_item,
                      std::span<const double> centroid_means,
                      std::span<double> similarity, std::span<double> scratch) {
  const std::size_t num_c = centroid_means.size();
  CFSF_ASSERT(centroids_by_item.rows() == matrix.num_items() &&
                  centroids_by_item.cols() == num_c &&
                  similarity.size() == num_c && scratch.size() == num_c,
              "UserCentroidPccs needs a Q x C table and C-long outputs");
  double* dot = similarity.data();
  double* sq_c = scratch.data();
  const double* means = centroid_means.data();
  std::fill_n(dot, num_c, 0.0);
  std::fill_n(sq_c, num_c, 0.0);
  const double user_mean = matrix.UserMean(user);
  double sq_u = 0.0;
  for (const auto& e : matrix.UserRow(user)) {
    const double du = e.value - user_mean;
    sq_u += du * du;
    const double* cells = centroids_by_item.Row(e.index).data();
    for (std::size_t c = 0; c < num_c; ++c) {
      const double dc = cells[c] - means[c];
      dot[c] += du * dc;
      sq_c[c] += dc * dc;
    }
  }
  const double root_u = std::sqrt(sq_u);
  for (std::size_t c = 0; c < num_c; ++c) {
    const double denom = root_u * std::sqrt(sq_c[c]);
    dot[c] = denom > 0.0 ? dot[c] / denom : 0.0;
  }
}

namespace {

/// Recomputes the item-major centroid table from assignments.  Returns
/// per-cluster sizes.  A cell sums its item's column, whose raters are in
/// ascending user order, so item rows are independent and run in
/// parallel; the fallbacks and means keep their user- and item-ascending
/// sums.
std::vector<std::size_t> RecomputeCentroids(
    const matrix::RatingMatrix& matrix,
    const std::vector<std::uint32_t>& assignments, std::size_t num_clusters,
    const par::ForOptions& options, matrix::DenseMatrix& by_item,
    std::vector<double>& centroid_means) {
  const std::size_t q = matrix.num_items();
  std::vector<std::size_t> sizes(num_clusters, 0);
  std::vector<double> fallback(num_clusters, 0.0);
  std::vector<std::size_t> cluster_rating_count(num_clusters, 0);
  for (std::size_t u = 0; u < matrix.num_users(); ++u) {
    const std::uint32_t c = assignments[u];
    ++sizes[c];
    for (const auto& e : matrix.UserRow(static_cast<matrix::UserId>(u))) {
      fallback[c] += e.value;
      ++cluster_rating_count[c];
    }
  }
  for (std::size_t c = 0; c < num_clusters; ++c) {
    fallback[c] = cluster_rating_count[c] > 0
                      ? fallback[c] / static_cast<double>(cluster_rating_count[c])
                      : matrix.GlobalMean();
  }

  par::ParallelForRanges(
      0, q,
      [&](par::Range range) {
        std::vector<double> sum(num_clusters);
        std::vector<std::uint32_t> count(num_clusters);
        for (std::size_t i = range.begin; i < range.end; ++i) {
          std::fill(sum.begin(), sum.end(), 0.0);
          std::fill(count.begin(), count.end(), 0U);
          for (const auto& r : matrix.ItemCol(static_cast<matrix::ItemId>(i))) {
            const std::uint32_t c = assignments[r.index];
            sum[c] += r.value;
            ++count[c];
          }
          const auto cells = by_item.Row(i);
          for (std::size_t c = 0; c < num_clusters; ++c) {
            cells[c] = count[c] > 0 ? sum[c] / static_cast<double>(count[c])
                                    : fallback[c];
          }
        }
      },
      options);

  std::fill(centroid_means.begin(), centroid_means.end(), 0.0);
  for (std::size_t i = 0; i < q; ++i) {
    const auto cells = by_item.Row(i);
    for (std::size_t c = 0; c < num_clusters; ++c) centroid_means[c] += cells[c];
  }
  for (auto& mean : centroid_means) {
    mean = q > 0 ? mean / static_cast<double>(q) : 0.0;
  }
  return sizes;
}

}  // namespace

KMeansResult RunKMeans(const matrix::RatingMatrix& matrix,
                       const KMeansConfig& config) {
  const std::size_t p = matrix.num_users();
  const std::size_t q = matrix.num_items();
  CFSF_REQUIRE(config.num_clusters > 0, "num_clusters must be positive");
  CFSF_REQUIRE(config.num_clusters <= p,
               "more clusters than users (C=" +
                   std::to_string(config.num_clusters) +
                   ", P=" + std::to_string(p) + ")");
  const std::size_t num_c = config.num_clusters;

  KMeansResult result;
  result.assignments.assign(p, 0);
  result.centroid_means.assign(num_c, 0.0);
  // Item-major Q×C centroids for the whole run: the assignment step reads
  // every centroid's cell on an item from one row.  result.centroids is
  // written from it once, at the end.
  matrix::DenseMatrix by_item(q, num_c);

  // Seed: centroids start as the profiles of distinct random users.
  util::Rng rng(config.seed);
  const auto seeds = rng.SampleWithoutReplacement(p, num_c);
  for (std::size_t c = 0; c < num_c; ++c) {
    const auto seed_user = static_cast<matrix::UserId>(seeds[c]);
    const double fallback = matrix.UserMean(seed_user);
    for (std::size_t i = 0; i < q; ++i) by_item(i, c) = fallback;
    for (const auto& e : matrix.UserRow(seed_user)) by_item(e.index, c) = e.value;
    double mean_acc = 0.0;
    for (std::size_t i = 0; i < q; ++i) mean_acc += by_item(i, c);
    result.centroid_means[c] = q > 0 ? mean_acc / static_cast<double>(q) : 0.0;
  }

  par::ForOptions options;
  options.serial = !config.parallel;

  std::vector<std::uint32_t> previous(p, std::numeric_limits<std::uint32_t>::max());
  for (std::size_t iter = 0; iter < config.max_iterations; ++iter) {
    result.iterations = iter + 1;

    // Assignment step (parallel over users): best-correlated centroid,
    // the lowest id on a tie.
    par::ParallelForRanges(
        0, p,
        [&](par::Range range) {
          std::vector<double> chunk_similarity(num_c);
          std::vector<double> chunk_scratch(num_c);
          for (std::size_t u = range.begin; u < range.end; ++u) {
            UserCentroidPccs(matrix, static_cast<matrix::UserId>(u), by_item,
                             result.centroid_means, chunk_similarity,
                             chunk_scratch);
            double best_sim = -std::numeric_limits<double>::infinity();
            std::uint32_t best_cluster = 0;
            for (std::size_t c = 0; c < num_c; ++c) {
              if (chunk_similarity[c] > best_sim) {
                best_sim = chunk_similarity[c];
                best_cluster = static_cast<std::uint32_t>(c);
              }
            }
            result.assignments[u] = best_cluster;
          }
        },
        options);

    std::size_t reassigned = 0;
    for (std::size_t u = 0; u < p; ++u) {
      if (result.assignments[u] != previous[u]) ++reassigned;
    }
    previous = result.assignments;

    result.cluster_sizes =
        RecomputeCentroids(matrix, result.assignments, num_c, options, by_item,
                           result.centroid_means);

    // Empty-cluster repair: steal the least-correlated member of the
    // largest cluster.  Deterministic (no RNG involved).
    for (std::size_t c = 0; c < config.num_clusters; ++c) {
      if (result.cluster_sizes[c] != 0) continue;
      const std::size_t donor = static_cast<std::size_t>(
          std::max_element(result.cluster_sizes.begin(),
                           result.cluster_sizes.end()) -
          result.cluster_sizes.begin());
      if (result.cluster_sizes[donor] <= 1) continue;
      double worst_sim = std::numeric_limits<double>::infinity();
      std::size_t worst_user = p;
      std::vector<double> similarity(num_c);
      std::vector<double> scratch(num_c);
      for (std::size_t u = 0; u < p; ++u) {
        if (result.assignments[u] != donor) continue;
        UserCentroidPccs(matrix, static_cast<matrix::UserId>(u), by_item,
                         result.centroid_means, similarity, scratch);
        if (similarity[donor] < worst_sim) {
          worst_sim = similarity[donor];
          worst_user = u;
        }
      }
      if (worst_user < p) {
        result.assignments[worst_user] = static_cast<std::uint32_t>(c);
        result.cluster_sizes =
            RecomputeCentroids(matrix, result.assignments, num_c, options,
                               by_item, result.centroid_means);
        ++reassigned;
      }
    }

    const double fraction =
        p > 0 ? static_cast<double>(reassigned) / static_cast<double>(p) : 0.0;
    CFSF_LOG_DEBUG << "kmeans iter " << result.iterations << ": reassigned "
                   << reassigned << " (" << fraction * 100.0 << "%)";
    if (iter > 0 && fraction <= config.min_reassigned_fraction) {
      result.converged = true;
      break;
    }
  }

  result.centroids = matrix::DenseMatrix(num_c, q);
  for (std::size_t i = 0; i < q; ++i) {
    for (std::size_t c = 0; c < num_c; ++c) result.centroids(c, i) = by_item(i, c);
  }
  if constexpr (util::ChecksEnabled()) {
    std::size_t members = 0;
    for (const auto s : result.cluster_sizes) members += s;
    CFSF_CHECK(members == p, "cluster sizes must sum to the user count");
    for (const auto a : result.assignments) {
      CFSF_CHECK(a < config.num_clusters,
                 "assignment references a missing cluster");
    }
    for (std::size_t c = 0; c < config.num_clusters; ++c) {
      CFSF_CHECK_FINITE(result.centroid_means[c], "centroid mean (Eq. 6)");
      for (const double cell : result.centroids.Row(c)) {
        CFSF_CHECK_FINITE(cell, "centroid cell (Eq. 6)");
      }
    }
  }
  return result;
}

}  // namespace cfsf::cluster
