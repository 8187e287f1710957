#include "baselines/scbpcc.hpp"

#include <algorithm>
#include <numeric>
#include <vector>

#include "similarity/kernels.hpp"
#include "util/error.hpp"

namespace cfsf::baselines {

ScbpccPredictor::ScbpccPredictor(const ScbpccConfig& config) : config_(config) {
  CFSF_REQUIRE(config.epsilon >= 0.0 && config.epsilon <= 1.0,
               "SCBPCC epsilon must be in [0,1]");
  CFSF_REQUIRE(config.top_k_users > 0, "SCBPCC needs K > 0");
}

void ScbpccPredictor::Fit(const matrix::RatingMatrix& train) {
  train_ = train;
  cluster::KMeansConfig kconfig;
  kconfig.num_clusters = std::min(config_.num_clusters, train.num_users());
  kconfig.max_iterations = config_.kmeans_max_iterations;
  kconfig.seed = config_.seed;
  kconfig.parallel = config_.parallel;
  const auto kmeans = cluster::RunKMeans(train_, kconfig);
  clusters_ = cluster::ClusterModel::Build(train_, kmeans.assignments,
                                           kconfig.num_clusters,
                                           config_.parallel,
                                           config_.deviation_shrinkage);
}

double ScbpccPredictor::Predict(matrix::UserId user, matrix::ItemId item) const {
  const double active_mean = train_.UserMean(user);

  // Candidate set: members of the pre-selected most-affine clusters, or
  // of every cluster when preselection is disabled.  Recomputed per
  // prediction — SCBPCC has no result cache.  The sort below is a total
  // order, so the candidates' cluster-by-cluster order does not matter.
  std::vector<std::uint32_t> pool_clusters;
  if (config_.preselect_clusters == 0) {
    pool_clusters.resize(clusters_.num_clusters());
    std::iota(pool_clusters.begin(), pool_clusters.end(), 0U);
  } else {
    for (const auto& affinity : clusters_.IClusterOf(user)) {
      pool_clusters.push_back(affinity.cluster);
      if (pool_clusters.size() >= config_.preselect_clusters) break;
    }
  }
  // The active user's own entry reads 0, so the `> 0` filter drops it.
  auto scored = clusters_.PoolSimilarities(train_, user, pool_clusters,
                                           config_.epsilon);
  std::erase_if(scored,
                [](const cluster::PoolScore& c) { return c.similarity <= 0.0; });

  const std::size_t k = std::min(config_.top_k_users, scored.size());
  std::partial_sort(scored.begin(), scored.begin() + k, scored.end(),
                    [](const cluster::PoolScore& a, const cluster::PoolScore& b) {
                      if (a.similarity != b.similarity) {
                        return a.similarity > b.similarity;
                      }
                      return a.user < b.user;
                    });

  // Mean-centred weighted average over the smoothed ratings of the top-K,
  // with Eq. 11 provenance weights.
  double num = 0.0;
  double den = 0.0;
  for (std::size_t t = 0; t < k; ++t) {
    const auto neighbor = scored[t].user;
    const auto cell =
        clusters_.SmoothedCell(neighbor, train_.UserRow(neighbor), item);
    const double w = sim::ProvenanceWeight(cell.original, config_.epsilon) *
                     scored[t].similarity;
    num += w * (cell.value - clusters_.UserMean(neighbor));
    den += w;
  }
  if (den <= 0.0) return active_mean;
  return active_mean + num / den;
}

}  // namespace cfsf::baselines
