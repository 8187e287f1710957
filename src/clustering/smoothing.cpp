#include "clustering/smoothing.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "obs/timer.hpp"
#include "parallel/parallel_for.hpp"
#include "similarity/kernels.hpp"
#include "util/check.hpp"
#include "util/error.hpp"

namespace cfsf::cluster {

ClusterModel ClusterModel::Build(const matrix::RatingMatrix& matrix,
                                 std::span<const std::uint32_t> assignments,
                                 std::size_t num_clusters, bool parallel,
                                 double deviation_shrinkage,
                                 obs::PhaseProfiler* profiler) {
  CFSF_REQUIRE(deviation_shrinkage >= 0.0,
               "deviation_shrinkage must be non-negative");
  const std::size_t p = matrix.num_users();
  const std::size_t q = matrix.num_items();
  CFSF_REQUIRE(assignments.size() == p,
               "assignments size must equal the user count");
  CFSF_REQUIRE(num_clusters > 0, "num_clusters must be positive");
  for (const auto a : assignments) {
    CFSF_REQUIRE(a < num_clusters, "assignment references a missing cluster");
  }

  ClusterModel model;
  model.num_clusters_ = num_clusters;
  model.assignments_.assign(assignments.begin(), assignments.end());
  model.cluster_sizes_.assign(num_clusters, 0);
  for (const auto a : assignments) ++model.cluster_sizes_[a];

  model.user_means_.resize(p);
  for (std::size_t u = 0; u < p; ++u) {
    model.user_means_[u] = matrix.UserMean(static_cast<matrix::UserId>(u));
  }

  if (profiler != nullptr) profiler->Begin("smoothing");

  // --- Eq. 8: per-cluster per-item mean-centred deviations -------------
  model.deviations_ = matrix::DenseMatrix(num_clusters, q);
  model.has_rating_.assign(num_clusters * q, 0);
  {
    std::vector<double> dev_sum(num_clusters * q, 0.0);
    std::vector<std::uint32_t> dev_count(num_clusters * q, 0);
    // Global fallback: item deviation over all raters.
    std::vector<double> global_dev(q, 0.0);
    std::vector<std::uint32_t> global_count(q, 0);

    for (std::size_t u = 0; u < p; ++u) {
      const std::uint32_t c = assignments[u];
      const double mean_u = model.user_means_[u];
      for (const auto& e : matrix.UserRow(static_cast<matrix::UserId>(u))) {
        const double dev = e.value - mean_u;
        dev_sum[c * q + e.index] += dev;
        ++dev_count[c * q + e.index];
        global_dev[e.index] += dev;
        ++global_count[e.index];
      }
    }
    for (std::size_t i = 0; i < q; ++i) {
      global_dev[i] = global_count[i] > 0
                          ? global_dev[i] / static_cast<double>(global_count[i])
                          : 0.0;
    }
    for (std::size_t c = 0; c < num_clusters; ++c) {
      for (std::size_t i = 0; i < q; ++i) {
        const std::size_t k = c * q + i;
        if (dev_count[k] > 0) {
          // Shrunk Eq. 8 (see header); exact Eq. 8 when shrinkage is 0.
          model.deviations_(c, i) =
              (dev_sum[k] + deviation_shrinkage * global_dev[i]) /
              (static_cast<double>(dev_count[k]) + deviation_shrinkage);
          model.has_rating_[k] = 1;
        } else {
          model.deviations_(c, i) = global_dev[i];
        }
      }
    }
  }

  // --- Eq. 9: iCluster lists -------------------------------------------
  if (profiler != nullptr) profiler->Begin("icluster");
  model.icluster_.assign(p, {});
  par::ForOptions options;
  options.serial = !parallel;
  par::ParallelFor(
      0, p,
      [&](std::size_t u) {
        auto& list = model.icluster_[u];
        list.reserve(num_clusters);
        const auto row = matrix.UserRow(static_cast<matrix::UserId>(u));
        const double mean_u = model.user_means_[u];
        for (std::size_t c = 0; c < num_clusters; ++c) {
          const double sim =
              model.AffinityOf(row, mean_u, static_cast<std::uint32_t>(c));
          list.push_back(ClusterAffinity{static_cast<std::uint32_t>(c),
                                         static_cast<float>(sim)});
        }
        std::sort(list.begin(), list.end(),
                  [](const ClusterAffinity& a, const ClusterAffinity& b) {
                    if (a.similarity != b.similarity) {
                      return a.similarity > b.similarity;
                    }
                    return a.cluster < b.cluster;
                  });
      },
      options);

  if (profiler != nullptr) profiler->End();
  return model;
}

std::uint32_t ClusterModel::ClusterOf(matrix::UserId user) const {
  CFSF_ASSERT(user < assignments_.size(), "user id out of range");
  return assignments_[user];
}

double ClusterModel::ClusterDeviation(std::uint32_t cluster,
                                      matrix::ItemId item) const {
  CFSF_ASSERT(cluster < num_clusters_ && item < num_items(),
              "ClusterDeviation index out of range");
  return deviations_(cluster, item);
}

bool ClusterModel::ClusterHasRating(std::uint32_t cluster,
                                    matrix::ItemId item) const {
  CFSF_ASSERT(cluster < num_clusters_ && item < num_items(),
              "ClusterHasRating index out of range");
  return has_rating_[cluster * num_items() + item] != 0;
}

std::span<const double> ClusterModel::DeviationRow(std::uint32_t cluster) const {
  CFSF_ASSERT(cluster < num_clusters_, "cluster id out of range");
  return deviations_.Row(cluster);
}

ClusterModel::Cell ClusterModel::SmoothedCell(
    matrix::UserId user, std::span<const matrix::Entry> row,
    matrix::ItemId item) const {
  CFSF_ASSERT(user < num_users() && item < num_items(),
              "SmoothedCell index out of range");
  const auto it = std::lower_bound(
      row.begin(), row.end(), item,
      [](const matrix::Entry& e, matrix::ItemId target) {
        return e.index < target;
      });
  if (it != row.end() && it->index == item) {
    return {static_cast<double>(it->value), true};
  }
  return {user_means_[user] + deviations_(assignments_[user], item), false};
}

std::span<const ClusterAffinity> ClusterModel::IClusterOf(
    matrix::UserId user) const {
  CFSF_ASSERT(user < icluster_.size(), "user id out of range");
  return icluster_[user];
}

std::vector<double> ClusterModel::PoolSimilarities(
    const matrix::RatingMatrix& matrix,
    std::span<const matrix::Entry> active_row, double active_mean,
    std::span<const matrix::UserId> pool, double epsilon) const {
  CFSF_REQUIRE(epsilon >= 0.0 && epsilon <= 1.0, "epsilon must be in [0,1]");
  const std::size_t n = pool.size();
  struct Run {
    std::size_t end;           // one past the run's last slot
    const double* deviations;  // Δr_{C,·} of the run's cluster
  };
  std::vector<Run> runs;
  std::vector<std::uint32_t> slot_of(matrix.num_users(), 0);  // slot + 1
  std::vector<double> mean(n);
  for (std::size_t s = 0; s < n; ++s) {
    const auto c = ClusterOf(pool[s]);
    if (s > 0 && c == ClusterOf(pool[s - 1])) {
      ++runs.back().end;
    } else {
      runs.push_back(Run{s + 1, deviations_.Row(c).data()});
    }
    slot_of[pool[s]] = static_cast<std::uint32_t>(s + 1);
    mean[s] = user_means_[pool[s]];
  }

  const double w_original = sim::ProvenanceWeight(true, epsilon);
  const double w_smoothed = sim::ProvenanceWeight(false, epsilon);
  std::vector<double> num(n, 0.0);
  std::vector<double> sq_candidate(n, 0.0);
  std::vector<double> value(n);   // each candidate's Eq. 7 cell on the item
  std::vector<double> weight(n);  // and its Eq. 11 weight
  double sq_active = 0.0;         // the same for every candidate
  for (const auto& e : active_row) {
    // Smoothed cells first, then the item's raters overwrite theirs: every
    // pass below is a plain loop over the pool.
    std::size_t s = 0;
    for (const auto& run : runs) {
      const double deviation = run.deviations[e.index];
      for (; s < run.end; ++s) {
        value[s] = mean[s] + deviation;
        weight[s] = w_smoothed;
      }
    }
    for (const auto& r : matrix.ItemCol(e.index)) {
      const std::uint32_t slot = slot_of[r.index];
      if (slot != 0) {
        value[slot - 1] = static_cast<double>(r.value);
        weight[slot - 1] = w_original;
      }
    }
    const double da = e.value - active_mean;
    sq_active += da * da;
    for (s = 0; s < n; ++s) {
      const double w = weight[s];
      const double dc = value[s] - mean[s];
      num[s] += w * dc * da;
      sq_candidate[s] += w * w * dc * dc;
    }
  }

  std::vector<double> similarity(n);
  for (std::size_t s = 0; s < n; ++s) {
    const double denom = std::sqrt(sq_candidate[s]) * std::sqrt(sq_active);
    similarity[s] = denom > 0.0 ? num[s] / denom : 0.0;
  }
  return similarity;
}

double ClusterModel::AffinityOf(std::span<const matrix::Entry> row,
                                double row_mean, std::uint32_t cluster) const {
  CFSF_ASSERT(cluster < num_clusters_, "cluster id out of range");
  // Eq. 9: correlate the cluster's deviations with the user's deviations
  // over the items the user rated.
  double dot = 0.0;
  double sq_c = 0.0;
  double sq_u = 0.0;
  for (const auto& e : row) {
    const double dc = deviations_(cluster, e.index);
    const double du = e.value - row_mean;
    dot += dc * du;
    sq_c += dc * dc;
    sq_u += du * du;
  }
  const double denom = std::sqrt(sq_c) * std::sqrt(sq_u);
  return denom > 0.0 ? dot / denom : 0.0;
}

void ClusterModel::DebugValidate(const matrix::RatingMatrix& matrix) const {
  const std::size_t p = num_users();
  const std::size_t q = num_items();
  CFSF_VALIDATE(p == matrix.num_users() && q == matrix.num_items(),
                "ClusterModel shape must match the source matrix");
  CFSF_VALIDATE(deviations_.rows() == num_clusters_,
                "deviation table must be C x Q");
  CFSF_VALIDATE(cluster_sizes_.size() == num_clusters_, "cluster size table");
  CFSF_VALIDATE(icluster_.size() == p, "iCluster table size");
  CFSF_VALIDATE(user_means_.size() == p, "user mean table size");
  CFSF_VALIDATE(has_rating_.size() == num_clusters_ * q,
                "cluster has-rating table size");

  // Cluster assignment totals (every user in exactly one cluster).
  std::vector<std::size_t> counted(num_clusters_, 0);
  for (const auto a : assignments_) {
    CFSF_VALIDATE(a < num_clusters_, "assignment references a missing cluster");
    ++counted[a];
  }
  std::size_t total = 0;
  for (std::size_t c = 0; c < num_clusters_; ++c) {
    CFSF_VALIDATE(counted[c] == cluster_sizes_[c],
                  "cluster_sizes must match the assignment counts");
    total += cluster_sizes_[c];
  }
  CFSF_VALIDATE(total == p, "cluster sizes must sum to the user count");

  for (std::size_t c = 0; c < num_clusters_; ++c) {
    for (std::size_t i = 0; i < q; ++i) {
      CFSF_VALIDATE(std::isfinite(deviations_(c, i)),
                    "Eq. 8 deviation must be finite");
    }
  }

  // Eq. 7 derives every smoothed cell from r̄_u, so the stored means must
  // be the matrix's own, bit for bit; and the has-rating table must be
  // exactly "some member of C rated i".
  std::vector<std::uint8_t> rated(num_clusters_ * q, 0);
  for (std::size_t u = 0; u < p; ++u) {
    const auto user = static_cast<matrix::UserId>(u);
    CFSF_VALIDATE(std::bit_cast<std::uint64_t>(user_means_[u]) ==
                      std::bit_cast<std::uint64_t>(matrix.UserMean(user)),
                  "user mean must equal the matrix's r̄_u bit for bit");
    for (const auto& e : matrix.UserRow(user)) {
      rated[assignments_[u] * q + e.index] = 1;
    }

    // iCluster: a permutation of all clusters in descending Eq. 9 order.
    const auto list = IClusterOf(user);
    CFSF_VALIDATE(list.size() == num_clusters_,
                  "iCluster list must rank every cluster");
    std::vector<bool> seen(num_clusters_, false);
    for (std::size_t k = 0; k < list.size(); ++k) {
      CFSF_VALIDATE(list[k].cluster < num_clusters_,
                    "iCluster entry references a missing cluster");
      CFSF_VALIDATE(!seen[list[k].cluster], "iCluster list repeats a cluster");
      seen[list[k].cluster] = true;
      CFSF_VALIDATE(std::isfinite(list[k].similarity),
                    "Eq. 9 affinity must be finite");
      CFSF_VALIDATE(list[k].similarity >= -1.0F - 1e-5F &&
                        list[k].similarity <= 1.0F + 1e-5F,
                    "Eq. 9 affinity outside [-1, 1]");
      CFSF_VALIDATE(k == 0 || list[k - 1].similarity >= list[k].similarity,
                    "iCluster list must be affinity-descending");
    }
  }
  CFSF_VALIDATE(rated == has_rating_,
                "has-rating table must flag exactly the clusters' rated items");
}

}  // namespace cfsf::cluster
