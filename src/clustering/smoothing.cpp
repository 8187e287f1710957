#include "clustering/smoothing.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <numeric>

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

  CFSF_REQUIRE(matrix.num_ratings() < std::numeric_limits<std::uint32_t>::max(),
               "rater index offsets are 32-bit");

  ClusterModel model;
  model.num_clusters_ = num_clusters;
  model.assignments_.assign(assignments.begin(), assignments.end());

  // Member lists: a counting sort of the users by cluster.
  model.member_offsets_.assign(num_clusters + 1, 0);
  for (const auto a : assignments) ++model.member_offsets_[a + 1];
  std::partial_sum(model.member_offsets_.begin(), model.member_offsets_.end(),
                   model.member_offsets_.begin());
  model.members_.resize(p);
  model.local_of_.resize(p);
  {
    std::vector<std::uint32_t> cursor(model.member_offsets_.begin(),
                                      model.member_offsets_.end() - 1);
    for (std::size_t u = 0; u < p; ++u) {
      const std::uint32_t c = assignments[u];
      model.local_of_[u] = cursor[c] - model.member_offsets_[c];
      model.members_[cursor[c]++] = static_cast<matrix::UserId>(u);
    }
  }

  model.user_means_.resize(p);
  for (std::size_t u = 0; u < p; ++u) {
    model.user_means_[u] = matrix.UserMean(static_cast<matrix::UserId>(u));
  }

  if (profiler != nullptr) profiler->Begin("smoothing");

  // --- Rater index: a counting sort of each column by cluster ----------
  // Segments follow in (item, cluster) order, so item i's segments cover
  // exactly its CSC range; a stable placement keeps each ascending.
  par::ForOptions options;
  options.serial = !parallel;
  model.rater_offsets_.assign(q * num_clusters + 1, 0);
  model.rater_positions_.resize(matrix.num_ratings());
  par::ParallelFor(
      0, q,
      [&](std::size_t i) {
        std::uint32_t* counts = model.rater_offsets_.data() + i * num_clusters + 1;
        for (const auto& r : matrix.ItemCol(static_cast<matrix::ItemId>(i))) {
          ++counts[assignments[r.index]];
        }
      },
      options);
  std::partial_sum(model.rater_offsets_.begin(), model.rater_offsets_.end(),
                   model.rater_offsets_.begin());

  // --- Eq. 8: per-cluster per-item mean-centred deviations -------------
  // Each sum walks its segment, i.e. the cluster's raters in ascending
  // user order; the global fallback walks the whole column.
  model.deviations_ = matrix::DenseMatrix(num_clusters, q);
  par::ParallelForRanges(
      0, q,
      [&](par::Range range) {
        std::vector<std::uint32_t> cursor(num_clusters);
        for (std::size_t i = range.begin; i < range.end; ++i) {
          const auto item = static_cast<matrix::ItemId>(i);
          const auto col = matrix.ItemCol(item);
          const std::uint32_t* offsets =
              model.rater_offsets_.data() + i * num_clusters;
          std::copy(offsets, offsets + num_clusters, cursor.begin());
          double global_dev = 0.0;
          for (std::size_t k = 0; k < col.size(); ++k) {
            model.rater_positions_[cursor[assignments[col[k].index]]++] =
                static_cast<std::uint32_t>(k);
            global_dev += col[k].value - model.user_means_[col[k].index];
          }
          if (!col.empty()) global_dev /= static_cast<double>(col.size());
          for (std::uint32_t c = 0; c < num_clusters; ++c) {
            const auto raters = model.Raters(item, c);
            if (raters.empty()) {
              model.deviations_(c, i) = global_dev;
              continue;
            }
            double dev_sum = 0.0;
            for (const auto k : raters) {
              dev_sum += col[k].value - model.user_means_[col[k].index];
            }
            // Shrunk Eq. 8 (see header); exact Eq. 8 when shrinkage is 0.
            model.deviations_(c, i) =
                (dev_sum + deviation_shrinkage * global_dev) /
                (static_cast<double>(raters.size()) + deviation_shrinkage);
          }
        }
      },
      options);

  // --- Eq. 9: iCluster lists -------------------------------------------
  if (profiler != nullptr) profiler->Begin("icluster");
  model.icluster_.assign(p, {});
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

std::span<const matrix::UserId> ClusterModel::Members(
    std::uint32_t cluster) const {
  CFSF_ASSERT(cluster < num_clusters_, "cluster id out of range");
  return {members_.data() + member_offsets_[cluster],
          members_.data() + member_offsets_[cluster + 1]};
}

std::span<const std::uint32_t> ClusterModel::Raters(
    matrix::ItemId item, std::uint32_t cluster) const {
  const std::uint32_t* offsets =
      rater_offsets_.data() + item * num_clusters_ + cluster;
  return {rater_positions_.data() + offsets[0],
          rater_positions_.data() + offsets[1]};
}

bool ClusterModel::ClusterHasRating(std::uint32_t cluster,
                                    matrix::ItemId item) const {
  CFSF_ASSERT(cluster < num_clusters_ && item < num_items(),
              "ClusterHasRating index out of range");
  return !Raters(item, cluster).empty();
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

std::vector<PoolScore> ClusterModel::PoolSimilarities(
    const matrix::RatingMatrix& matrix, matrix::UserId user,
    std::span<const std::uint32_t> clusters, double epsilon) const {
  CFSF_REQUIRE(epsilon >= 0.0 && epsilon <= 1.0, "epsilon must be in [0,1]");
  CFSF_ASSERT(matrix.num_users() == num_users() &&
                  matrix.num_items() == num_items() && user < num_users(),
              "PoolSimilarities needs the model's own matrix");
  // One run of slots per pool cluster; a member's slot is its run's base
  // plus its index in the member list.  The active user, when inside the
  // pool, keeps an ordinary slot — a sink whose result is overwritten —
  // so no loop below tests for them.
  struct Run {
    std::uint32_t cluster;
    std::size_t base;          // first slot
    std::size_t end;           // one past the last slot
    const double* deviations;  // Δr_{C,·} of the run's cluster
  };
  struct Scratch {
    std::vector<Run> runs;
    std::vector<double> mean;          // each candidate's r̄_u
    std::vector<double> value;         // its Eq. 7 cell on the current item
    std::vector<double> weight;        // and that cell's Eq. 11 weight
    std::vector<double> num;           // Eq. 10 sums
    std::vector<double> sq_candidate;
  };
  thread_local Scratch scratch;
  auto& runs = scratch.runs;
  runs.clear();
  std::size_t n = 0;
  for (const auto c : clusters) {
    const auto members = Members(c);
    runs.push_back(Run{c, n, n + members.size(), deviations_.Row(c).data()});
    n += members.size();
  }
  if (scratch.mean.size() < n) {
    for (auto* v : {&scratch.mean, &scratch.value, &scratch.weight,
                    &scratch.num, &scratch.sq_candidate}) {
      v->resize(n);
    }
  }
  double* mean = scratch.mean.data();
  double* value = scratch.value.data();
  double* weight = scratch.weight.data();
  double* num = scratch.num.data();
  double* sq_candidate = scratch.sq_candidate.data();
  for (const auto& run : runs) {
    const auto members = Members(run.cluster);
    for (std::size_t k = 0; k < members.size(); ++k) {
      mean[run.base + k] = user_means_[members[k]];
    }
  }
  std::fill(num, num + n, 0.0);
  std::fill(sq_candidate, sq_candidate + n, 0.0);

  const double w_original = sim::ProvenanceWeight(true, epsilon);
  const double w_smoothed = sim::ProvenanceWeight(false, epsilon);
  const double active_mean = matrix.UserMean(user);
  double sq_active = 0.0;  // the same for every candidate
  for (const auto& e : matrix.UserRow(user)) {
    // Smoothed cells first, then the run's raters of the item overwrite
    // theirs: every pass below is a plain loop.
    const matrix::Entry* col = matrix.ItemCol(e.index).data();
    for (const auto& run : runs) {
      const double deviation = run.deviations[e.index];
      for (std::size_t s = run.base; s < run.end; ++s) {
        value[s] = mean[s] + deviation;
        weight[s] = w_smoothed;
      }
      for (const auto k : Raters(e.index, run.cluster)) {
        const std::size_t slot = run.base + local_of_[col[k].index];
        value[slot] = static_cast<double>(col[k].value);
        weight[slot] = w_original;
      }
    }
    const double da = e.value - active_mean;
    sq_active += da * da;
    for (std::size_t s = 0; s < n; ++s) {
      const double w = weight[s];
      const double dc = value[s] - mean[s];
      num[s] += w * dc * da;
      sq_candidate[s] += w * w * dc * dc;
    }
  }

  std::vector<PoolScore> scores(n);
  for (const auto& run : runs) {
    const auto members = Members(run.cluster);
    for (std::size_t k = 0; k < members.size(); ++k) {
      const std::size_t s = run.base + k;
      const double denom = std::sqrt(sq_candidate[s]) * std::sqrt(sq_active);
      scores[s] = {members[k], denom > 0.0 ? num[s] / denom : 0.0};
    }
    if (run.cluster == assignments_[user]) {
      scores[run.base + local_of_[user]].similarity = 0.0;
    }
  }
  return scores;
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
  const std::size_t num_c = num_clusters_;
  CFSF_VALIDATE(p == matrix.num_users() && q == matrix.num_items(),
                "ClusterModel shape must match the source matrix");
  CFSF_VALIDATE(deviations_.rows() == num_c, "deviation table must be C x Q");
  CFSF_VALIDATE(icluster_.size() == p, "iCluster table size");
  CFSF_VALIDATE(user_means_.size() == p, "user mean table size");
  CFSF_VALIDATE(member_offsets_.size() == num_c + 1 && members_.size() == p &&
                    local_of_.size() == p,
                "member table sizes");
  CFSF_VALIDATE(rater_offsets_.size() == q * num_c + 1 &&
                    rater_positions_.size() == matrix.num_ratings(),
                "rater index sizes");

  // Member lists: ascending, each entry assigned to its list's cluster at
  // its recorded index.  Lists are disjoint by assignment and together
  // hold p entries, so every user is in exactly one.
  CFSF_VALIDATE(member_offsets_[0] == 0 && member_offsets_[num_c] == p,
                "member offsets must span the users");
  for (std::uint32_t c = 0; c < num_c; ++c) {
    CFSF_VALIDATE(member_offsets_[c] <= member_offsets_[c + 1] &&
                      member_offsets_[c + 1] <= p,
                  "member offsets must be monotone");
    const auto members = Members(c);
    for (std::size_t k = 0; k < members.size(); ++k) {
      const auto u = members[k];
      CFSF_VALIDATE(u < p && assignments_[u] == c,
                    "member list holds a user of another cluster");
      CFSF_VALIDATE(local_of_[u] == k, "member's local index");
      CFSF_VALIDATE(k == 0 || members[k - 1] < u,
                    "member list must be ascending");
    }
  }

  // Rater index: monotone offsets totalling nnz; item i's segments cover
  // its column, each ascending and naming only its cluster's raters of i.
  // Disjoint clusters and strictly ascending segments then make each
  // item's segments a permutation of its column.
  CFSF_VALIDATE(rater_offsets_[0] == 0 &&
                    rater_offsets_[q * num_c] == matrix.num_ratings(),
                "rater offsets must total the matrix's ratings");
  for (std::size_t i = 0; i < q; ++i) {
    const auto item = static_cast<matrix::ItemId>(i);
    const auto col = matrix.ItemCol(item);
    const std::uint32_t* offsets = rater_offsets_.data() + i * num_c;
    for (std::size_t c = 0; c < num_c; ++c) {
      CFSF_VALIDATE(offsets[c] <= offsets[c + 1] &&
                        offsets[c + 1] <= rater_positions_.size(),
                    "rater offsets must be monotone");
    }
    CFSF_VALIDATE(offsets[num_c] - offsets[0] == col.size(),
                  "an item's rater segments must cover its column");
    for (std::uint32_t c = 0; c < num_c; ++c) {
      const auto raters = Raters(item, c);
      for (std::size_t k = 0; k < raters.size(); ++k) {
        CFSF_VALIDATE(raters[k] < col.size(),
                      "rater position outside the item's column");
        CFSF_VALIDATE(assignments_[col[raters[k]].index] == c,
                      "rater index entry must be a member of its cluster");
        CFSF_VALIDATE(k == 0 || raters[k - 1] < raters[k],
                      "rater segment must be ascending");
      }
    }
  }

  for (std::size_t c = 0; c < num_clusters_; ++c) {
    for (std::size_t i = 0; i < q; ++i) {
      CFSF_VALIDATE(std::isfinite(deviations_(c, i)),
                    "Eq. 8 deviation must be finite");
    }
  }

  // Eq. 7 derives every smoothed cell from r̄_u, so the stored means must
  // be the matrix's own, bit for bit.
  for (std::size_t u = 0; u < p; ++u) {
    const auto user = static_cast<matrix::UserId>(u);
    CFSF_VALIDATE(std::bit_cast<std::uint64_t>(user_means_[u]) ==
                      std::bit_cast<std::uint64_t>(matrix.UserMean(user)),
                  "user mean must equal the matrix's r̄_u bit for bit");

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
}

}  // namespace cfsf::cluster
