// Cluster smoothing and iCluster affinity (Sections IV-D).
//
// Given K-means assignments, a ClusterModel holds
//  * each cluster's member list, ascending by user id;
//  * a rater index: for every (item i, cluster C) the positions in
//    ItemCol(i) of C's raters, ascending by user — an ordering of the
//    matrix's CSC, not a copy of its ratings;
//  * Δr_{C,i} — the mean mean-centred rating of item i inside cluster C
//    (Eq. 8, summed over the (i, C) segment of the index), with
//    documented fallbacks when no cluster member rated i;
//  * the user means r̄_u;
//  * per-user iCluster lists — clusters ordered by descending Eq. 9
//    similarity, which drive the top-K candidate pool in the online phase.
//
// The smoothed matrix of Eq. 7 is never stored: a cell is the original
// rating where the user's sorted CSR row holds the item (Eq. 11's
// provenance bit is that membership) and r̄_u + Δr_{C(u),i} elsewhere, so
// readers derive it from the row, UserMean and DeviationRow.  The model
// is O(nnz + C·Q) to build and to hold.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "clustering/kmeans.hpp"
#include "matrix/dense_matrix.hpp"
#include "matrix/rating_matrix.hpp"

namespace cfsf::obs {
class PhaseProfiler;
}  // namespace cfsf::obs

namespace cfsf::cluster {

/// One entry of a user's iCluster list.
struct ClusterAffinity {
  std::uint32_t cluster = 0;
  float similarity = 0.0F;

  friend bool operator==(const ClusterAffinity&, const ClusterAffinity&) = default;
};

/// One candidate scored by ClusterModel::PoolSimilarities.
struct PoolScore {
  matrix::UserId user = 0;
  double similarity = 0.0;  // Eq. 10
};

class ClusterModel {
 public:
  ClusterModel() = default;

  /// Builds deviations, user means and iCluster lists.
  /// `assignments` must map every user of `matrix` to [0, num_clusters).
  ///
  /// `deviation_shrinkage` is an empirical-Bayes refinement of Eq. 8: the
  /// cluster deviation is shrunk toward the item's global deviation with
  /// this many pseudo-observations,
  ///   Δ = (Σ_{u∈C,i}(r_{u,i} − r̄_u) + m·Δ_global,i) / (|C_{u',i}| + m).
  /// At the paper's scale a cluster of ~17 users covers an item with only
  /// 1–2 raters, so the raw Eq. 8 estimate is extremely noisy; m=0
  /// reproduces Eq. 8 verbatim (the ablation bench compares both).
  /// `profiler`, when given, records the build's two stages as phases
  /// "smoothing" (Eq. 8) and "icluster" (Eq. 9) — CfsfModel::Fit feeds
  /// them into the cfsf.fit.* gauges (docs/OBSERVABILITY.md).
  static ClusterModel Build(const matrix::RatingMatrix& matrix,
                            std::span<const std::uint32_t> assignments,
                            std::size_t num_clusters, bool parallel = true,
                            double deviation_shrinkage = 0.0,
                            obs::PhaseProfiler* profiler = nullptr);

  std::size_t num_clusters() const { return num_clusters_; }
  std::size_t num_users() const { return assignments_.size(); }
  std::size_t num_items() const { return deviations_.cols(); }

  std::uint32_t ClusterOf(matrix::UserId user) const;

  /// Every user's cluster, indexed by user id.
  std::span<const std::uint32_t> assignments() const { return assignments_; }

  /// The users assigned to `cluster`, ascending.
  std::span<const matrix::UserId> Members(std::uint32_t cluster) const;

  /// Δr_{C,i} (Eq. 8).  Fallback chain when |C_{u',i}| = 0: the global
  /// mean-centred deviation of item i over all its raters; 0 if the item
  /// is entirely unrated.
  double ClusterDeviation(std::uint32_t cluster, matrix::ItemId item) const;

  /// True iff at least one member of `cluster` rated `item` (i.e. the
  /// deviation came from Eq. 8 proper, not a fallback).
  bool ClusterHasRating(std::uint32_t cluster, matrix::ItemId item) const;

  /// Δr_{C,·}: cluster `cluster`'s Eq. 8 deviation for every item.
  std::span<const double> DeviationRow(std::uint32_t cluster) const;

  /// The user's mean rating used for smoothing (original r̄_u).
  double UserMean(matrix::UserId user) const { return user_means_[user]; }

  /// One Eq. 7 cell, derived on demand in O(log |row|).  `row` must be
  /// `user`'s sorted row of the matrix the model was built from.
  struct Cell {
    double value = 0.0;     // the original rating, or r̄_u + Δr_{C(u),i}
    bool original = false;  // Eq. 11's provenance bit
  };
  Cell SmoothedCell(matrix::UserId user, std::span<const matrix::Entry> row,
                    matrix::ItemId item) const;

  /// iCluster: clusters sorted by descending Eq. 9 similarity to `user`.
  std::span<const ClusterAffinity> IClusterOf(matrix::UserId user) const;

  /// Eq. 10 between `user` and every member c of `clusters` (the
  /// candidate pool of Section IV-E2): one entry per member, cluster by
  /// cluster in the given order and ascending within a cluster.  Each
  /// similarity equals bit for bit sim::SmoothingAwarePcc(
  /// matrix.UserRow(user), UserMean(user), matrix.UserRow(c),
  /// DeviationRow(ClusterOf(c)), UserMean(c), epsilon).  The active
  /// user's own entry, when one of `clusters` holds them, reads 0, so a
  /// `> 0` filter drops it.  `matrix` must be the one the model was built
  /// from.
  ///
  /// The pool is scored item by item: for each item the user rated, every
  /// candidate takes its smoothed cell, the pool clusters' segments of the
  /// rater index overwrite the cells of candidates who rated the item, and
  /// every candidate takes one step, so each candidate's sums run in
  /// active-row order.  O(|row|·(|pool| + C_pool) + pool co-ratings): no
  /// term depends on the user count.
  std::vector<PoolScore> PoolSimilarities(
      const matrix::RatingMatrix& matrix, matrix::UserId user,
      std::span<const std::uint32_t> clusters, double epsilon) const;

  /// Eq. 9 for an arbitrary sparse profile (used to fold a brand-new user
  /// into an existing model without re-clustering).
  double AffinityOf(std::span<const matrix::Entry> row, double row_mean,
                    std::uint32_t cluster) const;

  /// Structural validation sweep against the matrix the model was built
  /// from: matching shape, member lists that partition the users by
  /// assignment in ascending order, a rater index whose offsets are
  /// monotone and total the matrix's nnz and whose every segment lists,
  /// ascending, exactly its cluster's raters of its item, a finite C×Q
  /// deviation table, user means equal to the matrix's bit for bit, and
  /// iCluster lists covering every cluster once in descending Eq. 9 order
  /// with affinities in [-1, 1].  Throws util::InvariantError on violation.
  void DebugValidate(const matrix::RatingMatrix& matrix) const;

 private:
  // Segment (item, cluster) of the rater index.
  std::span<const std::uint32_t> Raters(matrix::ItemId item,
                                        std::uint32_t cluster) const;

  std::size_t num_clusters_ = 0;
  std::vector<std::uint32_t> assignments_;     // P
  std::vector<std::uint32_t> member_offsets_;  // C + 1
  std::vector<matrix::UserId> members_;        // P, cluster-major, ascending
  std::vector<std::uint32_t> local_of_;        // P: index in its member list
  std::vector<std::uint32_t> rater_offsets_;   // Q·C + 1, item-major
  std::vector<std::uint32_t> rater_positions_; // nnz: positions in ItemCol(i)
  matrix::DenseMatrix deviations_;             // C × Q (Eq. 8 + fallback)
  std::vector<double> user_means_;             // r̄_u
  std::vector<std::vector<ClusterAffinity>> icluster_;
};

}  // namespace cfsf::cluster
