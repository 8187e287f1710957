// User–user Pearson similarity (Eq. 6) — pairwise kernel plus an
// all-pairs matrix used by the whole-matrix baselines (SUR, SF, EMDP, PD
// neighbourhoods) and by K-means seeding diagnostics.
//
// The all-pairs build is the GIS kernel transposed (BuildPairRows on
// PairSide::kUsers): for user a it walks each rated item's column past a.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "matrix/rating_matrix.hpp"
#include "similarity/item_similarity.hpp"  // Neighbor, PairConfig

namespace cfsf::sim {

/// Eq. 6 for one pair of users.
double UserPcc(const matrix::RatingMatrix& matrix, matrix::UserId a,
               matrix::UserId b);

using UserSimilarityConfig = PairConfig;

/// All-pairs user similarity with the same row layout as GIS.
class UserSimilarityMatrix {
 public:
  UserSimilarityMatrix() = default;

  static UserSimilarityMatrix Build(const matrix::RatingMatrix& matrix,
                                    const UserSimilarityConfig& config = {});

  std::size_t num_users() const { return rows_.size(); }
  std::span<const Neighbor> Neighbors(matrix::UserId user) const;
  std::span<const Neighbor> TopK(matrix::UserId user, std::size_t k) const;
  double Similarity(matrix::UserId user, matrix::UserId other) const;

 private:
  std::vector<std::vector<Neighbor>> rows_;
};

}  // namespace cfsf::sim
