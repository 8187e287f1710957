#include "similarity/user_similarity.hpp"

#include <algorithm>

#include "similarity/kernels.hpp"
#include "util/error.hpp"

namespace cfsf::sim {

double UserPcc(const matrix::RatingMatrix& matrix, matrix::UserId a,
               matrix::UserId b) {
  return PearsonSparse(matrix.UserRow(a), matrix.UserRow(b),
                       matrix.UserMean(a), matrix.UserMean(b))
      .value;
}

UserSimilarityMatrix UserSimilarityMatrix::Build(
    const matrix::RatingMatrix& matrix, const UserSimilarityConfig& config) {
  std::vector<double> user_mean;
  user_mean.reserve(matrix.num_users());
  for (std::size_t u = 0; u < matrix.num_users(); ++u) {
    user_mean.push_back(matrix.UserMean(static_cast<matrix::UserId>(u)));
  }
  UserSimilarityMatrix usm;
  usm.rows_ = BuildPairRows(matrix, PairSide::kUsers, user_mean, config);
  return usm;
}

std::span<const Neighbor> UserSimilarityMatrix::Neighbors(
    matrix::UserId user) const {
  CFSF_ASSERT(user < rows_.size(), "user id out of range");
  return rows_[user];
}

std::span<const Neighbor> UserSimilarityMatrix::TopK(matrix::UserId user,
                                                     std::size_t k) const {
  const auto row = Neighbors(user);
  return row.subspan(0, std::min(k, row.size()));
}

double UserSimilarityMatrix::Similarity(matrix::UserId user,
                                        matrix::UserId other) const {
  for (const auto& n : Neighbors(user)) {
    if (n.index == other) return n.similarity;
  }
  return 0.0;
}

}  // namespace cfsf::sim
