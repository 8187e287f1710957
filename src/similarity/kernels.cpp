#include "similarity/kernels.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace cfsf::sim {

SimilarityResult PearsonSparse(std::span<const matrix::Entry> a,
                               std::span<const matrix::Entry> b,
                               double mean_a, double mean_b) {
  double dot = 0.0;
  double sq_a = 0.0;
  double sq_b = 0.0;
  std::size_t overlap = 0;
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i].index < b[j].index) {
      ++i;
    } else if (a[i].index > b[j].index) {
      ++j;
    } else {
      const double da = a[i].value - mean_a;
      const double db = b[j].value - mean_b;
      dot += da * db;
      sq_a += da * da;
      sq_b += db * db;
      ++overlap;
      ++i;
      ++j;
    }
  }
  SimilarityResult result;
  result.overlap = overlap;
  const double denom = std::sqrt(sq_a) * std::sqrt(sq_b);
  result.value = denom > 0.0 ? dot / denom : 0.0;
  return result;
}

SimilarityResult CosineSparse(std::span<const matrix::Entry> a,
                              std::span<const matrix::Entry> b) {
  double dot = 0.0;
  double sq_a = 0.0;
  double sq_b = 0.0;
  std::size_t overlap = 0;
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i].index < b[j].index) {
      ++i;
    } else if (a[i].index > b[j].index) {
      ++j;
    } else {
      dot += static_cast<double>(a[i].value) * b[j].value;
      sq_a += static_cast<double>(a[i].value) * a[i].value;
      sq_b += static_cast<double>(b[j].value) * b[j].value;
      ++overlap;
      ++i;
      ++j;
    }
  }
  SimilarityResult result;
  result.overlap = overlap;
  const double denom = std::sqrt(sq_a) * std::sqrt(sq_b);
  result.value = denom > 0.0 ? dot / denom : 0.0;
  return result;
}

double SignificanceWeight(double similarity, std::size_t overlap,
                          std::size_t cutoff) {
  CFSF_REQUIRE(cutoff > 0, "significance cutoff must be positive");
  const double factor =
      static_cast<double>(std::min(overlap, cutoff)) / static_cast<double>(cutoff);
  return similarity * factor;
}

double CrossWeight(double item_similarity, double user_similarity) {
  const double sum_sq =
      item_similarity * item_similarity + user_similarity * user_similarity;
  if (sum_sq <= 0.0) return 0.0;
  return item_similarity * user_similarity / std::sqrt(sum_sq);
}

double SmoothingAwarePcc(std::span<const matrix::Entry> active_row,
                         double active_mean,
                         std::span<const matrix::Entry> candidate_row,
                         std::span<const double> candidate_deviations,
                         double candidate_mean, double epsilon) {
  // Rows are index-sorted, so their last entries bound every item read.
  const auto covers = [&](std::span<const matrix::Entry> row) {
    return row.empty() || row.back().index < candidate_deviations.size();
  };
  CFSF_REQUIRE(covers(active_row) && covers(candidate_row),
               "deviation row shorter than the rows' item range");
  CFSF_REQUIRE(epsilon >= 0.0 && epsilon <= 1.0, "epsilon must be in [0,1]");
  double num = 0.0;
  double sq_candidate = 0.0;
  double sq_active = 0.0;
  std::size_t j = 0;
  for (const auto& e : active_row) {
    while (j < candidate_row.size() && candidate_row[j].index < e.index) ++j;
    const bool original =
        j < candidate_row.size() && candidate_row[j].index == e.index;
    const double value = original
                             ? static_cast<double>(candidate_row[j].value)
                             : candidate_mean + candidate_deviations[e.index];
    const double w = ProvenanceWeight(original, epsilon);
    const double dc = value - candidate_mean;
    const double da = e.value - active_mean;
    num += w * dc * da;
    sq_candidate += w * w * dc * dc;
    sq_active += da * da;
  }
  const double denom = std::sqrt(sq_candidate) * std::sqrt(sq_active);
  return denom > 0.0 ? num / denom : 0.0;
}

}  // namespace cfsf::sim
