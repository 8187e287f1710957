// Pairwise similarity kernels over sparse rows/columns.
//
// All kernels walk two index-sorted Entry spans with a linear merge, so a
// pairwise similarity costs O(|a| + |b|).  Deviations are taken from the
// *global* per-vector means passed in by the caller (r̄_i over all raters
// for Eq. 5, r̄_u over all rated items for Eq. 6), exactly as the paper
// defines them — not means over the intersection.
#pragma once

#include <cstddef>
#include <span>

#include "matrix/rating_matrix.hpp"

namespace cfsf::sim {

/// Result of a pairwise kernel: the similarity plus the overlap size, so
/// callers can apply minimum-overlap thresholds and significance
/// weighting without re-walking the spans.
struct SimilarityResult {
  double value = 0.0;
  std::size_t overlap = 0;
};

/// Pearson correlation over the common support (Eq. 5 / Eq. 6).
/// Returns value 0 when the overlap is empty or either variance is 0.
SimilarityResult PearsonSparse(std::span<const matrix::Entry> a,
                               std::span<const matrix::Entry> b,
                               double mean_a, double mean_b);

/// Pure cosine (VSS) over the common support; the paper rejects it for
/// GIS but it is kept for ablations and tests.
SimilarityResult CosineSparse(std::span<const matrix::Entry> a,
                              std::span<const matrix::Entry> b);

/// Significance weighting: shrinks similarities computed on few
/// co-ratings: sim * min(overlap, cutoff) / cutoff.  Used by EMDP.
double SignificanceWeight(double similarity, std::size_t overlap,
                          std::size_t cutoff);

/// Eq. 13: weight for a (similar item, like-minded user) rating pair.
/// Zero when both inputs are zero.
double CrossWeight(double item_similarity, double user_similarity);

/// Eq. 11: rating-provenance coefficient.  `w` is the weight of a
/// *smoothed* rating; an original rating gets 1 - w.
///
/// Interpretation note: Eq. 11 as printed assigns ε to the rating "if u
/// rates i" — i.e. originals would get the paper's w = 0.35 and smoothed
/// cells 0.65.  That reading contradicts the smoothing strategy's SCBPCC
/// lineage (smoothed data is lower-confidence by construction) and, on
/// every dataset we measured, inverts Fig. 8's U-shape.  Reading w as the
/// smoothed-rating weight restores both: originals carry 0.65 at the
/// paper's default and the Fig. 8 optimum (w ≈ 0.2–0.4) reproduces.  See
/// DESIGN.md §4.
inline double ProvenanceWeight(bool is_original, double w) {
  return is_original ? 1.0 - w : w;
}

/// Eq. 10: smoothing-aware PCC between an active user (original sparse
/// row, no provenance weights on their side) and a candidate user's Eq. 7
/// profile, given by what it is derived from: the candidate's sorted
/// sparse row, mean r̄_u and cluster deviation row Δr_{C(u),·}.  A cell is
/// original (weight 1 − w) where the candidate rated the item, and
/// r̄_u + Δr_{C(u),i} (weight w) elsewhere.  The sum runs over the items
/// the *active* user rated (the paper's f: i ∈ I{u_a}).  The pairwise
/// reference for cluster::ClusterModel::PoolSimilarities, which scores a
/// whole candidate pool at once to the same bits.
///
///   sim = Σ w·(r_u,i − r̄_u)(r_ua,i − r̄_ua)
///         / sqrt(Σ w²(r_u,i − r̄_u)²) / sqrt(Σ (r_ua,i − r̄_ua)²)
double SmoothingAwarePcc(std::span<const matrix::Entry> active_row,
                         double active_mean,
                         std::span<const matrix::Entry> candidate_row,
                         std::span<const double> candidate_deviations,
                         double candidate_mean, double epsilon);

}  // namespace cfsf::sim
