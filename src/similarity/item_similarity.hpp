// Global Item Similarity matrix — the paper's GIS (Section IV-B).
//
// All item–item Pearson correlations (Eq. 5) come from one item-major
// kernel (BuildPairRows below): for item a it walks each rater's row
// past a into an O(Q) per-thread scratch — Σ_u |I{u}|²/2 pair updates in
// all, with no all-pairs accumulator.  Build runs it over every item and
// mirrors the upper halves; RefreshItems runs it on the touched items and
// splices their entries into the other rows.  Each pair sums its
// co-raters in ascending-user order either way, so a build is the same
// bit for bit at any pool size and a refresh equals a rebuild.
//
// Per the paper, rows are sorted in descending similarity and thresholds
// filter "less important items" so "the size of GIS [is] greatly reduced".
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "matrix/rating_matrix.hpp"

namespace cfsf::par {
class ThreadPool;
}  // namespace cfsf::par

namespace cfsf::sim {

/// One neighbour in a similarity list.
struct Neighbor {
  std::uint32_t index = 0;       // item id in GIS rows, user id in user lists
  float similarity = 0.0F;

  friend bool operator==(const Neighbor&, const Neighbor&) = default;
};

/// Neighbour-row order: descending similarity, ties by ascending index.
inline bool NeighborBefore(const Neighbor& x, const Neighbor& y) {
  if (x.similarity != y.similarity) return x.similarity > y.similarity;
  return x.index < y.index;
}

/// Sorts `row` into NeighborBefore order and cuts it to `max_neighbors`
/// (0 = no cap).
void SortAndCap(std::vector<Neighbor>& row, std::size_t max_neighbors);

/// The side of the matrix an all-pairs build correlates.
enum class PairSide {
  kItems,  // items over their common raters (GIS, Eq. 5)
  kUsers,  // users over their common items (Eq. 6)
};

/// Thresholds and execution of an all-pairs build.
struct PairConfig {
  double min_similarity = 0.0;  // keep only similarities strictly above
  std::size_t min_overlap = 2;
  std::size_t max_neighbors = 0;  // per-row cap after sorting (0 = none)
  bool significance_weighting = false;
  std::size_t significance_cutoff = 50;
  bool parallel = true;  // the rows are the same either way
};

/// Every entity's filtered neighbour row, sorted and capped, from the
/// entity-major all-pairs kernel: each entity's upper half (partners with
/// a larger index) under a dynamic ParallelFor on `pool` (nullptr = the
/// shared pool), mirrored into the partners' rows, then sorted.
/// `centre[e]` is subtracted from e's ratings: its mean for PCC, 0 for
/// the cosine.  The rows do not depend on the pool size.
std::vector<std::vector<Neighbor>> BuildPairRows(
    const matrix::RatingMatrix& matrix, PairSide side,
    std::span<const double> centre, const PairConfig& config,
    par::ThreadPool* pool = nullptr);

/// The whole filtered row of each of `ids` (every partner but itself),
/// unsorted and uncapped, from the same kernel.
std::vector<std::vector<Neighbor>> FullPairRows(
    const matrix::RatingMatrix& matrix, PairSide side,
    std::span<const double> centre, const PairConfig& config,
    std::span<const std::uint32_t> ids);

/// Similarity function for the all-pairs build.  The paper selects PCC
/// over Pure Cosine Similarity "because PCS does not consider the
/// diversity in item ratings" (Section IV-B); kCosine exists to measure
/// that claim (bench/ablation_components).
enum class ItemKernel { kPearson, kCosine };

struct GisConfig {
  ItemKernel kernel = ItemKernel::kPearson;
  /// Keep only pairs with similarity strictly greater than this (the
  /// paper's Eq. 5 threshold).  GIS rows feed the top-M selection, where
  /// negative correlations would produce negative fusion weights.
  double min_similarity = 0.0;
  /// Pairs with fewer co-raters than this are discarded (PCC over one
  /// common rating is meaningless).
  std::size_t min_overlap = 2;
  /// Cap per-row neighbour count after sorting (0 = unlimited).
  std::size_t max_neighbors = 0;
  /// Multiply each similarity by min(overlap, cutoff)/cutoff.
  bool significance_weighting = false;
  std::size_t significance_cutoff = 50;
  /// Run the kernel on the thread pool (the rows are the same either way).
  bool parallel = true;
};

class GlobalItemSimilarity {
 public:
  GlobalItemSimilarity() = default;

  static GlobalItemSimilarity Build(const matrix::RatingMatrix& matrix,
                                    const GisConfig& config = {});

  /// Reconstructs a GIS from previously built rows (model persistence).
  /// Rows must already be similarity-descending; this is not validated
  /// beyond basic shape checks.
  static GlobalItemSimilarity FromRows(std::vector<std::vector<Neighbor>> rows,
                                       const GisConfig& config);

  std::size_t num_items() const { return rows_.size(); }

  /// Neighbours of `item`, sorted by descending similarity (ties broken by
  /// ascending item id for determinism).  Never contains `item` itself.
  std::span<const Neighbor> Neighbors(matrix::ItemId item) const;

  /// The top-M prefix of Neighbors(item) (fewer if the row is short).
  std::span<const Neighbor> TopM(matrix::ItemId item, std::size_t m) const;

  /// Linear lookup (test/diagnostic use); 0 if `other` was filtered out.
  double Similarity(matrix::ItemId item, matrix::ItemId other) const;

  /// Total stored neighbour entries (size of the reduced GIS).
  std::size_t TotalNeighbors() const;

  /// Incremental maintenance (the paper's "keep GIS up-to-date" future
  /// work): recompute the rows of `items` — and their appearance in other
  /// rows — against the given (updated) matrix.  The result equals
  /// Build(matrix, config()) exactly when `items` lists every item whose
  /// ratings changed.
  void RefreshItems(const matrix::RatingMatrix& matrix,
                    std::span<const matrix::ItemId> items);

  /// Structural validation sweep: every row similarity-descending with
  /// ascending-id tie-breaks, similarities finite and inside [-1, 1],
  /// neighbour ids in range, no self-neighbours, rows within the
  /// max_neighbors cap.  Throws util::InvariantError on violation.
  void DebugValidate() const;

  const GisConfig& config() const { return config_; }

 private:
  std::vector<std::vector<Neighbor>> rows_;
  GisConfig config_;
};

}  // namespace cfsf::sim
