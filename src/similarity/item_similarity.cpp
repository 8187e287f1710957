#include "similarity/item_similarity.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <utility>

#include "parallel/parallel_for.hpp"
#include "similarity/kernels.hpp"
#include "util/check.hpp"
#include "util/error.hpp"

namespace cfsf::sim {

namespace {

PairConfig PairConfigOf(const GisConfig& config) {
  return PairConfig{config.min_similarity, config.min_overlap,
                    config.max_neighbors, config.significance_weighting,
                    config.significance_cutoff, config.parallel};
}

/// Eq. 5 centres each rating on r̄_i over all raters of i; the cosine
/// (PCS) kernel uses the raw rating.
std::vector<double> ItemCentres(const matrix::RatingMatrix& matrix,
                                const GisConfig& config) {
  std::vector<double> centre(matrix.num_items(), 0.0);
  if (config.kernel == ItemKernel::kPearson) {
    for (std::size_t i = 0; i < centre.size(); ++i) {
      centre[i] = matrix.ItemMean(static_cast<matrix::ItemId>(i));
    }
  }
  return centre;
}

/// Drops `row`'s entries for touched items and inserts `incoming` at
/// their sorted positions.  Returns false when the row may be missing an
/// entry: it was at the cap, so entries past its old tail were cut, and
/// the splice leaves room for one of them.
bool SpliceRow(std::vector<Neighbor>& row, const std::vector<std::uint8_t>& touched,
               std::span<const Neighbor> incoming, std::size_t cap) {
  const bool at_cap = cap != 0 && row.size() >= cap;
  const Neighbor tail = at_cap ? row.back() : Neighbor{};
  row.erase(std::remove_if(row.begin(), row.end(),
                           [&](const Neighbor& n) { return touched[n.index] != 0; }),
            row.end());
  for (const auto& n : incoming) {
    row.insert(std::lower_bound(row.begin(), row.end(), n, NeighborBefore), n);
  }
  if (at_cap && (row.size() < cap || NeighborBefore(tail, row[cap - 1]))) {
    return false;
  }
  if (cap != 0 && row.size() > cap) row.resize(cap);
  return true;
}

struct PairAcc {
  double dot = 0.0;
  double sq_own = 0.0;    // Σ dev_a² over the pair's common support
  double sq_other = 0.0;  // Σ dev_b²
  std::uint32_t count = 0;
};

/// The all-pairs kernel: appends the filtered, unsorted row of entity
/// a = id_of(k) to out[k] for every k — partners above a when
/// `upper_only`, every partner but a otherwise.  Each claimed chunk owns
/// one dense per-partner scratch and resets only the slots it touched.
/// Row costs vary (low ids walk the longest suffixes), so chunks are
/// claimed dynamically.
template <typename IdOf>
void RunKernel(const matrix::RatingMatrix& matrix, PairSide side,
               std::span<const double> centre, const PairConfig& config,
               IdOf id_of, bool upper_only, std::vector<std::vector<Neighbor>>& out,
               par::ThreadPool* pool) {
  const bool items = side == PairSide::kItems;
  par::ForOptions options;
  options.schedule = par::Schedule::kDynamic;
  options.serial = !config.parallel;
  options.pool = pool;
  par::ParallelForRanges(
      0, out.size(),
      [&](par::Range r) {
        std::vector<PairAcc> acc(centre.size());
        std::vector<std::uint32_t> touched;
        for (std::size_t k = r.begin; k < r.end; ++k) {
          const std::uint32_t a = id_of(k);
          for (const auto& rating : items ? matrix.ItemCol(a) : matrix.UserRow(a)) {
            const double dev_a = rating.value - centre[a];
            const auto line =
                items ? matrix.UserRow(rating.index) : matrix.ItemCol(rating.index);
            auto it = line.begin();
            if (upper_only) {
              it = std::upper_bound(line.begin(), line.end(), a,
                                    [](std::uint32_t v, const matrix::Entry& e) {
                                      return v < e.index;
                                    });
            }
            for (; it != line.end(); ++it) {
              const std::uint32_t b = it->index;
              if (b == a) continue;
              const double dev_b = it->value - centre[b];
              PairAcc& pair = acc[b];
              if (pair.count == 0) touched.push_back(b);
              pair.dot += dev_a * dev_b;
              pair.sq_own += dev_a * dev_a;
              pair.sq_other += dev_b * dev_b;
              ++pair.count;
            }
          }
          for (const std::uint32_t b : touched) {
            const PairAcc pair = std::exchange(acc[b], PairAcc{});
            if (pair.count < config.min_overlap) continue;
            const double denom = std::sqrt(pair.sq_own) * std::sqrt(pair.sq_other);
            if (denom <= 0.0) continue;
            double sim = pair.dot / denom;
            if (config.significance_weighting) {
              sim = SignificanceWeight(sim, pair.count, config.significance_cutoff);
            }
            if (sim > config.min_similarity) {
              out[k].push_back(Neighbor{b, static_cast<float>(sim)});
            }
          }
          touched.clear();
        }
      },
      options);
}

}  // namespace

void SortAndCap(std::vector<Neighbor>& row, std::size_t max_neighbors) {
  // Pointers, not iterators: GCC 12's -fanalyzer reads the iterator form
  // inside a ParallelFor body as a use of an uninitialised value.
  std::sort(row.data(), row.data() + row.size(),
            [](const Neighbor& x, const Neighbor& y) { return NeighborBefore(x, y); });
  if (max_neighbors != 0 && row.size() > max_neighbors) row.resize(max_neighbors);
  row.shrink_to_fit();
}

std::vector<std::vector<Neighbor>> BuildPairRows(
    const matrix::RatingMatrix& matrix, PairSide side,
    std::span<const double> centre, const PairConfig& config,
    par::ThreadPool* pool) {
  const std::size_t n = centre.size();
  std::vector<std::vector<Neighbor>> rows(n);
  RunKernel(
      matrix, side, centre, config,
      [](std::size_t a) { return static_cast<std::uint32_t>(a); }, true, rows,
      pool);

  // Mirror every upper entry (index above its row's) into its partner's
  // row, each row sized exactly first.
  std::vector<std::size_t> size(n, 0);
  for (std::size_t a = 0; a < n; ++a) {
    size[a] += rows[a].size();
    for (const auto& nb : rows[a]) ++size[nb.index];
  }
  for (std::size_t a = 0; a < n; ++a) rows[a].reserve(size[a]);
  for (std::size_t a = 0; a < n; ++a) {
    for (const Neighbor nb : rows[a]) {
      if (nb.index < a) continue;  // mirrored in from a smaller id
      rows[nb.index].push_back(Neighbor{static_cast<std::uint32_t>(a), nb.similarity});
    }
  }
  par::ForOptions options;
  options.serial = !config.parallel;
  options.pool = pool;
  par::ParallelFor(
      0, n, [&](std::size_t a) { SortAndCap(rows[a], config.max_neighbors); },
      options);
  return rows;
}

std::vector<std::vector<Neighbor>> FullPairRows(
    const matrix::RatingMatrix& matrix, PairSide side,
    std::span<const double> centre, const PairConfig& config,
    std::span<const std::uint32_t> ids) {
  std::vector<std::vector<Neighbor>> rows(ids.size());
  RunKernel(
      matrix, side, centre, config, [ids](std::size_t k) { return ids[k]; },
      false, rows, nullptr);
  return rows;
}

GlobalItemSimilarity GlobalItemSimilarity::Build(
    const matrix::RatingMatrix& matrix, const GisConfig& config) {
  GlobalItemSimilarity gis;
  gis.config_ = config;
  gis.rows_ = BuildPairRows(matrix, PairSide::kItems, ItemCentres(matrix, config),
                            PairConfigOf(config));
  return gis;
}

GlobalItemSimilarity GlobalItemSimilarity::FromRows(
    std::vector<std::vector<Neighbor>> rows, const GisConfig& config) {
  GlobalItemSimilarity gis;
  gis.config_ = config;
  for (const auto& row : rows) {
    for (const auto& n : row) {
      CFSF_REQUIRE(n.index < rows.size(),
                   "GIS row references an item outside the matrix");
    }
  }
  gis.rows_ = std::move(rows);
  return gis;
}

std::span<const Neighbor> GlobalItemSimilarity::Neighbors(
    matrix::ItemId item) const {
  CFSF_ASSERT(item < rows_.size(), "item id out of range");
  return rows_[item];
}

std::span<const Neighbor> GlobalItemSimilarity::TopM(matrix::ItemId item,
                                                     std::size_t m) const {
  const auto row = Neighbors(item);
  return row.subspan(0, std::min(m, row.size()));
}

double GlobalItemSimilarity::Similarity(matrix::ItemId item,
                                        matrix::ItemId other) const {
  for (const auto& n : Neighbors(item)) {
    if (n.index == other) return n.similarity;
  }
  return 0.0;
}

std::size_t GlobalItemSimilarity::TotalNeighbors() const {
  std::size_t total = 0;
  for (const auto& row : rows_) total += row.size();
  return total;
}

void GlobalItemSimilarity::RefreshItems(const matrix::RatingMatrix& matrix,
                                        std::span<const matrix::ItemId> items) {
  CFSF_REQUIRE(matrix.num_items() == rows_.size(),
               "RefreshItems matrix shape mismatch");
  const std::size_t q = rows_.size();
  const std::size_t cap = config_.max_neighbors;
  std::vector<std::uint8_t> touched(q, 0);
  std::vector<matrix::ItemId> order;
  for (const auto item : items) {
    CFSF_REQUIRE(item < q, "RefreshItems item id out of range");
    if (touched[item] == 0) order.push_back(item);
    touched[item] = 1;
  }
  if (order.empty()) return;

  const auto centre = ItemCentres(matrix, config_);
  const PairConfig pair_config = PairConfigOf(config_);
  auto fresh = FullPairRows(matrix, PairSide::kItems, centre, pair_config, order);

  // Rows to splice.  PCC is symmetric, so without a cap they are the old
  // and new neighbours of the touched items; a capped row may keep a pair
  // its partner cut, so with a cap every row is one.
  std::vector<std::uint8_t> dirty(q, cap != 0 ? 1 : 0);
  std::vector<std::vector<Neighbor>> incoming(q);
  for (std::size_t k = 0; k < order.size(); ++k) {
    for (const auto& n : rows_[order[k]]) dirty[n.index] = 1;
    for (const auto& n : fresh[k]) {
      dirty[n.index] = 1;
      incoming[n.index].push_back(Neighbor{order[k], n.similarity});
    }
    rows_[order[k]] = std::move(fresh[k]);
    SortAndCap(rows_[order[k]], cap);
  }
  // A capped row that may now miss an entry its cap had cut is rebuilt
  // whole.
  std::vector<matrix::ItemId> rebuild;
  for (std::size_t j = 0; j < q; ++j) {
    if (dirty[j] != 0 && touched[j] == 0 &&
        !SpliceRow(rows_[j], touched, incoming[j], cap)) {
      rebuild.push_back(static_cast<matrix::ItemId>(j));
    }
  }
  auto rebuilt =
      FullPairRows(matrix, PairSide::kItems, centre, pair_config, rebuild);
  for (std::size_t k = 0; k < rebuild.size(); ++k) {
    rows_[rebuild[k]] = std::move(rebuilt[k]);
    SortAndCap(rows_[rebuild[k]], cap);
  }
}

void GlobalItemSimilarity::DebugValidate() const {
  const std::size_t q = rows_.size();
  for (std::size_t i = 0; i < q; ++i) {
    const auto& row = rows_[i];
    CFSF_VALIDATE(config_.max_neighbors == 0 || row.size() <= config_.max_neighbors,
                  "GIS row exceeds the max_neighbors cap");
    for (std::size_t k = 0; k < row.size(); ++k) {
      CFSF_VALIDATE(row[k].index < q, "GIS neighbour id out of range");
      CFSF_VALIDATE(row[k].index != i, "GIS row contains the item itself");
      CFSF_VALIDATE(std::isfinite(row[k].similarity),
                    "GIS similarity must be finite");
      CFSF_VALIDATE(row[k].similarity >= -1.0F - 1e-5F &&
                        row[k].similarity <= 1.0F + 1e-5F,
                    "GIS similarity outside [-1, 1]");
      CFSF_VALIDATE(static_cast<double>(row[k].similarity) > config_.min_similarity,
                    "GIS similarity at or below the Eq. 5 threshold");
      CFSF_VALIDATE(k == 0 || NeighborBefore(row[k - 1], row[k]),
                    "GIS row must be similarity-descending with "
                    "ascending-id tie-breaks");
    }
  }

  // PCC is symmetric and one kernel computes both directions of a pair
  // bit for bit, so wherever both survived the thresholds their stored
  // values are equal.  (A missing reciprocal is legal: max_neighbors
  // truncates rows independently.)
  std::vector<std::unordered_map<std::uint32_t, float>> by_index(q);
  for (std::size_t i = 0; i < q; ++i) {
    by_index[i].reserve(rows_[i].size());
    for (const auto& n : rows_[i]) by_index[i].emplace(n.index, n.similarity);
  }
  for (std::size_t i = 0; i < q; ++i) {
    for (const auto& n : rows_[i]) {
      const auto it = by_index[n.index].find(static_cast<std::uint32_t>(i));
      if (it == by_index[n.index].end()) continue;
      CFSF_VALIDATE(it->second == n.similarity,
                    "GIS must be value-symmetric where both directions exist");
    }
  }
}

}  // namespace cfsf::sim
