#include "core/cfsf_model.hpp"

#include <algorithm>
#include <cmath>
#include <map>

#include "obs/timer.hpp"
#include "parallel/parallel_for.hpp"
#include "obs/failpoint.hpp"
#include "obs/names.hpp"
#include "similarity/kernels.hpp"
#include "util/check.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"

namespace cfsf::core {
namespace {

// The model's instrumentation points, resolved against the global
// registry once (thread-safe static init) and shared by every CfsfModel
// instance.  Names are documented in docs/OBSERVABILITY.md.
struct CfsfMetrics {
  obs::Counter& fit_count;
  obs::Gauge& fit_cum_seconds;
  obs::Counter& predict_count;
  obs::Histogram& predict_latency_us;
  obs::Counter& batch_count;
  obs::Histogram& batch_size;
  obs::Counter& sir_used;
  obs::Counter& sur_used;
  obs::Counter& suir_used;
  obs::Counter& cache_hit;
  obs::Counter& cache_miss;
  obs::Histogram& topk_pool_size;

  static const CfsfMetrics& Get() {
    static const CfsfMetrics metrics = [] {
      auto& registry = obs::MetricsRegistry::Global();
      return CfsfMetrics{
          registry.GetCounter(obs::names::kCfsfFitCount),
          registry.GetGauge(obs::names::kCfsfFitCumSeconds),
          registry.GetCounter(obs::names::kCfsfPredictCount),
          registry.GetHistogram(obs::names::kCfsfPredictLatencyUs,
                                obs::LatencyBucketsUs()),
          registry.GetCounter(obs::names::kCfsfPredictBatchCount),
          registry.GetHistogram(obs::names::kCfsfPredictBatchSize, obs::SizeBuckets()),
          registry.GetCounter(obs::names::kCfsfComponentSir),
          registry.GetCounter(obs::names::kCfsfComponentSur),
          registry.GetCounter(obs::names::kCfsfComponentSuir),
          registry.GetCounter(obs::names::kCfsfTopkCacheHit),
          registry.GetCounter(obs::names::kCfsfTopkCacheMiss),
          registry.GetHistogram(obs::names::kCfsfTopkPoolSize, obs::SizeBuckets()),
      };
    }();
    return metrics;
  }
};

// One user's Eq. 7 cells, read through an index of positions in the
// user's sorted CSR row (position + 1): a cell is the original rating
// where the user rated the item and r̄_u + Δr_{C(u),i} elsewhere, the same
// double the dense smoothed matrix used to hold.  A slot row (kBySlot) is
// addressed by the query's top-M slot (slot M is the active item) and a
// position of 0 marks an unrated cell; an item row is addressed by item
// id, flags rated items in a byte array — the one probed in hot loops —
// and reads positions only where that flag is set.  Estimators copy a
// row into a local so its fields stay in registers across calls the
// compiler cannot see into.
template <bool kBySlot>
struct CellRow {
  const std::uint8_t* rated;        // item rows only
  const std::uint32_t* positions;
  const matrix::Entry* entries;
  const matrix::Timestamp* stamps;  // aligned with entries; null if untimed
  double mean;                      // r̄_u
  const double* deviations;         // Δr_{C(u),·}

  /// Eq. 11's provenance bit.
  bool Original(std::size_t slot, matrix::ItemId item) const {
    return kBySlot ? positions[slot] != 0 : rated[item] != 0;
  }
  /// Eq. 7.
  double Value(std::size_t slot, matrix::ItemId item) const {
    return Original(slot, item)
               ? static_cast<double>(entries[Position(slot, item)].value)
               : mean + deviations[item];
  }
  /// Timestamp of an original cell; 0 if the data is untimed.
  matrix::Timestamp Stamp(std::size_t slot, matrix::ItemId item) const {
    return stamps != nullptr ? stamps[Position(slot, item)] : 0;
  }

 private:
  std::size_t Position(std::size_t slot, matrix::ItemId item) const {
    return positions[kBySlot ? slot : item] - 1;
  }
};

template <bool kBySlot>
CellRow<kBySlot> MakeCellRow(const matrix::RatingMatrix& train,
                             const cluster::ClusterModel& clusters,
                             matrix::UserId user, const std::uint8_t* rated,
                             const std::uint32_t* positions) {
  const auto stamps = train.UserRowTimestamps(user);
  return {rated,
          positions,
          train.UserRow(user).data(),
          stamps.empty() ? nullptr : stamps.data(),
          clusters.UserMean(user),
          clusters.DeviationRow(clusters.ClusterOf(user)).data()};
}

thread_local bool call_cells_live = false;

// The newest rating timestamp in `train` (0 when untimed): the reference
// point of the time-decay weights.
matrix::Timestamp LatestTimestamp(const matrix::RatingMatrix& train) {
  matrix::Timestamp latest = 0;
  if (train.has_timestamps()) {
    for (std::size_t u = 0; u < train.num_users(); ++u) {
      for (const auto ts : train.UserRowTimestamps(static_cast<matrix::UserId>(u))) {
        latest = std::max(latest, ts);
      }
    }
  }
  return latest;
}

}  // namespace

// The paper's local matrix (Section IV-E) for one query: the cells of the
// active user (row 0) and the top-K neighbours (rows 1..K) on the query's
// top-M items and its active item, indexed by slot.  Each row is gathered
// by walking the user's sorted CSR row against a per-thread item → slot
// map; items outside the query fall into a discarded column 0, so the
// walk has no branch.  O(K·|row|) to build, O(K·M) to hold.
class CfsfModel::QueryCells {
 public:
  using Row = CellRow<true>;

  QueryCells(const matrix::RatingMatrix& train,
             const cluster::ClusterModel& clusters, matrix::UserId active,
             std::span<const SelectedUser> neighbors,
             std::span<const sim::Neighbor> top_items, matrix::ItemId item)
      : width_(top_items.size() + 2),
        columns_((neighbors.size() + 1) * width_, 0) {
    auto& column_of = ColumnScratch();
    if (column_of.size() < train.num_items()) {
      column_of.resize(train.num_items(), 0);
    }
    rows_.reserve(neighbors.size() + 1);
    // Nothing below throws while column_of holds set entries.
    for (std::size_t j = 0; j < top_items.size(); ++j) {
      column_of[top_items[j].index] = static_cast<std::uint32_t>(j + 1);
    }
    column_of[item] = static_cast<std::uint32_t>(width_ - 1);
    for (std::size_t r = 0; r <= neighbors.size(); ++r) {
      const auto user = r == 0 ? active : neighbors[r - 1].user;
      std::uint32_t* columns = columns_.data() + r * width_;
      const auto entries = train.UserRow(user);
      for (std::size_t k = 0; k < entries.size(); ++k) {
        columns[column_of[entries[k].index]] = static_cast<std::uint32_t>(k + 1);
      }
      rows_.push_back(
          MakeCellRow<true>(train, clusters, user, nullptr, columns + 1));
    }
    for (const auto& n : top_items) column_of[n.index] = 0;
    column_of[item] = 0;
  }

  /// Row 0 is the active user, row k + 1 the k-th neighbour.
  Row row(std::size_t r) const { return rows_[r]; }

 private:
  static std::vector<std::uint32_t>& ColumnScratch() {
    thread_local std::vector<std::uint32_t> column_of;  // Q, all-zero
    return column_of;
  }

  std::size_t width_;  // discard column + M' slots + the active item
  std::vector<std::uint32_t> columns_;
  std::vector<Row> rows_;
};

// The cells of the active user (row 0) and the top-K neighbours (rows
// 1..K) on every item, indexed by item id: each row scattered once into
// per-thread (K+1)×Q scratch, a byte flag per rated item plus its row
// position.  RecommendTopN and each PredictBatch user group build one and
// reuse it for all their items.  The destructor zeroes exactly the flags
// the constructor set (positions are read only under a set flag), so the
// scratch needs no clearing between calls and a build costs O(K·|row|),
// not O(K·Q).  One live instance per thread.
class CfsfModel::CallCells {
 public:
  using Row = CellRow<false>;

  CallCells(const matrix::RatingMatrix& train,
            const cluster::ClusterModel& clusters, matrix::UserId active,
            std::span<const SelectedUser> neighbors)
      : q_(train.num_items()), scratch_(GetScratch()) {
    CFSF_ASSERT(!call_cells_live, "one CallCells per thread at a time");
    const std::size_t num_rows = neighbors.size() + 1;
    if (scratch_.rated.size() < num_rows * q_) {
      scratch_.rated.resize(num_rows * q_, 0);
      scratch_.positions.resize(num_rows * q_);
    }
    std::uint8_t* const rated = scratch_.rated.data();
    std::uint32_t* const positions = scratch_.positions.data();
    rows_.reserve(num_rows);
    entries_.reserve(num_rows);
    // Nothing below throws (push_back stays within the reserved
    // capacity), so the destructor zeroes whatever is set.
    AddRow(train, clusters, active, rated, positions);
    for (const auto& n : neighbors) {
      AddRow(train, clusters, n.user, rated, positions);
    }
    call_cells_live = true;
  }
  ~CallCells() {
    for (std::size_t r = 0; r < entries_.size(); ++r) {
      std::uint8_t* rated = scratch_.rated.data() + r * q_;
      for (const auto& e : entries_[r]) rated[e.index] = 0;
    }
    call_cells_live = false;
  }
  CallCells(const CallCells&) = delete;
  CallCells& operator=(const CallCells&) = delete;

  /// Row 0 is the active user, row k + 1 the k-th neighbour.
  Row row(std::size_t r) const { return rows_[r]; }

 private:
  // Appends `user` as the next row: scatters its flags and positions
  // into that row's slice of the scratch and records its cells.
  void AddRow(const matrix::RatingMatrix& train,
              const cluster::ClusterModel& clusters, matrix::UserId user,
              std::uint8_t* rated, std::uint32_t* positions) {
    const std::size_t offset = rows_.size() * q_;
    const auto entries = train.UserRow(user);
    for (std::size_t k = 0; k < entries.size(); ++k) {
      rated[offset + entries[k].index] = 1;
      positions[offset + entries[k].index] = static_cast<std::uint32_t>(k + 1);
    }
    rows_.push_back(MakeCellRow<false>(train, clusters, user, rated + offset,
                                       positions + offset));
    entries_.push_back(entries);
  }

  struct Scratch {
    std::vector<std::uint8_t> rated;       // rows × Q, all-zero between calls
    std::vector<std::uint32_t> positions;  // rows × Q
  };
  static Scratch& GetScratch() {
    thread_local Scratch scratch;
    return scratch;
  }

  std::size_t q_;
  Scratch& scratch_;
  std::vector<Row> rows_;
  std::vector<std::span<const matrix::Entry>> entries_;  // row r's CSR row
};

CfsfModel::CfsfModel(const CfsfConfig& config) : config_(config) {
  config_.Validate();
}

void CfsfModel::Fit(const matrix::RatingMatrix& train) {
  CFSF_REQUIRE(train.num_users() > 0 && train.num_items() > 0,
               "cannot fit CFSF on an empty matrix");
  CFSF_FAILPOINT("cfsf.fit");
  train_ = train;

  obs::PhaseProfiler profiler;

  // Step 1: GIS (Eq. 5), thresholded and similarity-descending.
  profiler.Begin("gis");
  sim::GisConfig gis_config = config_.gis;
  gis_config.parallel = config_.parallel;
  gis_ = sim::GlobalItemSimilarity::Build(train_, gis_config);

  // Step 2: K-means user clusters (Eq. 6).
  profiler.Begin("kmeans");
  cluster::KMeansConfig kconfig;
  kconfig.num_clusters = std::min(config_.num_clusters, train_.num_users());
  kconfig.max_iterations = config_.kmeans_max_iterations;
  kconfig.seed = config_.seed;
  kconfig.parallel = config_.parallel;
  const auto kmeans = cluster::RunKMeans(train_, kconfig);
  profiler.End();

  // Step 3: smoothing (Eq. 7–8) and iCluster lists (Eq. 9) — recorded as
  // the "smoothing" and "icluster" phases by Build itself.
  clusters_ = cluster::ClusterModel::Build(train_, kmeans.assignments,
                                           kconfig.num_clusters,
                                           config_.parallel,
                                           config_.deviation_shrinkage,
                                           &profiler);

  latest_timestamp_ = LatestTimestamp(train_);

  {
    util::MutexLock lock(&cache_mutex_);
    cache_.assign(train_.num_users(), nullptr);
  }
  if constexpr (util::ChecksEnabled()) {
    train_.DebugValidate();
    gis_.DebugValidate();
    clusters_.DebugValidate(train_);
  }
  fitted_ = true;

  const auto& metrics = CfsfMetrics::Get();
  metrics.fit_count.Increment();
  profiler.CommitTo(obs::MetricsRegistry::Global(), "cfsf.fit");
  metrics.fit_cum_seconds.Add(profiler.TotalSeconds());

  CFSF_LOG_INFO << "CFSF fitted: " << train_.num_users() << " users, "
                << train_.num_items() << " items, GIS entries "
                << gis_.TotalNeighbors() << ", C=" << kconfig.num_clusters;
}

std::unique_ptr<CfsfModel> CfsfModel::Restore(
    const CfsfConfig& config, matrix::RatingMatrix train,
    sim::GlobalItemSimilarity gis, std::vector<std::uint32_t> assignments) {
  CFSF_REQUIRE(assignments.size() == train.num_users(),
               "Restore: assignments size must equal the user count");
  CFSF_REQUIRE(gis.num_items() == train.num_items(),
               "Restore: GIS shape must match the matrix");
  std::size_t num_clusters = 0;
  for (const auto a : assignments) {
    num_clusters = std::max<std::size_t>(num_clusters, a + 1);
  }
  CFSF_REQUIRE(num_clusters > 0, "Restore: empty assignment vector");

  auto model = std::make_unique<CfsfModel>(config);
  model->train_ = std::move(train);
  model->gis_ = std::move(gis);
  model->clusters_ = cluster::ClusterModel::Build(
      model->train_, assignments, num_clusters, config.parallel,
      config.deviation_shrinkage);
  model->latest_timestamp_ = LatestTimestamp(model->train_);
  {
    util::MutexLock lock(&model->cache_mutex_);
    model->cache_.assign(model->train_.num_users(), nullptr);
  }
  model->fitted_ = true;
  return model;
}

std::vector<SelectedUser> CfsfModel::ComputeTopKUsers(matrix::UserId user) const {
  // Section IV-E2: walk the iCluster order, pooling whole clusters until
  // the pool can support the top-K selection, then rank by Eq. 10.
  // Scores never decide membership, so the pool is fixed first and scored
  // in one pass over the pool clusters' rater segments.
  const std::size_t want_pool =
      std::max<std::size_t>(config_.top_k_users,
                            config_.top_k_users * config_.candidate_pool_factor);
  const std::uint32_t own_cluster = clusters_.ClusterOf(user);
  std::vector<std::uint32_t> pool_clusters;
  pool_clusters.reserve(clusters_.num_clusters());
  std::size_t pool_size = 0;  // candidates, the active user excluded
  for (const auto& affinity : clusters_.IClusterOf(user)) {
    pool_clusters.push_back(affinity.cluster);
    pool_size += clusters_.Members(affinity.cluster).size() -
                 (affinity.cluster == own_cluster ? 1 : 0);
    if (pool_size >= want_pool) break;
  }
  CfsfMetrics::Get().topk_pool_size.Record(static_cast<double>(pool_size));

  // The active user's own entry reads 0, so the `> 0` filter drops it.
  std::vector<SelectedUser> scored;
  scored.reserve(pool_size);
  for (const auto& candidate : clusters_.PoolSimilarities(
           train_, user, pool_clusters, config_.epsilon)) {
    if (candidate.similarity > 0.0) {
      scored.push_back(SelectedUser{candidate.user, candidate.similarity});
    }
  }

  const std::size_t k = std::min(config_.top_k_users, scored.size());
  std::partial_sort(scored.begin(), scored.begin() + k, scored.end(),
                    [](const SelectedUser& a, const SelectedUser& b) {
                      if (a.similarity != b.similarity) {
                        return a.similarity > b.similarity;
                      }
                      return a.user < b.user;
                    });
  // Exactly k entries: the cache keeps this list, not the pool.
  return {scored.begin(), scored.begin() + k};
}

std::shared_ptr<const std::vector<SelectedUser>> CfsfModel::TopKUsersCached(
    matrix::UserId user) const {
  const auto& metrics = CfsfMetrics::Get();
  if (!config_.use_cache) {
    metrics.cache_miss.Increment();
    return std::make_shared<const std::vector<SelectedUser>>(
        ComputeTopKUsers(user));
  }
  {
    util::MutexLock lock(&cache_mutex_);
    if (cache_[user]) {
      metrics.cache_hit.Increment();
      return cache_[user];
    }
  }
  metrics.cache_miss.Increment();
  auto computed = std::make_shared<const std::vector<SelectedUser>>(
      ComputeTopKUsers(user));
  util::MutexLock lock(&cache_mutex_);
  if (!cache_[user]) cache_[user] = computed;
  return cache_[user];
}

std::vector<SelectedUser> CfsfModel::SelectTopKUsers(matrix::UserId user) const {
  CFSF_REQUIRE(fitted_, "SelectTopKUsers before Fit");
  CFSF_REQUIRE(user < train_.num_users(), "user id out of range");
  return *TopKUsersCached(user);
}

double CfsfModel::TimeDecayWeight(matrix::Timestamp stamp) const {
  if (stamp == 0) return 1.0;
  const double age_days =
      static_cast<double>(latest_timestamp_ - stamp) / 86400.0;
  return std::exp2(-std::max(age_days, 0.0) / config_.time_half_life_days);
}

// --- SIR′: the active user's ratings on the top-M similar items
// (Eq. 12, first line; item-mean anchored by default, see
// CfsfConfig::center_on_item_means).  The local matrix is filled from
// the original ratings; smoothed cells only participate (at weight w)
// when local_matrix_smoothed is set.  Shared between the full fusion
// path and the degraded SIR′-only serving path.
template <class Cells>
std::optional<double> CfsfModel::SirEstimate(
    matrix::ItemId item, std::span<const sim::Neighbor> top_items,
    const Cells& cells) const {
  const bool center = config_.center_on_item_means;
  const auto row = cells.row(0);

  double num = 0.0;
  double den = 0.0;
  for (std::size_t j = 0; j < top_items.size(); ++j) {
    const auto& n = top_items[j];
    const bool original = row.Original(j, n.index);
    if (!original && !config_.local_matrix_smoothed) continue;
    double w = sim::ProvenanceWeight(original, config_.epsilon);
    if (original && config_.time_decay) {
      w *= TimeDecayWeight(row.Stamp(j, n.index));
    }
    const double cell = row.Value(j, n.index);
    const double value = center ? cell - train_.ItemMean(n.index) : cell;
    num += w * n.similarity * value;
    den += w * n.similarity;
  }
  if (den <= 0.0) return std::nullopt;
  const double item_anchor = center ? train_.ItemMean(item) : 0.0;
  return item_anchor + num / den;
}

std::optional<double> CfsfModel::PredictSirOnly(matrix::UserId user,
                                                matrix::ItemId item) const {
  CFSF_REQUIRE(fitted_, "PredictSirOnly before Fit");
  CFSF_REQUIRE(user < train_.num_users(), "user id out of range");
  CFSF_REQUIRE(item < train_.num_items(), "item id out of range");
  CFSF_FAILPOINT("cfsf.predict.sir");
  const auto top_items = gis_.TopM(item, config_.top_m_items);
  const QueryCells cells(train_, clusters_, user, {}, top_items, item);
  return SirEstimate(item, top_items, cells);
}

template <class Cells>
FusionBreakdown CfsfModel::PredictWithCells(
    matrix::UserId user, matrix::ItemId item,
    std::span<const sim::Neighbor> top_items,
    std::span<const SelectedUser> neighbors, const Cells& cells) const {
  CFSF_FAILPOINT("cfsf.predict");
  const double user_mean = train_.UserMean(user);

  FusionBreakdown result;

  const bool center = config_.center_on_item_means;
  const double item_anchor = center ? train_.ItemMean(item) : 0.0;

  if (config_.use_sir) {
    result.sir = SirEstimate(item, top_items, cells);
  }

  // --- SUR′: mean-centred ratings of the top-K like-minded users on the
  // active item (Eq. 12, second line).
  if (config_.use_sur) {
    const std::size_t item_slot = top_items.size();
    double num = 0.0;
    double den = 0.0;
    for (std::size_t k = 0; k < neighbors.size(); ++k) {
      const auto row = cells.row(k + 1);
      const bool original = row.Original(item_slot, item);
      if (!original && !config_.sur_uses_smoothed) continue;
      double w = sim::ProvenanceWeight(original, config_.epsilon);
      if (original && config_.time_decay) {
        w *= TimeDecayWeight(row.Stamp(item_slot, item));
      }
      const double similarity = neighbors[k].similarity;
      num += w * similarity * (row.Value(item_slot, item) - row.mean);
      den += w * similarity;
    }
    if (den > 0.0) result.sur = user_mean + num / den;
  }

  // --- SUIR′: the like-minded users' ratings on the similar items,
  // weighted by the Eq. 13 cross similarity (Eq. 12, third line).
  if (config_.use_suir) {
    double num = 0.0;
    double den = 0.0;
    const double w_original = 1.0 - config_.epsilon;
    const double w_smoothed = config_.epsilon;
    const bool local_smoothed = config_.local_matrix_smoothed;
    for (std::size_t k = 0; k < neighbors.size(); ++k) {
      const auto row = cells.row(k + 1);
      const double user_sim = neighbors[k].similarity;
      const double user_sim_sq = user_sim * user_sim;
      for (std::size_t j = 0; j < top_items.size(); ++j) {
        const auto& s = top_items[j];
        const bool original = row.Original(j, s.index);
        if (!original && !local_smoothed) continue;
        // Eq. 13 inlined with the per-neighbour square hoisted out.
        const double item_sim = s.similarity;
        const double sum_sq = item_sim * item_sim + user_sim_sq;
        if (sum_sq <= 0.0) continue;
        const double cross = item_sim * user_sim / std::sqrt(sum_sq);
        if (cross <= 0.0) continue;
        double w = original ? w_original : w_smoothed;
        if (original && config_.time_decay) {
          w *= TimeDecayWeight(row.Stamp(j, s.index));
        }
        const double cell = row.Value(j, s.index);
        const double value = center ? cell - train_.ItemMean(s.index) : cell;
        num += w * cross * value;
        den += w * cross;
      }
    }
    if (den > 0.0) result.suir = item_anchor + num / den;
  }

  // --- Eq. 14, renormalised over the components that produced a value.
  double weight_sum = 0.0;
  double value = 0.0;
  if (result.sir) {
    const double w = (1.0 - config_.delta) * (1.0 - config_.lambda);
    value += w * *result.sir;
    weight_sum += w;
  }
  if (result.sur) {
    const double w = (1.0 - config_.delta) * config_.lambda;
    value += w * *result.sur;
    weight_sum += w;
  }
  if (result.suir) {
    value += config_.delta * *result.suir;
    weight_sum += config_.delta;
  }
  result.fused = weight_sum > 0.0 ? value / weight_sum : user_mean;
  CFSF_CHECK_FINITE(result.fused, "Eq. 14 fused prediction");

  const auto& metrics = CfsfMetrics::Get();
  if (result.sir) metrics.sir_used.Increment();
  if (result.sur) metrics.sur_used.Increment();
  if (result.suir) metrics.suir_used.Increment();
  return result;
}

double CfsfModel::Predict(matrix::UserId user, matrix::ItemId item) const {
  return PredictDetailed(user, item).fused;
}

FusionBreakdown CfsfModel::PredictDetailed(matrix::UserId user,
                                           matrix::ItemId item) const {
  CFSF_REQUIRE(fitted_, "Predict before Fit");
  CFSF_REQUIRE(user < train_.num_users(), "user id out of range");
  CFSF_REQUIRE(item < train_.num_items(), "item id out of range");
  const auto& metrics = CfsfMetrics::Get();
  metrics.predict_count.Increment();
  obs::ScopedTimer timer(metrics.predict_latency_us);
  const auto neighbors = TopKUsersCached(user);
  const auto top_items = gis_.TopM(item, config_.top_m_items);
  const QueryCells cells(train_, clusters_, user, *neighbors, top_items, item);
  return PredictWithCells(user, item, top_items, *neighbors, cells);
}

std::vector<double> CfsfModel::PredictBatch(
    std::span<const std::pair<matrix::UserId, matrix::ItemId>> queries) const {
  CFSF_REQUIRE(fitted_, "PredictBatch before Fit");
  const auto& metrics = CfsfMetrics::Get();
  metrics.batch_count.Increment();
  metrics.batch_size.Record(static_cast<double>(queries.size()));
  metrics.predict_count.Increment(queries.size());
  std::vector<double> out(queries.size(), 0.0);

  // Group query indices by user so each worker selects a user's top-K and
  // gathers their cells exactly once.
  std::map<matrix::UserId, std::vector<std::size_t>> by_user;
  for (std::size_t idx = 0; idx < queries.size(); ++idx) {
    by_user[queries[idx].first].push_back(idx);
  }
  std::vector<std::pair<matrix::UserId, std::vector<std::size_t>>> groups(
      by_user.begin(), by_user.end());

  par::ForOptions options;
  options.serial = !config_.parallel;
  options.schedule = par::Schedule::kDynamic;
  par::ParallelFor(
      0, groups.size(),
      [&](std::size_t g) {
        const auto neighbors = TopKUsersCached(groups[g].first);
        const CallCells cells(train_, clusters_, groups[g].first, *neighbors);
        for (const std::size_t idx : groups[g].second) {
          obs::ScopedTimer timer(metrics.predict_latency_us);
          const auto [user, item] = queries[idx];
          out[idx] = PredictWithCells(user, item,
                                      gis_.TopM(item, config_.top_m_items),
                                      *neighbors, cells)
                         .fused;
        }
      },
      options);
  return out;
}

std::vector<CfsfModel::Recommendation> CfsfModel::RecommendTopN(
    matrix::UserId user, std::size_t n) const {
  CFSF_REQUIRE(fitted_, "RecommendTopN before Fit");
  CFSF_REQUIRE(user < train_.num_users(), "user id out of range");
  const auto neighbors = TopKUsersCached(user);
  const CallCells cells(train_, clusters_, user, *neighbors);
  const auto rated = train_.UserRow(user);

  std::vector<Recommendation> all;
  all.reserve(train_.num_items() - rated.size());
  std::size_t next_rated = 0;  // cursor into the sorted row
  for (std::size_t i = 0; i < train_.num_items(); ++i) {
    if (next_rated < rated.size() && rated[next_rated].index == i) {
      ++next_rated;  // already rated
      continue;
    }
    const auto item = static_cast<matrix::ItemId>(i);
    all.push_back(Recommendation{
        item, PredictWithCells(user, item, gis_.TopM(item, config_.top_m_items),
                               *neighbors, cells)
                  .fused});
  }
  const std::size_t take = std::min(n, all.size());
  std::partial_sort(all.begin(), all.begin() + take, all.end(),
                    [](const Recommendation& a, const Recommendation& b) {
                      if (a.score != b.score) return a.score > b.score;
                      return a.item < b.item;
                    });
  all.resize(take);
  return all;
}

std::unique_ptr<CfsfModel> CfsfModel::WithRatings(
    std::span<const matrix::RatingTriple> ratings) const {
  CFSF_REQUIRE(fitted_, "WithRatings before Fit");
  auto next = std::make_unique<CfsfModel>(config_);
  next->train_ = train_.WithRatings(ratings);

  // Refresh the touched GIS rows (future-work extension); RefreshItems
  // equals a rebuild when every changed item is listed.
  std::vector<matrix::ItemId> touched;
  touched.reserve(ratings.size());
  for (const auto& rating : ratings) touched.push_back(rating.item);
  next->gis_ = gis_;
  next->gis_.RefreshItems(next->train_, touched);

  // Re-smooth with the existing cluster assignments; K-means itself is not
  // re-run (a full Fit() does that).
  next->clusters_ = cluster::ClusterModel::Build(
      next->train_, clusters_.assignments(), clusters_.num_clusters(),
      config_.parallel, config_.deviation_shrinkage);
  next->latest_timestamp_ = LatestTimestamp(next->train_);
  {
    util::MutexLock lock(&next->cache_mutex_);
    next->cache_.assign(next->train_.num_users(), nullptr);
  }
  next->fitted_ = true;
  return next;
}

void CfsfModel::InsertRating(matrix::UserId user, matrix::ItemId item,
                             matrix::Rating value, matrix::Timestamp timestamp) {
  const matrix::RatingTriple rating{user, item, value, timestamp};
  auto next = WithRatings({&rating, 1});
  train_ = std::move(next->train_);
  gis_ = std::move(next->gis_);
  clusters_ = std::move(next->clusters_);
  latest_timestamp_ = next->latest_timestamp_;
  ClearCache();
}

matrix::UserId CfsfModel::AddUser(
    std::span<const std::pair<matrix::ItemId, matrix::Rating>> ratings) {
  CFSF_REQUIRE(fitted_, "AddUser before Fit");
  CFSF_REQUIRE(!ratings.empty(), "AddUser needs at least one rating");
  for (const auto& [item, value] : ratings) {
    (void)value;
    CFSF_REQUIRE(item < train_.num_items(), "AddUser item id out of range");
  }

  const auto new_user = static_cast<matrix::UserId>(train_.num_users());

  // Extend the matrix by one row.
  matrix::RatingMatrixBuilder builder(train_.num_users() + 1,
                                      train_.num_items());
  for (const auto& t : train_.ToTriples()) builder.Add(t);
  for (const auto& [item, value] : ratings) builder.Add(new_user, item, value);
  train_ = builder.Build();

  // Assign the newcomer to their most affine cluster (Eq. 9 against the
  // existing cluster deviations).
  const auto row = train_.UserRow(new_user);
  const double mean = train_.UserMean(new_user);
  std::uint32_t best_cluster = 0;
  double best_affinity = -std::numeric_limits<double>::infinity();
  for (std::size_t c = 0; c < clusters_.num_clusters(); ++c) {
    const double affinity =
        clusters_.AffinityOf(row, mean, static_cast<std::uint32_t>(c));
    if (affinity > best_affinity) {
      best_affinity = affinity;
      best_cluster = static_cast<std::uint32_t>(c);
    }
  }

  std::vector<std::uint32_t> assignments(clusters_.assignments().begin(),
                                         clusters_.assignments().end());
  assignments.push_back(best_cluster);
  clusters_ = cluster::ClusterModel::Build(train_, assignments,
                                           clusters_.num_clusters(),
                                           config_.parallel,
                                           config_.deviation_shrinkage);

  // Refresh the GIS rows of every item the newcomer rated.
  std::vector<matrix::ItemId> touched;
  touched.reserve(ratings.size());
  for (const auto& [item, value] : ratings) {
    (void)value;
    touched.push_back(item);
  }
  gis_.RefreshItems(train_, touched);

  {
    util::MutexLock lock(&cache_mutex_);
    cache_.assign(train_.num_users(), nullptr);
  }
  return new_user;
}

std::size_t CfsfModel::CacheSize() const {
  util::MutexLock lock(&cache_mutex_);
  std::size_t alive = 0;
  for (const auto& entry : cache_) {
    if (entry) ++alive;
  }
  return alive;
}

void CfsfModel::ClearCache() const {
  util::MutexLock lock(&cache_mutex_);
  for (auto& entry : cache_) entry = nullptr;
}

}  // namespace cfsf::core
