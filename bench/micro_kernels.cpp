// Micro-benchmarks (google-benchmark) for the hot kernels: pairwise
// similarities, GIS construction, K-means steps, smoothing, user
// selection, single online predictions and top-N.  `large` variants run
// at the service benchmark's 4000x2000 scale; BM_SelectTopKUsersByUsers
// sweeps the user count.
#include <benchmark/benchmark.h>

#include <map>
#include <memory>

#include "clustering/kmeans.hpp"
#include "clustering/smoothing.hpp"
#include "core/cfsf.hpp"
#include "data/synthetic.hpp"
#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "similarity/item_similarity.hpp"
#include "similarity/kernels.hpp"
#include "similarity/user_similarity.hpp"
#include "util/logging.hpp"

namespace {

using namespace cfsf;

const matrix::RatingMatrix& World() {
  static const matrix::RatingMatrix m = [] {
    util::SetLogLevel(util::LogLevel::kWarn);
    data::SyntheticConfig config;  // the full 500x1000 paper-scale matrix
    return data::GenerateSynthetic(config);
  }();
  return m;
}

// The service benchmark's larger scale (perfbench read_zipf: 4000x2000).
const matrix::RatingMatrix& LargeWorld() {
  static const matrix::RatingMatrix m = [] {
    util::SetLogLevel(util::LogLevel::kWarn);
    data::SyntheticConfig config;
    config.num_users = 4000;
    config.num_items = 2000;
    return data::GenerateSynthetic(config);
  }();
  return m;
}

void BM_PearsonSparseUsers(benchmark::State& state) {
  const auto& m = World();
  matrix::UserId a = 0;
  matrix::UserId b = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::PearsonSparse(
        m.UserRow(a), m.UserRow(b), m.UserMean(a), m.UserMean(b)));
    b = static_cast<matrix::UserId>((b + 1) % m.num_users());
    if (b == a) b = static_cast<matrix::UserId>(b + 1);
  }
}
BENCHMARK(BM_PearsonSparseUsers);

void BM_PearsonSparseItems(benchmark::State& state) {
  const auto& m = World();
  matrix::ItemId a = 0;
  matrix::ItemId b = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::PearsonSparse(
        m.ItemCol(a), m.ItemCol(b), m.ItemMean(a), m.ItemMean(b)));
    b = static_cast<matrix::ItemId>((b + 1) % m.num_items());
    if (b == a) b = static_cast<matrix::ItemId>(b + 1);
  }
}
BENCHMARK(BM_PearsonSparseItems);

void BM_GisBuild(benchmark::State& state) {
  const auto& m = state.range(1) != 0 ? LargeWorld() : World();
  sim::GisConfig config;
  config.parallel = state.range(0) != 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::GlobalItemSimilarity::Build(m, config));
  }
}
BENCHMARK(BM_GisBuild)
    ->ArgNames({"parallel", "large"})
    ->ArgsProduct({{0, 1}, {0, 1}})
    ->Unit(benchmark::kMillisecond);

void BM_GisRefreshOneItem(benchmark::State& state) {
  const auto& m = state.range(0) != 0 ? LargeWorld() : World();
  auto gis = sim::GlobalItemSimilarity::Build(m);
  const matrix::ItemId touched[] = {42};
  for (auto _ : state) {
    gis.RefreshItems(m, touched);
  }
}
BENCHMARK(BM_GisRefreshOneItem)
    ->ArgName("large")
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

void BM_UserSimilarityBuild(benchmark::State& state) {
  const auto& m = World();
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::UserSimilarityMatrix::Build(m));
  }
}
BENCHMARK(BM_UserSimilarityBuild)->Unit(benchmark::kMillisecond);

void BM_KMeans(benchmark::State& state) {
  const auto& m = state.range(1) != 0 ? LargeWorld() : World();
  cluster::KMeansConfig config;
  config.num_clusters = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(cluster::RunKMeans(m, config));
  }
}
BENCHMARK(BM_KMeans)
    ->ArgNames({"clusters", "large"})
    ->Args({10, 0})
    ->Args({30, 0})
    ->Args({100, 0})
    ->Args({30, 1})
    ->Unit(benchmark::kMillisecond);

void BM_SmoothingBuild(benchmark::State& state) {
  const auto& m = state.range(0) != 0 ? LargeWorld() : World();
  cluster::KMeansConfig config;
  config.num_clusters = 30;
  const auto kmeans = cluster::RunKMeans(m, config);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        cluster::ClusterModel::Build(m, kmeans.assignments, 30));
  }
}
BENCHMARK(BM_SmoothingBuild)
    ->ArgName("large")
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

// Default-config models fitted once per scale (`large` selects LargeWorld).
const core::CfsfModel& FittedModel(bool large = false) {
  static const core::CfsfModel& paper = []() -> const core::CfsfModel& {
    static core::CfsfModel m;
    m.Fit(World());
    return m;
  }();
  if (!large) return paper;
  static const core::CfsfModel& big = []() -> const core::CfsfModel& {
    static core::CfsfModel m;
    m.Fit(LargeWorld());
    return m;
  }();
  return big;
}

void BM_SelectTopKUsers(benchmark::State& state) {
  const auto& model = FittedModel(state.range(0) != 0);
  matrix::UserId user = 0;
  for (auto _ : state) {
    model.ClearCache();
    benchmark::DoNotOptimize(model.SelectTopKUsers(user));
    user = static_cast<matrix::UserId>((user + 1) % model.train().num_users());
  }
}
BENCHMARK(BM_SelectTopKUsers)->ArgName("large")->Arg(0)->Arg(1);

// Cold selection as the user count P grows at a fixed 2000 items.  The
// Section IV-E2 pool takes whole clusters up to a fixed target, so it
// grows with P only through the cluster size; the time should follow the
// pool (counter `pool`, its mean size), not P.
void BM_SelectTopKUsersByUsers(benchmark::State& state) {
  static std::map<std::int64_t, std::unique_ptr<core::CfsfModel>> models;
  auto& model = models[state.range(0)];
  if (!model) {
    util::SetLogLevel(util::LogLevel::kWarn);
    data::SyntheticConfig config;
    config.num_users = static_cast<std::size_t>(state.range(0));
    config.num_items = 2000;
    model = std::make_unique<core::CfsfModel>();
    model->Fit(data::GenerateSynthetic(config));
  }
  const auto& pool = obs::MetricsRegistry::Global().GetHistogram(
      obs::names::kCfsfTopkPoolSize, obs::SizeBuckets());
  const double sum_before = pool.Sum();
  const auto count_before = pool.Count();
  matrix::UserId user = 0;
  for (auto _ : state) {
    model->ClearCache();
    benchmark::DoNotOptimize(model->SelectTopKUsers(user));
    user = static_cast<matrix::UserId>((user + 1) % model->train().num_users());
  }
  const auto selections = pool.Count() - count_before;
  state.counters["pool"] =
      selections > 0 ? (pool.Sum() - sum_before) / static_cast<double>(selections)
                     : 0.0;
}
BENCHMARK(BM_SelectTopKUsersByUsers)
    ->ArgName("users")
    ->Arg(1000)
    ->Arg(4000)
    ->Arg(16000);

void BM_PredictColdCache(benchmark::State& state) {
  const auto& model = FittedModel();
  matrix::UserId user = 0;
  for (auto _ : state) {
    model.ClearCache();
    benchmark::DoNotOptimize(model.Predict(user, 13));
    user = static_cast<matrix::UserId>((user + 1) % model.train().num_users());
  }
}
BENCHMARK(BM_PredictColdCache);

void BM_PredictWarmCache(benchmark::State& state) {
  const auto& model = FittedModel(state.range(0) != 0);
  model.Predict(7, 13);  // warm the cache for user 7
  matrix::ItemId item = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.Predict(7, item));
    item = static_cast<matrix::ItemId>((item + 1) % model.train().num_items());
  }
}
BENCHMARK(BM_PredictWarmCache)->ArgName("large")->Arg(0)->Arg(1);

// Top-20 over the whole catalogue for one user with a warm top-K cache.
void BM_RecommendTopN(benchmark::State& state) {
  const auto& model = FittedModel(state.range(0) != 0);
  model.Predict(7, 13);  // warm the cache for user 7
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.RecommendTopN(7, 20));
  }
}
BENCHMARK(BM_RecommendTopN)
    ->ArgName("large")
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

void BM_OfflinePhase(benchmark::State& state) {
  const auto& m = World();
  for (auto _ : state) {
    core::CfsfModel model;
    model.Fit(m);
    benchmark::DoNotOptimize(model);
  }
}
BENCHMARK(BM_OfflinePhase)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
