// Unit tests for cfsf::cluster — K-means under PCC and the smoothing /
// iCluster model (Eqs. 6–9).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "clustering/kmeans.hpp"
#include "clustering/smoothing.hpp"
#include "data/synthetic.hpp"
#include "similarity/kernels.hpp"
#include "util/error.hpp"

namespace cfsf::cluster {
namespace {

matrix::RatingMatrix TwoCampMatrix() {
  // Two obvious taste camps over 6 items: camp A loves items 0-2, camp B
  // loves items 3-5.
  matrix::RatingMatrixBuilder b(8, 6);
  for (matrix::UserId u = 0; u < 4; ++u) {
    b.Add(u, 0, 5); b.Add(u, 1, 4); b.Add(u, 2, 5);
    b.Add(u, 3, 1); b.Add(u, 4, 2); b.Add(u, 5, 1);
  }
  for (matrix::UserId u = 4; u < 8; ++u) {
    b.Add(u, 0, 1); b.Add(u, 1, 2); b.Add(u, 2, 1);
    b.Add(u, 3, 5); b.Add(u, 4, 4); b.Add(u, 5, 5);
  }
  return b.Build();
}

// -------------------------------------------------------------- kmeans ----

TEST(KMeans, SeparatesObviousCamps) {
  const auto m = TwoCampMatrix();
  KMeansConfig config;
  config.num_clusters = 2;
  const auto result = RunKMeans(m, config);
  ASSERT_EQ(result.assignments.size(), 8u);
  // All of camp A share a cluster, all of camp B the other.
  for (std::size_t u = 1; u < 4; ++u) {
    EXPECT_EQ(result.assignments[u], result.assignments[0]);
  }
  for (std::size_t u = 5; u < 8; ++u) {
    EXPECT_EQ(result.assignments[u], result.assignments[4]);
  }
  EXPECT_NE(result.assignments[0], result.assignments[4]);
}

TEST(KMeans, DeterministicPerSeed) {
  data::SyntheticConfig dconfig;
  dconfig.num_users = 60;
  dconfig.num_items = 80;
  dconfig.min_ratings_per_user = 10;
  dconfig.log_mean = 3.0;
  const auto m = data::GenerateSynthetic(dconfig);
  KMeansConfig config;
  config.num_clusters = 5;
  const auto a = RunKMeans(m, config);
  const auto b = RunKMeans(m, config);
  EXPECT_EQ(a.assignments, b.assignments);
  EXPECT_EQ(a.iterations, b.iterations);
}

TEST(KMeans, ParallelMatchesSerial) {
  data::SyntheticConfig dconfig;
  dconfig.num_users = 40;
  dconfig.num_items = 50;
  dconfig.min_ratings_per_user = 8;
  dconfig.log_mean = 2.8;
  const auto m = data::GenerateSynthetic(dconfig);
  KMeansConfig config;
  config.num_clusters = 4;
  config.parallel = false;
  const auto serial = RunKMeans(m, config);
  config.parallel = true;
  const auto parallel = RunKMeans(m, config);
  EXPECT_EQ(serial.assignments, parallel.assignments);
}

TEST(KMeans, ClusterSizesSumToUsers) {
  data::SyntheticConfig dconfig;
  dconfig.num_users = 50;
  dconfig.num_items = 40;
  dconfig.min_ratings_per_user = 8;
  dconfig.log_mean = 2.8;
  const auto m = data::GenerateSynthetic(dconfig);
  KMeansConfig config;
  config.num_clusters = 7;
  const auto result = RunKMeans(m, config);
  std::size_t total = 0;
  for (const auto s : result.cluster_sizes) total += s;
  EXPECT_EQ(total, m.num_users());
  // No empty clusters after repair on this data.
  for (const auto s : result.cluster_sizes) EXPECT_GT(s, 0u);
}

TEST(KMeans, AssignmentsAreLocallyOptimal) {
  const auto m = TwoCampMatrix();
  KMeansConfig config;
  config.num_clusters = 2;
  const auto result = RunKMeans(m, config);
  for (std::size_t u = 0; u < m.num_users(); ++u) {
    const double own = UserCentroidPcc(
        m, static_cast<matrix::UserId>(u),
        result.centroids.Row(result.assignments[u]),
        result.centroid_means[result.assignments[u]]);
    for (std::size_t c = 0; c < config.num_clusters; ++c) {
      const double other =
          UserCentroidPcc(m, static_cast<matrix::UserId>(u),
                          result.centroids.Row(c), result.centroid_means[c]);
      EXPECT_GE(own + 1e-9, other);
    }
  }
}

TEST(KMeans, SingleClusterTakesEverybody) {
  const auto m = TwoCampMatrix();
  KMeansConfig config;
  config.num_clusters = 1;
  const auto result = RunKMeans(m, config);
  for (const auto a : result.assignments) EXPECT_EQ(a, 0u);
  EXPECT_EQ(result.cluster_sizes[0], 8u);
}

TEST(KMeans, RejectsInvalidConfigs) {
  const auto m = TwoCampMatrix();
  KMeansConfig config;
  config.num_clusters = 0;
  EXPECT_THROW(RunKMeans(m, config), util::ConfigError);
  config.num_clusters = 9;  // more clusters than the 8 users
  EXPECT_THROW(RunKMeans(m, config), util::ConfigError);
}

TEST(KMeans, CentroidCellsAreClusterMeans) {
  const auto m = TwoCampMatrix();
  KMeansConfig config;
  config.num_clusters = 2;
  const auto result = RunKMeans(m, config);
  const auto camp_a = result.assignments[0];
  // Item 0 mean within camp A is exactly 5.
  EXPECT_NEAR(result.centroids(camp_a, 0), 5.0, 1e-12);
  EXPECT_NEAR(result.centroids(camp_a, 3), 1.0, 1e-12);
}

TEST(KMeans, OnePassKernelEqualsUserCentroidPccBitForBit) {
  data::SyntheticConfig dconfig;
  dconfig.num_users = 120;
  dconfig.num_items = 80;
  dconfig.min_ratings_per_user = 8;
  dconfig.log_mean = 2.8;
  const auto m = data::GenerateSynthetic(dconfig);
  KMeansConfig config;
  config.num_clusters = 7;
  const auto result = RunKMeans(m, config);
  // The run's centroids plus a constant one, whose zero spread takes the
  // kernel's denom == 0 branch.
  const std::size_t num_c = config.num_clusters + 1;
  matrix::DenseMatrix by_item(m.num_items(), num_c, 3.0);
  std::vector<double> means(result.centroid_means);
  means.push_back(3.0);
  for (std::size_t i = 0; i < m.num_items(); ++i) {
    for (std::size_t c = 0; c + 1 < num_c; ++c) {
      by_item(i, c) = result.centroids(c, i);
    }
  }
  std::vector<double> similarity(num_c);
  std::vector<double> scratch(num_c);
  for (matrix::UserId u = 0; u < m.num_users(); ++u) {
    UserCentroidPccs(m, u, by_item, means, similarity, scratch);
    for (std::size_t c = 0; c < num_c; ++c) {
      std::vector<double> centroid(m.num_items());
      for (std::size_t i = 0; i < m.num_items(); ++i) centroid[i] = by_item(i, c);
      EXPECT_EQ(similarity[c], UserCentroidPcc(m, u, centroid, means[c]))
          << "user " << u << " cluster " << c;
    }
  }
}

// ------------------------------------------------------- cluster model ----

ClusterModel TwoCampModel(const matrix::RatingMatrix& m) {
  KMeansConfig config;
  config.num_clusters = 2;
  const auto result = RunKMeans(m, config);
  return ClusterModel::Build(m, result.assignments, 2);
}

TEST(ClusterModel, Eq8DeviationsByHand) {
  // Hand-checkable: 2 users in one cluster.
  //        i0 i1
  // u0      5  1   (mean 3)
  // u1      4  2   (mean 3)
  matrix::RatingMatrixBuilder b(2, 2);
  b.Add(0, 0, 5); b.Add(0, 1, 1);
  b.Add(1, 0, 4); b.Add(1, 1, 2);
  const auto m = b.Build();
  const std::vector<std::uint32_t> assignments{0, 0};
  const auto model = ClusterModel::Build(m, assignments, 1);
  // Δ(C0, i0) = ((5-3)+(4-3))/2 = 1.5 ; Δ(C0, i1) = -1.5.
  EXPECT_NEAR(model.ClusterDeviation(0, 0), 1.5, 1e-12);
  EXPECT_NEAR(model.ClusterDeviation(0, 1), -1.5, 1e-12);
  EXPECT_TRUE(model.ClusterHasRating(0, 0));
}

TEST(ClusterModel, Eq7SmoothedCells) {
  //        i0 i1 i2
  // u0      5  -  1   (mean 3)    cluster 0
  // u1      4  2  -   (mean 3)    cluster 0
  matrix::RatingMatrixBuilder b(2, 3);
  b.Add(0, 0, 5); b.Add(0, 2, 1);
  b.Add(1, 0, 4); b.Add(1, 1, 2);
  const auto m = b.Build();
  const std::vector<std::uint32_t> assignments{0, 0};
  const auto model = ClusterModel::Build(m, assignments, 1);
  // Original cells pass through.
  EXPECT_DOUBLE_EQ(model.SmoothedCell(0, m.UserRow(0), 0).value, 5.0);
  // u0 unrated i1: r̄_u0 + Δ(C0, i1) = 3 + (2-3)/1 = 2.
  EXPECT_NEAR(model.SmoothedCell(0, m.UserRow(0), 1).value, 2.0, 1e-12);
  // u1 unrated i2: 3 + (1-3)/1 = 1.
  EXPECT_NEAR(model.SmoothedCell(1, m.UserRow(1), 2).value, 1.0, 1e-12);
  // The provenance bit is row membership.
  EXPECT_TRUE(model.SmoothedCell(0, m.UserRow(0), 0).original);
  EXPECT_FALSE(model.SmoothedCell(0, m.UserRow(0), 1).original);
  // The deviation row is Δ(C0, ·).
  const auto deviations = model.DeviationRow(0);
  ASSERT_EQ(deviations.size(), 3u);
  EXPECT_NEAR(deviations[1], -1.0, 1e-12);
}

TEST(ClusterModel, FallbackToGlobalDeviation) {
  // Item 1 is rated only by cluster 1; cluster 0's deviation for it must
  // fall back to the global item deviation, and ClusterHasRating is false.
  matrix::RatingMatrixBuilder b(2, 2);
  b.Add(0, 0, 5);               // user 0 (cluster 0)
  b.Add(1, 0, 1); b.Add(1, 1, 4);  // user 1 (cluster 1), mean 2.5
  const auto m = b.Build();
  const std::vector<std::uint32_t> assignments{0, 1};
  const auto model = ClusterModel::Build(m, assignments, 2);
  EXPECT_FALSE(model.ClusterHasRating(0, 1));
  // Global deviation of i1: (4 - 2.5)/1 = 1.5.
  EXPECT_NEAR(model.ClusterDeviation(0, 1), 1.5, 1e-12);
}

TEST(ClusterModel, EntirelyUnratedItemDeviatesZero) {
  matrix::RatingMatrixBuilder b(2, 2);
  b.Add(0, 0, 5);
  b.Add(1, 0, 1);
  const auto m = b.Build();
  const std::vector<std::uint32_t> assignments{0, 0};
  const auto model = ClusterModel::Build(m, assignments, 1);
  EXPECT_DOUBLE_EQ(model.ClusterDeviation(0, 1), 0.0);
  // Smoothed value = user mean + 0.
  EXPECT_DOUBLE_EQ(model.SmoothedCell(0, m.UserRow(0), 1).value, m.UserMean(0));
}

TEST(ClusterModel, DeviationShrinkagePullsTowardGlobal) {
  matrix::RatingMatrixBuilder b(3, 1);
  b.Add(0, 0, 5);  // cluster 0; user mean 5 → dev 0 (single rating)
  b.Add(1, 0, 1);
  b.Add(2, 0, 3);
  const auto m = b.Build();
  const std::vector<std::uint32_t> assignments{0, 1, 1};
  const auto raw = ClusterModel::Build(m, assignments, 2, true, 0.0);
  const auto shrunk = ClusterModel::Build(m, assignments, 2, true, 100.0);
  // Heavy shrinkage pushes both clusters to (almost) the global deviation.
  EXPECT_NEAR(shrunk.ClusterDeviation(0, 0), shrunk.ClusterDeviation(1, 0),
              0.05);
  (void)raw;
}

TEST(ClusterModel, IClusterSortedAndComplete) {
  const auto m = TwoCampMatrix();
  const auto model = TwoCampModel(m);
  for (std::size_t u = 0; u < m.num_users(); ++u) {
    const auto ic = model.IClusterOf(static_cast<matrix::UserId>(u));
    ASSERT_EQ(ic.size(), 2u);
    EXPECT_GE(ic[0].similarity, ic[1].similarity);
    std::set<std::uint32_t> clusters{ic[0].cluster, ic[1].cluster};
    EXPECT_EQ(clusters.size(), 2u);
  }
}

TEST(ClusterModel, IClusterPrefersOwnCamp) {
  const auto m = TwoCampMatrix();
  const auto model = TwoCampModel(m);
  for (std::size_t u = 0; u < m.num_users(); ++u) {
    const auto ic = model.IClusterOf(static_cast<matrix::UserId>(u));
    EXPECT_EQ(ic[0].cluster, model.ClusterOf(static_cast<matrix::UserId>(u)))
        << "user " << u << " should be most affine to their own camp";
  }
}

TEST(ClusterModel, AffinityOfExternalProfile) {
  const auto m = TwoCampMatrix();
  const auto model = TwoCampModel(m);
  // A brand-new camp-A-style profile (loves items 0-2).
  const std::vector<matrix::Entry> row{{0, 5.0F}, {1, 5.0F}, {3, 1.0F}};
  const double mean = 11.0 / 3.0;
  const auto camp_a = model.ClusterOf(0);
  const auto camp_b = model.ClusterOf(4);
  EXPECT_GT(model.AffinityOf(row, mean, camp_a),
            model.AffinityOf(row, mean, camp_b));
}

TEST(ClusterModel, SmoothedMatrixCoversEveryCell) {
  data::SyntheticConfig dconfig;
  dconfig.num_users = 40;
  dconfig.num_items = 60;
  dconfig.min_ratings_per_user = 8;
  dconfig.log_mean = 2.8;
  const auto m = data::GenerateSynthetic(dconfig);
  KMeansConfig config;
  config.num_clusters = 4;
  const auto kmeans = RunKMeans(m, config);
  const auto model = ClusterModel::Build(m, kmeans.assignments, 4);
  for (std::size_t u = 0; u < m.num_users(); ++u) {
    const auto user = static_cast<matrix::UserId>(u);
    for (std::size_t i = 0; i < m.num_items(); ++i) {
      const auto cell = model.SmoothedCell(user, m.UserRow(user),
                                           static_cast<matrix::ItemId>(i));
      EXPECT_TRUE(std::isfinite(cell.value));
    }
  }
}

TEST(ClusterModel, OriginalMaskMatchesMatrix) {
  data::SyntheticConfig dconfig;
  dconfig.num_users = 30;
  dconfig.num_items = 40;
  dconfig.min_ratings_per_user = 8;
  dconfig.log_mean = 2.8;
  const auto m = data::GenerateSynthetic(dconfig);
  KMeansConfig config;
  config.num_clusters = 3;
  const auto kmeans = RunKMeans(m, config);
  const auto model = ClusterModel::Build(m, kmeans.assignments, 3);
  for (std::size_t u = 0; u < m.num_users(); ++u) {
    const auto user = static_cast<matrix::UserId>(u);
    std::size_t originals = 0;
    for (std::size_t i = 0; i < m.num_items(); ++i) {
      const auto item = static_cast<matrix::ItemId>(i);
      const auto cell = model.SmoothedCell(user, m.UserRow(user), item);
      EXPECT_EQ(cell.original, m.HasRating(user, item));
      originals += cell.original ? 1 : 0;
    }
    EXPECT_EQ(originals, m.UserRatingCount(user));
  }
}

TEST(ClusterModel, ParallelMatchesSerial) {
  const auto m = TwoCampMatrix();
  const std::vector<std::uint32_t> assignments{0, 0, 0, 0, 1, 1, 1, 1};
  const auto a = ClusterModel::Build(m, assignments, 2, /*parallel=*/true);
  const auto b = ClusterModel::Build(m, assignments, 2, /*parallel=*/false);
  for (std::uint32_t c = 0; c < 2; ++c) {
    const auto da = a.DeviationRow(c);
    const auto db = b.DeviationRow(c);
    for (std::size_t i = 0; i < da.size(); ++i) EXPECT_DOUBLE_EQ(da[i], db[i]);
  }
  for (std::size_t u = 0; u < m.num_users(); ++u) {
    const auto user = static_cast<matrix::UserId>(u);
    EXPECT_EQ(a.UserMean(user), b.UserMean(user));
    const auto ia = a.IClusterOf(user);
    const auto ib = b.IClusterOf(user);
    EXPECT_TRUE(std::equal(ia.begin(), ia.end(), ib.begin(), ib.end()));
  }
}

// Checks PoolSimilarities(active, clusters) entry by entry against the
// clusters' Members lists and the pairwise Eq. 10 kernel, with the active
// user's own entry reading 0.
void ExpectPoolMatchesPairwise(const matrix::RatingMatrix& m,
                               const ClusterModel& model,
                               matrix::UserId active,
                               const std::vector<std::uint32_t>& clusters) {
  for (const double eps : {0.0, 0.35, 1.0}) {
    const auto got = model.PoolSimilarities(m, active, clusters, eps);
    std::size_t s = 0;
    for (const auto c : clusters) {
      for (const auto candidate : model.Members(c)) {
        ASSERT_LT(s, got.size());
        const double want =
            candidate == active
                ? 0.0
                : sim::SmoothingAwarePcc(
                      m.UserRow(active), m.UserMean(active),
                      m.UserRow(candidate), model.DeviationRow(c),
                      model.UserMean(candidate), eps);
        EXPECT_EQ(got[s].user, candidate);
        EXPECT_EQ(got[s].similarity, want) << "active " << active
                                           << " candidate " << candidate
                                           << " eps " << eps;
        ++s;
      }
    }
    EXPECT_EQ(got.size(), s);
  }
}

matrix::RatingMatrix PoolMatrix() {
  data::SyntheticConfig dconfig;
  dconfig.num_users = 50;
  dconfig.num_items = 70;
  dconfig.min_ratings_per_user = 8;
  dconfig.log_mean = 2.8;
  return data::GenerateSynthetic(dconfig);
}

TEST(ClusterModel, PoolSimilaritiesEqualThePairwiseKernel) {
  const auto m = PoolMatrix();
  KMeansConfig config;
  config.num_clusters = 5;
  const auto kmeans = RunKMeans(m, config);
  const auto model = ClusterModel::Build(m, kmeans.assignments, 5);
  for (matrix::UserId active = 0; active < 6; ++active) {
    // The active user inside a pool cluster: their iCluster prefix, with
    // their own cluster added when the prefix misses it.
    std::vector<std::uint32_t> clusters;
    for (const auto& a : model.IClusterOf(active)) {
      if (clusters.size() < 2) clusters.push_back(a.cluster);
    }
    const auto own = model.ClusterOf(active);
    if (std::find(clusters.begin(), clusters.end(), own) == clusters.end()) {
      clusters.push_back(own);
    }
    ExpectPoolMatchesPairwise(m, model, active, clusters);

    // The active user outside every pool cluster.
    std::vector<std::uint32_t> others;
    for (std::uint32_t c = 0; c < 5; ++c) {
      if (c != own) others.push_back(c);
    }
    ExpectPoolMatchesPairwise(m, model, active, others);
  }
  EXPECT_THROW(model.PoolSimilarities(m, 0, std::vector<std::uint32_t>{0}, 1.5),
               util::ConfigError);
}

TEST(ClusterModel, PoolSimilaritiesFullScanCoversEveryUser) {
  const auto m = PoolMatrix();
  KMeansConfig config;
  config.num_clusters = 5;
  const auto kmeans = RunKMeans(m, config);
  const auto model = ClusterModel::Build(m, kmeans.assignments, 5);
  const std::vector<std::uint32_t> all{0, 1, 2, 3, 4};
  for (matrix::UserId active = 0; active < m.num_users(); active += 7) {
    ExpectPoolMatchesPairwise(m, model, active, all);
    EXPECT_EQ(model.PoolSimilarities(m, active, all, 0.35).size(),
              m.num_users());
  }
}

TEST(ClusterModel, PoolSimilaritiesSingletonClusterOfTheActiveUser) {
  const auto m = PoolMatrix();
  // User 9 alone in cluster 2; everyone else split over clusters 0 and 1.
  std::vector<std::uint32_t> assignments(m.num_users());
  for (std::size_t u = 0; u < m.num_users(); ++u) {
    assignments[u] = static_cast<std::uint32_t>(u % 2);
  }
  assignments[9] = 2;
  const auto model = ClusterModel::Build(m, assignments, 3);
  ASSERT_EQ(model.Members(2).size(), 1u);
  const auto alone = model.PoolSimilarities(m, 9, std::vector<std::uint32_t>{2}, 0.35);
  ASSERT_EQ(alone.size(), 1u);
  EXPECT_EQ(alone[0].user, 9u);
  EXPECT_EQ(alone[0].similarity, 0.0);
  ExpectPoolMatchesPairwise(m, model, 9, {2, 0});
  ExpectPoolMatchesPairwise(m, model, 9, {1, 2, 0});
}

TEST(ClusterModel, ValidatesInputs) {
  const auto m = TwoCampMatrix();
  const std::vector<std::uint32_t> bad_size{0, 0};
  EXPECT_THROW(ClusterModel::Build(m, bad_size, 2), util::ConfigError);
  const std::vector<std::uint32_t> bad_cluster{0, 0, 0, 0, 1, 1, 1, 9};
  EXPECT_THROW(ClusterModel::Build(m, bad_cluster, 2), util::ConfigError);
  const std::vector<std::uint32_t> ok(8, 0);
  EXPECT_THROW(ClusterModel::Build(m, ok, 1, true, -1.0), util::ConfigError);
}

}  // namespace
}  // namespace cfsf::cluster
