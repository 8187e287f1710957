// Property-based tests (parameterised gtest sweeps) on the library's
// invariants: similarity bounds and symmetries, clustering partitions,
// protocol accounting, fusion convexity, and incremental-update
// consistency — each checked across a grid of seeds/parameters.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>

#include "clustering/kmeans.hpp"
#include "clustering/smoothing.hpp"
#include "core/cfsf.hpp"
#include "data/movielens.hpp"
#include "data/protocol.hpp"
#include "data/synthetic.hpp"
#include "similarity/item_similarity.hpp"
#include "similarity/kernels.hpp"
#include "similarity/user_similarity.hpp"
#include "util/rng.hpp"
#include "util/string_utils.hpp"

namespace cfsf {
namespace {

matrix::RatingMatrix World(std::uint64_t seed, std::size_t users = 50,
                           std::size_t items = 60) {
  data::SyntheticConfig config;
  config.num_users = users;
  config.num_items = items;
  config.min_ratings_per_user = 10;
  config.log_mean = 3.0;
  config.seed = seed;
  return data::GenerateSynthetic(config);
}

// ------------------------------------------------- similarity invariants ----

class SimilarityProperties : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SimilarityProperties, PearsonBoundedAndSymmetric) {
  const auto m = World(GetParam());
  for (matrix::UserId a = 0; a < 12; ++a) {
    for (matrix::UserId b = static_cast<matrix::UserId>(a + 1); b < 12; ++b) {
      const auto ab = sim::PearsonSparse(m.UserRow(a), m.UserRow(b),
                                         m.UserMean(a), m.UserMean(b));
      const auto ba = sim::PearsonSparse(m.UserRow(b), m.UserRow(a),
                                         m.UserMean(b), m.UserMean(a));
      EXPECT_NEAR(ab.value, ba.value, 1e-12);
      EXPECT_EQ(ab.overlap, ba.overlap);
      EXPECT_GE(ab.value, -1.0 - 1e-9);
      EXPECT_LE(ab.value, 1.0 + 1e-9);
    }
  }
}

TEST_P(SimilarityProperties, SelfSimilarityIsOne) {
  const auto m = World(GetParam());
  for (matrix::UserId u = 0; u < 10; ++u) {
    if (m.UserRow(u).size() < 2) continue;
    const auto r = sim::PearsonSparse(m.UserRow(u), m.UserRow(u),
                                      m.UserMean(u), m.UserMean(u));
    if (r.value != 0.0) {  // zero variance rows legitimately give 0
      EXPECT_NEAR(r.value, 1.0, 1e-9);
    }
  }
}

TEST_P(SimilarityProperties, CosineBounded) {
  const auto m = World(GetParam());
  for (matrix::ItemId a = 0; a < 10; ++a) {
    for (matrix::ItemId b = 0; b < 10; ++b) {
      const auto r = sim::CosineSparse(m.ItemCol(a), m.ItemCol(b));
      EXPECT_GE(r.value, -1.0 - 1e-9);
      EXPECT_LE(r.value, 1.0 + 1e-9);
    }
  }
}

TEST_P(SimilarityProperties, GisEntriesMatchDirectKernel) {
  const auto m = World(GetParam());
  const auto gis = sim::GlobalItemSimilarity::Build(m);
  for (matrix::ItemId i = 0; i < 10; ++i) {
    for (const auto& n : gis.Neighbors(i)) {
      const auto direct = sim::PearsonSparse(
          m.ItemCol(i), m.ItemCol(n.index), m.ItemMean(i), m.ItemMean(n.index));
      EXPECT_NEAR(n.similarity, direct.value, 1e-5);
      EXPECT_GE(direct.overlap, gis.config().min_overlap);
    }
  }
}

TEST_P(SimilarityProperties, SmoothingAwarePccBounded) {
  const auto m = World(GetParam());
  cluster::KMeansConfig kconfig;
  kconfig.num_clusters = 5;
  const auto kmeans = cluster::RunKMeans(m, kconfig);
  const auto model = cluster::ClusterModel::Build(m, kmeans.assignments, 5);
  for (matrix::UserId a = 0; a < 8; ++a) {
    for (matrix::UserId b = 0; b < 8; ++b) {
      if (a == b) continue;
      for (const double eps : {0.0, 0.35, 1.0}) {
        const double s = sim::SmoothingAwarePcc(
            m.UserRow(a), m.UserMean(a), m.UserRow(b),
            model.DeviationRow(model.ClusterOf(b)), model.UserMean(b), eps);
        EXPECT_GE(s, -1.0 - 1e-9);
        EXPECT_LE(s, 1.0 + 1e-9);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimilarityProperties,
                         ::testing::Values(1u, 7u, 42u, 1234u, 99999u));

// ------------------------------------------------- clustering invariants ----

class ClusteringProperties
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::uint64_t>> {};

TEST_P(ClusteringProperties, PartitionIsValid) {
  const auto [clusters, seed] = GetParam();
  const auto m = World(seed);
  cluster::KMeansConfig config;
  config.num_clusters = clusters;
  config.seed = seed;
  const auto result = cluster::RunKMeans(m, config);
  ASSERT_EQ(result.assignments.size(), m.num_users());
  std::size_t total = 0;
  for (const auto s : result.cluster_sizes) total += s;
  EXPECT_EQ(total, m.num_users());
  for (const auto a : result.assignments) EXPECT_LT(a, clusters);
}

TEST_P(ClusteringProperties, SmoothedMatrixPreservesOriginals) {
  const auto [clusters, seed] = GetParam();
  const auto m = World(seed);
  cluster::KMeansConfig config;
  config.num_clusters = clusters;
  config.seed = seed;
  const auto kmeans = cluster::RunKMeans(m, config);
  const auto model = cluster::ClusterModel::Build(m, kmeans.assignments, clusters);
  for (std::size_t u = 0; u < m.num_users(); ++u) {
    const auto user = static_cast<matrix::UserId>(u);
    const auto row = m.UserRow(user);
    for (const auto& e : row) {
      const auto cell = model.SmoothedCell(user, row, e.index);
      EXPECT_TRUE(cell.original);
      EXPECT_DOUBLE_EQ(cell.value, e.value);
    }
  }
}

TEST_P(ClusteringProperties, IClusterIsAPermutationOfClusters) {
  const auto [clusters, seed] = GetParam();
  const auto m = World(seed);
  cluster::KMeansConfig config;
  config.num_clusters = clusters;
  config.seed = seed;
  const auto kmeans = cluster::RunKMeans(m, config);
  const auto model = cluster::ClusterModel::Build(m, kmeans.assignments, clusters);
  for (std::size_t u = 0; u < m.num_users(); ++u) {
    const auto ic = model.IClusterOf(static_cast<matrix::UserId>(u));
    ASSERT_EQ(ic.size(), clusters);
    std::set<std::uint32_t> seen;
    for (const auto& a : ic) seen.insert(a.cluster);
    EXPECT_EQ(seen.size(), clusters);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ClusteringProperties,
    ::testing::Combine(::testing::Values<std::size_t>(2, 5, 10),
                       ::testing::Values<std::uint64_t>(3, 17)));

// --------------------------------------------------- protocol invariants ----

class ProtocolProperties
    : public ::testing::TestWithParam<std::tuple<std::size_t, double>> {};

TEST_P(ProtocolProperties, RatingConservation) {
  const auto [given, fraction] = GetParam();
  const auto base = World(11, 60, 80);
  data::ProtocolConfig config;
  config.num_train_users = 35;
  config.num_test_users = 25;
  config.given_n = given;
  config.test_fraction = fraction;
  const auto split = data::MakeGivenNSplit(base, config);

  // No test rating appears in train; every test rating is real.
  for (const auto& t : split.test) {
    EXPECT_FALSE(split.train.HasRating(t.user, t.item));
  }
  // Revealed counts never exceed given_n.
  for (std::size_t k = 0; k < 25; ++k) {
    EXPECT_LE(split.train.UserRatingCount(static_cast<matrix::UserId>(35 + k)),
              given);
  }
  // Active users are a subset of the fraction's participant count (users
  // whose whole row fits inside given_n contribute no test cases and are
  // not listed), and each active user owns at least one test case.
  const auto participants = static_cast<std::size_t>(25 * fraction + 0.5);
  EXPECT_LE(split.active_users.size(), participants);
  std::set<matrix::UserId> with_tests;
  for (const auto& t : split.test) with_tests.insert(t.user);
  EXPECT_EQ(with_tests.size(), split.active_users.size());
  for (const auto u : split.active_users) EXPECT_TRUE(with_tests.contains(u));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ProtocolProperties,
    ::testing::Combine(::testing::Values<std::size_t>(5, 10, 20),
                       ::testing::Values(0.2, 0.5, 1.0)));

// ------------------------------------------------------ fusion convexity ----

class FusionProperties
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(FusionProperties, FusedValueInsideComponentHull) {
  const auto [lambda, delta] = GetParam();
  const auto m = World(5, 60, 80);
  data::ProtocolConfig pconfig;
  pconfig.num_train_users = 40;
  pconfig.num_test_users = 20;
  pconfig.given_n = 10;
  const auto split = data::MakeGivenNSplit(m, pconfig);

  core::CfsfConfig config;
  config.num_clusters = 6;
  config.top_m_items = 20;
  config.top_k_users = 8;
  config.lambda = lambda;
  config.delta = delta;
  core::CfsfModel model(config);
  model.Fit(split.train);

  // The hull only spans components that carry positive Eq. 14 weight:
  // a zero-weight component never influences the fused value.
  const double w_sir = (1.0 - delta) * (1.0 - lambda);
  const double w_sur = (1.0 - delta) * lambda;
  const double w_suir = delta;
  for (std::size_t k = 0; k < 40 && k < split.test.size(); ++k) {
    const auto parts =
        model.PredictDetailed(split.test[k].user, split.test[k].item);
    double lo = 1e300;
    double hi = -1e300;
    auto consider = [&](const std::optional<double>& c, double w) {
      if (c && w > 0.0) {
        lo = std::min(lo, *c);
        hi = std::max(hi, *c);
      }
    };
    consider(parts.sir, w_sir);
    consider(parts.sur, w_sur);
    consider(parts.suir, w_suir);
    if (lo > hi) continue;  // no weighted components → mean fallback
    EXPECT_GE(parts.fused, lo - 1e-9);
    EXPECT_LE(parts.fused, hi + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, FusionProperties,
    ::testing::Combine(::testing::Values(0.0, 0.3, 0.8, 1.0),
                       ::testing::Values(0.0, 0.1, 0.5, 1.0)));

// ----------------------------------------- incremental update invariants ----

class IncrementalProperties : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IncrementalProperties, RefreshAgreesWithRebuildAfterRandomEdits) {
  const auto seed = GetParam();
  const auto m = World(seed, 40, 50);
  auto gis = sim::GlobalItemSimilarity::Build(m);
  util::Rng rng(seed * 31 + 1);

  auto current = m;
  for (int edit = 0; edit < 3; ++edit) {
    const auto user =
        static_cast<matrix::UserId>(rng.NextBounded(current.num_users()));
    const auto item =
        static_cast<matrix::ItemId>(rng.NextBounded(current.num_items()));
    const auto value = static_cast<matrix::Rating>(1 + rng.NextBounded(5));
    current = current.WithRating(user, item, value);
    const matrix::ItemId touched[] = {item};
    gis.RefreshItems(current, touched);
  }
  const auto rebuilt = sim::GlobalItemSimilarity::Build(current);
  ASSERT_EQ(gis.num_items(), rebuilt.num_items());
  for (std::size_t i = 0; i < gis.num_items(); ++i) {
    const auto a = gis.Neighbors(static_cast<matrix::ItemId>(i));
    const auto b = rebuilt.Neighbors(static_cast<matrix::ItemId>(i));
    ASSERT_EQ(a.size(), b.size()) << "item " << i << " seed " << seed;
    for (std::size_t k = 0; k < a.size(); ++k) {
      EXPECT_EQ(a[k].index, b[k].index);
      EXPECT_EQ(a[k].similarity, b[k].similarity);  // bit for bit
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalProperties,
                         ::testing::Values(2u, 13u, 77u, 1001u));

// ------------------------------------------------------- CFSF end-to-end ----

class CfsfProperties : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CfsfProperties, PredictionsFiniteAndDeterministic) {
  const auto seed = GetParam();
  const auto m = World(seed, 60, 80);
  data::ProtocolConfig pconfig;
  pconfig.num_train_users = 40;
  pconfig.num_test_users = 20;
  pconfig.given_n = 8;
  const auto split = data::MakeGivenNSplit(m, pconfig);

  core::CfsfConfig config;
  config.num_clusters = 6;
  config.top_m_items = 25;
  config.top_k_users = 8;
  core::CfsfModel a(config);
  a.Fit(split.train);
  core::CfsfModel b(config);
  b.Fit(split.train);
  for (const auto& t : split.test) {
    const double va = a.Predict(t.user, t.item);
    EXPECT_TRUE(std::isfinite(va));
    EXPECT_DOUBLE_EQ(va, b.Predict(t.user, t.item));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CfsfProperties,
                         ::testing::Values(4u, 21u, 333u));

// --------------------------------------------------- parser robustness ----

class ParserFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ParserFuzz, GarbageNeverCrashesOnlyThrows) {
  // Random byte soup (printable-biased) must either parse or throw
  // IoError — never crash, never return a malformed matrix.
  util::Rng rng(GetParam());
  for (int round = 0; round < 50; ++round) {
    std::string content;
    const std::size_t len = rng.NextBounded(200);
    for (std::size_t i = 0; i < len; ++i) {
      const char pool[] = "0123456789\t\n .:-abcXYZ#";
      content += pool[rng.NextBounded(sizeof(pool) - 1)];
    }
    try {
      const auto ml = data::ParseUData(content);
      // If it parsed, the matrix must be internally consistent.
      EXPECT_EQ(ml.user_ids.size(), ml.matrix.num_users());
      EXPECT_EQ(ml.item_ids.size(), ml.matrix.num_items());
      for (std::size_t u = 0; u < ml.matrix.num_users(); ++u) {
        for (const auto& e : ml.matrix.UserRow(static_cast<matrix::UserId>(u))) {
          EXPECT_LT(e.index, ml.matrix.num_items());
        }
      }
    } catch (const util::IoError&) {
      // Expected for malformed input.
    }
  }
}

TEST_P(ParserFuzz, StructuredLinesWithRandomValuesRoundTrip) {
  // Well-formed lines with arbitrary ids/ratings must always load and
  // reproduce every value.
  util::Rng rng(GetParam() * 7 + 1);
  std::string content;
  std::map<std::pair<std::uint64_t, std::uint64_t>, double> expected;
  for (int i = 0; i < 60; ++i) {
    const std::uint64_t user = rng.NextBounded(1000);
    const std::uint64_t item = rng.NextBounded(1000);
    const double rating = 1.0 + static_cast<double>(rng.NextBounded(9)) * 0.5;
    expected[{user, item}] = rating;  // duplicates: last occurrence wins
    content += std::to_string(user) + "\t" + std::to_string(item) + "\t" +
               util::FormatFixed(rating, 1) + "\n";
  }
  const auto ml = data::ParseUData(content);
  EXPECT_EQ(ml.matrix.num_ratings(), expected.size());
  for (std::size_t u = 0; u < ml.matrix.num_users(); ++u) {
    for (const auto& e : ml.matrix.UserRow(static_cast<matrix::UserId>(u))) {
      const auto key = std::make_pair(ml.user_ids[u], ml.item_ids[e.index]);
      ASSERT_TRUE(expected.contains(key));
      EXPECT_NEAR(e.value, expected[key], 1e-6);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserFuzz,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

}  // namespace
}  // namespace cfsf
