// Differential oracles for the fold kernel.  Seeded random batches Δ —
// fresh cells, overwrites of trained cells and cells rated more than
// once inside one batch — are folded three ways, which must agree bit
// for bit:
//
//   * RatingMatrix::WithRatings(Δ) against a builder fed ToTriples() + Δ;
//   * CfsfModel::WithRatings(Δ) against Δ applied one InsertRating at a
//     time, and against CfsfModel::Restore on the merged matrix with a
//     GIS rebuilt from it and the same cluster assignments.
//
// Every failure names the seed that produced it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/cfsf.hpp"
#include "data/synthetic.hpp"
#include "matrix/rating_matrix.hpp"
#include "similarity/item_similarity.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace cfsf {
namespace {

constexpr std::size_t kUsers = 40;
constexpr std::size_t kItems = 60;

matrix::RatingMatrix Base(std::uint64_t seed, bool timed) {
  data::SyntheticConfig config;
  config.num_users = kUsers;
  config.num_items = kItems;
  config.min_ratings_per_user = 8;
  config.max_ratings_per_user = 25;
  config.with_timestamps = timed;
  config.seed = seed;
  return data::GenerateSynthetic(config);
}

// A batch of `size` ratings: about a third overwrite trained cells, a
// few repeat an earlier cell of the batch, the rest land anywhere.
// Timestamps are zero half the time when `timed`, always zero otherwise.
std::vector<matrix::RatingTriple> RandomDelta(const matrix::RatingMatrix& base,
                                              util::Rng& rng, std::size_t size,
                                              bool timed) {
  std::vector<matrix::RatingTriple> delta;
  for (std::size_t k = 0; k < size; ++k) {
    matrix::RatingTriple t;
    const std::uint64_t kind = rng.NextBounded(6);
    if (kind < 2) {
      t.user = static_cast<matrix::UserId>(rng.NextBounded(kUsers));
      const auto row = base.UserRow(t.user);
      t.item = row.empty() ? 0 : row[rng.NextBounded(row.size())].index;
    } else if (kind == 2 && !delta.empty()) {
      const matrix::RatingTriple& earlier = delta[rng.NextBounded(delta.size())];
      t.user = earlier.user;
      t.item = earlier.item;
    } else {
      t.user = static_cast<matrix::UserId>(rng.NextBounded(kUsers));
      t.item = static_cast<matrix::ItemId>(rng.NextBounded(kItems));
    }
    t.value = static_cast<matrix::Rating>(1 + rng.NextBounded(9)) * 0.5F;
    t.timestamp = timed && rng.NextBounded(2) == 0
                      ? static_cast<matrix::Timestamp>(1100000000 +
                                                       rng.NextBounded(100000000))
                      : 0;
    delta.push_back(t);
  }
  return delta;
}

void ExpectSameMatrix(const matrix::RatingMatrix& got,
                      const matrix::RatingMatrix& want) {
  ASSERT_EQ(got.num_users(), want.num_users());
  ASSERT_EQ(got.num_items(), want.num_items());
  EXPECT_EQ(got.ToTriples(), want.ToTriples());
  EXPECT_EQ(got.has_timestamps(), want.has_timestamps());
  EXPECT_EQ(got.GlobalMean(), want.GlobalMean());
  for (matrix::UserId u = 0; u < got.num_users(); ++u) {
    EXPECT_EQ(got.UserMean(u), want.UserMean(u)) << "user " << u;
  }
  for (matrix::ItemId i = 0; i < got.num_items(); ++i) {
    EXPECT_EQ(got.ItemMean(i), want.ItemMean(i)) << "item " << i;
    const auto a = got.ItemCol(i);
    const auto b = want.ItemCol(i);
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
        << "column " << i;
  }
  EXPECT_NO_THROW(got.DebugValidate());
}

void ExpectSameModel(const core::CfsfModel& got, const core::CfsfModel& want) {
  ExpectSameMatrix(got.train(), want.train());
  for (matrix::ItemId i = 0; i < got.NumItems(); ++i) {
    const auto a = got.gis().Neighbors(i);
    const auto b = want.gis().Neighbors(i);
    ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
        << "GIS row " << i;
  }
  const auto& ca = got.cluster_model();
  const auto& cb = want.cluster_model();
  ASSERT_EQ(ca.num_clusters(), cb.num_clusters());
  for (std::uint32_t c = 0; c < ca.num_clusters(); ++c) {
    const auto a = ca.DeviationRow(c);
    const auto b = cb.DeviationRow(c);
    ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
        << "deviations of cluster " << c;
  }
  for (matrix::UserId u = 0; u < got.NumUsers(); ++u) {
    ASSERT_EQ(ca.ClusterOf(u), cb.ClusterOf(u));
    ASSERT_EQ(ca.UserMean(u), cb.UserMean(u)) << "user " << u;
    const auto a = ca.IClusterOf(u);
    const auto b = cb.IClusterOf(u);
    ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
        << "iCluster list of user " << u;
  }
  for (matrix::UserId u = 0; u < got.NumUsers(); u += 3) {
    for (matrix::ItemId i = 0; i < got.NumItems(); i += 5) {
      ASSERT_EQ(got.Predict(u, i), want.Predict(u, i))
          << "user " << u << ", item " << i;
    }
  }
  for (matrix::UserId u = 0; u < got.NumUsers(); u += 7) {
    const auto a = got.RecommendTopN(u, 10);
    const auto b = want.RecommendTopN(u, 10);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t k = 0; k < a.size(); ++k) {
      EXPECT_EQ(a[k].item, b[k].item) << "user " << u << " rank " << k;
      EXPECT_EQ(a[k].score, b[k].score) << "user " << u << " rank " << k;
    }
  }
}

std::vector<std::uint32_t> AssignmentsOf(const core::CfsfModel& model) {
  const auto assignments = model.cluster_model().assignments();
  return {assignments.begin(), assignments.end()};
}

TEST(FoldOracleTest, MatrixWithRatingsEqualsTheBuilder) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const bool timed = seed % 2 == 0;
    util::Rng rng(seed);
    const matrix::RatingMatrix base = Base(seed, timed);
    const auto delta = RandomDelta(base, rng, 1 + rng.NextBounded(40), timed);
    matrix::RatingMatrixBuilder builder(base.num_users(), base.num_items());
    for (const auto& t : base.ToTriples()) builder.Add(t);
    for (const auto& t : delta) builder.Add(t);
    ExpectSameMatrix(base.WithRatings(delta), builder.Build());
  }
}

TEST(FoldOracleTest, MatrixWithRatingsDropsTimestampsNoRatingKeeps) {
  matrix::RatingMatrixBuilder builder(3, 4);
  builder.Add(0, 1, 4.0F, 1234);
  builder.Add(2, 3, 2.0F, 0);
  const matrix::RatingMatrix timed = builder.Build();
  ASSERT_TRUE(timed.has_timestamps());
  const matrix::RatingTriple untimed[] = {{0, 1, 5.0F, 0}, {1, 0, 3.0F, 0}};
  const matrix::RatingMatrix merged = timed.WithRatings(untimed);
  EXPECT_FALSE(merged.has_timestamps());
  EXPECT_EQ(merged.num_ratings(), 3u);
  EXPECT_EQ(merged.GetRating(0, 1), 5.0F);
}

TEST(FoldOracleTest, MatrixWithRatingsRejectsBadInput) {
  const matrix::RatingMatrix base = Base(3, false);
  const matrix::RatingTriple out_of_range[] = {{0, 0, 3.0F, 0},
                                               {static_cast<matrix::UserId>(kUsers), 0, 3.0F, 0}};
  EXPECT_THROW((void)base.WithRatings(out_of_range), util::ConfigError);
  const matrix::RatingTriple not_finite[] = {
      {0, 0, std::numeric_limits<matrix::Rating>::quiet_NaN(), 0}};
  EXPECT_THROW((void)base.WithRatings(not_finite), util::DimensionError);
  EXPECT_EQ(base.WithRatings({}).ToTriples(), base.ToTriples());
}

struct ModelCase {
  const char* name;
  bool timed;
  core::CfsfConfig config;
};

std::vector<ModelCase> ModelCases() {
  core::CfsfConfig plain;
  plain.num_clusters = 5;
  plain.top_m_items = 12;
  plain.top_k_users = 6;
  core::CfsfConfig capped = plain;
  capped.gis.max_neighbors = 10;  // the capped GIS splice path
  capped.deviation_shrinkage = 2.0;
  core::CfsfConfig decayed = plain;
  decayed.time_decay = true;
  decayed.time_half_life_days = 30.0;
  return {{"plain", false, plain},
          {"capped", false, capped},
          {"decayed", true, decayed}};
}

TEST(FoldOracleTest, ModelWithRatingsEqualsInsertRatingAndRestore) {
  for (const ModelCase& model_case : ModelCases()) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      SCOPED_TRACE(std::string(model_case.name) + " seed " +
                   std::to_string(seed));
      util::Rng rng(seed * 7919);
      core::CfsfModel base(model_case.config);
      base.Fit(Base(seed, model_case.timed));
      const auto delta =
          RandomDelta(base.train(), rng, 1 + rng.NextBounded(24), model_case.timed);

      const auto folded = base.WithRatings(delta);

      auto inserted = core::CfsfModel::Restore(base.config(), base.train(),
                                               base.gis(), AssignmentsOf(base));
      for (const auto& t : delta) {
        inserted->InsertRating(t.user, t.item, t.value, t.timestamp);
      }

      matrix::RatingMatrixBuilder builder(base.NumUsers(), base.NumItems());
      for (const auto& t : base.train().ToTriples()) builder.Add(t);
      for (const auto& t : delta) builder.Add(t);
      matrix::RatingMatrix merged = builder.Build();
      sim::GlobalItemSimilarity gis =
          sim::GlobalItemSimilarity::Build(merged, base.gis().config());
      const auto restored = core::CfsfModel::Restore(
          base.config(), std::move(merged), std::move(gis), AssignmentsOf(base));

      {
        SCOPED_TRACE("WithRatings vs InsertRating");
        ExpectSameModel(*folded, *inserted);
      }
      {
        SCOPED_TRACE("WithRatings vs Restore");
        ExpectSameModel(*folded, *restored);
      }
    }
  }
}

TEST(FoldOracleTest, ModelWithRatingsLeavesItsBaseUntouched) {
  core::CfsfConfig config = ModelCases().front().config;
  core::CfsfModel base(config);
  base.Fit(Base(5, false));
  const auto before = core::CfsfModel::Restore(base.config(), base.train(),
                                               base.gis(), AssignmentsOf(base));
  util::Rng rng(5);
  const auto folded = base.WithRatings(RandomDelta(base.train(), rng, 16, false));
  EXPECT_NE(folded->train().ToTriples(), base.train().ToTriples());
  ExpectSameModel(base, *before);
}

}  // namespace
}  // namespace cfsf
