// Hand-computed end-to-end verification of the CFSF math (Eqs. 5–14) on a
// fully controlled miniature world.  Every expected value below is derived
// by hand in the comments, so this file anchors the implementation against
// the paper's formulas themselves rather than against other code.
//
// World: 6 users × 4 items, two obvious taste camps.
//
//          i0  i1  i2  i3
//   u0      5   4   1   2     camp A (likes i0/i1)
//   u1      4   5   2   1     camp A
//   u2      5   5   1   -     camp A (did not rate i3)
//   u3      1   2   5   4     camp B (likes i2/i3)
//   u4      2   1   4   5     camp B
//   u5      1   -   5   5     camp B (did not rate i1)
#include <gtest/gtest.h>

#include <cmath>

#include "clustering/kmeans.hpp"
#include "clustering/smoothing.hpp"
#include "core/cfsf.hpp"
#include "similarity/kernels.hpp"
#include "similarity/user_similarity.hpp"

namespace cfsf {
namespace {

matrix::RatingMatrix TwoCampWorld() {
  matrix::RatingMatrixBuilder b(6, 4);
  b.Add(0, 0, 5); b.Add(0, 1, 4); b.Add(0, 2, 1); b.Add(0, 3, 2);
  b.Add(1, 0, 4); b.Add(1, 1, 5); b.Add(1, 2, 2); b.Add(1, 3, 1);
  b.Add(2, 0, 5); b.Add(2, 1, 5); b.Add(2, 2, 1);
  b.Add(3, 0, 1); b.Add(3, 1, 2); b.Add(3, 2, 5); b.Add(3, 3, 4);
  b.Add(4, 0, 2); b.Add(4, 1, 1); b.Add(4, 2, 4); b.Add(4, 3, 5);
  b.Add(5, 0, 1);                 b.Add(5, 2, 5); b.Add(5, 3, 5);
  return b.Build();
}

TEST(CfsfMath, MatrixMeans) {
  const auto m = TwoCampWorld();
  // Item means: i0 = (5+4+5+1+2+1)/6 = 3; i1 = (4+5+5+2+1)/5 = 3.4;
  // i2 = (1+2+1+5+4+5)/6 = 3; i3 = (2+1+4+5+5)/5 = 3.4.
  EXPECT_DOUBLE_EQ(m.ItemMean(0), 3.0);
  EXPECT_DOUBLE_EQ(m.ItemMean(1), 3.4);
  EXPECT_DOUBLE_EQ(m.ItemMean(2), 3.0);
  EXPECT_DOUBLE_EQ(m.ItemMean(3), 3.4);
  // User means: u0 = 12/4 = 3; u2 = 11/3; u5 = 11/3.
  EXPECT_DOUBLE_EQ(m.UserMean(0), 3.0);
  EXPECT_DOUBLE_EQ(m.UserMean(2), 11.0 / 3.0);
  EXPECT_DOUBLE_EQ(m.UserMean(5), 11.0 / 3.0);
}

TEST(CfsfMath, Eq5ItemPearsonByHand) {
  const auto m = TwoCampWorld();
  // sim(i0, i1) over co-raters u0..u4:
  //   dev_i0 = (2, 1, 2, -2, -1), dev_i1 = (0.6, 1.6, 1.6, -1.4, -2.4)
  //   dot = 1.2 + 1.6 + 3.2 + 2.8 + 2.4 = 11.2
  //   |i0| = sqrt(4+1+4+4+1) = sqrt(14)
  //   |i1| = sqrt(0.36+2.56+2.56+1.96+5.76) = sqrt(13.2)
  const auto r01 = sim::PearsonSparse(m.ItemCol(0), m.ItemCol(1),
                                      m.ItemMean(0), m.ItemMean(1));
  EXPECT_EQ(r01.overlap, 5u);
  EXPECT_NEAR(r01.value, 11.2 / (std::sqrt(14.0) * std::sqrt(13.2)), 1e-12);

  // sim(i0, i2) over all 6 users: dev_i2 = (-2, -1, -2, 2, 1, 2)
  //   dot = (2)(-2)+(1)(-1)+(2)(-2)+(-2)(2)+(-1)(1)+(-2)(2) = -18
  //   |i0| = sqrt(18), |i2| = sqrt(18)  →  sim = -1.
  const auto r02 = sim::PearsonSparse(m.ItemCol(0), m.ItemCol(2),
                                      m.ItemMean(0), m.ItemMean(2));
  EXPECT_EQ(r02.overlap, 6u);
  EXPECT_NEAR(r02.value, -1.0, 1e-12);
}

TEST(CfsfMath, GisKeepsOnlyPositivePairs) {
  const auto m = TwoCampWorld();
  sim::GisConfig config;  // min_similarity 0, min_overlap 2, no weighting
  const auto gis = sim::GlobalItemSimilarity::Build(m, config);
  // Positive pairs are (i0,i1) and (i2,i3); all cross-camp pairs are
  // negative and filtered.
  ASSERT_EQ(gis.Neighbors(0).size(), 1u);
  EXPECT_EQ(gis.Neighbors(0)[0].index, 1u);
  ASSERT_EQ(gis.Neighbors(2).size(), 1u);
  EXPECT_EQ(gis.Neighbors(2)[0].index, 3u);
  EXPECT_DOUBLE_EQ(gis.Similarity(0, 2), 0.0);
  EXPECT_DOUBLE_EQ(gis.Similarity(1, 3), 0.0);
}

TEST(CfsfMath, Eq6UserPearsonByHand) {
  const auto m = TwoCampWorld();
  // sim(u0, u1) over i0..i3: dev_u0 = (2,1,-2,-1), dev_u1 = (1,2,-1,-2)
  //   dot = 2+2+2+2 = 8; norms sqrt(10)·sqrt(10) = 10 → 0.8.
  EXPECT_NEAR(sim::UserPcc(m, 0, 1), 0.8, 1e-12);
  // sim(u0, u3) = anti: dev_u3 = (-2,-1,2,1) → dot = -4-1-4-1 = -10 → -1.
  EXPECT_NEAR(sim::UserPcc(m, 0, 3), -1.0, 1e-12);
}

std::vector<std::uint32_t> CampAssignments() { return {0, 0, 0, 1, 1, 1}; }

TEST(CfsfMath, Eq8ClusterDeviationsByHand) {
  const auto m = TwoCampWorld();
  const auto model = cluster::ClusterModel::Build(m, CampAssignments(), 2);
  // Camp A (u0 mean 3, u1 mean 3, u2 mean 11/3):
  //   Δ(A, i0) = ((5-3)+(4-3)+(5-11/3))/3 = (2+1+4/3)/3 = 13/9.
  EXPECT_NEAR(model.ClusterDeviation(0, 0), 13.0 / 9.0, 1e-12);
  //   Δ(A, i3) = ((2-3)+(1-3))/2 = -1.5 (u2 did not rate i3).
  EXPECT_NEAR(model.ClusterDeviation(0, 3), -1.5, 1e-12);
  // Camp B (u3 mean 3, u4 mean 3, u5 mean 11/3):
  //   Δ(B, i2) = ((5-3)+(4-3)+(5-11/3))/3 = 13/9.
  EXPECT_NEAR(model.ClusterDeviation(1, 2), 13.0 / 9.0, 1e-12);
}

TEST(CfsfMath, Eq7SmoothedCellByHand) {
  const auto m = TwoCampWorld();
  const auto model = cluster::ClusterModel::Build(m, CampAssignments(), 2);
  // u2 did not rate i3: smoothed = r̄_u2 + Δ(A, i3) = 11/3 - 1.5 = 13/6.
  const auto u2_i3 = model.SmoothedCell(2, m.UserRow(2), 3);
  EXPECT_FALSE(u2_i3.original);
  EXPECT_NEAR(u2_i3.value, 11.0 / 3.0 - 1.5, 1e-12);
  // u5 did not rate i1: Δ(B, i1) = ((2-3)+(1-3))/2 = -1.5 →
  // smoothed = 11/3 - 1.5 = 13/6.
  EXPECT_NEAR(model.SmoothedCell(5, m.UserRow(5), 1).value, 11.0 / 3.0 - 1.5,
              1e-12);
  // Original cells pass through untouched.
  const auto u2_i0 = model.SmoothedCell(2, m.UserRow(2), 0);
  EXPECT_TRUE(u2_i0.original);
  EXPECT_DOUBLE_EQ(u2_i0.value, 5.0);
}

TEST(CfsfMath, Eq9AffinityPrefersOwnCamp) {
  const auto m = TwoCampWorld();
  const auto model = cluster::ClusterModel::Build(m, CampAssignments(), 2);
  for (matrix::UserId u = 0; u < 6; ++u) {
    const auto ic = model.IClusterOf(u);
    EXPECT_EQ(ic[0].cluster, u < 3 ? 0u : 1u) << "user " << u;
    EXPECT_GT(ic[0].similarity, 0.0F);
    EXPECT_LT(ic[1].similarity, 0.0F);  // the other camp anti-correlates
  }
}

TEST(CfsfMath, Eq13CrossWeightByHand) {
  // sim_items = 0.6, sim_users = 0.8 → 0.48 / sqrt(0.36+0.64) = 0.48.
  EXPECT_NEAR(sim::CrossWeight(0.6, 0.8), 0.48, 1e-12);
}

TEST(CfsfMath, Eq14FusionWeightsByHand) {
  // λ = 0.8, δ = 0.1 → weights: SIR' 0.18, SUR' 0.72, SUIR' 0.10.
  const auto m = TwoCampWorld();
  core::CfsfConfig config;
  config.num_clusters = 2;
  config.top_m_items = 4;
  config.top_k_users = 2;
  config.kmeans_max_iterations = 10;
  core::CfsfModel model(config);
  model.Fit(m);
  // Find a query with all three components present and check the blend.
  bool checked = false;
  for (matrix::UserId u = 0; u < 6 && !checked; ++u) {
    for (matrix::ItemId i = 0; i < 4; ++i) {
      const auto parts = model.PredictDetailed(u, i);
      if (parts.sir && parts.sur && parts.suir) {
        const double expected =
            0.18 * *parts.sir + 0.72 * *parts.sur + 0.10 * *parts.suir;
        EXPECT_NEAR(parts.fused, expected, 1e-12);
        checked = true;
        break;
      }
    }
  }
  EXPECT_TRUE(checked);
}

TEST(CfsfMath, EndToEndPredictionIsCampConsistent) {
  // The model must predict high for in-camp favourites and low for
  // cross-camp items, for every user, on this noiseless world.
  const auto m = TwoCampWorld();
  core::CfsfConfig config;
  config.num_clusters = 2;
  config.top_m_items = 4;
  config.top_k_users = 3;
  core::CfsfModel model(config);
  model.Fit(m);
  // u2 never rated i3 (their camp dislikes it): prediction must be low.
  EXPECT_LT(model.Predict(2, 3), 3.0);
  // u5 never rated i1 (their camp dislikes it): prediction must be low.
  EXPECT_LT(model.Predict(5, 1), 3.0);
  // And the camps' favourites stay high.
  EXPECT_GT(model.Predict(2, 0), 3.5);
  EXPECT_GT(model.Predict(5, 2), 3.5);
}

TEST(CfsfMath, Eq10SelectionByHand) {
  // With camp-pure clusters and ε = 0 (original ratings only, weight 1),
  // Eq. 10 for u0 against u1 reduces to plain PCC over u0's items where
  // u1's cells are original — all four — i.e. exactly UserPcc(u0,u1)=0.8.
  const auto m = TwoCampWorld();
  const auto model = cluster::ClusterModel::Build(m, CampAssignments(), 2);
  const double s = sim::SmoothingAwarePcc(
      m.UserRow(0), m.UserMean(0), m.UserRow(1),
      model.DeviationRow(model.ClusterOf(1)), model.UserMean(1), /*w=*/0.0);
  EXPECT_NEAR(s, 0.8, 1e-12);
}

TEST(CfsfMath, SirPrimeByHand) {
  // Direct check of the (item-anchored, original-only) SIR' estimate for
  // u2 on i3.  GIS neighbours of i3 = {i2} (positive pair), with
  //   sim(i2, i3) over co-raters u0,u1,u3,u4,u5:
  //   dev_i2 = (-2,-1,2,1,2), dev_i3 = (-1.4,-2.4,0.6,1.6,1.6)
  //   dot = 2.8+2.4+1.2+1.6+3.2 = 11.2; |i2|=sqrt(14); |i3|=sqrt(13.2).
  // u2 rated i2 with 1 (original):
  //   SIR' = ī_3 + (1 − ī_2) = 3.4 + (1 − 3) = 1.4   (weights cancel).
  const auto m = TwoCampWorld();
  core::CfsfConfig config;
  config.num_clusters = 2;
  config.top_m_items = 4;
  config.top_k_users = 2;
  core::CfsfModel model(config);
  model.Fit(m);
  const auto parts = model.PredictDetailed(2, 3);
  ASSERT_TRUE(parts.sir.has_value());
  EXPECT_NEAR(*parts.sir, 1.4, 1e-6);
}

}  // namespace
}  // namespace cfsf
