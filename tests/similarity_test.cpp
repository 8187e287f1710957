// Unit tests for cfsf::sim — kernels (Eqs. 5, 6, 10, 11, 13), the GIS and
// the user-user similarity matrix.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "data/synthetic.hpp"
#include "parallel/thread_pool.hpp"
#include "similarity/item_similarity.hpp"
#include "similarity/kernels.hpp"
#include "similarity/user_similarity.hpp"
#include "util/error.hpp"

namespace cfsf::sim {
namespace {

using matrix::Entry;

// ------------------------------------------------------------- kernels ----

TEST(Pearson, PerfectPositiveCorrelation) {
  const std::vector<Entry> a{{0, 1}, {1, 2}, {2, 3}};
  const std::vector<Entry> b{{0, 2}, {1, 4}, {2, 6}};
  const auto r = PearsonSparse(a, b, 2.0, 4.0);
  EXPECT_NEAR(r.value, 1.0, 1e-12);
  EXPECT_EQ(r.overlap, 3u);
}

TEST(Pearson, PerfectNegativeCorrelation) {
  const std::vector<Entry> a{{0, 1}, {1, 2}, {2, 3}};
  const std::vector<Entry> b{{0, 3}, {1, 2}, {2, 1}};
  const auto r = PearsonSparse(a, b, 2.0, 2.0);
  EXPECT_NEAR(r.value, -1.0, 1e-12);
}

TEST(Pearson, PartialOverlapMerges) {
  const std::vector<Entry> a{{0, 5}, {2, 3}, {4, 1}};
  const std::vector<Entry> b{{1, 4}, {2, 2}, {4, 4}, {7, 1}};
  const auto r = PearsonSparse(a, b, 3.0, 3.0);
  EXPECT_EQ(r.overlap, 2u);  // items 2 and 4
  // By hand: devs a: (0, -2), b: (-1, 1) → dot=-2, |a|=2, |b|=sqrt(2).
  EXPECT_NEAR(r.value, -2.0 / (2.0 * std::sqrt(2.0)), 1e-12);
}

TEST(Pearson, NoOverlapIsZero) {
  const std::vector<Entry> a{{0, 5}};
  const std::vector<Entry> b{{1, 4}};
  const auto r = PearsonSparse(a, b, 5.0, 4.0);
  EXPECT_EQ(r.overlap, 0u);
  EXPECT_DOUBLE_EQ(r.value, 0.0);
}

TEST(Pearson, ZeroVarianceIsZero) {
  // All deviations of `a` vanish on the overlap.
  const std::vector<Entry> a{{0, 3}, {1, 3}};
  const std::vector<Entry> b{{0, 1}, {1, 5}};
  const auto r = PearsonSparse(a, b, 3.0, 3.0);
  EXPECT_DOUBLE_EQ(r.value, 0.0);
  EXPECT_EQ(r.overlap, 2u);
}

TEST(Pearson, EmptyInputs) {
  const std::vector<Entry> empty;
  const std::vector<Entry> b{{0, 1}};
  EXPECT_DOUBLE_EQ(PearsonSparse(empty, b, 0, 0).value, 0.0);
  EXPECT_DOUBLE_EQ(PearsonSparse(empty, empty, 0, 0).value, 0.0);
}

TEST(Cosine, IdenticalVectorsAreOne) {
  const std::vector<Entry> a{{0, 2}, {3, 4}};
  const auto r = CosineSparse(a, a);
  EXPECT_NEAR(r.value, 1.0, 1e-12);
  EXPECT_EQ(r.overlap, 2u);
}

TEST(Cosine, OrthogonalSupportIsZero) {
  const std::vector<Entry> a{{0, 2}};
  const std::vector<Entry> b{{1, 2}};
  EXPECT_DOUBLE_EQ(CosineSparse(a, b).value, 0.0);
}

TEST(Cosine, IgnoresMeansUnlikePearson) {
  // Both users rate everything high vs low: cosine says similar, PCC says
  // anti-correlated — the diversity argument for PCC in Section IV-B.
  const std::vector<Entry> a{{0, 5}, {1, 4}};
  const std::vector<Entry> b{{0, 2}, {1, 3}};
  EXPECT_GT(CosineSparse(a, b).value, 0.9);
  EXPECT_LT(PearsonSparse(a, b, 4.5, 2.5).value, 0.0);
}

TEST(Significance, ShrinksSmallOverlaps) {
  EXPECT_DOUBLE_EQ(SignificanceWeight(0.8, 10, 50), 0.8 * 10 / 50.0);
  EXPECT_DOUBLE_EQ(SignificanceWeight(0.8, 50, 50), 0.8);
  EXPECT_DOUBLE_EQ(SignificanceWeight(0.8, 500, 50), 0.8);
  EXPECT_THROW(SignificanceWeight(0.8, 10, 0), util::ConfigError);
}

TEST(CrossWeight, MatchesEq13) {
  // Eq. 13: si·su / sqrt(si² + su²)
  EXPECT_NEAR(CrossWeight(0.6, 0.8), 0.6 * 0.8 / 1.0, 1e-12);
  EXPECT_NEAR(CrossWeight(1.0, 1.0), 1.0 / std::sqrt(2.0), 1e-12);
}

TEST(CrossWeight, ZeroInputs) {
  EXPECT_DOUBLE_EQ(CrossWeight(0.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(CrossWeight(0.5, 0.0), 0.0);
}

TEST(CrossWeight, SymmetricAndBounded) {
  for (double x : {0.1, 0.4, 0.9}) {
    for (double y : {0.2, 0.7}) {
      EXPECT_DOUBLE_EQ(CrossWeight(x, y), CrossWeight(y, x));
      EXPECT_LE(CrossWeight(x, y), std::min(x, y));
      EXPECT_GT(CrossWeight(x, y), 0.0);
    }
  }
}

TEST(ProvenanceWeight, Eq11Semantics) {
  // w is the smoothed-rating weight (see the interpretation note).
  EXPECT_DOUBLE_EQ(ProvenanceWeight(/*is_original=*/true, 0.35), 0.65);
  EXPECT_DOUBLE_EQ(ProvenanceWeight(/*is_original=*/false, 0.35), 0.35);
}

TEST(SmoothingAwarePcc, AllOriginalMatchesPlainPcc) {
  // With every candidate cell original and any w, Eq. 10 reduces to PCC up
  // to the constant weight, which cancels between numerator/denominator...
  // except w² in the candidate norm: with a single constant weight c,
  // num ~ c, den ~ sqrt(c²)·|a| = c·|a| — so it cancels exactly.
  const std::vector<Entry> active{{0, 5}, {1, 3}, {2, 1}};
  const std::vector<Entry> candidate{{0, 4}, {1, 3}, {2, 2}, {3, 9}};
  const std::vector<double> deviations{0.5, -0.5, 1.0, -1.0};  // never read
  const double got =
      SmoothingAwarePcc(active, 3.0, candidate, deviations, 3.0, 0.35);
  const double want = PearsonSparse(active, candidate, 3.0, 3.0).value;
  EXPECT_NEAR(got, want, 1e-12);
}

TEST(SmoothingAwarePcc, WeightsChangeResultWhenMixed) {
  // Asymmetric deviations so the w ↔ 1-w swap is visible: the original
  // cell carries a deviation of 2, the smoothed one (r̄ + Δ = 3 - 1) only -1.
  const std::vector<Entry> active{{0, 5}, {1, 1}};
  const std::vector<Entry> candidate{{0, 5}};
  const std::vector<double> deviations{0.0, -1.0};
  const double w_lo =
      SmoothingAwarePcc(active, 3.0, candidate, deviations, 3.0, 0.1);
  const double w_hi =
      SmoothingAwarePcc(active, 3.0, candidate, deviations, 3.0, 0.9);
  EXPECT_GT(std::abs(w_lo - w_hi), 1e-3);
}

TEST(SmoothingAwarePcc, SmoothedCellIsMeanPlusDeviation) {
  // The candidate rated nothing the active user rated, so every cell is
  // r̄ + Δ: the same as an all-original candidate holding those values,
  // up to the constant weight w that cancels.
  const std::vector<Entry> active{{0, 5}, {2, 1}, {3, 4}};
  const std::vector<Entry> candidate{{1, 2}};
  const std::vector<double> deviations{1.0, 0.0, -2.0, 0.5};
  const double got =
      SmoothingAwarePcc(active, 3.0, candidate, deviations, 3.0, 0.35);
  const std::vector<Entry> filled{{0, 4.0F}, {2, 1.0F}, {3, 3.5F}};
  const double want = PearsonSparse(active, filled, 3.0, 3.0).value;
  EXPECT_NEAR(got, want, 1e-12);
}

TEST(SmoothingAwarePcc, ValidatesInputs) {
  const std::vector<Entry> active{{0, 5}};
  const std::vector<Entry> candidate{{0, 4}};
  const std::vector<double> short_deviations;  // wrong length for item 0
  EXPECT_THROW(
      SmoothingAwarePcc(active, 3.0, candidate, short_deviations, 3.0, 0.5),
      util::ConfigError);
  const std::vector<double> deviations{0.0};
  EXPECT_THROW(SmoothingAwarePcc(active, 3.0, candidate, deviations, 3.0, 1.5),
               util::ConfigError);
}

TEST(SmoothingAwarePcc, EmptyActiveRowIsZero) {
  const std::vector<Entry> active;
  const std::vector<Entry> candidate{{0, 1}, {1, 2}};
  const std::vector<double> deviations{0.0, 0.0};
  EXPECT_DOUBLE_EQ(
      SmoothingAwarePcc(active, 3.0, candidate, deviations, 3.0, 0.5), 0.0);
}

// ----------------------------------------------------------------- GIS ----

matrix::RatingMatrix GisFixture() {
  // Items 0 and 1 strongly correlated, item 2 anti-correlated with both.
  //      i0 i1 i2
  // u0    5  4  1
  // u1    4  5  2
  // u2    2  1  5
  // u3    1  2  4
  matrix::RatingMatrixBuilder b(4, 3);
  b.Add(0, 0, 5); b.Add(0, 1, 4); b.Add(0, 2, 1);
  b.Add(1, 0, 4); b.Add(1, 1, 5); b.Add(1, 2, 2);
  b.Add(2, 0, 2); b.Add(2, 1, 1); b.Add(2, 2, 5);
  b.Add(3, 0, 1); b.Add(3, 1, 2); b.Add(3, 2, 4);
  return b.Build();
}

using Rows = std::vector<std::vector<Neighbor>>;

template <typename Matrix>
Rows RowsOf(const Matrix& sim, std::size_t n) {
  Rows rows(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto row = sim.Neighbors(static_cast<std::uint32_t>(i));
    rows[i].assign(row.begin(), row.end());
  }
  return rows;
}

// Exact equality, reporting the first differing entry.
void ExpectSameRows(const Rows& want, const Rows& got) {
  ASSERT_EQ(want.size(), got.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(want[i].size(), got[i].size()) << "row " << i;
    for (std::size_t k = 0; k < want[i].size(); ++k) {
      ASSERT_EQ(want[i][k].index, got[i][k].index) << "row " << i << " pos " << k;
      ASSERT_EQ(want[i][k].similarity, got[i][k].similarity)
          << "row " << i << " pos " << k;
    }
  }
}

void ExpectSameRows(const GlobalItemSimilarity& want,
                    const GlobalItemSimilarity& got) {
  ExpectSameRows(RowsOf(want, want.num_items()), RowsOf(got, got.num_items()));
}

// The serial all-pairs build the item-major kernel replaced, kept as the
// golden oracle: one dense upper triangle of pair accumulators, filled
// line by line — user rows for item pairs, item columns for user pairs —
// in ascending line order, then thresholded, mirrored and sorted.
template <typename LineFn>
Rows TriangleOracle(std::size_t n, std::size_t num_lines, LineFn line,
                    const std::vector<double>& centre, const PairConfig& filter) {
  struct Acc {
    double dot = 0.0;
    double sq_a = 0.0;
    double sq_b = 0.0;
    std::uint32_t count = 0;
  };
  std::vector<Acc> tri(n * (n - 1) / 2);
  const auto at = [n](std::size_t a, std::size_t b) {
    return a * n - a * (a + 1) / 2 + (b - a - 1);
  };
  for (std::size_t l = 0; l < num_lines; ++l) {
    const auto entries = line(l);
    for (std::size_t x = 0; x < entries.size(); ++x) {
      const std::size_t a = entries[x].index;
      const double dev_a = entries[x].value - centre[a];
      for (std::size_t y = x + 1; y < entries.size(); ++y) {
        const std::size_t b = entries[y].index;
        const double dev_b = entries[y].value - centre[b];
        Acc& pair = tri[at(a, b)];
        pair.dot += dev_a * dev_b;
        pair.sq_a += dev_a * dev_a;
        pair.sq_b += dev_b * dev_b;
        ++pair.count;
      }
    }
  }
  Rows rows(n);
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = a + 1; b < n; ++b) {
      const Acc& pair = tri[at(a, b)];
      if (pair.count == 0 || pair.count < filter.min_overlap) continue;
      const double denom = std::sqrt(pair.sq_a) * std::sqrt(pair.sq_b);
      if (denom <= 0.0) continue;
      double sim = pair.dot / denom;
      if (filter.significance_weighting) {
        sim = SignificanceWeight(sim, pair.count, filter.significance_cutoff);
      }
      if (sim <= filter.min_similarity) continue;
      rows[a].push_back(Neighbor{static_cast<std::uint32_t>(b), static_cast<float>(sim)});
      rows[b].push_back(Neighbor{static_cast<std::uint32_t>(a), static_cast<float>(sim)});
    }
  }
  for (auto& row : rows) std::sort(row.begin(), row.end(), NeighborBefore);
  return rows;
}

TEST(GisGolden, EqualsTheSerialTriangleAtAnyPoolSize) {
  const auto m = data::GenerateSynthetic(data::SyntheticConfig{});  // 500×1000
  GisConfig config;  // the thresholds CfsfConfig serves
  config.min_overlap = 4;
  config.significance_weighting = true;
  config.significance_cutoff = 20;
  std::vector<double> centre(m.num_items());
  for (std::size_t i = 0; i < centre.size(); ++i) {
    centre[i] = m.ItemMean(static_cast<matrix::ItemId>(i));
  }
  const PairConfig pair_config{.min_similarity = config.min_similarity,
                               .min_overlap = config.min_overlap,
                               .significance_weighting = config.significance_weighting,
                               .significance_cutoff = config.significance_cutoff};
  const Rows oracle = TriangleOracle(
      m.num_items(), m.num_users(),
      [&m](std::size_t u) { return m.UserRow(static_cast<matrix::UserId>(u)); },
      centre, pair_config);

  GisConfig serial = config;
  serial.parallel = false;
  ExpectSameRows(oracle, RowsOf(GlobalItemSimilarity::Build(m, serial), m.num_items()));
  ExpectSameRows(oracle, RowsOf(GlobalItemSimilarity::Build(m, config), m.num_items()));
  // The GIS's row build, pinned to pools of every size.
  for (const std::size_t threads : {1, 2, 3, 4, 8}) {
    SCOPED_TRACE(testing::Message() << threads << " threads");
    par::ThreadPool pool(threads);
    ExpectSameRows(oracle,
                   BuildPairRows(m, PairSide::kItems, centre, pair_config, &pool));
  }
}

TEST(UserSimGolden, EqualsTheSerialTriangle) {
  data::SyntheticConfig dconfig;
  dconfig.num_users = 200;
  dconfig.num_items = 300;
  const auto m = data::GenerateSynthetic(dconfig);
  std::vector<double> centre(m.num_users());
  for (std::size_t u = 0; u < centre.size(); ++u) {
    centre[u] = m.UserMean(static_cast<matrix::UserId>(u));
  }
  const Rows oracle = TriangleOracle(
      m.num_users(), m.num_items(),
      [&m](std::size_t i) { return m.ItemCol(static_cast<matrix::ItemId>(i)); },
      centre, PairConfig{});
  UserSimilarityConfig serial;
  serial.parallel = false;
  ExpectSameRows(oracle, RowsOf(UserSimilarityMatrix::Build(m, serial), m.num_users()));
  ExpectSameRows(oracle, RowsOf(UserSimilarityMatrix::Build(m), m.num_users()));
}

TEST(Gis, FindsPositivePairsOnly) {
  const auto m = GisFixture();
  const auto gis = GlobalItemSimilarity::Build(m);  // min_similarity 0
  const auto row0 = gis.Neighbors(0);
  ASSERT_EQ(row0.size(), 1u);  // only item 1 is positively correlated
  EXPECT_EQ(row0[0].index, 1u);
  EXPECT_GE(row0[0].similarity, 0.8F);
  EXPECT_DOUBLE_EQ(gis.Similarity(0, 2), 0.0);  // filtered (negative)
}

TEST(Gis, MatchesDirectPearson) {
  const auto m = GisFixture();
  const auto gis = GlobalItemSimilarity::Build(m);
  const auto direct = PearsonSparse(m.ItemCol(0), m.ItemCol(1), m.ItemMean(0),
                                    m.ItemMean(1));
  EXPECT_NEAR(gis.Similarity(0, 1), direct.value, 1e-6);
}

TEST(Gis, SymmetricSimilarities) {
  const auto m = GisFixture();
  const auto gis = GlobalItemSimilarity::Build(m);
  EXPECT_FLOAT_EQ(gis.Similarity(0, 1), gis.Similarity(1, 0));
}

TEST(Gis, RowsSortedDescending) {
  data::SyntheticConfig config;
  config.num_users = 60;
  config.num_items = 40;
  config.min_ratings_per_user = 10;
  config.log_mean = 3.0;
  const auto m = data::GenerateSynthetic(config);
  const auto gis = GlobalItemSimilarity::Build(m);
  for (std::size_t i = 0; i < m.num_items(); ++i) {
    const auto row = gis.Neighbors(static_cast<matrix::ItemId>(i));
    for (std::size_t k = 1; k < row.size(); ++k) {
      EXPECT_GE(row[k - 1].similarity, row[k].similarity);
      EXPECT_NE(row[k].index, i);  // never contains self
    }
  }
}

TEST(Gis, ParallelMatchesSerial) {
  data::SyntheticConfig config;
  config.num_users = 50;
  config.num_items = 30;
  config.min_ratings_per_user = 8;
  config.log_mean = 2.8;
  const auto m = data::GenerateSynthetic(config);
  GisConfig serial_config;
  serial_config.parallel = false;
  const auto serial = GlobalItemSimilarity::Build(m, serial_config);
  const auto parallel = GlobalItemSimilarity::Build(m);
  ExpectSameRows(serial, parallel);
}

TEST(Gis, ThresholdShrinksGis) {
  data::SyntheticConfig config;
  config.num_users = 80;
  config.num_items = 50;
  config.min_ratings_per_user = 10;
  config.log_mean = 3.0;
  const auto m = data::GenerateSynthetic(config);
  GisConfig loose;
  loose.min_similarity = 0.0;
  GisConfig tight;
  tight.min_similarity = 0.5;
  const auto gl = GlobalItemSimilarity::Build(m, loose);
  const auto gt = GlobalItemSimilarity::Build(m, tight);
  EXPECT_LT(gt.TotalNeighbors(), gl.TotalNeighbors());
  for (std::size_t i = 0; i < m.num_items(); ++i) {
    for (const auto& n : gt.Neighbors(static_cast<matrix::ItemId>(i))) {
      EXPECT_GT(n.similarity, 0.5F);
    }
  }
}

TEST(Gis, MinOverlapFilters) {
  // Two items sharing exactly one rater: filtered at min_overlap 2.
  matrix::RatingMatrixBuilder b(3, 2);
  b.Add(0, 0, 5);
  b.Add(0, 1, 5);
  b.Add(1, 0, 1);
  b.Add(2, 1, 2);
  const auto m = b.Build();
  GisConfig config;
  config.min_overlap = 2;
  const auto gis = GlobalItemSimilarity::Build(m, config);
  EXPECT_EQ(gis.TotalNeighbors(), 0u);
  config.min_overlap = 1;
  // Deviations are taken from the *global* item means, so even a single
  // co-rater yields a nonzero (and here positive) correlation — exactly
  // why min_overlap >= 2 is the default.
  const auto gis1 = GlobalItemSimilarity::Build(m, config);
  EXPECT_EQ(gis1.TotalNeighbors(), 2u);
}

TEST(Gis, MaxNeighborsCaps) {
  data::SyntheticConfig config;
  config.num_users = 80;
  config.num_items = 50;
  config.min_ratings_per_user = 10;
  config.log_mean = 3.0;
  const auto m = data::GenerateSynthetic(config);
  GisConfig gis_config;
  gis_config.max_neighbors = 3;
  const auto gis = GlobalItemSimilarity::Build(m, gis_config);
  for (std::size_t i = 0; i < m.num_items(); ++i) {
    EXPECT_LE(gis.Neighbors(static_cast<matrix::ItemId>(i)).size(), 3u);
  }
}

TEST(Gis, TopMPrefix) {
  data::SyntheticConfig config;
  config.num_users = 60;
  config.num_items = 40;
  config.min_ratings_per_user = 10;
  config.log_mean = 3.0;
  const auto m = data::GenerateSynthetic(config);
  const auto gis = GlobalItemSimilarity::Build(m);
  const auto full = gis.Neighbors(0);
  const auto top = gis.TopM(0, 5);
  EXPECT_EQ(top.size(), std::min<std::size_t>(5, full.size()));
  for (std::size_t k = 0; k < top.size(); ++k) EXPECT_EQ(top[k], full[k]);
  EXPECT_EQ(gis.TopM(0, 100000).size(), full.size());
}

TEST(Gis, TinyMatrices) {
  matrix::RatingMatrixBuilder b(2, 1);
  b.Add(0, 0, 3);
  const auto gis = GlobalItemSimilarity::Build(b.Build());
  EXPECT_EQ(gis.num_items(), 1u);
  EXPECT_TRUE(gis.Neighbors(0).empty());
}

TEST(Gis, RefreshMatchesFullRebuild) {
  data::SyntheticConfig config;
  config.num_users = 50;
  config.num_items = 30;
  config.min_ratings_per_user = 8;
  config.log_mean = 2.8;
  const auto m = data::GenerateSynthetic(config);
  auto gis = GlobalItemSimilarity::Build(m);

  // Flip one rating and refresh the touched item.
  const auto updated = m.WithRating(0, 5, 1.0F);
  const matrix::ItemId touched[] = {5};
  gis.RefreshItems(updated, touched);

  ExpectSameRows(gis, GlobalItemSimilarity::Build(updated));
}

TEST(Gis, RefreshUnderCapMatchesFullRebuild) {
  // A capped row that loses an entry must take back the best one the cap
  // had cut; refreshes of one and of several items, raising and lowering.
  data::SyntheticConfig dconfig;
  dconfig.num_users = 60;
  dconfig.num_items = 40;
  dconfig.min_ratings_per_user = 8;
  dconfig.log_mean = 2.8;
  auto m = data::GenerateSynthetic(dconfig);
  GisConfig config;
  config.max_neighbors = 5;
  auto gis = GlobalItemSimilarity::Build(m, config);
  const std::vector<std::vector<matrix::ItemId>> edits{{3}, {7, 3, 12}, {0}, {39, 20}};
  float value = 1.0F;
  for (const auto& items : edits) {
    for (const auto item : items) {
      for (matrix::UserId u = 0; u < 60; u += 7) m = m.WithRating(u, item, value);
      value = value >= 5.0F ? 1.0F : value + 2.0F;
    }
    gis.RefreshItems(m, items);
    ExpectSameRows(GlobalItemSimilarity::Build(m, config), gis);
    gis.DebugValidate();
  }
}

TEST(Gis, RefreshValidatesInputs) {
  const auto m = GisFixture();
  auto gis = GlobalItemSimilarity::Build(m);
  matrix::RatingMatrixBuilder b(2, 7);
  b.Add(0, 0, 3);
  const auto wrong_shape = b.Build();
  const matrix::ItemId touched[] = {0};
  EXPECT_THROW(gis.RefreshItems(wrong_shape, touched), util::ConfigError);
}

// ------------------------------------------------------ user similarity ----

TEST(UserSim, PairwiseMatchesEq6) {
  const auto m = GisFixture();
  // u0 and u1 rate in lockstep; u0 and u2 are opposed.
  EXPECT_GT(UserPcc(m, 0, 1), 0.7);
  EXPECT_LT(UserPcc(m, 0, 2), -0.7);
}

TEST(UserSim, MatrixMatchesPairwise) {
  data::SyntheticConfig config;
  config.num_users = 40;
  config.num_items = 60;
  config.min_ratings_per_user = 10;
  config.log_mean = 3.0;
  const auto m = data::GenerateSynthetic(config);
  const auto usm = UserSimilarityMatrix::Build(m);
  for (matrix::UserId u = 0; u < 10; ++u) {
    for (const auto& n : usm.Neighbors(u)) {
      EXPECT_NEAR(n.similarity, UserPcc(m, u, n.index), 1e-5);
    }
  }
}

TEST(UserSim, SymmetricAndSorted) {
  data::SyntheticConfig config;
  config.num_users = 30;
  config.num_items = 50;
  config.min_ratings_per_user = 10;
  config.log_mean = 3.0;
  const auto m = data::GenerateSynthetic(config);
  const auto usm = UserSimilarityMatrix::Build(m);
  for (std::size_t u = 0; u < m.num_users(); ++u) {
    const auto row = usm.Neighbors(static_cast<matrix::UserId>(u));
    for (std::size_t k = 1; k < row.size(); ++k) {
      EXPECT_GE(row[k - 1].similarity, row[k].similarity);
    }
    for (const auto& n : row) {
      EXPECT_FLOAT_EQ(
          usm.Similarity(static_cast<matrix::UserId>(u), n.index),
          usm.Similarity(n.index, static_cast<matrix::UserId>(u)));
    }
  }
}

TEST(UserSim, ParallelMatchesSerial) {
  data::SyntheticConfig config;
  config.num_users = 30;
  config.num_items = 40;
  config.min_ratings_per_user = 8;
  config.log_mean = 2.8;
  const auto m = data::GenerateSynthetic(config);
  UserSimilarityConfig serial_config;
  serial_config.parallel = false;
  const auto a = UserSimilarityMatrix::Build(m, serial_config);
  const auto b = UserSimilarityMatrix::Build(m);
  ExpectSameRows(RowsOf(a, m.num_users()), RowsOf(b, m.num_users()));
}

TEST(UserSim, TopKPrefix) {
  const auto m = GisFixture();
  const auto usm = UserSimilarityMatrix::Build(m);
  const auto top = usm.TopK(0, 1);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].index, 1u);  // the lockstep partner
}

}  // namespace
}  // namespace cfsf::sim
