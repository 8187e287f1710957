// Golden bit-identity pin for the online phase.  Hashes the exact bits of
// PredictDetailed (fused, SIR′, SUR′, SUIR′), SelectTopKUsers for every
// user and RecommendTopN for a few users, for fixed synthetic shapes and
// a set of configs that between them reach every Eq. 7 cell branch
// (original rating, r̄_u + Δr_{C,i} fill, time-decayed original), and the
// offline K-means (assignments, centroid cells, iterations).  The
// expected values were recorded from the dense-smoothed-matrix
// implementation; any change to how cells are stored or read must keep
// them, and a deliberate change to the estimators must re-record them.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "clustering/kmeans.hpp"
#include "core/cfsf.hpp"
#include "util/logging.hpp"

namespace cfsf::core {
namespace {

class Fnv1a {
 public:
  void Bytes(const void* data, std::size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      hash_ = (hash_ ^ p[i]) * 0x100000001b3ULL;
    }
  }
  void Double(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    Bytes(&bits, sizeof bits);
  }
  void U32(std::uint32_t v) { Bytes(&v, sizeof v); }
  void Optional(const std::optional<double>& v) {
    const unsigned char present = v ? 1 : 0;
    Bytes(&present, 1);
    if (v) Double(*v);
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

enum class Variant { kDefault, kLocalSmoothed, kSurOriginalOnly, kTimeDecay };

struct GoldenCase {
  const char* name;
  std::size_t users;
  std::size_t items;
  Variant variant;
  std::uint64_t predictions;
  std::uint64_t top_k;
  std::uint64_t top_n;
};

// Operator<< for readable parameter names in failure messages.
void PrintTo(const GoldenCase& c, std::ostream* os) { *os << c.name; }

struct Hashes {
  std::uint64_t predictions;
  std::uint64_t top_k;
  std::uint64_t top_n;
  // Not recorded: PredictBatch and PredictSirOnly must reproduce the
  // fused and SIR′ bits of PredictDetailed on the same queries.
  std::uint64_t detailed_fused;
  std::uint64_t batch_fused;
  std::uint64_t detailed_sir;
  std::uint64_t sir_only;
};

matrix::RatingMatrix GoldenMatrix(std::size_t users, std::size_t items) {
  util::SetLogLevel(util::LogLevel::kWarn);
  data::SyntheticConfig data_config;
  data_config.num_users = users;
  data_config.num_items = items;
  if (items < 200) {
    data_config.min_ratings_per_user = 12;
    data_config.log_mean = 3.0;
    data_config.max_ratings_per_user = items / 2;
  }
  return data::GenerateSynthetic(data_config);
}

Hashes Compute(const GoldenCase& c) {
  const auto train = GoldenMatrix(c.users, c.items);

  CfsfConfig config;
  if (c.users < 200) {
    config.num_clusters = 8;
    config.top_m_items = 30;
    config.top_k_users = 10;
  }
  switch (c.variant) {
    case Variant::kDefault: break;
    case Variant::kLocalSmoothed: config.local_matrix_smoothed = true; break;
    case Variant::kSurOriginalOnly: config.sur_uses_smoothed = false; break;
    case Variant::kTimeDecay: config.time_decay = true; break;
  }
  CfsfModel model(config);
  model.Fit(train);

  const auto p = static_cast<std::uint32_t>(train.num_users());
  const auto q = static_cast<std::uint32_t>(train.num_items());

  Fnv1a top_k;
  for (std::uint32_t u = 0; u < p; ++u) {
    for (const auto& s : model.SelectTopKUsers(u)) {
      top_k.U32(s.user);
      top_k.Double(s.similarity);
    }
  }

  // Eight items per user: a deterministic spread that mixes items the
  // user rated with items they did not.
  Fnv1a predictions;
  Fnv1a detailed_fused;
  Fnv1a detailed_sir;
  Fnv1a sir_only;
  std::vector<std::pair<matrix::UserId, matrix::ItemId>> queries;
  for (std::uint32_t u = 0; u < p; ++u) {
    for (std::uint32_t j = 0; j < 8; ++j) {
      const auto item = static_cast<std::uint32_t>(
          (static_cast<std::uint64_t>(u) * 7919U + j * 104729U) % q);
      queries.emplace_back(u, item);
      const auto r = model.PredictDetailed(u, item);
      predictions.Optional(r.sir);
      predictions.Optional(r.sur);
      predictions.Optional(r.suir);
      predictions.Double(r.fused);
      detailed_fused.Double(r.fused);
      detailed_sir.Optional(r.sir);
      sir_only.Optional(model.PredictSirOnly(u, item));
    }
  }
  Fnv1a batch_fused;
  for (const double v : model.PredictBatch(queries)) batch_fused.Double(v);

  Fnv1a top_n;
  for (const std::uint32_t u : {0U, 17U, p / 2, p - 1}) {
    for (const auto& r : model.RecommendTopN(u, 20)) {
      top_n.U32(r.item);
      top_n.Double(r.score);
    }
  }
  return {predictions.value(), top_k.value(),    top_n.value(),
          detailed_fused.value(), batch_fused.value(), detailed_sir.value(),
          sir_only.value()};
}

class Golden : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(Golden, BitsMatchRecordedValues) {
  const auto& c = GetParam();
  const auto got = Compute(c);
  EXPECT_EQ(got.predictions, c.predictions) << std::hex << got.predictions;
  EXPECT_EQ(got.top_k, c.top_k) << std::hex << got.top_k;
  EXPECT_EQ(got.top_n, c.top_n) << std::hex << got.top_n;
  EXPECT_EQ(got.batch_fused, got.detailed_fused);
  EXPECT_EQ(got.sir_only, got.detailed_sir);
}

// clang-format off
constexpr GoldenCase kCases[] = {
    {"Paper500x1000_Default",          500, 1000, Variant::kDefault,         0x592b22c95a69ddbbULL,
     0xc649bb2bb1caa04cULL, 0x3cca0165079b1defULL},
    {"Paper500x1000_LocalSmoothed",    500, 1000, Variant::kLocalSmoothed,   0xd48fb1e60599add7ULL,
     0xc649bb2bb1caa04cULL, 0x41a6fc7f620fbc43ULL},
    {"Paper500x1000_SurOriginalOnly",  500, 1000, Variant::kSurOriginalOnly, 0x2c9b49403bb6de12ULL,
     0xc649bb2bb1caa04cULL, 0x72a45ffa0d191ff7ULL},
    {"Paper500x1000_TimeDecay",        500, 1000, Variant::kTimeDecay,       0x9437aa22695b0161ULL,
     0xc649bb2bb1caa04cULL, 0x199ce119469baec9ULL},
    {"Small150x90_Default",            150,   90, Variant::kDefault,         0x3a552caa5c9fb18fULL,
     0x46a17b25c73831c2ULL, 0x836c0f525d52b223ULL},
    {"Small150x90_LocalSmoothed",      150,   90, Variant::kLocalSmoothed,   0xb96e144b2a349cf3ULL,
     0x46a17b25c73831c2ULL, 0x8ff9caf9e6c25c07ULL},
    {"Small150x90_SurOriginalOnly",    150,   90, Variant::kSurOriginalOnly, 0x4c90d4d80867c3e5ULL,
     0x46a17b25c73831c2ULL, 0x4ca06712ce8bd155ULL},
    {"Small150x90_TimeDecay",          150,   90, Variant::kTimeDecay,       0x1808ffb4f7401397ULL,
     0x46a17b25c73831c2ULL, 0x1449a2c7419e28b1ULL},
};
// clang-format on

INSTANTIATE_TEST_SUITE_P(Shapes, Golden, ::testing::ValuesIn(kCases),
                         [](const auto& info) { return std::string(info.param.name); });

// The offline K-means of Section IV-C at the two golden shapes, with the
// cluster counts CfsfModel::Fit uses there: every assignment, the exact
// bits of every centroid cell, and the iteration count.
struct KMeansGolden {
  const char* name;
  std::size_t users;
  std::size_t items;
  std::size_t clusters;
  std::uint64_t assignments;
  std::uint64_t centroids;
  std::size_t iterations;
};

void PrintTo(const KMeansGolden& c, std::ostream* os) { *os << c.name; }

class GoldenKMeans : public ::testing::TestWithParam<KMeansGolden> {};

TEST_P(GoldenKMeans, BitsMatchRecordedValues) {
  const auto& c = GetParam();
  const auto train = GoldenMatrix(c.users, c.items);
  cluster::KMeansConfig config;
  config.num_clusters = c.clusters;
  for (const bool parallel : {true, false}) {
    config.parallel = parallel;
    const auto result = cluster::RunKMeans(train, config);
    Fnv1a assignments;
    for (const auto a : result.assignments) assignments.U32(a);
    Fnv1a centroids;
    for (std::size_t k = 0; k < c.clusters; ++k) {
      for (const double cell : result.centroids.Row(k)) centroids.Double(cell);
    }
    EXPECT_EQ(assignments.value(), c.assignments) << std::hex << assignments.value();
    EXPECT_EQ(centroids.value(), c.centroids) << std::hex << centroids.value();
    EXPECT_EQ(result.iterations, c.iterations);
  }
}

// clang-format off
constexpr KMeansGolden kKMeansCases[] = {
    {"Paper500x1000_C30", 500, 1000, 30, 0xc2ef605754a3ce55ULL, 0xc50d644dcc0c564bULL, 4},
    {"Small150x90_C8",    150,   90,  8, 0xf3e7fd6ec5e6dd90ULL, 0x1188baa49cd18b4cULL, 5},
};
// clang-format on

INSTANTIATE_TEST_SUITE_P(Shapes, GoldenKMeans, ::testing::ValuesIn(kKMeansCases),
                         [](const auto& info) { return std::string(info.param.name); });

}  // namespace
}  // namespace cfsf::core
