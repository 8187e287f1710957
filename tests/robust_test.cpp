// Tests for the robustness layer: the fail-point framework (trigger
// grammar, determinism, env arming, wired sites), the graceful-
// degradation prediction ladder, and the lenient dataset loader.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "core/cfsf.hpp"
#include "data/movielens.hpp"
#include "data/synthetic.hpp"
#include "obs/metrics.hpp"
#include "parallel/thread_pool.hpp"
#include "obs/failpoint.hpp"
#include "robust/fallback.hpp"
#include "util/error.hpp"

namespace cfsf {
namespace {

using obs::FailPointRegistry;
using obs::InjectedFault;
using obs::ScopedFailPoint;

// The registry is process-global; every test starts and ends clean.
class FailPointTest : public ::testing::Test {
 protected:
  void SetUp() override { FailPointRegistry::Global().DisarmAll(); }
  void TearDown() override { FailPointRegistry::Global().DisarmAll(); }
};

std::vector<bool> TripPattern(const std::string& spec, std::size_t hits,
                              std::uint64_t seed) {
  auto& registry = FailPointRegistry::Global();
  registry.SetSeed(seed);
  registry.Arm("test.pattern", spec);
  std::vector<bool> pattern;
  for (std::size_t i = 0; i < hits; ++i) {
    try {
      registry.MaybeTrip("test.pattern");
      pattern.push_back(false);
    } catch (const InjectedFault&) {
      pattern.push_back(true);
    }
  }
  registry.Disarm("test.pattern");
  return pattern;
}

TEST_F(FailPointTest, UnarmedRegistryIsInert) {
  EXPECT_FALSE(FailPointRegistry::AnyArmed());
  // An unarmed name passes through untouched.
  EXPECT_NO_THROW(FailPointRegistry::Global().MaybeTrip("never.armed"));
  EXPECT_EQ(FailPointRegistry::Global().TripCount("never.armed"), 0u);
}

TEST_F(FailPointTest, AlwaysAndOffSemantics) {
  EXPECT_EQ(TripPattern("always", 4, 1), (std::vector<bool>{1, 1, 1, 1}));
  EXPECT_EQ(TripPattern("off", 4, 1), (std::vector<bool>{0, 0, 0, 0}));
}

TEST_F(FailPointTest, OnceFirstAfterEverySemantics) {
  EXPECT_EQ(TripPattern("once", 4, 1), (std::vector<bool>{1, 0, 0, 0}));
  EXPECT_EQ(TripPattern("first:2", 5, 1), (std::vector<bool>{1, 1, 0, 0, 0}));
  EXPECT_EQ(TripPattern("after:2", 5, 1), (std::vector<bool>{0, 0, 1, 1, 1}));
  EXPECT_EQ(TripPattern("every:3", 7, 1),
            (std::vector<bool>{0, 0, 1, 0, 0, 1, 0}));
}

TEST_F(FailPointTest, ProbIsDeterministicUnderSeed) {
  const auto a = TripPattern("prob:0.5", 200, 42);
  const auto b = TripPattern("prob:0.5", 200, 42);
  EXPECT_EQ(a, b) << "same seed must yield a bit-identical trip pattern";
  const std::size_t trips =
      static_cast<std::size_t>(std::count(a.begin(), a.end(), true));
  EXPECT_GT(trips, 50u);
  EXPECT_LT(trips, 150u);
  // A different seed should (overwhelmingly) change the pattern.
  EXPECT_NE(a, TripPattern("prob:0.5", 200, 43));
}

TEST_F(FailPointTest, ProbEdgeValues) {
  EXPECT_EQ(TripPattern("prob:0.0", 10, 7), std::vector<bool>(10, false));
  EXPECT_EQ(TripPattern("prob:1.0", 10, 7), std::vector<bool>(10, true));
}

TEST_F(FailPointTest, MalformedSpecsThrowConfigError) {
  auto& registry = FailPointRegistry::Global();
  EXPECT_THROW(registry.Arm("x", ""), util::ConfigError);
  EXPECT_THROW(registry.Arm("x", "sometimes"), util::ConfigError);
  EXPECT_THROW(registry.Arm("x", "first:"), util::ConfigError);
  EXPECT_THROW(registry.Arm("x", "first:zero"), util::ConfigError);
  EXPECT_THROW(registry.Arm("x", "every:0"), util::ConfigError);
  EXPECT_THROW(registry.Arm("x", "prob:1.5"), util::ConfigError);
  EXPECT_THROW(registry.Arm("x", "prob:-0.1"), util::ConfigError);
  EXPECT_FALSE(FailPointRegistry::AnyArmed());
}

TEST_F(FailPointTest, ArmManyAndCounts) {
  auto& registry = FailPointRegistry::Global();
  registry.ArmMany("a=always;b=off");
  EXPECT_TRUE(FailPointRegistry::AnyArmed());
  const auto names = registry.ArmedNames();
  EXPECT_EQ(names.size(), 2u);
  EXPECT_THROW(registry.MaybeTrip("a"), InjectedFault);
  EXPECT_NO_THROW(registry.MaybeTrip("b"));
  EXPECT_NO_THROW(registry.MaybeTrip("b"));
  EXPECT_EQ(registry.HitCount("a"), 1u);
  EXPECT_EQ(registry.TripCount("a"), 1u);
  EXPECT_EQ(registry.HitCount("b"), 2u);
  EXPECT_EQ(registry.TripCount("b"), 0u);
  registry.DisarmAll();
  EXPECT_FALSE(FailPointRegistry::AnyArmed());
}

TEST_F(FailPointTest, EnvArming) {
  ::setenv("CFSF_FAILPOINTS", "env.point=first:1;env.other=off", 1);
  ::setenv("CFSF_FAILPOINTS_SEED", "99", 1);
  auto& registry = FailPointRegistry::Global();
  EXPECT_EQ(registry.ArmFromEnv(), 2u);
  EXPECT_THROW(registry.MaybeTrip("env.point"), InjectedFault);
  EXPECT_NO_THROW(registry.MaybeTrip("env.point"));
  ::unsetenv("CFSF_FAILPOINTS");
  ::unsetenv("CFSF_FAILPOINTS_SEED");
}

TEST_F(FailPointTest, MalformedEnvEntriesAreSkippedNotFatal) {
  ::setenv("CFSF_FAILPOINTS", "good=always;bad-no-equals;worse=banana", 1);
  auto& registry = FailPointRegistry::Global();
  EXPECT_EQ(registry.ArmFromEnv(), 1u);
  EXPECT_THROW(registry.MaybeTrip("good"), InjectedFault);
  ::unsetenv("CFSF_FAILPOINTS");
}

TEST_F(FailPointTest, ScopedFailPointDisarmsOnExit) {
  {
    ScopedFailPoint guard("scoped.point", "always");
    EXPECT_TRUE(FailPointRegistry::AnyArmed());
    EXPECT_THROW(FailPointRegistry::Global().MaybeTrip("scoped.point"),
                 InjectedFault);
  }
  EXPECT_FALSE(FailPointRegistry::AnyArmed());
  EXPECT_NO_THROW(FailPointRegistry::Global().MaybeTrip("scoped.point"));
}

// ------------------------------------------------- wired failpoints ----

TEST_F(FailPointTest, MovielensParseLineFailpointFires) {
  ScopedFailPoint guard("movielens.parse_line", "once");
  EXPECT_THROW(data::ParseUData("1\t2\t3\t4\n"), InjectedFault);
  // Disarmed replay parses fine (trigger was `once` and already spent).
  EXPECT_EQ(data::ParseUData("1\t2\t3\t4\n").matrix.num_ratings(), 1u);
}

TEST_F(FailPointTest, ThreadPoolTaskFailpointSurfacesAtWait) {
  ScopedFailPoint guard("threadpool.task", "once");
  par::ThreadPool pool(2);
  for (int i = 0; i < 8; ++i) {
    pool.Submit([] {});
  }
  EXPECT_THROW(pool.Wait(), InjectedFault);
  // The pool survives the injected fault and keeps serving.
  pool.Submit([] {});
  EXPECT_NO_THROW(pool.Wait());
}

TEST_F(FailPointTest, CfsfFitFailpointFires) {
  data::SyntheticConfig dconfig;
  dconfig.num_users = 30;
  dconfig.num_items = 40;
  dconfig.min_ratings_per_user = 10;
  const auto m = data::GenerateSynthetic(dconfig);
  core::CfsfConfig config;
  config.num_clusters = 4;
  config.top_m_items = 10;
  config.top_k_users = 5;
  core::CfsfModel model(config);
  {
    ScopedFailPoint guard("cfsf.fit", "always");
    EXPECT_THROW(model.Fit(m), InjectedFault);
    EXPECT_FALSE(model.fitted());
  }
  EXPECT_NO_THROW(model.Fit(m));
  EXPECT_TRUE(model.fitted());
}

// ---------------------------------------------------------- ladder ----

class LadderTest : public FailPointTest {
 protected:
  static core::CfsfModel& Model() {
    static core::CfsfModel* model = [] {
      data::SyntheticConfig dconfig;
      dconfig.num_users = 60;
      dconfig.num_items = 80;
      dconfig.min_ratings_per_user = 15;
      core::CfsfConfig config;
      config.num_clusters = 5;
      config.top_m_items = 15;
      config.top_k_users = 8;
      auto* m = new core::CfsfModel(config);  // cfsf-lint: allow(naked-new)
      m->Fit(data::GenerateSynthetic(dconfig));
      return m;
    }();
    return *model;
  }
};

TEST_F(LadderTest, FullRungWhenNothingFails) {
  const robust::Ladder ladder(Model());
  const auto result =
      ladder.PredictWithLadder(0, 0, robust::Deadline());
  EXPECT_EQ(result.rung, robust::PredictionRung::kFull);
  EXPECT_FALSE(result.deadline_overrun);
  EXPECT_GE(result.value, 1.0);
  EXPECT_LE(result.value, 5.0);
  EXPECT_DOUBLE_EQ(result.value,
                   std::clamp(Model().Predict(0, 0), 1.0, 5.0));
}

TEST_F(LadderTest, FallsBackToSirWhenFullPathFaults) {
  const robust::Ladder ladder(Model());
  ScopedFailPoint guard("cfsf.predict", "always");
  const auto result =
      ladder.PredictWithLadder(0, 0, robust::Deadline());
  // SIR′ may have no evidence for (0,0); either rung 1 or rung 2 is
  // acceptable, but never rung 0 and always a finite in-range value.
  EXPECT_NE(result.rung, robust::PredictionRung::kFull);
  EXPECT_TRUE(std::isfinite(result.value));
  EXPECT_GE(result.value, 1.0);
  EXPECT_LE(result.value, 5.0);
}

TEST_F(LadderTest, FallsBackToUserMeanWhenSirFaultsToo) {
  const robust::Ladder ladder(Model());
  ScopedFailPoint full("cfsf.predict", "always");
  ScopedFailPoint sir("cfsf.predict.sir", "always");
  const auto result =
      ladder.PredictWithLadder(3, 7, robust::Deadline());
  EXPECT_EQ(result.rung, robust::PredictionRung::kUserMean);
  EXPECT_DOUBLE_EQ(result.value,
                   std::clamp(Model().train().UserMean(3), 1.0, 5.0));
}

TEST_F(LadderTest, OutOfRangeUserLandsOnGlobalMean) {
  const robust::Ladder ladder(Model());
  const auto user =
      static_cast<matrix::UserId>(Model().NumUsers() + 100);
  const auto result =
      ladder.PredictWithLadder(user, 0, robust::Deadline());
  EXPECT_EQ(result.rung, robust::PredictionRung::kGlobalMean);
  EXPECT_DOUBLE_EQ(result.value,
                   std::clamp(Model().train().GlobalMean(), 1.0, 5.0));
}

TEST_F(LadderTest, ExpiredDeadlineSkipsExpensiveRungs) {
  const robust::Ladder ladder(Model());
  auto& overruns = obs::MetricsRegistry::Global().GetCounter(
      "robust.deadline_overruns");
  const auto before = overruns.Value();
  const auto result = ladder.PredictWithLadder(
      1, 1, robust::Deadline::After(std::chrono::microseconds(0)));
  EXPECT_TRUE(result.deadline_overrun);
  EXPECT_EQ(result.rung, robust::PredictionRung::kUserMean);
  EXPECT_GE(result.value, 1.0);
  EXPECT_LE(result.value, 5.0);
  if (obs::MetricsEnabled()) {
    EXPECT_EQ(overruns.Value(), before + 1);
  }
}

TEST_F(LadderTest, FallbackCountersAdvance) {
  if (!obs::MetricsEnabled()) GTEST_SKIP() << "metrics compiled out";
  auto& registry = obs::MetricsRegistry::Global();
  auto& sir = registry.GetCounter("robust.fallback.sir");
  auto& user_mean = registry.GetCounter("robust.fallback.user_mean");
  const auto sir_before = sir.Value();
  const auto mean_before = user_mean.Value();
  const robust::Ladder ladder(Model());
  ScopedFailPoint full("cfsf.predict", "always");
  for (matrix::UserId u = 0; u < 10; ++u) {
    const auto result = ladder.PredictWithLadder(u, u, robust::Deadline());
    EXPECT_NE(result.rung, robust::PredictionRung::kFull);
  }
  EXPECT_GT(sir.Value() + user_mean.Value(), sir_before + mean_before);
}

TEST_F(LadderTest, BatchDeadlineStopsTierDescentOnceSpent) {
  const robust::Ladder ladder(Model());
  std::vector<std::pair<matrix::UserId, matrix::ItemId>> queries;
  for (matrix::UserId u = 0; u < 30; ++u) queries.emplace_back(u, u % 7);

  // An already-expired batch deadline: every query must skip the
  // expensive rungs and resolve from the mean anchors.
  const auto spent = ladder.PredictBatchWithLadder(
      queries, robust::Deadline::After(std::chrono::microseconds(0)));
  ASSERT_EQ(spent.size(), queries.size());
  for (const auto& result : spent) {
    EXPECT_TRUE(result.deadline_overrun);
    EXPECT_TRUE(result.rung == robust::PredictionRung::kUserMean ||
                result.rung == robust::PredictionRung::kGlobalMean);
    EXPECT_GE(result.value, 1.0);
    EXPECT_LE(result.value, 5.0);
  }

  // An unlimited batch deadline serves the full rung.
  const auto fresh =
      ladder.PredictBatchWithLadder(queries, robust::Deadline());
  ASSERT_EQ(fresh.size(), queries.size());
  EXPECT_EQ(fresh.front().rung, robust::PredictionRung::kFull);
}

TEST_F(LadderTest, BatchBudgetOptionFlowsThroughPredictBatch) {
  // A 1us budget shared by 40 queries expires well before the batch
  // ends: the tail overruns, yet every answer stays on the scale.
  const robust::Ladder ladder(Model());
  auto& overruns = obs::MetricsRegistry::Global().GetCounter(
      "robust.deadline_overruns");
  const auto before = overruns.Value();
  std::vector<std::pair<matrix::UserId, matrix::ItemId>> queries;
  for (matrix::UserId u = 0; u < 40; ++u) queries.emplace_back(u, u % 9);
  const auto tight = ladder.PredictBatchWithLadder(
      queries, robust::Deadline::After(std::chrono::microseconds(1)));
  ASSERT_EQ(tight.size(), queries.size());
  for (const auto& result : tight) {
    EXPECT_TRUE(std::isfinite(result.value));
    EXPECT_GE(result.value, 1.0);
    EXPECT_LE(result.value, 5.0);
  }
  EXPECT_TRUE(tight.back().deadline_overrun);
  if (obs::MetricsEnabled()) {
    EXPECT_GT(overruns.Value(), before);
  }
}

TEST_F(LadderTest, FloorRungPinsDegradedTiers) {
  const robust::Ladder ladder(Model());
  const auto sir_floor = ladder.PredictWithLadder(
      0, 0, robust::Deadline(), robust::PredictionRung::kSir);
  EXPECT_NE(sir_floor.rung, robust::PredictionRung::kFull);
  const auto mean_floor = ladder.PredictWithLadder(
      0, 0, robust::Deadline(), robust::PredictionRung::kUserMean);
  EXPECT_EQ(mean_floor.rung, robust::PredictionRung::kUserMean);
  EXPECT_DOUBLE_EQ(mean_floor.value,
                   std::clamp(Model().train().UserMean(0), 1.0, 5.0));
  const auto global_floor = ladder.PredictWithLadder(
      0, 0, robust::Deadline(), robust::PredictionRung::kGlobalMean);
  EXPECT_EQ(global_floor.rung, robust::PredictionRung::kGlobalMean);
  EXPECT_DOUBLE_EQ(global_floor.value,
                   std::clamp(Model().train().GlobalMean(), 1.0, 5.0));
}

TEST_F(LadderTest, PredictBatchIsTotalUnderProbFaults) {
  const robust::Ladder ladder(Model());
  FailPointRegistry::Global().SetSeed(7);
  ScopedFailPoint full("cfsf.predict", "prob:0.5");
  ScopedFailPoint sir("cfsf.predict.sir", "prob:0.5");
  std::vector<std::pair<matrix::UserId, matrix::ItemId>> queries;
  for (matrix::UserId u = 0; u < 20; ++u) queries.emplace_back(u, u % 11);
  const auto out = ladder.PredictBatchWithLadder(queries, robust::Deadline());
  ASSERT_EQ(out.size(), queries.size());
  for (const auto& result : out) {
    EXPECT_TRUE(std::isfinite(result.value));
    EXPECT_GE(result.value, 1.0);
    EXPECT_LE(result.value, 5.0);
  }
}

// -------------------------------------------------- lenient loader ----

constexpr const char* kDamagedUData =
    "1\t10\t4\t100\n"
    "2\t10\tnot-a-rating\t100\n"
    "2\t11\t3\t100\n"
    "3\t12\n"
    "3\t10\t5\t100\n";

TEST(LenientLoader, StrictModeThrowsOnFirstBadLine) {
  EXPECT_THROW(data::ParseUData(kDamagedUData), util::IoError);
}

TEST(LenientLoader, LenientModeQuarantinesAndKeepsGoodLines) {
  data::MovieLensOptions options;
  options.lenient = true;
  const auto loaded = data::ParseUData(kDamagedUData, options);
  EXPECT_EQ(loaded.quarantined_lines, 2u);
  EXPECT_EQ(loaded.matrix.num_ratings(), 3u);
  EXPECT_EQ(loaded.matrix.num_users(), 3u);
}

TEST(LenientLoader, QuarantineMetricAdvances) {
  if (!obs::MetricsEnabled()) GTEST_SKIP() << "metrics compiled out";
  auto& counter =
      obs::MetricsRegistry::Global().GetCounter("data.quarantined_lines");
  const auto before = counter.Value();
  data::MovieLensOptions options;
  options.lenient = true;
  (void)data::ParseUData(kDamagedUData, options);
  EXPECT_EQ(counter.Value(), before + 2);
}

TEST(LenientLoader, CleanFileQuarantinesNothing) {
  data::MovieLensOptions options;
  options.lenient = true;
  const auto loaded = data::ParseUData("1\t10\t4\t100\n", options);
  EXPECT_EQ(loaded.quarantined_lines, 0u);
  EXPECT_EQ(loaded.matrix.num_ratings(), 1u);
}

}  // namespace
}  // namespace cfsf
