#include "robust/fallback.hpp"

#include <algorithm>

#include "core/cfsf_model.hpp"
#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "util/error.hpp"

namespace cfsf::robust {

namespace {

// Ladder instrumentation, resolved once against the global registry.
// Names are documented in docs/ROBUSTNESS.md.
struct LadderMetrics {
  obs::Counter& fallback_sir;
  obs::Counter& fallback_user_mean;
  obs::Counter& fallback_global_mean;
  obs::Counter& deadline_overruns;

  static const LadderMetrics& Get() {
    static const LadderMetrics metrics = [] {
      auto& registry = obs::MetricsRegistry::Global();
      return LadderMetrics{
          registry.GetCounter(obs::names::kRobustFallbackSir),
          registry.GetCounter(obs::names::kRobustFallbackUserMean),
          registry.GetCounter(obs::names::kRobustFallbackGlobalMean),
          registry.GetCounter(obs::names::kRobustDeadlineOverruns),
      };
    }();
    return metrics;
  }
};

// Every rung answers on the rating scale.
double Clamp(double value) { return std::clamp(value, 1.0, 5.0); }

}  // namespace

LadderResult Ladder::PredictWithLadder(matrix::UserId user,
                                       matrix::ItemId item, Deadline deadline,
                                       PredictionRung floor) const {
  const auto& metrics = LadderMetrics::Get();
  LadderResult result;
  const bool in_domain =
      user < model_.NumUsers() && item < model_.NumItems();

  if (in_domain) {
    // Rung 0: full fusion (skipped when the floor pins a cheaper tier).
    if (floor <= PredictionRung::kFull) {
      if (deadline.Expired()) {
        result.deadline_overrun = true;
      } else {
        try {
          result.value = Clamp(model_.Predict(user, item));
          result.rung = PredictionRung::kFull;
          return result;
        } catch (const util::Error&) {
          // Fall through to the next rung.
        }
      }
    }
    // Rung 1: SIR′-only — no top-K selection, just the GIS row.
    if (floor <= PredictionRung::kSir) {
      if (deadline.Expired()) {
        result.deadline_overrun = true;
      } else {
        try {
          if (const auto sir = model_.PredictSirOnly(user, item)) {
            if (result.deadline_overrun) metrics.deadline_overruns.Increment();
            metrics.fallback_sir.Increment();
            result.value = Clamp(*sir);
            result.rung = PredictionRung::kSir;
            return result;
          }
        } catch (const util::Error&) {
          // Fall through to the mean rungs.
        }
      }
    }
  }

  if (result.deadline_overrun) metrics.deadline_overruns.Increment();

  // Rungs 2/3: O(1) anchors, never skipped — a serving process always
  // answers.
  if (user < model_.NumUsers() && floor <= PredictionRung::kUserMean) {
    metrics.fallback_user_mean.Increment();
    result.value = Clamp(model_.train().UserMean(user));
    result.rung = PredictionRung::kUserMean;
  } else {
    metrics.fallback_global_mean.Increment();
    result.value = Clamp(model_.train().GlobalMean());
    result.rung = PredictionRung::kGlobalMean;
  }
  return result;
}

std::vector<LadderResult> Ladder::PredictBatchWithLadder(
    std::span<const std::pair<matrix::UserId, matrix::ItemId>> queries,
    Deadline batch_deadline, PredictionRung floor) const {
  std::vector<LadderResult> out;
  out.reserve(queries.size());
  for (const auto& [user, item] : queries) {
    out.push_back(PredictWithLadder(user, item, batch_deadline, floor));
  }
  return out;
}

}  // namespace cfsf::robust
