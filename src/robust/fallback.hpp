// Graceful-degradation prediction ladder.
//
// A serving process must answer every (user, item) query — even when the
// full CFSF path cannot produce an estimate (an injected or real fault,
// a malformed input row, an expired latency budget).  The ladder steps
// down through progressively cheaper, progressively cruder estimators,
// mirroring how the paper's own fusion already blends SIR′/SUR′/SUIR′
// and how SF-style fusion falls back when a component has no evidence:
//
//   rung 0  full CFSF fusion     Eq. 14 over the local M×K matrix
//   rung 1  SIR′-only            item-based estimate straight off the GIS
//                                row — no top-K user selection, so it
//                                skips the expensive online step entirely
//   rung 2  user mean            r̄_u (global mean for unseen users)
//   rung 3  global mean          always available, O(1)
//
// A per-call Deadline (steady-clock budget) is checked between rungs:
// once the budget is spent, the remaining expensive rungs are skipped
// and the call resolves from the mean rungs.  A batch threads one shared
// Deadline through every query, so it stops descending tiers as soon as
// its budget is spent instead of burning a fresh budget per query.
// Every rung's answer is clamped into the rating scale [1, 5].
//
// Every degradation is counted in the process-wide MetricsRegistry:
//   robust.fallback.sir / robust.fallback.user_mean /
//   robust.fallback.global_mean / robust.deadline_overruns
#pragma once

#include <chrono>
#include <span>
#include <utility>
#include <vector>

#include "matrix/types.hpp"
#include "util/attrs.hpp"

namespace cfsf::core {
class CfsfModel;
}  // namespace cfsf::core

namespace cfsf::robust {

/// A steady-clock budget for one call.  Default-constructed deadlines are
/// unlimited; After(0) is already expired.
class Deadline {
 public:
  Deadline() = default;  // unlimited

  static Deadline After(std::chrono::microseconds budget) {
    Deadline d;
    d.limited_ = true;
    d.at_ = std::chrono::steady_clock::now() + budget;
    return d;
  }

  bool unlimited() const { return !limited_; }

  bool Expired() const {
    return limited_ && std::chrono::steady_clock::now() >= at_;
  }

 private:
  bool limited_ = false;
  std::chrono::steady_clock::time_point at_{};
};

/// Which rung produced the answer.
enum class PredictionRung { kFull, kSir, kUserMean, kGlobalMean };

inline const char* ToString(PredictionRung rung) {
  switch (rung) {
    case PredictionRung::kFull: return "full";
    case PredictionRung::kSir: return "sir";
    case PredictionRung::kUserMean: return "user_mean";
    case PredictionRung::kGlobalMean: return "global_mean";
  }
  return "unknown";
}

struct LadderResult {
  double value = 0.0;
  PredictionRung rung = PredictionRung::kFull;
  /// True when at least one rung was skipped because the deadline had
  /// expired (also counted in robust.deadline_overruns).
  bool deadline_overrun = false;
};

/// The ladder over one fitted model.  Never throws given a fitted model
/// and never exceeds its deadline by more than one rung's work.  Holds
/// only a reference, so it is cheap to copy and one instance may serve
/// concurrent callers.
class Ladder {
 public:
  explicit Ladder(const core::CfsfModel& model) : model_(model) {}

  /// One query down the ladder.  `floor` is the best rung the call may
  /// serve from — the serving stack's circuit breaker passes kSir/
  /// kUserMean/kGlobalMean to pin a degraded tier.
  LadderResult PredictWithLadder(matrix::UserId user, matrix::ItemId item,
                                 Deadline deadline,
                                 PredictionRung floor =
                                     PredictionRung::kFull) const
      CFSF_HOT_PATH;

  /// Serial ladder loop under one shared deadline; the serving stack's
  /// deadline-propagation path.  (The model's parallel batch path does
  /// not apply per-query deadlines, so the ladder deliberately trades
  /// batch throughput for bounded per-query behaviour.)
  std::vector<LadderResult> PredictBatchWithLadder(
      std::span<const std::pair<matrix::UserId, matrix::ItemId>> queries,
      Deadline batch_deadline,
      PredictionRung floor = PredictionRung::kFull) const CFSF_HOT_PATH;

 private:
  const core::CfsfModel& model_;
};

}  // namespace cfsf::robust
