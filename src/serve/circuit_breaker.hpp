// Circuit breaker over the degradation ladder — trips the whole serving
// stack down a tier under sustained failure, and climbs back up through
// probe requests.
//
// Unlike robust::Ladder, which degrades ONE call after its rungs already
// failed, the breaker watches the aggregate outcome stream and moves the
// default tier for EVERY subsequent request, so a sick dependency (a
// corrupt model section, an armed failpoint storm, a saturated machine)
// stops burning a full-fusion attempt per query.
//
// Tiers map onto the ladder's rungs:
//
//   tier 0  full fusion     tier 2  user mean
//   tier 1  SIR′-only       tier 3  global mean
//
// State machine (per-tier, classic closed/open/half-open):
//
//   kClosed   serve at `level`; a sliding window of outcomes is scored —
//             bad_fraction >= kTripThreshold over >= min_samples trips
//             the breaker one tier down (level+1, at most kMaxLevel) and
//             opens it.
//   kOpen     serve at `level`, no scoring; after `cooldown` the next
//             Admit() half-opens.  Trips can still fire from kOpen if
//             the degraded tier itself keeps failing.
//   kHalfOpen the next `probe_count` requests are *probes* served one
//             tier up (level-1); the rest stay at `level`.  When all
//             probes report: success fraction >= kProbeSuccessThreshold
//             recovers one tier (level-1, back to kClosed — or kOpen
//             again if still above tier 0, so the next cooldown probes
//             the following tier); otherwise the breaker re-opens at the
//             current level with a fresh cooldown.
//
// "Bad" is the caller's call (ServingStack counts errors, deadline
// overruns, and serving below the planned rung).  All transitions are
// counted: serve.breaker.trips / serve.breaker.recoveries /
// serve.breaker.probes, plus the serve.breaker.level gauge.
#pragma once

#include <chrono>
#include <cstdint>
#include <vector>

#include "util/mutex.hpp"

namespace cfsf::serve {

enum class BreakerState { kClosed, kOpen, kHalfOpen };

const char* ToString(BreakerState state);

struct CircuitBreakerOptions {
  /// Sliding window of the most recent non-probe outcomes.
  std::size_t window = 64;
  /// Minimum outcomes in the window before a trip can fire.
  std::size_t min_samples = 16;
  /// How long an open breaker serves degraded before probing again.
  std::chrono::milliseconds cooldown{25};
  /// Probe requests issued per half-open episode.
  std::size_t probe_count = 4;
};

/// One admission decision: serve this request at `level` (0..kMaxLevel);
/// `probe` marks a half-open probe running one tier better than the
/// breaker's current level.  `epoch` ties the outcome back to the state
/// the plan was made under, so stale results of a superseded episode
/// cannot corrupt the next one.
struct BreakerPlan {
  std::size_t level = 0;
  bool probe = false;
  std::uint64_t epoch = 0;
};

/// Thread-safe; one instance is shared by every worker in a ServingStack.
class CircuitBreaker {
 public:
  /// Bad fraction at or above which the breaker trips a tier down.
  static constexpr double kTripThreshold = 0.5;
  /// Probe success fraction needed to recover a tier.
  static constexpr double kProbeSuccessThreshold = 0.75;
  /// Deepest tier the breaker may trip to (the global mean).
  static constexpr std::size_t kMaxLevel = 3;

  explicit CircuitBreaker(const CircuitBreakerOptions& options = {});

  /// Plans one request.  Handles the open->half-open transition on the
  /// way (time-based, no background thread needed).
  BreakerPlan Admit() CFSF_EXCLUDES(mutex_);

  /// Reports the outcome of a planned request.  `bad` = error, deadline
  /// overrun, or served below the planned rung.  `served_level` is the
  /// tier the request actually ran at — when admission control bumped it
  /// past the plan (queue watermark), the outcome no longer speaks for
  /// the planned tier and probe accounting ignores it.
  void Record(const BreakerPlan& plan, std::size_t served_level, bool bad)
      CFSF_EXCLUDES(mutex_);

  BreakerState state() const CFSF_EXCLUDES(mutex_);
  /// Current degradation level (0 = full fusion).
  std::size_t level() const CFSF_EXCLUDES(mutex_);
  std::uint64_t trips() const CFSF_EXCLUDES(mutex_);
  std::uint64_t recoveries() const CFSF_EXCLUDES(mutex_);

  const CircuitBreakerOptions& options() const { return options_; }

 private:
  void TripLocked() CFSF_REQUIRES(mutex_);
  void ClearWindowLocked() CFSF_REQUIRES(mutex_);

  const CircuitBreakerOptions options_;

  mutable util::Mutex mutex_;
  BreakerState state_ CFSF_GUARDED_BY(mutex_) = BreakerState::kClosed;
  std::size_t level_ CFSF_GUARDED_BY(mutex_) = 0;
  std::uint64_t epoch_ CFSF_GUARDED_BY(mutex_) = 0;
  std::chrono::steady_clock::time_point opened_at_ CFSF_GUARDED_BY(mutex_){};
  // Outcome ring buffer (true = bad), plus a running bad count.
  std::vector<bool> window_ CFSF_GUARDED_BY(mutex_);
  std::size_t window_next_ CFSF_GUARDED_BY(mutex_) = 0;
  std::size_t window_filled_ CFSF_GUARDED_BY(mutex_) = 0;
  std::size_t window_bad_ CFSF_GUARDED_BY(mutex_) = 0;
  // Half-open probe accounting for the current epoch.
  std::size_t probes_issued_ CFSF_GUARDED_BY(mutex_) = 0;
  std::size_t probes_good_ CFSF_GUARDED_BY(mutex_) = 0;
  std::size_t probes_bad_ CFSF_GUARDED_BY(mutex_) = 0;
  std::uint64_t trips_ CFSF_GUARDED_BY(mutex_) = 0;
  std::uint64_t recoveries_ CFSF_GUARDED_BY(mutex_) = 0;
};

}  // namespace cfsf::serve
