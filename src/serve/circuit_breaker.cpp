#include "serve/circuit_breaker.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "util/error.hpp"

namespace cfsf::serve {

namespace {

struct BreakerMetrics {
  obs::Counter& trips;
  obs::Counter& recoveries;
  obs::Counter& probes;
  obs::Gauge& level;

  static const BreakerMetrics& Get() {
    static const BreakerMetrics metrics = [] {
      auto& registry = obs::MetricsRegistry::Global();
      return BreakerMetrics{
          registry.GetCounter(obs::names::kServeBreakerTrips),
          registry.GetCounter(obs::names::kServeBreakerRecoveries),
          registry.GetCounter(obs::names::kServeBreakerProbes),
          registry.GetGauge(obs::names::kServeBreakerLevel),
      };
    }();
    return metrics;
  }
};

}  // namespace

const char* ToString(BreakerState state) {
  switch (state) {
    case BreakerState::kClosed: return "closed";
    case BreakerState::kOpen: return "open";
    case BreakerState::kHalfOpen: return "half_open";
  }
  return "unknown";
}

CircuitBreaker::CircuitBreaker(const CircuitBreakerOptions& options)
    : options_(options) {
  CFSF_REQUIRE(options.window > 0, "CircuitBreaker: window must be positive");
  CFSF_REQUIRE(options.min_samples > 0 && options.min_samples <= options.window,
               "CircuitBreaker: min_samples must be in [1, window]");
  CFSF_REQUIRE(options.probe_count > 0,
               "CircuitBreaker: probe_count must be positive");
  util::MutexLock lock(&mutex_);
  window_.assign(options_.window, false);
}

void CircuitBreaker::ClearWindowLocked() {
  std::fill(window_.begin(), window_.end(), false);
  window_next_ = 0;
  window_filled_ = 0;
  window_bad_ = 0;
}

void CircuitBreaker::TripLocked() {
  level_ = std::min(level_ + 1, kMaxLevel);
  state_ = BreakerState::kOpen;
  opened_at_ = std::chrono::steady_clock::now();
  ++epoch_;
  ++trips_;
  ClearWindowLocked();
  BreakerMetrics::Get().trips.Increment();
  BreakerMetrics::Get().level.Set(static_cast<double>(level_));
}

BreakerPlan CircuitBreaker::Admit() {
  util::MutexLock lock(&mutex_);
  if (state_ == BreakerState::kOpen &&
      std::chrono::steady_clock::now() - opened_at_ >= options_.cooldown) {
    state_ = BreakerState::kHalfOpen;
    ++epoch_;
    probes_issued_ = 0;
    probes_good_ = 0;
    probes_bad_ = 0;
  }
  if (state_ == BreakerState::kHalfOpen &&
      probes_issued_ < options_.probe_count && level_ > 0) {
    ++probes_issued_;
    BreakerMetrics::Get().probes.Increment();
    return BreakerPlan{level_ - 1, true, epoch_};
  }
  return BreakerPlan{level_, false, epoch_};
}

void CircuitBreaker::Record(const BreakerPlan& plan, std::size_t served_level,
                            bool bad) {
  util::MutexLock lock(&mutex_);
  const bool plan_still_current = plan.epoch == epoch_;
  if (plan.probe && served_level == plan.level) {
    // Probe outcome — only meaningful inside the episode it was issued
    // for; a stale probe (breaker re-tripped meanwhile) is dropped.
    if (!plan_still_current || state_ != BreakerState::kHalfOpen) return;
    (bad ? probes_bad_ : probes_good_) += 1;
    if (probes_good_ + probes_bad_ < options_.probe_count) return;
    const double good_fraction =
        static_cast<double>(probes_good_) /
        static_cast<double>(probes_good_ + probes_bad_);
    if (good_fraction >= kProbeSuccessThreshold) {
      // The better tier works: recover one level.  Still degraded?
      // Re-open so the next cooldown probes the following tier up.
      level_ = plan.level;
      ++recoveries_;
      ++epoch_;
      BreakerMetrics::Get().recoveries.Increment();
      BreakerMetrics::Get().level.Set(static_cast<double>(level_));
      if (level_ > 0) {
        state_ = BreakerState::kOpen;
        opened_at_ = std::chrono::steady_clock::now();
      } else {
        state_ = BreakerState::kClosed;
      }
      ClearWindowLocked();
    } else {
      // The better tier is still sick: back to open, fresh cooldown.
      state_ = BreakerState::kOpen;
      opened_at_ = std::chrono::steady_clock::now();
      ++epoch_;
    }
    return;
  }

  // Normal (non-probe) outcome: score the sliding window.  Probes whose
  // tier was overridden by admission control land here too — they speak
  // for the tier they actually ran at, not the one being probed.
  if (window_bad_ > 0 && window_[window_next_]) --window_bad_;
  window_[window_next_] = bad;
  if (bad) ++window_bad_;
  window_next_ = (window_next_ + 1) % window_.size();
  window_filled_ = std::min(window_filled_ + 1, window_.size());

  if (state_ == BreakerState::kHalfOpen) return;  // probes decide here
  if (window_filled_ < options_.min_samples) return;
  const double bad_fraction = static_cast<double>(window_bad_) /
                              static_cast<double>(window_filled_);
  if (bad_fraction >= kTripThreshold &&
      (level_ < kMaxLevel || state_ == BreakerState::kClosed)) {
    TripLocked();
  }
}

BreakerState CircuitBreaker::state() const {
  util::MutexLock lock(&mutex_);
  return state_;
}

std::size_t CircuitBreaker::level() const {
  util::MutexLock lock(&mutex_);
  return level_;
}

std::uint64_t CircuitBreaker::trips() const {
  util::MutexLock lock(&mutex_);
  return trips_;
}

std::uint64_t CircuitBreaker::recoveries() const {
  util::MutexLock lock(&mutex_);
  return recoveries_;
}

}  // namespace cfsf::serve
