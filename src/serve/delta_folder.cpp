#include "serve/delta_folder.hpp"

#include <algorithm>
#include <exception>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "util/backoff.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"

namespace cfsf::serve {

namespace {

struct FoldMetrics {
  obs::Counter& folded;
  obs::Counter& skipped;
  obs::Counter& publishes;
  obs::Counter& failures;
  obs::Gauge& staleness_us;

  static FoldMetrics& Instance() {
    static FoldMetrics metrics = [] {
      auto& registry = obs::MetricsRegistry::Global();
      return FoldMetrics{
          registry.GetCounter(obs::names::kWalFoldedRecords),
          registry.GetCounter(obs::names::kWalFoldSkipped),
          registry.GetCounter(obs::names::kWalFoldPublishes),
          registry.GetCounter(obs::names::kWalFoldFailures),
          registry.GetGauge(obs::names::kWalStalenessUs),
      };
    }();
    return metrics;
  }
};

}  // namespace

DeltaFolder::DeltaFolder(wal::WriteAheadLog& log, ModelGeneration& models,
                         std::shared_ptr<const core::CfsfModel> model,
                         const DeltaFolderOptions& options)
    : log_(log), models_(models), options_(options), current_(std::move(model)) {
  CFSF_REQUIRE(current_ != nullptr, "DeltaFolder: model required");
  util::MutexLock lock(&mutex_);
  watermark_ = options_.initial_watermark;
}

DeltaFolder::~DeltaFolder() { Stop(); }

std::uint64_t DeltaFolder::PublishNow() {
  util::MutexLock lock(&mutex_);
  ++publishes_;
  FoldMetrics::Instance().publishes.Increment();
  return models_.Install(current_);
}

std::size_t DeltaFolder::FoldOnce() {
  FoldMetrics& metrics = FoldMetrics::Instance();
  // Declared before the lock, so the replaced generation is released
  // after it: when nothing else pins that model, its destructor runs
  // outside the folder mutex.
  std::shared_ptr<const core::CfsfModel> replaced;
  std::size_t drained = 0;
  std::size_t folded = 0;
  std::uint64_t skipped_total = 0;
  bool warn_skipped = false;
  std::chrono::steady_clock::time_point oldest_ack;
  {
    util::MutexLock lock(&mutex_);
    // Drained under the folder mutex, so concurrent passes commit
    // batches in lsn order.
    log_.DrainAcked(&pending_);
    if (pending_.empty()) return 0;

    std::shared_ptr<const core::CfsfModel> next;
    try {
      std::vector<matrix::RatingTriple> in_range;
      in_range.reserve(pending_.size());
      for (const wal::AckedRecord& acked : pending_) {
        const matrix::RatingTriple& r = acked.record;
        // Out-of-range ids are durable but not foldable; cold-start
        // enrolment (CfsfModel::AddUser) is a separate path.
        if (r.user < current_->NumUsers() && r.item < current_->NumItems()) {
          in_range.push_back(r);
        }
      }
      folded = in_range.size();
      if (folded > 0) next = current_->WithRatings(in_range);
    } catch (...) {
      // Nothing is committed: the records stay pending, ahead of
      // whatever the next pass drains.
      metrics.failures.Increment();
      throw;
    }

    // Commit the generation, the watermark and the counters together.
    drained = pending_.size();
    oldest_ack = pending_.front().acked_at;
    for (const wal::AckedRecord& acked : pending_) {
      oldest_ack = std::min(oldest_ack, acked.acked_at);
    }
    const std::size_t skipped = drained - folded;
    folded_ += folded;
    skipped_ += skipped;
    // Drained is drained: a skipped record is permanently unfoldable
    // against this model, so the watermark advances over it — the
    // backlog is surfaced below, not replayed forever.
    watermark_ = std::max(watermark_, pending_.back().lsn);
    pending_.clear();
    if (next != nullptr) {
      replaced = std::exchange(current_, std::move(next));
      ++publishes_;
      // Published under the folder mutex, so generations go live in
      // fold order.
      models_.Install(current_);
    }
    if (skipped > 0) {
      const auto now = std::chrono::steady_clock::now();
      if (last_skip_warn_.time_since_epoch().count() == 0 ||
          now - last_skip_warn_ >= options_.skip_warn_interval) {
        last_skip_warn_ = now;
        warn_skipped = true;
        skipped_total = skipped_;
      }
    }
  }
  metrics.folded.Increment(folded);
  metrics.skipped.Increment(drained - folded);
  if (warn_skipped) {
    CFSF_LOG_WARN << "delta folder: " << drained - folded
                  << " record(s) outside the model's dimensions this "
                     "batch ("
                  << skipped_total
                  << " total); they are durable but will never fold — "
                     "enrol the users/items or expect a stale backlog";
  }
  if (replaced != nullptr) {  // a generation was published
    metrics.publishes.Increment();
    metrics.staleness_us.Set(std::chrono::duration<double, std::micro>(
                                 std::chrono::steady_clock::now() - oldest_ack)
                                 .count());
  }
  return drained;
}

void DeltaFolder::Start() {
  {
    util::MutexLock lock(&mutex_);
    if (running_) return;
    running_ = true;
    stop_ = false;
  }
  thread_ = std::thread(&DeltaFolder::Loop, this);
}

void DeltaFolder::Stop() {
  {
    util::MutexLock lock(&mutex_);
    if (!running_) return;
    stop_ = true;
  }
  if (thread_.joinable()) thread_.join();
  util::MutexLock lock(&mutex_);
  running_ = false;
}

void DeltaFolder::Loop() {
  for (;;) {
    {
      util::MutexLock lock(&mutex_);
      if (stop_) return;
    }
    try {
      FoldOnce();
    } catch (const std::exception&) {
      // A fold failure (an injected fault, a failed check, an
      // allocation failure) must not kill the thread.  It is counted in
      // wal.fold.failures and committed nothing; the batch stays
      // pending and is folded first on the next pass.
    }
    util::SleepFor(options_.poll_interval);
  }
}

FoldSnapshot DeltaFolder::Snapshot() const {
  util::MutexLock lock(&mutex_);
  return FoldSnapshot{current_, watermark_};
}

std::uint64_t DeltaFolder::fold_watermark() const {
  util::MutexLock lock(&mutex_);
  return watermark_;
}

std::uint64_t DeltaFolder::folded_records() const {
  util::MutexLock lock(&mutex_);
  return folded_;
}

std::uint64_t DeltaFolder::skipped_records() const {
  util::MutexLock lock(&mutex_);
  return skipped_;
}

std::uint64_t DeltaFolder::publishes() const {
  util::MutexLock lock(&mutex_);
  return publishes_;
}

}  // namespace cfsf::serve
