// DeltaFolder — folds durably acked ratings into the serving model.
//
// The WAL makes a rating durable; this folder makes it *visible*.  A
// background thread drains the log's acked queue and derives the next
// model generation from the current one in one batch step,
// CfsfModel::WithRatings: one matrix merge, one GIS refresh of the
// touched items and one re-smoothing with the existing cluster
// assignments (no K-means restart).  Every generation is immutable and
// shared: the folder's fold base, the generation ModelGeneration serves
// and the checkpoint snapshot are one object, so nothing is cloned and
// nothing is mutated after it is published.  Requests in flight keep the
// generation they pinned; the next request sees the fold.
//
// A fold is a transaction.  Drained records join a folder-owned pending
// list; the next generation is derived beside the current one, and only
// when that succeeds do the generation, the fold watermark and the
// counters commit together and the pending list empty.  A fold that
// throws commits nothing (wal.fold.failures counts it): the records stay
// pending and are folded first on the next pass, so the watermark never
// passes an acked record the current generation does not hold.  Folds,
// and the publishes that follow them, are serialized under one mutex, so
// generations are served in fold order.
//
// Staleness — the time from a record's durable ack to the generation
// swap that makes it predictable — is first-class: each publish sets
// the wal.staleness_us gauge to the oldest drained record's ack-to-
// publish latency.  wal.folded_records / wal.fold.skipped /
// wal.fold.publishes count the traffic (skipped = user or item outside
// the model's dimensions; enrolment is AddUser's job, not the
// folder's).  Skipped records are surfaced, not silent: /healthz
// reports the backlog and the folder logs a rate-limited warning, so an
// out-of-matrix flood is an operator signal rather than a quiet metric.
//
// The folder is also the checkpoint subsystem's snapshot source: it
// tracks the fold watermark — the highest WAL lsn drained into the
// current generation (folded *or* skipped; a skipped record is
// permanently unfoldable, so replaying it after a restart changes
// nothing) — and Snapshot() returns {generation, watermark} under one
// lock in O(1), the consistent pair ckpt::CheckpointManager persists.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "core/cfsf_model.hpp"
#include "serve/model_generation.hpp"
#include "util/mutex.hpp"
#include "wal/log.hpp"

namespace cfsf::serve {

struct DeltaFolderOptions {
  /// Drain cadence of the background thread (also the Stop() latency
  /// bound).
  std::chrono::milliseconds poll_interval{20};
  /// WAL lsn already folded into the model at construction — the
  /// checkpoint watermark recovery restored from, so the fold watermark
  /// never moves backwards across a restart.
  std::uint64_t initial_watermark = 0;
  /// Minimum spacing of the skipped-records warning log line.
  std::chrono::seconds skip_warn_interval{10};
};

/// A consistent {model, watermark} pair: every WAL record with
/// lsn <= watermark is folded into (or recorded as unfoldable against)
/// the model.  What a checkpoint persists.
struct FoldSnapshot {
  std::shared_ptr<const core::CfsfModel> model;
  std::uint64_t watermark = 0;
};

class DeltaFolder {
 public:
  /// `log` and `models` must outlive the folder.  `model` is the first
  /// generation — typically the fit the caller serves; install it via
  /// PublishNow() rather than Install() directly, so the folder's base
  /// and the served generation are the same object.
  DeltaFolder(wal::WriteAheadLog& log, ModelGeneration& models,
              std::shared_ptr<const core::CfsfModel> model,
              const DeltaFolderOptions& options = {});
  ~DeltaFolder();  // Stop()

  DeltaFolder(const DeltaFolder&) = delete;
  DeltaFolder& operator=(const DeltaFolder&) = delete;

  /// Installs the current generation as the active one (first boot, or
  /// forcing visibility in tests).  Returns the generation id.
  std::uint64_t PublishNow() CFSF_EXCLUDES(mutex_);

  /// One synchronous drain → fold → publish cycle; returns how many
  /// records were committed (this pass's and any pending ones).
  /// Publishes only when something folded.  On a throw nothing is
  /// committed and the records stay pending for the next pass.
  std::size_t FoldOnce() CFSF_EXCLUDES(mutex_);

  void Start() CFSF_EXCLUDES(mutex_);
  void Stop() CFSF_EXCLUDES(mutex_);

  /// The current generation and its fold watermark, under one lock — the
  /// checkpointable state.  Shares the model; copies nothing.
  FoldSnapshot Snapshot() const CFSF_EXCLUDES(mutex_);

  std::uint64_t folded_records() const CFSF_EXCLUDES(mutex_);
  std::uint64_t skipped_records() const CFSF_EXCLUDES(mutex_);
  std::uint64_t publishes() const CFSF_EXCLUDES(mutex_);
  /// Highest WAL lsn drained into the current generation (folded or
  /// skipped).
  std::uint64_t fold_watermark() const CFSF_EXCLUDES(mutex_);

 private:
  void Loop();

  wal::WriteAheadLog& log_;
  ModelGeneration& models_;
  const DeltaFolderOptions options_;

  mutable util::Mutex mutex_;
  std::shared_ptr<const core::CfsfModel> current_ CFSF_GUARDED_BY(mutex_);
  /// Drained but not yet committed: a failed fold's records, folded
  /// first on the next pass.
  std::vector<wal::AckedRecord> pending_ CFSF_GUARDED_BY(mutex_);
  std::uint64_t folded_ CFSF_GUARDED_BY(mutex_) = 0;
  std::uint64_t skipped_ CFSF_GUARDED_BY(mutex_) = 0;
  std::uint64_t publishes_ CFSF_GUARDED_BY(mutex_) = 0;
  std::uint64_t watermark_ CFSF_GUARDED_BY(mutex_) = 0;
  std::chrono::steady_clock::time_point last_skip_warn_
      CFSF_GUARDED_BY(mutex_);
  bool stop_ CFSF_GUARDED_BY(mutex_) = false;
  bool running_ CFSF_GUARDED_BY(mutex_) = false;

  std::thread thread_;
};

}  // namespace cfsf::serve
