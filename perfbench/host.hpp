// The CFSF service hosted in the benchmark's process, wired the way
// `cfsf_cli serve --wal-dir --ckpt-dir` wires it:
//   ckpt::Recover -> serve::DeltaFolder -> ckpt::CheckpointManager ->
//   serve::ServingStack -> net::ServingService -> net::HttpServer
// on 127.0.0.1 with an ephemeral port.  Without durability (read_zipf)
// the fitted model is installed directly and no log exists, as with
// `cfsf_cli serve` without --wal-dir.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>

#include "ckpt/checkpoint_manager.hpp"
#include "ckpt/recover.hpp"
#include "core/cfsf_model.hpp"
#include "data/synthetic.hpp"
#include "net/server.hpp"
#include "net/service.hpp"
#include "serve/delta_folder.hpp"
#include "serve/model_generation.hpp"
#include "serve/serving_stack.hpp"
#include "stats.hpp"
#include "wal/log.hpp"

namespace perfbench {

struct HostConfig {
  cfsf::data::SyntheticConfig data;
  /// Durable ingestion: WAL (fsync every record), DeltaFolder and
  /// checkpoints.  Both directories must be set when true.
  bool durable = false;
  std::string wal_dir;
  std::string ckpt_dir;
  /// Fill every user's top-K cache before the server starts.
  bool warm_cache = false;
  /// Traced run: the benchmark drives DeltaFolder::FoldOnce on the
  /// folder's own cadence and times each batch, instead of Start().
  bool drive_folds = false;
};

/// Wall times of one set-up, in seconds.
struct SetupTimes {
  double generate_s = 0.0;  // GenerateSynthetic (0 when Recover loaded a bundle)
  double fit_s = 0.0;       // CfsfModel::Fit
  double recover_s = 0.0;   // ckpt::Recover (durable only; includes the
                            // seed's generate + fit when no checkpoint exists)
  double warm_s = 0.0;      // top-K cache warm-up
  double total_s = 0.0;     // start -> server accepting
};

/// Timings of the batches the traced fold loop ran.
struct FoldTrace {
  Samples batch_ms;       // non-empty FoldOnce calls
  Samples batch_records;  // records drained per non-empty call
  double busy_s = 0.0;    // total time inside non-empty FoldOnce calls
  std::size_t errors = 0;  // FoldOnce calls that threw
  SpanLog spans;
};

class ServiceHost {
 public:
  /// Generates (or recovers) the model and starts the server.
  explicit ServiceHost(const HostConfig& config);
  ~ServiceHost();  // Stop()
  ServiceHost(const ServiceHost&) = delete;
  ServiceHost& operator=(const ServiceHost&) = delete;

  /// Stops the server, then the checkpointer and the folder.  Idempotent.
  void Stop();

  std::uint16_t port() const { return port_; }
  const SetupTimes& setup() const { return setup_; }
  const HostConfig& config() const { return config_; }
  const cfsf::ckpt::RecoveryInfo& recovery() const { return recovery_; }
  cfsf::serve::ModelGeneration& models() { return models_; }
  cfsf::serve::ServingStack& stack() { return *stack_; }
  /// The traced fold loop's record; valid after Stop().
  const FoldTrace& fold_trace() const { return fold_trace_; }

 private:
  void Build();
  std::unique_ptr<cfsf::core::CfsfModel> MakeSeed();
  void DriveFolds();

  const HostConfig config_;
  SetupTimes setup_;
  std::uint16_t port_ = 0;
  bool stopped_ = false;

  cfsf::serve::ModelGeneration models_;
  std::unique_ptr<cfsf::wal::WriteAheadLog> log_;
  cfsf::ckpt::RecoveryInfo recovery_;
  std::unique_ptr<cfsf::serve::DeltaFolder> folder_;
  std::unique_ptr<cfsf::ckpt::CheckpointManager> checkpoints_;
  std::unique_ptr<cfsf::serve::ServingStack> stack_;
  std::unique_ptr<cfsf::net::ServingService> service_;
  std::unique_ptr<cfsf::net::HttpServer> server_;

  FoldTrace fold_trace_;
  std::atomic<bool> fold_stop_{false};
  std::thread fold_thread_;
};

}  // namespace perfbench
