#include "host.hpp"

#include <chrono>
#include <stdexcept>
#include <utility>

// perfbench is a standalone package that, like bench/ and tools/, sits
// outside the library's layer stack and nothing includes.  The layering
// rule reports an undeclared module once, at its first include (this
// one); the marker stands in for a `perfbench` entry on the `open` line
// of tools/cfsf_layers.txt.
#include "parallel/parallel_for.hpp"  // cfsf-lint: allow(layering)
#include "util/backoff.hpp"
#include "util/error.hpp"

namespace perfbench {

ServiceHost::ServiceHost(const HostConfig& config) : config_(config) {
  try {
    Build();
  } catch (...) {
    Stop();  // joins the fold loop before its members are destroyed
    throw;
  }
}

void ServiceHost::Build() {
  const double start = NowS();
  std::unique_ptr<cfsf::core::CfsfModel> model;
  if (!config_.durable) {
    model = MakeSeed();
  } else {
    cfsf::ckpt::RecoverOptions options;
    options.ckpt_dir = config_.ckpt_dir;
    options.wal_dir = config_.wal_dir;
    options.wal_options.fsync_policy = cfsf::wal::FsyncPolicy::kEveryRecord;
    options.seed_model = [this] { return MakeSeed(); };
    const double recover_start = NowS();
    cfsf::ckpt::RecoveryResult recovered = cfsf::ckpt::Recover(options);
    setup_.recover_s = NowS() - recover_start;
    model = std::move(recovered.model);
    log_ = std::move(recovered.log);
    recovery_ = recovered.info;
  }

  cfsf::serve::ServingOptions serving;
  serving.num_workers = 4;
  serving.queue_capacity = 64;
  serving.degrade_watermark = serving.queue_capacity * 3 / 4;
  if (log_ != nullptr) {
    serving.rating_log = log_.get();
    cfsf::serve::DeltaFolderOptions folder_options;
    folder_options.initial_watermark = log_->next_lsn() - 1;
    folder_ = std::make_unique<cfsf::serve::DeltaFolder>(
        *log_, models_, std::move(model), folder_options);
    folder_->PublishNow();
    if (config_.drive_folds) {
      fold_thread_ = std::thread(&ServiceHost::DriveFolds, this);
    } else {
      folder_->Start();
    }
    cfsf::ckpt::CheckpointOptions ckpt_options;
    ckpt_options.dir = config_.ckpt_dir;
    ckpt_options.keep_last = 2;
    // Checkpoints are taken on the load generator's schedule
    // (POST /v1/admin/checkpoint); the periodic tick never fires within
    // a run, so the replayed WAL suffix has a fixed length.
    ckpt_options.interval = std::chrono::hours(1);
    checkpoints_ = std::make_unique<cfsf::ckpt::CheckpointManager>(
        *folder_, *log_, ckpt_options);
    checkpoints_->Start();
  } else {
    models_.Install(std::move(model));
  }

  if (config_.warm_cache) {
    const double warm_start = NowS();
    const auto active = models_.Active();
    const cfsf::core::CfsfModel& served = active->model();
    cfsf::par::ParallelFor(0, served.NumUsers(), [&served](std::size_t u) {
      served.SelectTopKUsers(static_cast<cfsf::matrix::UserId>(u));
    });
    setup_.warm_s = NowS() - warm_start;
  }

  stack_ = std::make_unique<cfsf::serve::ServingStack>(models_, serving);
  cfsf::net::ServiceOptions service_options;
  if (log_ != nullptr) service_options.recovery = &recovery_;
  service_options.checkpoints = checkpoints_.get();
  service_options.folder = folder_.get();
  service_ = std::make_unique<cfsf::net::ServingService>(*stack_,
                                                            service_options);
  cfsf::net::ServerOptions server_options;
  server_options.bind_address = "127.0.0.1";
  server_options.port = 0;
  server_options.num_workers = 4;
  server_options.max_connections = 32;
  server_ = std::make_unique<cfsf::net::HttpServer>(*service_,
                                                       server_options);
  std::string error;
  if (!server_->Start(&error)) {
    throw std::runtime_error("server start failed: " + error);
  }
  port_ = server_->port();
  setup_.total_s = NowS() - start;
}

ServiceHost::~ServiceHost() { Stop(); }

void ServiceHost::Stop() {
  if (stopped_) return;
  stopped_ = true;
  if (server_ != nullptr) server_->Stop();
  if (checkpoints_ != nullptr) checkpoints_->Stop();
  if (fold_thread_.joinable()) {
    fold_stop_.store(true);
    fold_thread_.join();
  }
  if (folder_ != nullptr) folder_->Stop();
}

std::unique_ptr<cfsf::core::CfsfModel> ServiceHost::MakeSeed() {
  const double generate_start = NowS();
  const auto train = cfsf::data::GenerateSynthetic(config_.data);
  setup_.generate_s = NowS() - generate_start;
  // The paper's parameters: CfsfConfig defaults (C=30, M=95, K=25).
  auto model = std::make_unique<cfsf::core::CfsfModel>(cfsf::core::CfsfConfig{});
  const double fit_start = NowS();
  model->Fit(train);
  setup_.fit_s = NowS() - fit_start;
  return model;
}

void ServiceHost::DriveFolds() {
  // DeltaFolder::Loop's cadence: fold, then sleep one poll interval.
  const auto poll = cfsf::serve::DeltaFolderOptions{}.poll_interval;
  while (!fold_stop_.load()) {
    const double start = NowS();
    std::size_t drained = 0;
    try {
      drained = folder_->FoldOnce();
    } catch (const cfsf::util::Error&) {
      // As in DeltaFolder::Loop: the batch stays in the log.
      ++fold_trace_.errors;
    }
    const double end = NowS();
    if (drained > 0) {
      fold_trace_.batch_ms.Add((end - start) * 1e3);
      fold_trace_.batch_records.Add(static_cast<double>(drained));
      fold_trace_.busy_s += end - start;
      fold_trace_.spans.Add("serve.DeltaFolder::FoldOnce", "serve", start, end);
    }
    cfsf::util::SleepFor(poll);
  }
}

}  // namespace perfbench
