// The loopback load generator: seeded call schedules, one thread per
// keep-alive connection (open loop on a schedule, or closed loop), and a
// watcher that times when acked ratings become visible in the served
// generation and holds a few generations for the correctness check.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "http_client.hpp"
#include "serve/model_generation.hpp"
#include "stats.hpp"

namespace perfbench {

enum class Op : int { kPredict = 0, kBatch, kTopN, kRate, kCheckpoint };
inline constexpr int kNumOps = 5;
const char* OpName(Op op);

struct Call {
  double due = 0.0;  // seconds after the phase start (open loop)
  Op op = Op::kPredict;
  std::uint32_t user = 0;
  std::uint32_t item = 0;    // predict / rate; first item of a batch page
  std::uint32_t n = 0;       // batch page size / top-N length
  std::uint32_t rating = 0;  // rate
  std::uint64_t id = 0;      // unique within the run
  std::string wire;          // the complete HTTP request
};

/// Fills `call.wire` from its fields.
void BuildWire(Call& call, std::uint32_t num_items, std::uint64_t seed);

struct OpStats {
  Samples latency_us;
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;
  std::uint64_t degraded = 0;  // answers with a rung below full fusion
};

/// A read answer kept for the correctness check, with the generation
/// that served it when the watcher held that generation.
struct ReadSample {
  Op op = Op::kPredict;
  std::uint32_t user = 0;
  std::uint32_t item = 0;
  std::uint32_t n = 0;
  ParsedReply reply;
  std::shared_ptr<const cfsf::serve::ServableModel> model;
};

/// Everything one connection thread measured.
struct ConnResult {
  std::array<OpStats, kNumOps> ops;
  Samples lag_us;      // generator lateness: send - max(due, previous reply)
  Samples backlog_us;  // send - due (includes waiting behind earlier replies)
  std::vector<ReadSample> samples;
  std::vector<std::string> recorded;  // traced: request bytes of read calls
  std::vector<std::uint64_t> acked_ids;  // rate calls answered 202
  SpanLog spans;
  double cpu_s = 0.0;
  double first_send = 0.0;
  double last_reply = 0.0;

  void MergeFrom(ConnResult&& other);
};

class Watcher;

struct RunOptions {
  bool trace = false;
  std::size_t sample_every = 0;      // keep every Nth read answer (0 = none)
  std::size_t record_limit = 0;      // traced: read requests to record
  Watcher* watcher = nullptr;        // acks and generation holds
};

/// Open loop: sends each call at t0 + due; latency is timed from the due
/// time, so a stall counts against every call that waited behind it.
ConnResult RunOpenLoop(HttpConnection& conn, const std::vector<Call>& calls,
                       double t0, const RunOptions& options);

/// Closed loop: claims calls[next] .. calls[end) one at a time and sends
/// each as soon as the previous reply returned.
ConnResult RunClosedLoop(HttpConnection& conn, const std::vector<Call>& calls,
                         std::atomic<std::size_t>& next, std::size_t end,
                         const RunOptions& options);

/// Observes the served generation from outside the service.
class Watcher {
 public:
  Watcher(cfsf::serve::ModelGeneration& models, std::size_t max_held,
          double hold_interval_s);
  ~Watcher();  // Stop()
  Watcher(const Watcher&) = delete;
  Watcher& operator=(const Watcher&) = delete;

  /// Starts the visibility thread (write workloads only).
  void Start();
  void Stop();

  /// A 202 for (user, item, rating) arrived at `acked_at` (NowS()).
  void OnAck(std::uint32_t user, std::uint32_t item, float rating,
             double acked_at);
  /// Blocks until every acked rating is visible or the timeout passes.
  bool WaitAllVisible(double timeout_s);

  /// The served generation `generation`, if it is still active and the
  /// hold budget allows keeping it; held generations stay alive until
  /// the watcher is destroyed.
  std::shared_ptr<const cfsf::serve::ServableModel> Hold(
      std::uint64_t generation);

  Samples visible_ms() const;
  std::size_t pending() const;
  double last_visible() const;
  double cpu_s() const { return cpu_s_; }

 private:
  struct Ack {
    std::uint32_t user;
    std::uint32_t item;
    float rating;
    double acked_at;
  };
  void Loop();

  cfsf::serve::ModelGeneration& models_;
  const std::size_t max_held_;
  const double hold_interval_s_;

  mutable std::mutex mutex_;
  std::vector<Ack> incoming_;  // guarded by mutex_
  std::vector<Ack> pending_;   // guarded by mutex_
  Samples visible_ms_;         // guarded by mutex_
  double last_visible_ = 0.0;  // guarded by mutex_
  std::map<std::uint64_t, std::shared_ptr<const cfsf::serve::ServableModel>>
      held_;                   // guarded by mutex_
  double last_hold_ = -1e9;    // guarded by mutex_

  double cpu_s_ = 0.0;  // written by the thread, read after Stop()
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

}  // namespace perfbench
