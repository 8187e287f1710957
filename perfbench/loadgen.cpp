#include "loadgen.hpp"

#include <sys/prctl.h>

#include <algorithm>
#include <iterator>
#include <utility>

namespace perfbench {

const char* OpName(Op op) {
  switch (op) {
    case Op::kPredict: return "predict";
    case Op::kBatch: return "batch";
    case Op::kTopN: return "topn";
    case Op::kRate: return "rate";
    case Op::kCheckpoint: return "checkpoint";
  }
  return "unknown";
}

void BuildWire(Call& call, std::uint32_t num_items, std::uint64_t seed) {
  switch (call.op) {
    case Op::kPredict:
      call.wire = PredictRequest(call.user, call.item);
      break;
    case Op::kBatch: {
      std::vector<std::uint32_t> page(call.n);
      for (std::uint32_t k = 0; k < call.n; ++k) {
        page[k] = (call.item + k) % num_items;
      }
      call.wire = BatchRequest(call.user, page);
      break;
    }
    case Op::kTopN:
      call.wire = TopNRequest(call.user, call.n);
      break;
    case Op::kRate:
      call.wire = RateRequest(call.user, call.item, call.rating,
                              "perfbench-" + std::to_string(seed) + "-" +
                                  std::to_string(call.id));
      break;
    case Op::kCheckpoint:
      call.wire = CheckpointRequest();
      break;
  }
}

void ConnResult::MergeFrom(ConnResult&& other) {
  for (int k = 0; k < kNumOps; ++k) {
    OpStats& into = ops[k];
    const OpStats& from = other.ops[k];
    into.latency_us.Append(from.latency_us);
    into.sent += from.sent;
    into.ok += from.ok;
    into.failed += from.failed;
    into.degraded += from.degraded;
  }
  lag_us.Append(other.lag_us);
  backlog_us.Append(other.backlog_us);
  std::move(other.samples.begin(), other.samples.end(),
            std::back_inserter(samples));
  std::move(other.recorded.begin(), other.recorded.end(),
            std::back_inserter(recorded));
  acked_ids.insert(acked_ids.end(), other.acked_ids.begin(),
                   other.acked_ids.end());
  spans.MergeFrom(other.spans);
  cpu_s += other.cpu_s;
  if (other.first_send > 0.0) {
    first_send = first_send > 0.0 ? std::min(first_send, other.first_send)
                                  : other.first_send;
  }
  last_reply = std::max(last_reply, other.last_reply);
}

namespace {

bool IsRead(Op op) {
  return op == Op::kPredict || op == Op::kBatch || op == Op::kTopN;
}

// Sends one call and records its outcome.  `due` is the time latency is
// measured from (the schedule's due time, or the send time in a closed
// loop).
void Execute(HttpConnection& conn, const Call& call, double due,
             const RunOptions& options, std::size_t& reads_seen,
             ConnResult& result) {
  OpStats& stats = result.ops[static_cast<int>(call.op)];
  const double send = NowS();
  if (result.first_send == 0.0) result.first_send = send;
  std::int64_t span = 0;
  if (options.trace) {
    span = result.spans.Begin(OpName(call.op), "client", 0, call.id);
    if (IsRead(call.op) && result.recorded.size() < options.record_limit) {
      result.recorded.push_back(call.wire);
    }
  }
  Reply reply;
  const bool delivered = conn.RoundTrip(call.wire, &reply);
  const double done = NowS();
  if (options.trace) result.spans.End(span);
  result.last_reply = done;
  ++stats.sent;
  stats.latency_us.Add((done - due) * 1e6);
  const int expected = call.op == Op::kRate ? 202 : 200;
  if (!delivered || reply.status != expected) {
    ++stats.failed;
    return;
  }
  const bool sampled = IsRead(call.op) && options.sample_every > 0 &&
                       reads_seen++ % options.sample_every == 0;
  ReadSample sample;
  if (sampled && !ParseReply(reply.body, &sample.reply)) {
    ++stats.failed;  // an answer the check cannot read is a wrong answer
    return;
  }
  ++stats.ok;
  if (call.op == Op::kPredict || call.op == Op::kBatch) {
    if (CountDegradedRungs(reply.body) > 0) ++stats.degraded;
  }
  if (call.op == Op::kRate) {
    result.acked_ids.push_back(call.id);
    if (options.watcher != nullptr) {
      options.watcher->OnAck(call.user, call.item,
                             static_cast<float>(call.rating), done);
    }
  }
  if (sampled) {
    sample.op = call.op;
    sample.user = call.user;
    sample.item = call.item;
    sample.n = call.n;
    if (options.watcher != nullptr) {
      sample.model = options.watcher->Hold(sample.reply.generation);
    }
    result.samples.push_back(std::move(sample));
  }
}

}  // namespace

ConnResult RunOpenLoop(HttpConnection& conn, const std::vector<Call>& calls,
                       double t0, const RunOptions& options) {
  // Wake at the due time, not up to the default 50us timer slack later.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  ConnResult result;
  const double cpu_start = ThreadCpuS();
  std::size_t reads_seen = 0;
  double previous_reply = 0.0;
  for (const Call& call : calls) {
    const double due = t0 + call.due;
    SleepUntil(due);
    const double send = NowS();
    result.lag_us.Add((send - std::max(due, previous_reply)) * 1e6);
    result.backlog_us.Add((send - due) * 1e6);
    Execute(conn, call, due, options, reads_seen, result);
    previous_reply = result.last_reply;
  }
  result.cpu_s = ThreadCpuS() - cpu_start;
  return result;
}

ConnResult RunClosedLoop(HttpConnection& conn, const std::vector<Call>& calls,
                         std::atomic<std::size_t>& next, std::size_t end,
                         const RunOptions& options) {
  ConnResult result;
  const double cpu_start = ThreadCpuS();
  std::size_t reads_seen = 0;
  for (;;) {
    const std::size_t index = next.fetch_add(1);
    if (index >= end) break;
    Execute(conn, calls[index], NowS(), options, reads_seen, result);
  }
  result.cpu_s = ThreadCpuS() - cpu_start;
  return result;
}

Watcher::Watcher(cfsf::serve::ModelGeneration& models, std::size_t max_held,
                 double hold_interval_s)
    : models_(models), max_held_(max_held), hold_interval_s_(hold_interval_s) {}

Watcher::~Watcher() { Stop(); }

void Watcher::Start() {
  stop_.store(false);
  thread_ = std::thread(&Watcher::Loop, this);
}

void Watcher::Stop() {
  stop_.store(true);
  if (thread_.joinable()) thread_.join();
}

void Watcher::OnAck(std::uint32_t user, std::uint32_t item, float rating,
                    double acked_at) {
  std::lock_guard<std::mutex> lock(mutex_);
  incoming_.push_back(Ack{user, item, rating, acked_at});
}

void Watcher::Loop() {
  const double cpu_start = ThreadCpuS();
  std::uint64_t seen_generation = 0;
  std::shared_ptr<const cfsf::serve::ServableModel> active;
  while (!stop_.load()) {
    const std::uint64_t generation = models_.ActiveGeneration();
    const bool changed = generation != seen_generation;
    if (changed) {
      active = models_.Active();
      seen_generation = active != nullptr ? active->generation() : 0;
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      const bool fresh = !incoming_.empty();
      pending_.insert(pending_.end(), incoming_.begin(), incoming_.end());
      incoming_.clear();
      if ((changed || fresh) && active != nullptr && !pending_.empty()) {
        const double now = NowS();
        const auto& train = active->model().train();
        auto still = std::remove_if(
            pending_.begin(), pending_.end(), [&](const Ack& ack) {
              const auto rating = train.GetRating(ack.user, ack.item);
              if (!rating.has_value() || *rating != ack.rating) return false;
              // A fold may publish before the client has read its 202.
              visible_ms_.Add(std::max(0.0, now - ack.acked_at) * 1e3);
              last_visible_ = now;
              return true;
            });
        pending_.erase(still, pending_.end());
      }
    }
    SleepUntil(NowS() + 0.0005);
  }
  cpu_s_ = ThreadCpuS() - cpu_start;
}

bool Watcher::WaitAllVisible(double timeout_s) {
  const double deadline = NowS() + timeout_s;
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (pending_.empty() && incoming_.empty()) return true;
    }
    if (NowS() > deadline) return false;
    SleepUntil(NowS() + 0.001);
  }
}

std::shared_ptr<const cfsf::serve::ServableModel> Watcher::Hold(
    std::uint64_t generation) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (const auto found = held_.find(generation); found != held_.end()) {
    return found->second;
  }
  const double now = NowS();
  if (held_.size() >= max_held_ || now - last_hold_ < hold_interval_s_) {
    return nullptr;
  }
  auto active = models_.Active();
  if (active == nullptr || active->generation() != generation) return nullptr;
  last_hold_ = now;
  held_[generation] = active;
  return active;
}

Samples Watcher::visible_ms() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return visible_ms_;
}

std::size_t Watcher::pending() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return pending_.size() + incoming_.size();
}

double Watcher::last_visible() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return last_visible_;
}

}  // namespace perfbench
