// Measurement helpers for the service benchmark: clocks, sample
// percentiles, deltas of the library's own metrics registry, and the
// in-memory span record of a traced run.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic wall time in seconds (arbitrary epoch).
double NowS();
/// CPU time (user + system) of the calling thread / the whole process.
double ThreadCpuS();
double ProcessCpuS();
/// Peak resident set size of the process so far, in MiB.
double PeakRssMb();
/// Sleeps until NowS() >= deadline (no-op when already past).
void SleepUntil(double deadline);

/// A bag of samples with nearest-rank percentiles.
class Samples {
 public:
  void Add(double value) {
    values_.push_back(value);
    sorted_ = false;
  }
  void Append(const Samples& other);
  std::size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  /// Nearest-rank percentile, p in [0, 100]; 0 when empty.
  double Percentile(double p) const;
  double Median() const { return Percentile(50.0); }

 private:
  mutable std::vector<double> values_;
  mutable bool sorted_ = true;
};

/// The highest of p99.9 / p99 / p95 / p90 / p50 that has at least ten
/// samples beyond it for `n` samples (p50 when even that does not).
double TailLevel(std::size_t n);
/// "p99", "p99.9", "p90" ... for a TailLevel result.
std::string LevelName(double level);

/// A copy of one registry histogram's buckets, so that a phase can be
/// measured as the difference of two snapshots.
struct HistSnapshot {
  std::vector<double> bounds;
  std::vector<std::uint64_t> counts;
};
HistSnapshot SnapHist(const char* name);
/// Percentile of the samples recorded between the two snapshots, linearly
/// interpolated inside the bucket (the registry's own convention).
double DeltaPercentile(const HistSnapshot& before, const HistSnapshot& after,
                       double p);
std::uint64_t CounterValue(const char* name);

/// One timed interval of a traced run.  Spans of one request share
/// `request_id`; `parent` is the id of the enclosing span (0 = root).
struct Span {
  std::string name;
  std::string layer;
  double start = 0.0;
  double end = 0.0;
  std::int64_t id = 0;
  std::int64_t parent = 0;
  std::uint64_t request_id = 0;
};

/// Span record of one thread.  Each thread owns its log; logs are merged
/// when the run ends, so recording takes no lock.
class SpanLog {
 public:
  std::int64_t Begin(const char* name, const char* layer,
                     std::int64_t parent = 0, std::uint64_t request_id = 0);
  void End(std::int64_t id);
  /// Records a span whose interval was timed by the caller.
  void Add(const char* name, const char* layer, double start, double end,
           std::int64_t parent = 0, std::uint64_t request_id = 0);
  const std::vector<Span>& spans() const { return spans_; }
  void MergeFrom(const SpanLog& other);

 private:
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;  // indexes of spans not yet ended
};

/// Self time per layer in milliseconds: each span's duration minus the
/// part of it that its child spans cover.
std::map<std::string, double> SelfTimeMsByLayer(const std::vector<Span>& spans);

/// Writes spans as a JSON document {"spans": [...], "self_ms": {...}}.
void WriteSpans(const std::string& path, const std::vector<Span>& spans);

}  // namespace perfbench
