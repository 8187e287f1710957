#include "stats.hpp"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace perfbench {

namespace {

double ClockS(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

std::atomic<std::int64_t> g_next_span_id{1};

}  // namespace

double NowS() { return ClockS(CLOCK_MONOTONIC); }
double ThreadCpuS() { return ClockS(CLOCK_THREAD_CPUTIME_ID); }
double ProcessCpuS() { return ClockS(CLOCK_PROCESS_CPUTIME_ID); }

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void SleepUntil(double deadline) {
  const double now = NowS();
  if (now >= deadline) return;
  timespec ts{};
  const double whole = std::floor(deadline);
  ts.tv_sec = static_cast<time_t>(whole);
  ts.tv_nsec = static_cast<long>((deadline - whole) * 1e9);
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) != 0) {
  }
}

void Samples::Append(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  sorted_ = false;
}

double Samples::Percentile(double p) const {
  if (values_.empty()) return 0.0;
  if (!sorted_) {
    std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
  const double clamped = std::clamp(p, 0.0, 100.0);
  const auto n = values_.size();
  auto rank = static_cast<std::size_t>(
      std::ceil(clamped / 100.0 * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  return values_[rank - 1];
}

double TailLevel(std::size_t n) {
  for (const double level : {99.9, 99.0, 95.0, 90.0}) {
    if (static_cast<double>(n) * (100.0 - level) / 100.0 >= 10.0) return level;
  }
  return 50.0;
}

std::string LevelName(double level) {
  char buffer[16];
  std::snprintf(buffer, sizeof(buffer), "p%g", level);
  return buffer;
}

HistSnapshot SnapHist(const char* name) {
  auto& histogram = cfsf::obs::MetricsRegistry::Global().GetHistogram(
      name, cfsf::obs::LatencyBucketsUs());
  const auto bounds = histogram.bounds();
  return HistSnapshot{std::vector<double>(bounds.begin(), bounds.end()),
                      histogram.BucketCounts()};
}

namespace {

std::uint64_t DeltaCount(const HistSnapshot& before, const HistSnapshot& after) {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < after.counts.size(); ++i) {
    total += after.counts[i] - before.counts[i];
  }
  return total;
}

}  // namespace

double DeltaPercentile(const HistSnapshot& before, const HistSnapshot& after,
                       double p) {
  const std::uint64_t total = DeltaCount(before, after);
  if (total == 0) return 0.0;
  const double rank = std::clamp(p, 0.0, 100.0) / 100.0 *
                      static_cast<double>(total);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < after.counts.size(); ++i) {
    const std::uint64_t count = after.counts[i] - before.counts[i];
    const std::uint64_t below = cumulative;
    cumulative += count;
    if (count > 0 && static_cast<double>(cumulative) >= rank) {
      if (i == after.bounds.size()) return after.bounds.back();
      const double lower = i == 0 ? 0.0 : after.bounds[i - 1];
      const double upper = after.bounds[i];
      const double within =
          (rank - static_cast<double>(below)) / static_cast<double>(count);
      return lower + (upper - lower) * std::clamp(within, 0.0, 1.0);
    }
  }
  return after.bounds.back();
}

std::uint64_t CounterValue(const char* name) {
  return cfsf::obs::MetricsRegistry::Global().GetCounter(name).Value();
}

std::int64_t SpanLog::Begin(const char* name, const char* layer,
                            std::int64_t parent, std::uint64_t request_id) {
  const std::int64_t id = g_next_span_id.fetch_add(1);
  open_.push_back(spans_.size());
  spans_.push_back(Span{name, layer, NowS(), 0.0, id, parent, request_id});
  return id;
}

void SpanLog::End(std::int64_t id) {
  const double now = NowS();
  for (auto it = open_.rbegin(); it != open_.rend(); ++it) {
    if (spans_[*it].id == id) {
      spans_[*it].end = now;
      open_.erase(std::next(it).base());
      return;
    }
  }
}

void SpanLog::Add(const char* name, const char* layer, double start,
                  double end, std::int64_t parent, std::uint64_t request_id) {
  spans_.push_back(Span{name, layer, start, end, g_next_span_id.fetch_add(1),
                        parent, request_id});
}

void SpanLog::MergeFrom(const SpanLog& other) {
  spans_.insert(spans_.end(), other.spans_.begin(), other.spans_.end());
}

std::map<std::string, double> SelfTimeMsByLayer(const std::vector<Span>& spans) {
  std::map<std::int64_t, std::vector<const Span*>> children;
  for (const Span& span : spans) {
    if (span.parent != 0) children[span.parent].push_back(&span);
  }
  std::map<std::string, double> self_ms;
  for (const Span& span : spans) {
    double covered = 0.0;
    const auto found = children.find(span.id);
    if (found != children.end()) {
      // Union of the children's intervals, clipped to the parent.
      std::vector<std::pair<double, double>> parts;
      for (const Span* child : found->second) {
        const double a = std::max(child->start, span.start);
        const double b = std::min(child->end, span.end);
        if (b > a) parts.emplace_back(a, b);
      }
      std::sort(parts.begin(), parts.end());
      double reach = span.start;
      for (const auto& [a, b] : parts) {
        const double from = std::max(a, reach);
        if (b > from) covered += b - from;
        reach = std::max(reach, b);
      }
    }
    self_ms[span.layer] += (span.end - span.start - covered) * 1e3;
  }
  return self_ms;
}

void WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  cfsf::obs::JsonWriter json;
  json.BeginObject();
  json.Key("spans").BeginArray();
  for (const Span& span : spans) {
    json.BeginObject();
    json.Key("name").String(span.name);
    json.Key("layer").String(span.layer);
    json.Key("start_s").Double(span.start);
    json.Key("end_s").Double(span.end);
    json.Key("id").Int(span.id);
    json.Key("parent").Int(span.parent);
    json.Key("request_id").Uint(span.request_id);
    json.EndObject();
  }
  json.EndArray();
  json.Key("self_ms").BeginObject();
  for (const auto& [layer, ms] : SelfTimeMsByLayer(spans)) {
    json.Key(layer).Double(ms);
  }
  json.EndObject();
  json.EndObject();
  std::ofstream out(path);
  out << json.str() << "\n";
}

}  // namespace perfbench
