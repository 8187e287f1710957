// cfsf_perfbench: the CFSF service benchmark.
//
//   cfsf_perfbench --workload <read_zipf|mixed_rw|ingest_restart>
//                  --seed <n> --seconds <s> --trace <0|1> [--work-dir D]
//
// Hosts the real service in process (host.hpp) and drives it over
// loopback HTTP from a seeded generator (loadgen.hpp): at most four
// generator threads, one keep-alive connection each.  --trace 0 measures
// the end-to-end metrics; --trace 1 is the separate traced run that
// records spans and reports the per-layer metrics.  Every run checks the
// answers it received (see Verify*); a mismatch makes the run incorrect
// and the exit status non-zero.  The last line of stdout is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <unistd.h>

#include "ckpt/manifest.hpp"
#include "data/synthetic.hpp"
#include "host.hpp"
#include "layers.hpp"
#include "loadgen.hpp"
#include "obs/json.hpp"
#include "obs/names.hpp"
#include "robust/fallback.hpp"
#include "stats.hpp"
#include "util/logging.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
namespace names = cfsf::obs::names;

// ---------------------------------------------------------------------------
// Workload definitions.  BENCHMARK.json and perfbench/README.md restate
// these numbers; change them together.

constexpr int kConnections = 4;
constexpr std::uint32_t kBatchPage = 20;    // items per predict-batch
constexpr std::uint32_t kTopN = 10;         // n of GET /v1/top-n
constexpr double kZipfExponent = 1.0;       // user activity ~ 1/rank
constexpr double kLagBoundUs = 20000.0;     // generator p99 lateness bound
constexpr double kLadderLimitUs = 10000.0;  // predict p99 limit for read_max_rps
constexpr double kLadderStepS = 1.0;
constexpr double kLadderFactors[] = {1, 2, 4, 8, 16, 32};
constexpr std::size_t kIngestRatings = 1000;  // ingest_restart's rating set
constexpr std::size_t kRecordLimit = 2000;    // traced: requests replayed in process

struct Workload {
  const char* name;
  std::size_t users;
  std::size_t items;
  int setups;               // set-ups per run; setup_s is their median
  bool durable;             // WAL (fsync every record) + folder + checkpoints
  bool warm;                // top-K cache warm-up during set-up
  std::size_t sample_every; // read answers kept for the check: every Nth
  int read_connections;     // connections carrying predict + batch
  double predict_rps;
  double batch_rps;
  double topn_rps;          // on its own connection
  double rate_rps;          // open-loop writes on their own connection
  double checkpoint_every_s;  // admin checkpoints, on the top-n connection
  bool ladder;              // read_max_rps
  bool ingest;              // closed-loop ingest + restart
};

constexpr Workload kWorkloads[] = {
    {"read_zipf", 4000, 2000, 5, false, true, 25, 3, 800, 80, 8, 0, 0, true, false},
    // Every answer is kept: a generation lives ~0.1 s, so only answers
    // served by one of the two held generations can be checked.
    {"mixed_rw", 500, 1000, 15, true, false, 1, 2, 800, 80, 8, 10, 3.0, false, false},
    {"ingest_restart", 500, 1000, 15, true, false, 0, 0, 0, 0, 0, 0, 0, false, true},
};

// ---------------------------------------------------------------------------
// Seeded inputs.

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed * 0x9E3779B97F4A7C15ULL + 1) {}
  std::uint64_t Next() {  // splitmix64
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  std::uint32_t Below(std::size_t n) {
    return static_cast<std::uint32_t>(Next() % n);
  }

 private:
  std::uint64_t state_;
};

/// Users drawn with probability ~ 1/rank^s; ranks map to a seeded
/// permutation of user ids, so hot users are spread over the id range.
class ZipfUsers {
 public:
  ZipfUsers(std::size_t n, Rng& rng) : cdf_(n), ids_(n) {
    double total = 0.0;
    for (std::size_t r = 0; r < n; ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), kZipfExponent);
      cdf_[r] = total;
    }
    for (double& c : cdf_) c /= total;
    std::iota(ids_.begin(), ids_.end(), 0U);
    for (std::size_t i = n; i > 1; --i) std::swap(ids_[i - 1], ids_[rng.Below(i)]);
  }
  std::uint32_t Draw(Rng& rng) const {
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), rng.Uniform());
    const auto rank = static_cast<std::size_t>(it - cdf_.begin());
    return ids_[std::min(rank, ids_.size() - 1)];
  }

 private:
  std::vector<double> cdf_;
  std::vector<std::uint32_t> ids_;
};

/// The data set is fixed per workload (the generator's default seed); the
/// run's seed picks the traffic.  A seeded data set moved the synthetic
/// GIS density, and with it the cost of every fold, by up to 50 % between
/// seeds, which no bound on the write path could absorb.
cfsf::data::SyntheticConfig DataConfig(const Workload& w) {
  cfsf::data::SyntheticConfig config;
  config.num_users = w.users;
  config.num_items = w.items;
  return config;
}

/// Unique cells the seed data leaves unrated, users drawn Zipf.
std::vector<std::pair<std::uint32_t, std::uint32_t>> UnratedCells(
    const cfsf::matrix::RatingMatrix& train, const ZipfUsers& zipf, Rng& rng,
    std::size_t count) {
  std::set<std::pair<std::uint32_t, std::uint32_t>> used;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> cells;
  while (cells.size() < count) {
    const std::uint32_t user = zipf.Draw(rng);
    const std::uint32_t item = rng.Below(train.num_items());
    if (train.GetRating(user, item).has_value()) continue;
    if (!used.insert({user, item}).second) continue;
    cells.emplace_back(user, item);
  }
  return cells;
}

struct Schedule {
  std::array<std::vector<Call>, kConnections> conns;
};

/// The open-loop schedule of a read workload over `seconds`, with the
/// predict + batch rate scaled by `read_factor` (the ladder).
Schedule ReadSchedule(const Workload& w, const cfsf::matrix::RatingMatrix& train,
                      const ZipfUsers& zipf, Rng& rng, double seconds,
                      double read_factor, std::uint64_t seed,
                      std::uint64_t& next_id) {
  Schedule schedule;
  const auto items = static_cast<std::uint32_t>(train.num_items());
  const double read_rps = (w.predict_rps + w.batch_rps) * read_factor;
  const double per_conn = read_rps / w.read_connections;
  const double batch_share = w.batch_rps / (w.predict_rps + w.batch_rps);
  for (int c = 0; c < w.read_connections; ++c) {
    for (std::size_t j = 0;; ++j) {
      const double due = (static_cast<double>(j) +
                          static_cast<double>(c) / w.read_connections) /
                         per_conn;
      if (due >= seconds) break;
      Call call;
      call.due = due;
      call.op = rng.Uniform() < batch_share ? Op::kBatch : Op::kPredict;
      call.user = zipf.Draw(rng);
      call.item = rng.Below(items);
      call.n = call.op == Op::kBatch ? kBatchPage : 0;
      call.id = next_id++;
      schedule.conns[c].push_back(std::move(call));
    }
  }
  std::vector<Call>& side = schedule.conns[w.read_connections];
  for (std::size_t j = 0;; ++j) {
    const double due = (static_cast<double>(j) + 0.5) / w.topn_rps;
    if (due >= seconds) break;
    Call call;
    call.due = due;
    call.op = Op::kTopN;
    call.user = zipf.Draw(rng);
    call.n = kTopN;
    call.id = next_id++;
    side.push_back(std::move(call));
  }
  if (w.checkpoint_every_s > 0.0) {
    for (double due = w.checkpoint_every_s; due < seconds;
         due += w.checkpoint_every_s) {
      Call call;
      call.due = due;
      call.op = Op::kCheckpoint;
      call.id = next_id++;
      side.push_back(std::move(call));
    }
    std::stable_sort(side.begin(), side.end(),
                     [](const Call& a, const Call& b) { return a.due < b.due; });
  }
  if (w.rate_rps > 0.0) {
    const auto count = static_cast<std::size_t>(seconds * w.rate_rps);
    const auto cells = UnratedCells(train, zipf, rng, count);
    for (std::size_t j = 0; j < cells.size(); ++j) {
      Call call;
      call.due = (static_cast<double>(j) + 0.25) / w.rate_rps;
      call.op = Op::kRate;
      call.user = cells[j].first;
      call.item = cells[j].second;
      call.rating = 1 + rng.Below(5);
      call.id = next_id++;
      schedule.conns[kConnections - 1].push_back(std::move(call));
    }
  }
  for (auto& conn : schedule.conns) {
    for (Call& call : conn) BuildWire(call, items, seed);
  }
  return schedule;
}

// ---------------------------------------------------------------------------
// Running phases.

ConnResult RunOpenPhase(std::array<HttpConnection, kConnections>& conns,
                        const Schedule& schedule, const RunOptions& options,
                        double lead_s = 0.05) {
  std::array<ConnResult, kConnections> results;
  const double t0 = NowS() + lead_s;
  std::vector<std::thread> threads;
  for (int c = 0; c < kConnections; ++c) {
    if (schedule.conns[c].empty()) continue;
    threads.emplace_back([&, c] {
      results[c] = RunOpenLoop(conns[c], schedule.conns[c], t0, options);
    });
  }
  for (auto& thread : threads) thread.join();
  ConnResult merged;
  for (auto& result : results) merged.MergeFrom(std::move(result));
  return merged;
}

ConnResult RunClosedPhase(std::array<HttpConnection, kConnections>& conns,
                          const std::vector<Call>& calls, std::size_t begin,
                          std::size_t end, const RunOptions& options) {
  std::array<ConnResult, kConnections> results;
  std::atomic<std::size_t> next{begin};
  std::vector<std::thread> threads;
  for (int c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      results[c] = RunClosedLoop(conns[c], calls, next, end, options);
    });
  }
  for (auto& thread : threads) thread.join();
  ConnResult merged;
  for (auto& result : results) merged.MergeFrom(std::move(result));
  return merged;
}

void Connect(std::array<HttpConnection, kConnections>& conns,
             std::uint16_t port) {
  for (auto& conn : conns) {
    if (!conn.Connect(port)) throw std::runtime_error("connect failed");
  }
}

// ---------------------------------------------------------------------------
// Correctness checks (off the timed path).

struct Checks {
  std::size_t verified = 0;      // read answers recomputed and compared
  std::size_t unverifiable = 0;  // generation no longer held
  std::size_t mismatches = 0;
  std::vector<std::string> notes;

  void Fail(const std::string& what) {
    ++mismatches;
    if (notes.size() < 10) notes.push_back(what);
  }
};

double LadderValue(const cfsf::serve::ServableModel& model, std::uint32_t user,
                   std::uint32_t item) {
  return model.ladder()
      .PredictWithLadder(user, item, cfsf::robust::Deadline(),
                         cfsf::robust::PredictionRung::kFull)
      .value;
}

/// Each kept answer must equal Predict / RecommendTopN on the generation
/// that served it (the reply names it).  Runs after the phase.
void VerifyReads(const std::vector<ReadSample>& samples, std::uint32_t items,
                 Checks& checks) {
  for (const ReadSample& sample : samples) {
    if (sample.model == nullptr) {
      ++checks.unverifiable;
      continue;
    }
    ++checks.verified;
    const auto& model = *sample.model;
    const std::string where = std::string(OpName(sample.op)) + " user " +
                              std::to_string(sample.user) + " generation " +
                              std::to_string(sample.reply.generation);
    if (sample.op == Op::kPredict || sample.op == Op::kBatch) {
      const std::size_t expect = sample.op == Op::kPredict ? 1 : sample.n;
      if (sample.reply.predictions.size() != expect) {
        checks.Fail(where + ": wrong answer count");
        continue;
      }
      for (std::size_t k = 0; k < expect; ++k) {
        const std::uint32_t item = (sample.item + k) % items;
        const auto [value, full] = sample.reply.predictions[k];
        if (full && value != LadderValue(model, sample.user, item)) {
          checks.Fail(where + ": item " + std::to_string(item) + " served " +
                      std::to_string(value));
        }
      }
    } else {
      const auto ranked = model.model().RecommendTopN(sample.user, sample.n);
      bool same = ranked.size() == sample.reply.ranked.size();
      for (std::size_t k = 0; same && k < ranked.size(); ++k) {
        same = ranked[k].item == sample.reply.ranked[k].first &&
               ranked[k].score == sample.reply.ranked[k].second;
      }
      if (!same) checks.Fail(where + ": top-n differs");
    }
  }
}

// ---------------------------------------------------------------------------
// Results.

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::size_t samples;
};

struct RunReport {
  std::vector<Metric> e2e;                 // everything the workload measures
  std::map<std::string, double> layers;    // traced run
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool valid = true;
  Checks checks;

  void Add(const std::string& name, double value, const std::string& unit,
           std::size_t samples) {
    e2e.push_back(Metric{name, value, unit, samples});
  }
  /// "<prefix>_p50_<unit>" and the tail the sample count supports.
  void AddLatency(const std::string& prefix, const Samples& s, double scale,
                  const std::string& unit) {
    Add(prefix + "_p50_" + unit, s.Median() * scale, unit, s.size());
    const double level = TailLevel(s.size());
    if (level <= 50.0) return;
    Add(prefix + "_" + LevelName(level) + "_" + unit, s.Percentile(level) * scale,
        unit, s.size());
  }
  const Metric* Find(const std::string& name) const {
    for (const Metric& m : e2e) {
      if (m.name == name) return &m;
    }
    return nullptr;
  }
};

/// Metrics every workload reports.  "op" is the workload's primary
/// request: POST /v1/predict on the read workloads, POST /v1/rate on
/// ingest_restart.  The gated ones are listed in kGated.
void AddCommon(RunReport& report, const Workload& w, double setup_s,
               double setup_rss_mb, const Samples& op_us, double service_cpu_s,
               std::uint64_t answered) {
  report.Add("setup_s", setup_s, "s", static_cast<std::size_t>(w.setups));
  report.Add("setup_rss_mb", setup_rss_mb, "MB", 1);
  report.Add("rss_mb", PeakRssMb(), "MB", 1);
  report.Add("cpu_us_per_op",
             answered > 0 ? service_cpu_s / static_cast<double>(answered) * 1e6
                          : 0.0,
             "us", answered);
  report.AddLatency("op", op_us, 1.0, "us");
}

void AddCounts(RunReport& report, const char* phase, const ConnResult& r) {
  for (int k = 0; k < kNumOps; ++k) {
    const OpStats& s = r.ops[k];
    if (s.sent == 0) continue;
    std::printf("phase %-8s %-10s sent %8llu  ok %8llu  failed %4llu  degraded %4llu\n",
                phase, OpName(static_cast<Op>(k)),
                static_cast<unsigned long long>(s.sent),
                static_cast<unsigned long long>(s.ok),
                static_cast<unsigned long long>(s.failed),
                static_cast<unsigned long long>(s.degraded));
    report.attempted += s.sent;
    report.failed += s.failed;
  }
}

std::uint64_t Answered(const ConnResult& r) {
  std::uint64_t n = 0;
  for (const OpStats& s : r.ops) n += s.ok;
  return n;
}

/// Registry state at the start of a phase, for per-layer deltas.
struct RegistryMark {
  HistSnapshot http = SnapHist(names::kNetHttpLatencyUs);
  HistSnapshot wal = SnapHist(names::kWalAppendLatencyUs);
  std::uint64_t appends = CounterValue(names::kWalAppends);
  std::uint64_t fsyncs = CounterValue(names::kWalFsyncs);
  std::uint64_t hits = CounterValue(names::kCfsfTopkCacheHit);
  std::uint64_t misses = CounterValue(names::kCfsfTopkCacheMiss);
  std::uint64_t degraded = CounterValue(names::kServeDegradedAdmissions);
  std::uint64_t shed = CounterValue(names::kServeShed);
  std::uint64_t sir = CounterValue(names::kRobustFallbackSir);
  std::uint64_t user_mean = CounterValue(names::kRobustFallbackUserMean);
  std::uint64_t global_mean = CounterValue(names::kRobustFallbackGlobalMean);
};

void AddRegistryDeltas(const RegistryMark& m, std::map<std::string, double>& out) {
  const RegistryMark now;
  out["net.http_p50_us"] = DeltaPercentile(m.http, now.http, 50.0);
  out["net.http_p99_us"] = DeltaPercentile(m.http, now.http, 99.0);
  out["wal.append_p50_us"] = DeltaPercentile(m.wal, now.wal, 50.0);
  out["wal.append_p99_us"] = DeltaPercentile(m.wal, now.wal, 99.0);
  const double appends = static_cast<double>(now.appends - m.appends);
  out["wal.appends"] = appends;
  out["wal.fsyncs_per_append"] =
      appends > 0 ? static_cast<double>(now.fsyncs - m.fsyncs) / appends : 0.0;
  const double lookups =
      static_cast<double>((now.hits - m.hits) + (now.misses - m.misses));
  out["core.topk_lookups"] = lookups;
  out["core.topk_hit_ratio"] =
      lookups > 0 ? static_cast<double>(now.hits - m.hits) / lookups : 0.0;
  out["serve.degraded_admissions"] = static_cast<double>(now.degraded - m.degraded);
  out["serve.shed"] = static_cast<double>(now.shed - m.shed);
  out["robust.rung_sir"] = static_cast<double>(now.sir - m.sir);
  out["robust.rung_user_mean"] = static_cast<double>(now.user_mean - m.user_mean);
  out["robust.rung_global_mean"] =
      static_cast<double>(now.global_mean - m.global_mean);
}

/// Builds w.setups hosts one after another (each anew, durable
/// ones in fresh directories) and keeps the last; returns the median
/// set-up time.  `rss_mb` gets the peak RSS through the first set-up,
/// `pool_tasks` the thread-pool task count of the last.
double SetUp(const Workload& w, const HostConfig& base, const fs::path& dir,
             std::unique_ptr<ServiceHost>& host, double* rss_mb,
             double* pool_tasks) {
  Samples setup_s;
  for (int k = 0; k < w.setups; ++k) {
    host.reset();
    HostConfig config = base;
    if (w.durable) {
      const fs::path root = dir / ("setup-" + std::to_string(k));
      fs::remove_all(root);
      fs::create_directories(root / "wal");
      fs::create_directories(root / "ckpt");
      config.wal_dir = (root / "wal").string();
      config.ckpt_dir = (root / "ckpt").string();
    }
    const std::uint64_t tasks = CounterValue(names::kPoolTasksExecuted);
    host = std::make_unique<ServiceHost>(config);
    *pool_tasks = static_cast<double>(CounterValue(names::kPoolTasksExecuted) - tasks);
    const SetupTimes& t = host->setup();
    std::printf("setup %d  generate %.3f s  fit %.3f s  recover %.3f s  warm %.3f s  "
                "total %.3f s\n",
                k, t.generate_s, t.fit_s, t.recover_s, t.warm_s, t.total_s);
    setup_s.Add(t.total_s);
    if (k == 0) *rss_mb = PeakRssMb();
  }
  return setup_s.Median();
}

std::uint64_t NewestBundleBytes(const std::string& ckpt_dir) {
  const auto ids = cfsf::ckpt::ListCheckpointIds(ckpt_dir);
  if (ids.empty()) return 0;
  return fs::file_size(fs::path(ckpt_dir) / cfsf::ckpt::ModelFileName(ids.back()));
}

std::vector<std::pair<std::uint32_t, std::uint32_t>> Probes(
    const cfsf::matrix::RatingMatrix& train, const ZipfUsers& zipf, Rng& rng,
    std::size_t count) {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> probes;
  for (std::size_t k = 0; k < count; ++k) {
    probes.emplace_back(zipf.Draw(rng), rng.Below(train.num_items()));
  }
  return probes;
}

// ---------------------------------------------------------------------------
// read_zipf and mixed_rw: open loop.

RunReport RunReadWorkload(const Workload& w, std::uint64_t seed, double seconds,
                          bool trace, const fs::path& dir) {
  RunReport report;
  Rng rng(seed);
  const auto data = DataConfig(w);
  const auto train = cfsf::data::GenerateSynthetic(data);
  const ZipfUsers zipf(train.num_users(), rng);
  std::uint64_t next_id = 1;
  const Schedule schedule =
      ReadSchedule(w, train, zipf, rng, seconds, 1.0, seed, next_id);

  HostConfig base;
  base.data = data;
  base.durable = w.durable;
  base.warm_cache = w.warm;
  base.drive_folds = trace && w.durable;
  std::unique_ptr<ServiceHost> host;
  double pool_tasks = 0.0;
  double setup_rss_mb = 0.0;
  const double setup_s =
      SetUp(w, base, dir, host, &setup_rss_mb, &pool_tasks);

  std::array<HttpConnection, kConnections> conns;
  Connect(conns, host->port());
  // Generations held for the check: at most two, a tenth of the phase
  // apart (a held paper-scale generation costs ~15 MB).
  Watcher watcher(host->models(), 2, seconds / 10.0);
  if (w.durable) watcher.Start();
  RunOptions options;
  options.trace = trace;
  options.sample_every = w.sample_every;
  options.record_limit = trace ? kRecordLimit : 0;
  options.watcher = &watcher;

  const RegistryMark mark;
  const double cpu0 = ProcessCpuS();
  const double wall0 = NowS();
  ConnResult phase = RunOpenPhase(conns, schedule, options);
  bool all_visible = true;
  if (w.durable) all_visible = watcher.WaitAllVisible(30.0);
  const double wall_s = NowS() - wall0;
  watcher.Stop();
  const double service_cpu =
      ProcessCpuS() - cpu0 - phase.cpu_s - watcher.cpu_s();
  const std::uint64_t answered = Answered(phase);
  AddCounts(report, "measured", phase);

  const auto& predict = phase.ops[static_cast<int>(Op::kPredict)];
  const auto& batch = phase.ops[static_cast<int>(Op::kBatch)];
  const auto& topn = phase.ops[static_cast<int>(Op::kTopN)];
  const auto& rate = phase.ops[static_cast<int>(Op::kRate)];
  const auto& ckpt = phase.ops[static_cast<int>(Op::kCheckpoint)];
  AddCommon(report, w, setup_s, setup_rss_mb, predict.latency_us, service_cpu,
           answered);
  report.AddLatency("predict", predict.latency_us, 1.0, "us");
  report.AddLatency("batch", batch.latency_us, 1.0, "us");
  report.AddLatency("topn", topn.latency_us, 1.0, "us");
  if (w.durable) {
    report.AddLatency("ack", rate.latency_us, 1.0, "us");
    const Samples visible = watcher.visible_ms();
    report.AddLatency("visible", visible, 1.0, "ms");
    report.AddLatency("checkpoint", ckpt.latency_us, 1e-3, "ms");
    if (!all_visible) {
      report.checks.Fail(std::to_string(watcher.pending()) +
                         " acked rating(s) never became visible");
    }
  }
  // The run is invalid when the generator itself ran late (CPU starved
  // or descheduled), not when it waited for a slow reply.
  const double lag_p99 = phase.lag_us.Percentile(99.0);
  report.Add("generator_lag_p50_us", phase.lag_us.Median(), "us",
             phase.lag_us.size());
  report.Add("generator_lag_p99_us", lag_p99, "us", phase.lag_us.size());
  // send - due, which also counts waiting behind a slow reply.
  report.Add("generator_backlog_p99_us", phase.backlog_us.Percentile(99.0), "us",
             phase.backlog_us.size());
  if (lag_p99 > kLagBoundUs) report.valid = false;

  // Checks: sampled answers against the generation that served them.
  VerifyReads(phase.samples, static_cast<std::uint32_t>(train.num_items()),
              report.checks);
  if (report.checks.verified == 0) {
    report.checks.Fail("no sampled answer could be verified");
  }
  const std::uint64_t reads = predict.ok + batch.ok + topn.ok;
  const std::uint64_t degraded = predict.degraded + batch.degraded;
  report.Add("degraded_frac",
             reads > 0 ? static_cast<double>(degraded) / static_cast<double>(reads) : 0.0,
             "ratio", reads);

  // read_max_rps: a fixed ladder of offered read rates (untraced only).
  // Every step runs; on a VM latency need not rise with the rate, so the
  // answer is the highest step that meets the limit, not the last before
  // the first miss.
  if (w.ladder && !trace) {
    double best = 0.0;
    for (const double factor : kLadderFactors) {
      const Schedule step = ReadSchedule(w, train, zipf, rng, kLadderStepS,
                                         factor, seed, next_id);
      const ConnResult r = RunOpenPhase(conns, step, RunOptions{});
      std::uint64_t sent = 0;
      std::uint64_t failed = 0;
      std::uint64_t degraded_step = 0;
      for (const OpStats& s : r.ops) {
        sent += s.sent;
        failed += s.failed;
        degraded_step += s.degraded;
      }
      // Failed answers count as misses of the step, not as wrong answers.
      // A growing backlog shows as sends running late: one send in ten
      // later than the limit misses the step.
      const double p99 =
          r.ops[static_cast<int>(Op::kPredict)].latency_us.Percentile(99.0);
      const double backlog = r.backlog_us.Percentile(90.0);
      const double offered = (w.predict_rps + w.batch_rps) * factor + w.topn_rps;
      const bool pass = p99 <= kLadderLimitUs && backlog <= kLadderLimitUs &&
                        failed == 0 && degraded_step == 0;
      std::printf("ladder offered %6.0f rps  sent %6llu  failed %llu  degraded %llu  "
                  "predict p99 %9.1f us  backlog p90 %9.1f us  %s\n",
                  offered, static_cast<unsigned long long>(sent),
                  static_cast<unsigned long long>(failed),
                  static_cast<unsigned long long>(degraded_step), p99, backlog,
                  pass ? "meets" : "misses");
      if (pass) best = offered;
    }
    report.Add("read_max_rps", best, "1/s", std::size(kLadderFactors));
  }

  if (trace) {
    auto& L = report.layers;
    AddRegistryDeltas(mark, L);
    L["trace.op_p50_us"] = predict.latency_us.Median();
    L["serve.queue_max"] = static_cast<double>(host->stack().MaxDepthSeen());
    L["parallel.pool_tasks"] = pool_tasks;
    L["core.fit_ms"] = host->setup().fit_s * 1e3;
    host->Stop();  // quiesce folds before the in-process measurements
    if (w.durable) {
      const FoldTrace& folds = host->fold_trace();
      L["serve.fold_batch_ms"] = folds.batch_ms.Median();
      L["serve.fold_batch_records"] = folds.batch_records.Median();
      L["serve.fold_busy_frac"] = folds.busy_s / wall_s;
      L["serve.fold_errors"] = static_cast<double>(folds.errors);
      phase.spans.MergeFrom(folds.spans);
      L["ckpt.checkpoint_ms"] = ckpt.latency_us.Median() * 1e-3;
      L["ckpt.bundle_bytes"] =
          static_cast<double>(NewestBundleBytes(host->config().ckpt_dir));
    }
    LayerInputs in;
    in.host = host.get();
    in.train = &train;
    in.data = &data;
    in.read_requests = &phase.recorded;
    in.probes = Probes(train, zipf, rng, 400);
    in.unrated = UnratedCells(train, zipf, rng, 8);
    MeasureLayers(in, phase.spans, L);
    // The net layer's own per-request work (parse + render) as a share of
    // the predict latency a client saw in this phase.
    const double http_predict = predict.latency_us.Median();
    L["net.predict_share"] =
        http_predict > 0
            ? (L["net.parse_us"] + L["net.render_us"]) / http_predict
            : 0.0;
    L["trace.spans"] = static_cast<double>(phase.spans.spans().size());
    const fs::path spans_path =
        dir / ("spans-" + std::string(w.name) + "-" + std::to_string(seed) + ".json");
    WriteSpans(spans_path.string(), phase.spans.spans());
    std::printf("spans written to %s\n", spans_path.string().c_str());
    for (const auto& [layer, ms] : SelfTimeMsByLayer(phase.spans.spans())) {
      std::printf("self_ms %-12s %12.3f\n", layer.c_str(), ms);
    }
  }
  host.reset();
  return report;
}

// ---------------------------------------------------------------------------
// ingest_restart: closed loop, forced checkpoint halfway, restart.

RunReport RunIngestRestart(const Workload& w, std::uint64_t seed, bool trace,
                           const fs::path& dir) {
  RunReport report;
  Rng rng(seed);
  const auto data = DataConfig(w);
  const auto train = cfsf::data::GenerateSynthetic(data);
  const ZipfUsers zipf(train.num_users(), rng);
  const auto cells = UnratedCells(train, zipf, rng, kIngestRatings);
  std::vector<Call> calls;
  for (std::size_t j = 0; j < cells.size(); ++j) {
    Call call;
    call.op = Op::kRate;
    call.user = cells[j].first;
    call.item = cells[j].second;
    call.rating = 1 + rng.Below(5);
    call.id = j + 1;
    BuildWire(call, static_cast<std::uint32_t>(train.num_items()), seed);
    calls.push_back(std::move(call));
  }
  const auto probes = Probes(train, zipf, rng, 200);

  HostConfig base;
  base.data = data;
  base.durable = true;
  base.drive_folds = trace;
  std::unique_ptr<ServiceHost> host;
  double pool_tasks = 0.0;
  double setup_rss_mb = 0.0;
  const double setup_s =
      SetUp(w, base, dir, host, &setup_rss_mb, &pool_tasks);
  const HostConfig serving_config = host->config();
  const double fit_ms = host->setup().fit_s * 1e3;

  std::array<HttpConnection, kConnections> conns;
  Connect(conns, host->port());
  Watcher watcher(host->models(), 0, 0.0);
  watcher.Start();
  RunOptions options;
  options.trace = trace;
  options.watcher = &watcher;

  const RegistryMark mark;
  const double cpu0 = ProcessCpuS();
  const std::size_t half = calls.size() / 2;
  ConnResult phase = RunClosedPhase(conns, calls, 0, half, options);
  bool all_visible = watcher.WaitAllVisible(120.0);
  // The forced checkpoint: everything sent so far is folded, so the WAL
  // suffix past its watermark is exactly the second half.
  Reply reply;
  const double ckpt_start = NowS();
  const bool ckpt_ok = conns[0].RoundTrip(CheckpointRequest(), &reply) &&
                       reply.status == 200;
  const double checkpoint_ms = (NowS() - ckpt_start) * 1e3;
  ++report.attempted;
  if (!ckpt_ok) ++report.failed;
  phase.MergeFrom(RunClosedPhase(conns, calls, half, calls.size(), options));
  all_visible = watcher.WaitAllVisible(120.0) && all_visible;
  const double last_visible = watcher.last_visible();
  watcher.Stop();
  std::map<std::string, double> layers;
  if (trace) AddRegistryDeltas(mark, layers);
  AddCounts(report, "ingest", phase);
  const Samples visible = watcher.visible_ms();
  const double ingest_s = last_visible - phase.first_send;

  // The last pre-restart generation answers the probes.
  const auto before = host->models().Active();
  std::vector<double> expected;
  for (const auto& [u, i] : probes) expected.push_back(LadderValue(*before, u, i));
  const std::uint64_t bundle_bytes =
      NewestBundleBytes(serving_config.ckpt_dir);
  if (trace) {
    layers["serve.queue_max"] = static_cast<double>(host->stack().MaxDepthSeen());
  }
  for (auto& conn : conns) conn.Close();
  host->Stop();
  if (trace) {
    const FoldTrace& folds = host->fold_trace();
    layers["serve.fold_batch_ms"] = folds.batch_ms.Median();
    layers["serve.fold_batch_records"] = folds.batch_records.Median();
    layers["serve.fold_busy_frac"] = folds.busy_s / ingest_s;
    layers["serve.fold_errors"] = static_cast<double>(folds.errors);
    phase.spans.MergeFrom(folds.spans);
  }
  host.reset();

  // Restart through ckpt::Recover from the same directories.
  HostConfig restart = serving_config;
  restart.drive_folds = false;
  const double restart_start = NowS();
  host = std::make_unique<ServiceHost>(restart);
  const double recover_s = NowS() - restart_start;
  const double service_cpu =
      ProcessCpuS() - cpu0 - phase.cpu_s - watcher.cpu_s();
  const cfsf::ckpt::RecoveryInfo info = host->recovery();

  // Checks: every acked rating is present; probes answer as before.
  const auto after = host->models().Active();
  const auto& recovered = after->model().train();
  std::size_t missing = 0;
  for (const std::uint64_t id : phase.acked_ids) {
    const Call& call = calls[id - 1];
    const auto rating = recovered.GetRating(call.user, call.item);
    if (!rating.has_value() || *rating != static_cast<float>(call.rating)) ++missing;
  }
  if (missing > 0) {
    report.checks.Fail(std::to_string(missing) + " acked rating(s) missing after restart");
  }
  std::size_t differ = 0;
  for (std::size_t k = 0; k < probes.size(); ++k) {
    if (LadderValue(*after, probes[k].first, probes[k].second) != expected[k]) ++differ;
  }
  if (differ > 0) {
    report.checks.Fail(std::to_string(differ) + " probe prediction(s) changed across restart");
  }
  report.checks.verified = calls.size() + probes.size();
  if (!all_visible) report.checks.Fail("acked ratings never became visible");
  if (info.replayed_records != calls.size() - half) {
    report.checks.Fail("replayed " + std::to_string(info.replayed_records) +
                       " records, expected " + std::to_string(calls.size() - half));
  }

  const auto& rate = phase.ops[static_cast<int>(Op::kRate)];
  AddCommon(report, w, setup_s, setup_rss_mb, rate.latency_us, service_cpu,
           Answered(phase));
  report.AddLatency("ack", rate.latency_us, 1.0, "us");
  report.AddLatency("visible", visible, 1.0, "ms");
  report.Add("ingest_rps", ingest_s > 0 ? static_cast<double>(rate.ok) / ingest_s : 0.0,
             "1/s", rate.ok);
  report.Add("recover_s", recover_s, "s", 1);
  report.Add("checkpoint_ms", checkpoint_ms, "ms", 1);
  report.Add("degraded_frac", 0.0, "ratio", 0);

  if (trace) {
    auto& L = report.layers;
    L = layers;
    L["trace.op_p50_us"] = rate.latency_us.Median();
    L["parallel.pool_tasks"] = pool_tasks;
    L["core.fit_ms"] = fit_ms;
    L["ckpt.checkpoint_ms"] = checkpoint_ms;
    L["ckpt.bundle_bytes"] = static_cast<double>(bundle_bytes);
    L["ckpt.replay_records"] = static_cast<double>(info.replayed_records);
    // Load alone: Recover from the same checkpoints and an empty log.
    const fs::path empty_wal = dir / "empty-wal";
    fs::remove_all(empty_wal);
    fs::create_directories(empty_wal);
    cfsf::ckpt::RecoverOptions load_only;
    load_only.ckpt_dir = serving_config.ckpt_dir;
    load_only.wal_dir = empty_wal.string();
    load_only.seed_model = [] () -> std::unique_ptr<cfsf::core::CfsfModel> {
      throw std::runtime_error("checkpoint did not load");
    };
    const double load_start = NowS();
    cfsf::ckpt::Recover(load_only);
    const double load_end = NowS();
    phase.spans.Add("ckpt.Recover (checkpoint only)", "ckpt", load_start, load_end);
    L["ckpt.recover_load_ms"] = (load_end - load_start) * 1e3;
    L["ckpt.replay_ms"] =
        std::max(0.0, info.recovery_us * 1e-3 - L["ckpt.recover_load_ms"]);
    LayerInputs in;
    in.host = host.get();
    in.train = &train;
    in.data = &data;
    std::vector<std::string> rate_wires;
    for (std::size_t k = 0; k < calls.size() && k < kRecordLimit; ++k) {
      rate_wires.push_back(calls[k].wire);
    }
    in.rate_requests = &rate_wires;
    in.probes = probes;
    in.unrated = UnratedCells(recovered, zipf, rng, 8);
    MeasureLayers(in, phase.spans, L);
    L["trace.spans"] = static_cast<double>(phase.spans.spans().size());
    const fs::path spans_path =
        dir / ("spans-" + std::string(w.name) + "-" + std::to_string(seed) + ".json");
    WriteSpans(spans_path.string(), phase.spans.spans());
    std::printf("spans written to %s\n", spans_path.string().c_str());
    for (const auto& [layer, ms] : SelfTimeMsByLayer(phase.spans.spans())) {
      std::printf("self_ms %-12s %12.3f\n", layer.c_str(), ms);
    }
  }
  host.reset();
  return report;
}

// ---------------------------------------------------------------------------

/// Metrics each traced run reports; layers a workload does not run
/// report 0.  BENCHMARK.json "per_layer" lists the same names.
const std::vector<std::pair<std::string, std::string>>& LayerUnits() {
  static const std::vector<std::pair<std::string, std::string>> units = {
      {"net.parse_us", "us"}, {"net.render_us", "us"},
      {"net.http_p50_us", "us"}, {"net.http_p99_us", "us"},
      {"net.predict_share", "ratio"},
      {"serve.sync_p50_us", "us"}, {"serve.sync_p99_us", "us"},
      {"serve.queue_max", "count"}, {"serve.degraded_admissions", "count"},
      {"serve.shed", "count"},
      {"serve.fold_batch_ms", "ms"}, {"serve.fold_batch_records", "count"},
      {"serve.fold_busy_frac", "ratio"}, {"serve.fold_errors", "count"},
      {"serve.install_us", "us"},
      {"core.predict_warm_us", "us"}, {"core.topk_cold_us", "us"},
      {"core.topn_us", "us"}, {"core.topk_hit_ratio", "ratio"},
      {"core.topk_lookups", "count"},
      {"core.insert_rating_ms", "ms"}, {"core.restore_ms", "ms"},
      {"core.fit_ms", "ms"},
      {"similarity.gis_build_serial_ms", "ms"},
      {"similarity.gis_build_parallel_ms", "ms"},
      {"similarity.gis_refresh_ms", "ms"},
      {"parallel.gis_speedup", "ratio"}, {"parallel.pool_tasks", "count"},
      {"clustering.kmeans_ms", "ms"}, {"clustering.smoothing_ms", "ms"},
      {"matrix.with_rating_ms", "ms"},
      {"wal.append_p50_us", "us"}, {"wal.append_p99_us", "us"},
      {"wal.fsyncs_per_append", "ratio"}, {"wal.appends", "count"},
      {"ckpt.checkpoint_ms", "ms"}, {"ckpt.bundle_bytes", "bytes"},
      {"ckpt.recover_load_ms", "ms"}, {"ckpt.replay_records", "count"},
      {"ckpt.replay_ms", "ms"},
      {"robust.rung_sir", "count"}, {"robust.rung_user_mean", "count"},
      {"robust.rung_global_mean", "count"},
      {"data.generate_ms", "ms"},
      {"trace.op_p50_us", "us"}, {"trace.spans", "count"},
  };
  return units;
}

/// BENCHMARK.json "end_to_end": the metrics whose run-to-run spread on
/// a shared 4-vCPU VM stays inside their bounds.  Latencies and CPU per
/// request move with the load of other tenants on the host (by 25-40 %
/// on the read path between minutes); they are reported, not gated.
const char* const kGated[] = {"setup_s", "setup_rss_mb", "rss_mb"};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 15.0;
  bool trace = false;
  std::string work_dir = ".bench_build/perfbench-run";
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::runtime_error("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else {
      throw std::runtime_error("unknown flag " + flag);
    }
  }
  if (args.seconds <= 0.0) throw std::runtime_error("--seconds must be positive");
  return args;
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) workload = &w;
  }
  if (workload == nullptr) {
    throw std::runtime_error("unknown --workload '" + args.workload + "'");
  }
  cfsf::util::SetLogLevel(cfsf::util::LogLevel::kWarn);
  const fs::path dir = fs::path(args.work_dir) /
                       (std::string(workload->name) + "-" + std::to_string(getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);

  std::printf("workload %s  seed %llu  seconds %g  trace %d\n", workload->name,
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  RunReport report =
      workload->ingest
          ? RunIngestRestart(*workload, args.seed, args.trace, dir)
          : RunReadWorkload(*workload, args.seed, args.seconds, args.trace, dir);
  // Keep only a traced run's spans; logs and checkpoints go.
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().filename().string().rfind("spans-", 0) != 0) {
      fs::remove_all(entry.path());
    }
  }
  if (fs::is_empty(dir)) fs::remove(dir);

  const double fail_frac =
      report.attempted > 0
          ? static_cast<double>(report.failed + report.checks.mismatches) /
                static_cast<double>(report.attempted)
          : 0.0;
  report.Add("fail_frac", fail_frac, "ratio", report.attempted);
  for (const Metric& m : report.e2e) {
    std::printf("e2e %-24s %14.4f %-6s n=%zu\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  }
  std::printf("check verified %zu  unverifiable %zu  mismatches %zu  generator %s\n",
              report.checks.verified, report.checks.unverifiable,
              report.checks.mismatches,
              report.valid ? "on time" : "LATE (run invalid)");
  for (const std::string& note : report.checks.notes) {
    std::printf("check MISMATCH %s\n", note.c_str());
  }

  const bool correct = report.checks.mismatches == 0 && report.failed == 0 &&
                       report.valid;
  cfsf::obs::JsonWriter json;
  json.BeginObject();
  json.Key("correct").Bool(correct);
  json.Key("attempted").Uint(report.attempted);
  json.Key("failed").Uint(report.failed + report.checks.mismatches);
  json.Key("metrics").BeginObject();
  if (args.trace) {
    for (const auto& [name, unit] : LayerUnits()) {
      const auto found = report.layers.find(name);
      json.Key(name).BeginObject();
      json.Key("value").Double(found != report.layers.end() ? found->second : 0.0);
      json.Key("unit").String(unit);
      json.EndObject();
    }
  } else {
    for (const char* name : kGated) {
      const Metric* m = report.Find(name);
      json.Key(name).BeginObject();
      json.Key("value").Double(m->value);
      json.Key("unit").String(m->unit);
      json.EndObject();
    }
  }
  json.EndObject();
  json.EndObject();
  std::printf("%s\n", json.str().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cfsf_perfbench: %s\n", e.what());
    return 2;
  }
}
