// Data-parallel loop primitives on top of ThreadPool.
//
// ParallelFor partitions [begin, end) into chunks and runs the body on the
// shared pool; the calling thread participates via Wait().  Grain-size
// control lets regular loops use coarse static chunks while irregular
// loops (the GIS kernel's per-item rows, per-user smoothing) use dynamic
// self-scheduling.
//
// ParallelReduce builds per-chunk partial results and combines them on the
// calling thread in chunk order, so bodies need no atomics.  The result is
// independent of the chunking only for exact combiners (integer sums,
// min/max, set union): floating-point partial sums round differently per
// chunk count, and the chunk count follows the pool size.
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <vector>

#include "parallel/thread_pool.hpp"
#include "util/error.hpp"

namespace cfsf::par {

/// Half-open index range, the unit handed to loop bodies.
struct Range {
  std::size_t begin = 0;
  std::size_t end = 0;
  std::size_t size() const { return end - begin; }
};

enum class Schedule {
  kStatic,   // one contiguous chunk per task, ~2 tasks per thread
  kDynamic,  // fixed-grain chunks claimed from an atomic counter
};

struct ForOptions {
  Schedule schedule = Schedule::kStatic;
  /// Minimum iterations per chunk (dynamic) or lower bound on chunk size
  /// (static).  0 means "choose automatically".
  std::size_t grain = 0;
  /// Pool to run on; nullptr means ThreadPool::Shared().
  ThreadPool* pool = nullptr;
  /// Run serially regardless of pool size (useful for debugging and for
  /// the single-thread baselines in the scalability benches).
  bool serial = false;
};

/// Runs `body(Range)` over [begin, end).  The body is invoked concurrently
/// from pool threads; it must not touch the same mutable state across
/// chunks without its own synchronisation.
void ParallelForRanges(std::size_t begin, std::size_t end,
                       const std::function<void(Range)>& body,
                       const ForOptions& options = {});

/// Element-wise convenience wrapper: body(i) for each i in [begin, end).
template <typename Body>
void ParallelFor(std::size_t begin, std::size_t end, Body&& body,
                 const ForOptions& options = {}) {
  ParallelForRanges(
      begin, end,
      [&body](Range r) {
        for (std::size_t i = r.begin; i < r.end; ++i) body(i);
      },
      options);
}

/// Parallel reduction: `make_partial()` creates a per-chunk accumulator,
/// `body(acc, i)` folds element i into it, `combine(total, partial)` merges
/// partials on the calling thread in chunk order.
template <typename T, typename MakePartial, typename Body, typename Combine>
T ParallelReduce(std::size_t begin, std::size_t end, MakePartial&& make_partial,
                 Body&& body, Combine&& combine, T initial,
                 const ForOptions& options = {}) {
  if (begin >= end) return initial;

  std::vector<T> partials;
  std::vector<Range> ranges;
  // Pre-partition statically so each partial has a fixed owner; dynamic
  // scheduling would not change the combine order anyway because we merge
  // by chunk index.
  ThreadPool& pool = options.pool ? *options.pool : ThreadPool::Shared();
  const std::size_t n = end - begin;
  std::size_t num_chunks =
      options.serial ? 1 : std::min<std::size_t>(n, pool.num_threads() * 2);
  if (options.grain > 0) {
    num_chunks = std::min(num_chunks, (n + options.grain - 1) / options.grain);
  }
  if (num_chunks == 0) num_chunks = 1;
  partials.reserve(num_chunks);
  ranges.reserve(num_chunks);
  for (std::size_t c = 0; c < num_chunks; ++c) {
    const std::size_t lo = begin + n * c / num_chunks;
    const std::size_t hi = begin + n * (c + 1) / num_chunks;
    if (lo == hi) continue;
    ranges.push_back(Range{lo, hi});
    partials.push_back(make_partial());
  }

  if (options.serial || num_chunks == 1) {
    for (std::size_t c = 0; c < ranges.size(); ++c) {
      for (std::size_t i = ranges[c].begin; i < ranges[c].end; ++i) {
        body(partials[c], i);
      }
    }
  } else {
    for (std::size_t c = 0; c < ranges.size(); ++c) {
      pool.Submit([&, c] {
        for (std::size_t i = ranges[c].begin; i < ranges[c].end; ++i) {
          body(partials[c], i);
        }
      });
    }
    pool.Wait();
  }

  T total = std::move(initial);
  for (auto& partial : partials) combine(total, partial);
  return total;
}

}  // namespace cfsf::par
