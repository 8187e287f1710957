// Per-layer measurements of a traced run that are taken in process,
// after the HTTP phase: spans around calls into each module's public
// functions, on the workload's own data and served model.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/cfsf_model.hpp"
#include "host.hpp"
#include "stats.hpp"

namespace perfbench {

struct LayerInputs {
  ServiceHost* host = nullptr;                       // running service
  const cfsf::matrix::RatingMatrix* train = nullptr;  // the seed data
  const cfsf::data::SyntheticConfig* data = nullptr;
  /// Read requests exactly as the generator sent them (may be empty).
  const std::vector<std::string>* read_requests = nullptr;
  /// Rate request bytes, for parse/render of the write path when the
  /// workload sends no reads (they are never re-sent).
  const std::vector<std::string>* rate_requests = nullptr;
  /// (user, item) cells for the core measurements, and unrated cells
  /// for the write-path copies.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> probes;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> unrated;
};

/// Adds the in-process layer metrics (name -> value) to `out`, recording
/// one span per timed call into `spans`.
void MeasureLayers(const LayerInputs& in, SpanLog& spans,
                   std::map<std::string, double>& out);

}  // namespace perfbench
