#include "layers.hpp"

#include <cstdlib>
#include <memory>
#include <stdexcept>

#include "clustering/kmeans.hpp"
#include "clustering/smoothing.hpp"
#include "data/synthetic.hpp"
#include "net/http.hpp"
#include "net/wire.hpp"
#include "serve/api.hpp"
#include "serve/model_generation.hpp"
#include "similarity/item_similarity.hpp"

namespace perfbench {

namespace {

using cfsf::core::CfsfModel;

// Times `body` `reps` times under one span each; returns the median in ms.
template <typename Body>
double MedianMs(SpanLog& spans, std::int64_t parent, const char* name,
                const char* layer, int reps, Body&& body) {
  Samples ms;
  for (int r = 0; r < reps; ++r) {
    const double start = NowS();
    body();
    const double end = NowS();
    spans.Add(name, layer, start, end, parent);
    ms.Add((end - start) * 1e3);
  }
  return ms.Median();
}

std::unique_ptr<CfsfModel> CloneOf(const CfsfModel& model) {
  std::vector<std::uint32_t> assignments(model.NumUsers());
  for (cfsf::matrix::UserId u = 0; u < assignments.size(); ++u) {
    assignments[u] = model.cluster_model().ClusterOf(u);
  }
  return CfsfModel::Restore(model.config(), model.train(), model.gis(),
                            std::move(assignments));
}

// Decodes a recorded request the way ServingService::Handle does, up to
// the serve::Request it would dispatch.  False for routes without one.
bool Decode(const cfsf::net::HttpRequest& http, cfsf::serve::Request* out) {
  cfsf::net::BodyParse parse;
  if (http.path == "/v1/predict") {
    parse = cfsf::net::ParsePredictBody(http.body);
  } else if (http.path == "/v1/predict-batch") {
    parse = cfsf::net::ParseBatchBody(http.body, 1024);
  } else if (http.path == "/v1/top-n") {
    const std::string user = http.QueryParam("user");
    const std::string n = http.QueryParam("n", "10");
    *out = cfsf::serve::Request::TopN(
        static_cast<cfsf::matrix::UserId>(std::strtoul(user.c_str(), nullptr, 10)),
        std::strtoul(n.c_str(), nullptr, 10));
    return true;
  } else if (http.path == "/v1/rate") {
    parse = cfsf::net::ParseRateBody(http.body);
  } else {
    return false;
  }
  if (!parse.ok) return false;
  *out = std::move(parse.request);
  return true;
}

}  // namespace

void MeasureLayers(const LayerInputs& in, SpanLog& spans,
                   std::map<std::string, double>& out) {
  ServiceHost& host = *in.host;
  const auto active = host.models().Active();
  const CfsfModel& served = active->model();
  const cfsf::matrix::RatingMatrix& train = *in.train;
  const cfsf::core::CfsfConfig& config = served.config();

  // --- net + serve: replay the recorded requests in process.  Each
  // replayed request is a root span with parse / sync / render children.
  const std::vector<std::string>& wires =
      in.read_requests != nullptr && !in.read_requests->empty()
          ? *in.read_requests
          : *in.rate_requests;
  Samples parse_us;
  Samples render_us;
  Samples sync_us;
  std::uint64_t request_id = 1;
  for (const std::string& wire : wires) {
    const std::int64_t root = spans.Begin("replay", "bench", 0, request_id);
    double start = NowS();
    cfsf::net::RequestParser parser;
    parser.Feed(wire.data(), wire.size());
    cfsf::serve::Request request;
    const bool decoded =
        parser.state() == cfsf::net::RequestParser::State::kComplete &&
        Decode(parser.request(), &request);
    double end = NowS();
    spans.Add("net.RequestParser::Feed+decode", "net", start, end, root,
              request_id);
    parse_us.Add((end - start) * 1e6);
    if (!decoded) {
      spans.End(root);
      throw std::runtime_error("recorded request does not decode: " + wire);
    }
    cfsf::serve::Response response;
    if (request.kind == cfsf::serve::Request::Kind::kRate) {
      // Never re-sent: a replayed rating would be appended to the log.
      response.lsn = request_id;
      response.generation = active->generation();
    } else {
      start = NowS();
      response = host.stack().ServeSync(request);
      end = NowS();
      spans.Add("serve.ServingStack::ServeSync", "serve", start, end, root,
                request_id);
      sync_us.Add((end - start) * 1e6);
    }
    start = NowS();
    cfsf::net::HttpResponse http;
    http.status = request.kind == cfsf::serve::Request::Kind::kRate ? 202 : 200;
    http.body = cfsf::net::RenderResponseJson(request.kind, response);
    const std::string bytes = cfsf::net::Serialize(http, true);
    end = NowS();
    spans.Add("net.RenderResponseJson+Serialize", "net", start, end, root,
              request_id);
    render_us.Add((end - start) * 1e6);
    spans.End(root);
    ++request_id;
  }
  out["net.parse_us"] = parse_us.Median();
  out["net.render_us"] = render_us.Median();
  out["serve.sync_p50_us"] = sync_us.Median();
  out["serve.sync_p99_us"] = sync_us.Percentile(99.0);

  // --- core, read side: warm predictions on the served model, cold top-K
  // and top-N on a Restore clone (whose cache nothing else uses).
  Samples predict_us;
  const std::int64_t warm = spans.Begin("core.CfsfModel::Predict (warm) xN", "core");
  for (const auto& [user, item] : in.probes) {
    served.Predict(user, item);  // warm this user's top-K list
    const double start = NowS();
    served.Predict(user, item);
    predict_us.Add((NowS() - start) * 1e6);
  }
  spans.End(warm);
  out["core.predict_warm_us"] = predict_us.Median();

  std::unique_ptr<CfsfModel> clone;
  out["core.restore_ms"] = MedianMs(spans, 0, "core.CfsfModel::Restore", "core",
                                    3, [&] { clone = CloneOf(served); });
  Samples topk_us;
  Samples topn_us;
  const std::int64_t cold = spans.Begin("core.SelectTopKUsers (cold) xN", "core");
  for (std::size_t k = 0; k < in.probes.size() && k < 200; ++k) {
    clone->ClearCache();
    const double start = NowS();
    clone->SelectTopKUsers(in.probes[k].first);
    topk_us.Add((NowS() - start) * 1e6);
  }
  spans.End(cold);
  const std::int64_t topn = spans.Begin("core.RecommendTopN xN", "core");
  for (std::size_t k = 0; k < in.probes.size() && k < 10; ++k) {
    const double start = NowS();
    clone->RecommendTopN(in.probes[k].first, 10);
    topn_us.Add((NowS() - start) * 1e6);
  }
  spans.End(topn);
  out["core.topk_cold_us"] = topk_us.Median();
  out["core.topn_us"] = topn_us.Median();

  // --- serve: publishing a generation, on a private ModelGeneration so
  // that the old generation's release is part of the time, as in a fold.
  cfsf::serve::ModelGeneration private_models;
  private_models.Install(CloneOf(served));
  Samples install_us;
  for (int r = 0; r < 3; ++r) {
    auto next = CloneOf(served);
    const double start = NowS();
    private_models.Install(std::move(next));
    const double end = NowS();
    spans.Add("serve.ModelGeneration::Install", "serve", start, end);
    install_us.Add((end - start) * 1e6);
  }
  out["serve.install_us"] = install_us.Median();

  // --- core / matrix / similarity, write side, on private copies.
  const auto [wu, wi] = in.unrated.front();
  out["core.insert_rating_ms"] = MedianMs(
      spans, 0, "core.CfsfModel::InsertRating", "core", 3, [&, k = 0]() mutable {
        const auto [u, i] = in.unrated[static_cast<std::size_t>(k++) %
                                        in.unrated.size()];
        clone->InsertRating(u, i, 4.0F);
      });
  cfsf::matrix::RatingMatrix with_rating;
  out["matrix.with_rating_ms"] =
      MedianMs(spans, 0, "matrix.RatingMatrix::WithRating", "matrix", 5,
               [&] { with_rating = train.WithRating(wu, wi, 4.0F); });

  cfsf::sim::GisConfig gis_config = config.gis;
  gis_config.parallel = false;
  cfsf::sim::GlobalItemSimilarity gis;
  const double serial_ms =
      MedianMs(spans, 0, "similarity.GlobalItemSimilarity::Build (serial)",
               "similarity", 2,
               [&] { gis = cfsf::sim::GlobalItemSimilarity::Build(train, gis_config); });
  gis_config.parallel = true;
  const double parallel_ms =
      MedianMs(spans, 0, "similarity.GlobalItemSimilarity::Build (parallel)",
               "similarity", 2,
               [&] { gis = cfsf::sim::GlobalItemSimilarity::Build(train, gis_config); });
  out["similarity.gis_build_serial_ms"] = serial_ms;
  out["similarity.gis_build_parallel_ms"] = parallel_ms;
  out["parallel.gis_speedup"] = parallel_ms > 0.0 ? serial_ms / parallel_ms : 0.0;
  const cfsf::matrix::ItemId refreshed[] = {wi};
  out["similarity.gis_refresh_ms"] =
      MedianMs(spans, 0, "similarity.GlobalItemSimilarity::RefreshItems",
               "similarity", 3, [&] { gis.RefreshItems(with_rating, refreshed); });

  // --- clustering, as CfsfModel::Fit configures it.
  cfsf::cluster::KMeansConfig kconfig;
  kconfig.num_clusters = std::min(config.num_clusters, train.num_users());
  kconfig.max_iterations = config.kmeans_max_iterations;
  kconfig.seed = config.seed;
  kconfig.parallel = config.parallel;
  cfsf::cluster::KMeansResult kmeans;
  out["clustering.kmeans_ms"] =
      MedianMs(spans, 0, "clustering.RunKMeans", "clustering", 2,
               [&] { kmeans = cfsf::cluster::RunKMeans(train, kconfig); });
  out["clustering.smoothing_ms"] =
      MedianMs(spans, 0, "clustering.ClusterModel::Build", "clustering", 3, [&] {
        cfsf::cluster::ClusterModel::Build(train, kmeans.assignments,
                                           kconfig.num_clusters, config.parallel,
                                           config.deviation_shrinkage);
      });

  // --- data.
  out["data.generate_ms"] =
      MedianMs(spans, 0, "data.GenerateSynthetic", "data", 3,
               [&] { cfsf::data::GenerateSynthetic(*in.data); });
}

}  // namespace perfbench
