// A minimal blocking HTTP/1.1 keep-alive client for the loopback load
// generator, plus functions that build the service's requests and a scanner
// for the fields of its (fixed-shape) JSON replies.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Reply {
  int status = 0;
  std::string body;
};

/// One keep-alive connection to 127.0.0.1:<port>.  Not thread-safe: each
/// generator thread owns its connections.
class HttpConnection {
 public:
  HttpConnection() = default;
  ~HttpConnection();
  HttpConnection(const HttpConnection&) = delete;
  HttpConnection& operator=(const HttpConnection&) = delete;

  bool Connect(std::uint16_t port);
  void Close();
  /// Sends `request` (a complete HTTP message) and reads one response.
  /// False on a socket error or a malformed response; the connection is
  /// closed then and reconnected on the next call.
  bool RoundTrip(const std::string& request, Reply* reply);

 private:
  bool Send(const std::string& request);
  bool ReadResponse(Reply* reply, std::size_t* received);

  int fd_ = -1;
  std::uint16_t port_ = 0;
  std::string buffer_;
};

std::string PredictRequest(std::uint32_t user, std::uint32_t item);
std::string BatchRequest(std::uint32_t user,
                         const std::vector<std::uint32_t>& items);
std::string TopNRequest(std::uint32_t user, std::uint32_t n);
std::string RateRequest(std::uint32_t user, std::uint32_t item,
                        std::uint32_t rating, const std::string& request_id);
std::string CheckpointRequest();

/// The fields of a service reply the benchmark checks.
struct ParsedReply {
  std::uint64_t generation = 0;
  /// Predictions: (value, rung == "full").
  std::vector<std::pair<double, bool>> predictions;
  /// Top-N: (item, score).
  std::vector<std::pair<std::uint32_t, double>> ranked;
};
/// Scans a reply body.  False when a field the caller needs is missing.
bool ParseReply(const std::string& body, ParsedReply* out);
/// Number of "rung" fields in a predict/batch reply that are not "full".
std::size_t CountDegradedRungs(const std::string& body);

}  // namespace perfbench
