#include "http_client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <cstdlib>
#include <cstring>

namespace perfbench {

HttpConnection::~HttpConnection() { Close(); }

bool HttpConnection::Connect(std::uint16_t port) {
  Close();
  port_ = port;
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) return false;
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    Close();
    return false;
  }
  return true;
}

void HttpConnection::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  buffer_.clear();
}

bool HttpConnection::RoundTrip(const std::string& request, Reply* reply) {
  // A keep-alive connection the server closed while idle fails before
  // any byte of the reply arrives; like any HTTP client, retry such a
  // request once on a fresh connection (ratings carry a request id, so
  // a retried rate is deduplicated by the service).
  for (int attempt = 0; attempt < 2; ++attempt) {
    const bool reused = fd_ >= 0;
    if (!reused && (port_ == 0 || !Connect(port_))) return false;
    std::size_t received = 0;
    if (Send(request) && ReadResponse(reply, &received)) return true;
    Close();
    if (!reused || received > 0) return false;
  }
  return false;
}

bool HttpConnection::Send(const std::string& request) {
  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = ::send(fd_, request.data() + sent, request.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

bool HttpConnection::ReadResponse(Reply* reply, std::size_t* received) {
  char chunk[16384];
  std::size_t header_end = std::string::npos;
  std::size_t body_length = 0;
  for (;;) {
    if (header_end == std::string::npos) {
      header_end = buffer_.find("\r\n\r\n");
      if (header_end != std::string::npos) {
        // Status line: "HTTP/1.1 200 OK".
        const std::size_t space = buffer_.find(' ');
        if (space == std::string::npos || space > header_end) return false;
        reply->status = std::atoi(buffer_.c_str() + space + 1);
        // Content-Length (the server always sends it).
        std::size_t pos = 0;
        bool found = false;
        while ((pos = buffer_.find("\r\n", pos)) != std::string::npos &&
               pos < header_end) {
          pos += 2;
          if (strncasecmp(buffer_.c_str() + pos, "content-length:", 15) == 0) {
            body_length = std::strtoull(buffer_.c_str() + pos + 15, nullptr, 10);
            found = true;
            break;
          }
        }
        if (!found) return false;
      }
    }
    if (header_end != std::string::npos &&
        buffer_.size() >= header_end + 4 + body_length) {
      reply->body.assign(buffer_, header_end + 4, body_length);
      buffer_.erase(0, header_end + 4 + body_length);
      return true;
    }
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    *received += static_cast<std::size_t>(n);
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

namespace {

std::string Post(const char* path, const std::string& body,
                 const std::string& extra_headers = "") {
  std::string out;
  out.reserve(160 + body.size());
  out += "POST ";
  out += path;
  out += " HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: application/json\r\n";
  out += extra_headers;
  out += "Content-Length: " + std::to_string(body.size()) + "\r\n\r\n";
  out += body;
  return out;
}

}  // namespace

std::string PredictRequest(std::uint32_t user, std::uint32_t item) {
  return Post("/v1/predict", "{\"user\":" + std::to_string(user) +
                                 ",\"item\":" + std::to_string(item) + "}");
}

std::string BatchRequest(std::uint32_t user,
                         const std::vector<std::uint32_t>& items) {
  std::string body = "{\"queries\":[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i > 0) body += ',';
    body += '[' + std::to_string(user) + ',' + std::to_string(items[i]) + ']';
  }
  body += "]}";
  return Post("/v1/predict-batch", body);
}

std::string TopNRequest(std::uint32_t user, std::uint32_t n) {
  return "GET /v1/top-n?user=" + std::to_string(user) +
         "&n=" + std::to_string(n) + " HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n";
}

std::string RateRequest(std::uint32_t user, std::uint32_t item,
                        std::uint32_t rating, const std::string& request_id) {
  return Post("/v1/rate",
              "{\"user\":" + std::to_string(user) +
                  ",\"item\":" + std::to_string(item) +
                  ",\"rating\":" + std::to_string(rating) + "}",
              "X-CFSF-Request-Id: " + request_id + "\r\n");
}

std::string CheckpointRequest() { return Post("/v1/admin/checkpoint", "{}"); }

namespace {

// Finds `"key":` at or after `from`; returns the offset just past the
// colon (and any spaces), or npos.
std::size_t FindKey(const std::string& body, const char* key,
                    std::size_t from) {
  const std::string needle = std::string("\"") + key + "\":";
  std::size_t pos = body.find(needle, from);
  if (pos == std::string::npos) return pos;
  pos += needle.size();
  while (pos < body.size() && body[pos] == ' ') ++pos;
  return pos;
}

bool ReadUint(const std::string& body, std::size_t pos, std::uint64_t* out) {
  const char* end = body.data() + body.size();
  const auto result = std::from_chars(body.data() + pos, end, *out);
  return result.ec == std::errc();
}

bool ReadDouble(const std::string& body, std::size_t pos, double* out) {
  const char* end = body.data() + body.size();
  const auto result = std::from_chars(body.data() + pos, end, *out);
  return result.ec == std::errc();
}

}  // namespace

bool ParseReply(const std::string& body, ParsedReply* out) {
  std::size_t pos = FindKey(body, "generation", 0);
  if (pos == std::string::npos || !ReadUint(body, pos, &out->generation)) {
    return false;
  }
  if (FindKey(body, "predictions", 0) != std::string::npos) {
    std::size_t at = 0;
    while ((at = FindKey(body, "value", at)) != std::string::npos) {
      double value = 0.0;
      if (!ReadDouble(body, at, &value)) return false;
      const std::size_t rung = FindKey(body, "rung", at);
      if (rung == std::string::npos) return false;
      out->predictions.emplace_back(value,
                                    body.compare(rung, 6, "\"full\"") == 0);
      at = rung;
    }
  }
  if (FindKey(body, "ranked", 0) != std::string::npos) {
    std::size_t at = 0;
    while ((at = FindKey(body, "item", at)) != std::string::npos) {
      std::uint64_t item = 0;
      double score = 0.0;
      const std::size_t score_at = FindKey(body, "score", at);
      if (!ReadUint(body, at, &item) || score_at == std::string::npos ||
          !ReadDouble(body, score_at, &score)) {
        return false;
      }
      out->ranked.emplace_back(static_cast<std::uint32_t>(item), score);
      at = score_at;
    }
  }
  return true;
}

std::size_t CountDegradedRungs(const std::string& body) {
  std::size_t degraded = 0;
  std::size_t at = 0;
  while ((at = FindKey(body, "rung", at)) != std::string::npos) {
    if (body.compare(at, 6, "\"full\"") != 0) ++degraded;
  }
  return degraded;
}

}  // namespace perfbench
