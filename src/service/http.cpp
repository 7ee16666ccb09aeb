#include "service/http.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <thread>

#include "obs/metrics.h"
#include "support/check.h"
#include "support/json.h"

namespace xcv::service {

namespace {

constexpr std::size_t kMaxHeaderBytes = 64 * 1024;
constexpr std::size_t kMaxBodyBytes = 64 * 1024 * 1024;
// Pause before retrying an accept that failed for want of fds or memory:
// long enough not to spin while the process is exhausted, short enough
// that a waiting client is answered soon after resources free up.
constexpr auto kAcceptBackoff = std::chrono::milliseconds(20);

/// accept(2) errors to retry at once: an interrupted call, and the errors
/// pending on the new connection that accept(2) says to treat like EAGAIN.
bool RetryAcceptNow(int err) {
  for (int e : {EINTR, ECONNABORTED, ENETDOWN, EPROTO, ENOPROTOOPT, EHOSTDOWN,
                ENONET, EHOSTUNREACH, EOPNOTSUPP, ENETUNREACH})
    if (err == e) return true;
  return false;
}

/// Collapses per-resource path segments so routes form a bounded label
/// set: any segment that looks like a job id ("j" + digits) or a bare
/// number becomes ":id". "/v1/campaigns/j12/report" → "/v1/campaigns/:id/
/// report".
std::string NormalizeRoute(const std::string& path) {
  std::string out;
  std::size_t i = 0;
  while (i < path.size()) {
    if (path[i] != '/') {  // degenerate target; keep as-is
      out += path[i++];
      continue;
    }
    std::size_t j = i + 1;
    while (j < path.size() && path[j] != '/') ++j;
    const std::string seg = path.substr(i + 1, j - i - 1);
    bool id_like = !seg.empty();
    std::size_t k = 0;
    if (seg[0] == 'j') k = 1;
    if (k >= seg.size()) id_like = false;
    for (; id_like && k < seg.size(); ++k)
      if (!std::isdigit(static_cast<unsigned char>(seg[k]))) id_like = false;
    out += "/";
    out += id_like ? ":id" : seg;
    i = j;
  }
  return out.empty() ? "/" : out;
}

void ObserveRequest(const std::string& method, const std::string& path,
                    int status, double seconds) {
  if (!obs::MetricsEnabled()) return;
  const std::string route = method + " " + NormalizeRoute(path);
  // Routes are a small bounded set, but the label value is dynamic, so
  // these lookups go through the registry each time (one mutex acquire on
  // a cold admin-path endpoint — not a hot path).
  obs::Registry::Global()
      .GetCounter("xcv_http_requests_total",
                  "HTTP requests served, by normalized route and status.",
                  {"route", "code"}, {route, std::to_string(status)})
      .Inc();
  obs::Registry::Global()
      .GetHistogram("xcv_http_request_seconds",
                    "HTTP request handling latency by normalized route.",
                    obs::DefaultSecondsBuckets(), {"route"}, {route})
      .Observe(seconds);
}

std::string UrlDecode(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '%' && i + 2 < s.size() &&
        std::isxdigit(static_cast<unsigned char>(s[i + 1])) &&
        std::isxdigit(static_cast<unsigned char>(s[i + 2]))) {
      const char hex[3] = {s[i + 1], s[i + 2], '\0'};
      out += static_cast<char>(std::strtol(hex, nullptr, 16));
      i += 2;
    } else if (s[i] == '+') {
      out += ' ';
    } else {
      out += s[i];
    }
  }
  return out;
}

void ParseTarget(const std::string& target, HttpRequest& req) {
  const std::size_t q = target.find('?');
  req.path = UrlDecode(target.substr(0, q));
  if (q == std::string::npos) return;
  std::size_t pos = q + 1;
  while (pos <= target.size()) {
    std::size_t amp = target.find('&', pos);
    if (amp == std::string::npos) amp = target.size();
    const std::string pair = target.substr(pos, amp - pos);
    if (!pair.empty()) {
      const std::size_t eq = pair.find('=');
      if (eq == std::string::npos)
        req.query[UrlDecode(pair)] = "";
      else
        req.query[UrlDecode(pair.substr(0, eq))] =
            UrlDecode(pair.substr(eq + 1));
    }
    pos = amp + 1;
  }
}

/// Reads exactly until the request is complete (headers + Content-Length
/// body). Returns false on a dropped/garbled connection — the caller just
/// closes; a broken client must not take the server down.
bool ReadRequest(int fd, HttpRequest& req) {
  std::string buf;
  std::size_t header_end = std::string::npos;
  char chunk[4096];
  while (header_end == std::string::npos) {
    if (buf.size() > kMaxHeaderBytes) return false;
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) return false;
    buf.append(chunk, static_cast<std::size_t>(n));
    header_end = buf.find("\r\n\r\n");
  }

  // Request line: METHOD SP target SP HTTP/1.x
  const std::size_t line_end = buf.find("\r\n");
  const std::string line = buf.substr(0, line_end);
  const std::size_t sp1 = line.find(' ');
  const std::size_t sp2 = line.rfind(' ');
  if (sp1 == std::string::npos || sp2 == sp1) return false;
  req.method = line.substr(0, sp1);
  for (char& c : req.method)
    c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  ParseTarget(line.substr(sp1 + 1, sp2 - sp1 - 1), req);

  // Headers, keys lowercased, values trimmed of leading space.
  std::size_t pos = line_end + 2;
  while (pos < header_end) {
    std::size_t eol = buf.find("\r\n", pos);
    if (eol == std::string::npos || eol > header_end) eol = header_end;
    const std::string hline = buf.substr(pos, eol - pos);
    const std::size_t colon = hline.find(':');
    if (colon != std::string::npos) {
      std::string key = hline.substr(0, colon);
      for (char& c : key)
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
      std::size_t vstart = colon + 1;
      while (vstart < hline.size() && hline[vstart] == ' ') ++vstart;
      req.headers[key] = hline.substr(vstart);
    }
    pos = eol + 2;
  }

  std::size_t content_length = 0;
  if (const auto it = req.headers.find("content-length");
      it != req.headers.end())
    content_length = static_cast<std::size_t>(
        std::strtoull(it->second.c_str(), nullptr, 10));
  if (content_length > kMaxBodyBytes) return false;

  req.body = buf.substr(header_end + 4);
  while (req.body.size() < content_length) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) return false;
    req.body.append(chunk, static_cast<std::size_t>(n));
  }
  req.body.resize(content_length);
  return true;
}

bool SendAll(int fd, const std::string& data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

void WriteResponse(int fd, const HttpResponse& resp) {
  std::string out = "HTTP/1.1 " + std::to_string(resp.status) + " " +
                    StatusReason(resp.status) + "\r\n";
  out += "Content-Type: " + resp.content_type + "\r\n";
  out += "Content-Length: " + std::to_string(resp.body.size()) + "\r\n";
  out += "Connection: close\r\n\r\n";
  out += resp.body;
  SendAll(fd, out);
}

}  // namespace

const char* StatusReason(int status) {
  switch (status) {
    case 200: return "OK";
    case 201: return "Created";
    case 202: return "Accepted";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 409: return "Conflict";
    case 500: return "Internal Server Error";
    default: return "Unknown";
  }
}

HttpServer::~HttpServer() { Stop(); }

void HttpServer::Start(int port, HttpHandler handler) {
  XCV_CHECK_MSG(listen_fd_ < 0, "HttpServer started twice");
  XCV_CHECK_MSG(port >= 0 && port <= 65535,
                "port " << port << " is outside [0, 65535]");
  handler_ = std::move(handler);

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  XCV_CHECK_MSG(listen_fd_ >= 0,
                "socket() failed: " << std::strerror(errno));
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    const int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    XCV_CHECK_MSG(false, "cannot bind 127.0.0.1:" << port << ": "
                                                  << std::strerror(err));
  }
  XCV_CHECK_MSG(::listen(listen_fd_, 16) == 0,
                "listen() failed: " << std::strerror(errno));

  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = static_cast<int>(ntohs(addr.sin_port));

  accept_thread_ = std::thread([this] { AcceptLoop(); });
}

void HttpServer::AcceptLoop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      const int err = errno;
      if (stopping_.load(std::memory_order_relaxed)) return;
      if (RetryAcceptNow(err)) continue;
      if (err == EMFILE || err == ENFILE || err == ENOBUFS || err == ENOMEM) {
        // Out of fds or memory: the connection stays queued until an
        // accept succeeds, so wait for resources instead of going deaf.
        std::this_thread::sleep_for(kAcceptBackoff);
        continue;
      }
      return;  // listen socket gone
    }
    // A client that connects and then hangs must not wedge the accept
    // loop forever.
    timeval tv{};
    tv.tv_sec = 10;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));

    HttpRequest req;
    if (ReadRequest(fd, req)) {
      HttpResponse resp;
      const auto handle_start = std::chrono::steady_clock::now();
      try {
        resp = handler_(req);
      } catch (const std::exception& e) {
        resp.status = 500;
        resp.content_type = "application/json";
        resp.body = "{\"error\": " + json::JsonEscape(e.what()) + "}\n";
      }
      ObserveRequest(req.method, req.path, resp.status,
                     std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - handle_start)
                         .count());
      WriteResponse(fd, resp);
    }
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
  }
}

void HttpServer::Stop() {
  if (listen_fd_ < 0) return;
  stopping_.store(true, std::memory_order_relaxed);
  ::shutdown(listen_fd_, SHUT_RDWR);
  ::close(listen_fd_);
  if (accept_thread_.joinable()) accept_thread_.join();
  listen_fd_ = -1;
}

HttpResponse HttpFetch(int port, const std::string& method,
                       const std::string& target, const std::string& body) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  XCV_CHECK_MSG(fd >= 0, "socket() failed: " << std::strerror(errno));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const int err = errno;
    ::close(fd);
    XCV_CHECK_MSG(false, "cannot connect to 127.0.0.1:"
                             << port << ": " << std::strerror(err));
  }

  std::string req = method + " " + target + " HTTP/1.1\r\n";
  req += "Host: 127.0.0.1\r\n";
  req += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  req += "Connection: close\r\n\r\n";
  req += body;
  if (!SendAll(fd, req)) {
    ::close(fd);
    XCV_CHECK_MSG(false, "request send failed: " << std::strerror(errno));
  }

  std::string raw;
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;
    raw.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);

  const std::size_t header_end = raw.find("\r\n\r\n");
  XCV_CHECK_MSG(header_end != std::string::npos,
                "garbled HTTP response (no header terminator)");
  HttpResponse resp;
  // Status line: HTTP/1.1 NNN Reason
  const std::size_t sp = raw.find(' ');
  XCV_CHECK_MSG(sp != std::string::npos && sp + 4 <= raw.size(),
                "garbled HTTP status line");
  resp.status = std::atoi(raw.c_str() + sp + 1);
  const std::size_t ct = raw.find("Content-Type: ");
  if (ct != std::string::npos && ct < header_end) {
    const std::size_t eol = raw.find("\r\n", ct);
    resp.content_type = raw.substr(ct + 14, eol - ct - 14);
  }
  resp.body = raw.substr(header_end + 4);
  return resp;
}

}  // namespace xcv::service
