// A dependency-free blocking HTTP/1.1 server over POSIX sockets, plus the
// matching loopback client.
//
// This exists to put an HTTP surface on `xcvd` without pulling in a
// framework: the daemon's requests are all small and fast (submit = enqueue
// a job, poll = render a JSON snapshot; the actual verification runs on the
// shared thread pool), so one accept thread handling connections serially
// is the whole server. Connections are Connection: close, bodies are
// Content-Length only, and everything binds to 127.0.0.1 — a local control
// socket, not an internet-facing service.
#pragma once

#include <atomic>
#include <functional>
#include <map>
#include <string>
#include <thread>

namespace xcv::service {

struct HttpRequest {
  std::string method;  ///< "GET", "POST", ... (uppercased)
  std::string path;    ///< decoded path, query string stripped
  std::map<std::string, std::string> query;    ///< decoded ?k=v params
  std::map<std::string, std::string> headers;  ///< keys lowercased
  std::string body;
};

struct HttpResponse {
  int status = 200;
  std::string content_type = "application/json";
  std::string body;
};

/// The canonical reason phrase for the handful of statuses xcvd uses.
const char* StatusReason(int status);

using HttpHandler = std::function<HttpResponse(const HttpRequest&)>;

/// Accepts loopback connections on a dedicated thread and runs `handler`
/// for each request. A handler that throws produces a 500 with the
/// exception text in a JSON error body; the server itself never dies from
/// a bad request or a dropped connection.
class HttpServer {
 public:
  HttpServer() = default;
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Binds 127.0.0.1:`port` (0 = pick an ephemeral port, see port()) and
  /// starts the accept loop. Throws xcv::InternalError when `port` is
  /// outside [0, 65535] or the bind fails (port in use). Call once.
  void Start(int port, HttpHandler handler);

  /// The bound port (resolves the ephemeral choice after Start).
  int port() const { return port_; }

  /// Stops accepting, closes the listen socket, joins the accept thread.
  /// Idempotent; also run by the destructor. In-flight requests finish.
  void Stop();

 private:
  void AcceptLoop();

  HttpHandler handler_;
  int listen_fd_ = -1;
  int port_ = 0;
  std::thread accept_thread_;
  std::atomic<bool> stopping_{false};
};

/// Minimal blocking client for the loopback server: one request, the
/// parsed response. Used by the tests and by `xcvd`'s own smoke checks.
/// Throws xcv::InternalError when the connection or the response is
/// broken (daemon not running, garbled bytes).
HttpResponse HttpFetch(int port, const std::string& method,
                       const std::string& target,
                       const std::string& body = "");

}  // namespace xcv::service
