// Minimal dependency-free HTTP/1.1 server for the serving daemon.
//
// Scope is exactly what rcast_campaignd needs: GET requests with query
// strings, keep-alive, fixed Content-Length responses, and chunked
// transfer-encoding for streaming endpoints (/metrics). One listener thread
// accepts connections onto an fd queue drained by a small worker pool; each
// worker owns its connection for the request/response loop, so a slow
// client never blocks the accept path. POSIX sockets only — this file is
// not built on Windows.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace rcast::serving {

class HttpError : public std::runtime_error {
 public:
  explicit HttpError(const std::string& what) : std::runtime_error(what) {}
};

struct HttpRequest {
  std::string method;
  std::string path;                          // decoded, without query string
  /// Decoded key=value pairs. A key given twice is answered with 400
  /// before the handler runs.
  std::map<std::string, std::string> query;
};

struct HttpResponse {
  int status = 200;
  std::string content_type = "application/json";
  std::string body;
  /// Streaming mode: when set, `body` is ignored and the response is sent
  /// with chunked transfer-encoding. The callback is invoked repeatedly to
  /// produce the next chunk; returning false (or an empty chunk) ends the
  /// stream. The callback runs on the connection's worker thread.
  std::function<bool(std::string&)> next_chunk;
};

class HttpServer {
 public:
  using Handler = std::function<HttpResponse(const HttpRequest&)>;

  /// Binds 127.0.0.1:`port` (0 = ephemeral; see port()) and starts the
  /// listener + `threads` connection workers. Throws HttpError on bind
  /// failure. The handler may be called from several workers concurrently.
  HttpServer(std::uint16_t port, Handler handler, std::size_t threads = 4);
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// The bound port (the kernel's pick when constructed with port 0).
  std::uint16_t port() const { return port_; }

  /// Stops accepting, drains workers, closes the listener. Idempotent.
  void stop();

  /// Requests served so far (for /status and tests).
  std::uint64_t requests_served() const;

 private:
  void listen_loop();
  void worker_loop();
  void serve_connection(int fd);

  Handler handler_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::thread listener_;
  std::vector<std::thread> workers_;
  // pimpl-free shared state lives in the .cpp via these opaque members.
  struct Queue;
  Queue* queue_ = nullptr;
};

/// Percent-decodes one URL component ('+' becomes a space).
std::string url_decode(std::string_view s);

}  // namespace rcast::serving
