#include "serving/http_server.hpp"

#include <atomic>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <mutex>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

namespace rcast::serving {

namespace {

constexpr int kRecvTimeoutSec = 5;
constexpr std::size_t kMaxHeaderBytes = 64 * 1024;

const char* status_text(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 500: return "Internal Server Error";
    default: return "";
  }
}

// send() with MSG_NOSIGNAL so a vanished client yields an error return
// instead of SIGPIPE killing the daemon.
bool send_all(int fd, const char* data, std::size_t len) {
  while (len > 0) {
    const ssize_t n = ::send(fd, data, len, MSG_NOSIGNAL);
    if (n <= 0) return false;
    data += n;
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

bool send_all(int fd, const std::string& s) {
  return send_all(fd, s.data(), s.size());
}

}  // namespace

std::string url_decode(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (c == '+') {
      out.push_back(' ');
    } else if (c == '%' && i + 2 < s.size()) {
      auto hex = [](char h) -> int {
        if (h >= '0' && h <= '9') return h - '0';
        if (h >= 'a' && h <= 'f') return h - 'a' + 10;
        if (h >= 'A' && h <= 'F') return h - 'A' + 10;
        return -1;
      };
      const int hi = hex(s[i + 1]);
      const int lo = hex(s[i + 2]);
      if (hi >= 0 && lo >= 0) {
        out.push_back(static_cast<char>(hi * 16 + lo));
        i += 2;
      } else {
        out.push_back(c);
      }
    } else {
      out.push_back(c);
    }
  }
  return out;
}

struct HttpServer::Queue {
  std::mutex mu;
  std::condition_variable cv;
  std::deque<int> fds;
  bool closed = false;
  std::atomic<std::uint64_t> served{0};
};

HttpServer::HttpServer(std::uint16_t port, Handler handler,
                       std::size_t threads)
    : handler_(std::move(handler)), queue_(new Queue) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    delete queue_;
    throw HttpError("socket() failed");
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
          0 ||
      ::listen(listen_fd_, 128) < 0) {
    ::close(listen_fd_);
    delete queue_;
    throw HttpError("cannot bind 127.0.0.1:" + std::to_string(port));
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) ==
      0) {
    port_ = ntohs(addr.sin_port);
  }

  if (threads == 0) threads = 1;
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  listener_ = std::thread([this] { listen_loop(); });
}

HttpServer::~HttpServer() {
  stop();
  delete queue_;
}

void HttpServer::stop() {
  {
    std::lock_guard<std::mutex> lock(queue_->mu);
    if (queue_->closed) return;
    queue_->closed = true;
  }
  // shutdown() unblocks the accept() in the listener thread.
  ::shutdown(listen_fd_, SHUT_RDWR);
  ::close(listen_fd_);
  queue_->cv.notify_all();
  if (listener_.joinable()) listener_.join();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
  std::lock_guard<std::mutex> lock(queue_->mu);
  for (const int fd : queue_->fds) ::close(fd);
  queue_->fds.clear();
}

std::uint64_t HttpServer::requests_served() const {
  return queue_->served.load(std::memory_order_relaxed);
}

void HttpServer::listen_loop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      std::lock_guard<std::mutex> lock(queue_->mu);
      if (queue_->closed) return;
      continue;  // transient accept failure
    }
    timeval tv{};
    tv.tv_sec = kRecvTimeoutSec;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    {
      std::lock_guard<std::mutex> lock(queue_->mu);
      if (queue_->closed) {
        ::close(fd);
        return;
      }
      queue_->fds.push_back(fd);
    }
    queue_->cv.notify_one();
  }
}

void HttpServer::worker_loop() {
  for (;;) {
    int fd = -1;
    {
      std::unique_lock<std::mutex> lock(queue_->mu);
      queue_->cv.wait(lock,
                      [this] { return queue_->closed || !queue_->fds.empty(); });
      if (queue_->fds.empty()) return;  // closed and drained
      fd = queue_->fds.front();
      queue_->fds.pop_front();
    }
    serve_connection(fd);
    ::close(fd);
  }
}

void HttpServer::serve_connection(int fd) {
  std::string buf;
  char chunk[4096];
  for (;;) {  // keep-alive loop: one iteration per request
    // Read until the end of the header block.
    std::size_t header_end;
    while ((header_end = buf.find("\r\n\r\n")) == std::string::npos) {
      if (buf.size() > kMaxHeaderBytes) return;
      const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
      if (n <= 0) return;  // closed, errored, or idle past the timeout
      buf.append(chunk, static_cast<std::size_t>(n));
    }
    const std::string head = buf.substr(0, header_end);
    buf.erase(0, header_end + 4);

    // Request line: METHOD SP target SP version.
    HttpRequest req;
    bool close_after = false;
    std::string repeated_key;  // first query key given twice, if any
    {
      const auto line_end = head.find("\r\n");
      const std::string line = head.substr(0, line_end);
      const auto sp1 = line.find(' ');
      const auto sp2 = line.rfind(' ');
      if (sp1 == std::string::npos || sp2 <= sp1) {
        HttpResponse bad;
        bad.status = 400;
        bad.content_type = "text/plain";
        bad.body = "bad request\n";
        std::string out = "HTTP/1.1 400 Bad Request\r\nContent-Type: "
                          "text/plain\r\nContent-Length: 12\r\nConnection: "
                          "close\r\n\r\nbad request\n";
        send_all(fd, out);
        return;
      }
      req.method = line.substr(0, sp1);
      std::string target = line.substr(sp1 + 1, sp2 - sp1 - 1);
      const std::string version = line.substr(sp2 + 1);
      if (version == "HTTP/1.0") close_after = true;
      if (head.find("Connection: close") != std::string::npos ||
          head.find("connection: close") != std::string::npos) {
        close_after = true;
      }

      const auto qpos = target.find('?');
      req.path = url_decode(qpos == std::string::npos
                                ? std::string_view(target)
                                : std::string_view(target).substr(0, qpos));
      if (qpos != std::string::npos) {
        std::string_view qs = std::string_view(target).substr(qpos + 1);
        while (!qs.empty()) {
          const auto amp = qs.find('&');
          const std::string_view pair =
              amp == std::string_view::npos ? qs : qs.substr(0, amp);
          qs = amp == std::string_view::npos ? std::string_view{}
                                             : qs.substr(amp + 1);
          if (pair.empty()) continue;
          const auto eq = pair.find('=');
          const auto [it, fresh] = req.query.try_emplace(
              url_decode(pair.substr(0, eq)),
              eq == std::string_view::npos ? std::string()
                                           : url_decode(pair.substr(eq + 1)));
          if (!fresh && repeated_key.empty()) repeated_key = it->first;
        }
      }
    }
    // Request bodies are ignored (every endpoint is a GET); a pipelined
    // body would land in `buf` and fail to parse as a request line, closing
    // the connection — acceptable for this daemon's audience.

    HttpResponse resp;
    if (req.method != "GET" && req.method != "HEAD") {
      resp.status = 405;
      resp.content_type = "text/plain";
      resp.body = "method not allowed\n";
    } else if (!repeated_key.empty()) {
      // A repeated key is ambiguous; no value silently wins.
      resp.status = 400;
      resp.content_type = "text/plain";
      resp.body = "repeated query parameter: " + repeated_key + "\n";
    } else {
      try {
        resp = handler_(req);
      } catch (const std::exception& e) {
        resp = HttpResponse{};
        resp.status = 500;
        resp.content_type = "text/plain";
        resp.body = std::string("error: ") + e.what() + "\n";
        resp.next_chunk = nullptr;
      }
    }
    queue_->served.fetch_add(1, std::memory_order_relaxed);

    std::string out = "HTTP/1.1 " + std::to_string(resp.status) + " " +
                      status_text(resp.status) + "\r\n";
    out += "Content-Type: " + resp.content_type + "\r\n";
    if (resp.next_chunk) {
      out += "Transfer-Encoding: chunked\r\n";
      out += close_after ? "Connection: close\r\n\r\n"
                         : "Connection: keep-alive\r\n\r\n";
      if (!send_all(fd, out)) return;
      if (req.method != "HEAD") {
        std::string piece;
        for (;;) {
          piece.clear();
          const bool more = resp.next_chunk(piece);
          if (!piece.empty()) {
            char size_line[32];
            std::snprintf(size_line, sizeof(size_line), "%zx\r\n",
                          piece.size());
            if (!send_all(fd, size_line, std::strlen(size_line)) ||
                !send_all(fd, piece) || !send_all(fd, "\r\n", 2)) {
              return;
            }
          }
          if (!more) break;
        }
        if (!send_all(fd, "0\r\n\r\n", 5)) return;
      }
    } else {
      out += "Content-Length: " + std::to_string(resp.body.size()) + "\r\n";
      out += close_after ? "Connection: close\r\n\r\n"
                         : "Connection: keep-alive\r\n\r\n";
      if (!send_all(fd, out)) return;
      if (req.method != "HEAD" && !send_all(fd, resp.body)) return;
    }
    if (close_after) return;
  }
}

}  // namespace rcast::serving
