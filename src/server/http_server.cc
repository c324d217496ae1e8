#include "server/http_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstring>

#include "obs/metrics.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace kgfd {
namespace {

/// Full-buffer send. MSG_NOSIGNAL everywhere: a client that closed early
/// must surface as an error return, never as a process-killing SIGPIPE.
/// `timed_out`, when non-null, is set if the send gave up because the
/// socket's SO_SNDTIMEO expired (the client stopped reading).
bool SendAll(int fd, const std::string& data, bool* timed_out = nullptr) {
  size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK) &&
          timed_out != nullptr) {
        *timed_out = true;
      }
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

timeval TimevalFromSeconds(double seconds) {
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(seconds);
  tv.tv_usec =
      static_cast<suseconds_t>((seconds - std::floor(seconds)) * 1e6);
  return tv;
}

/// Reads one framed request (head + Content-Length body) off the socket.
/// Returns InvalidArgument for malformed framing, IoError for socket
/// trouble, and a special "too large" InvalidArgument the caller maps to
/// 413.
Status RecvRequestText(int fd, size_t max_body_bytes, std::string* out) {
  std::string buffer;
  char chunk[4096];
  size_t head_end = std::string::npos;
  uint64_t content_length = 0;
  while (true) {
    if (head_end == std::string::npos) {
      head_end = HttpHeaderEnd(buffer);
      if (head_end != std::string::npos) {
        // Head complete: learn how much body to expect (head-only parse —
        // the body may still be in flight).
        const auto parsed = ParseHttpRequestHead(buffer.substr(0, head_end));
        if (!parsed.ok()) return parsed.status();
        KGFD_ASSIGN_OR_RETURN(content_length,
                              HttpContentLength(parsed.value().headers));
        if (content_length > max_body_bytes) {
          return Status::InvalidArgument("request body too large");
        }
      } else if (buffer.size() > max_body_bytes + 8192) {
        return Status::InvalidArgument("request head too large");
      }
    }
    if (head_end != std::string::npos &&
        buffer.size() >= head_end + content_length) {
      *out = std::move(buffer);
      return Status::OK();
    }
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n == 0) {
      return Status::IoError("connection closed before full request");
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // SO_RCVTIMEO expired: the client started a request and stalled.
        // Distinct from plain IoError so the caller can close with a
        // descriptive 408 instead of silence.
        return Status::DeadlineExceeded(
            "timed out waiting for the rest of the request");
      }
      return Status::IoError("recv failed: " +
                             std::string(std::strerror(errno)));
    }
    buffer.append(chunk, static_cast<size_t>(n));
  }
}

}  // namespace

HttpServer::HttpServer(Options options, Handler handler)
    : options_(std::move(options)), handler_(std::move(handler)) {}

HttpServer::~HttpServer() { Stop(); }

Status HttpServer::Start() {
  if (started_) return Status::FailedPrecondition("server already started");
  if (options_.pool == nullptr) {
    return Status::InvalidArgument("HttpServer requires a ThreadPool");
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::IoError("socket() failed: " +
                           std::string(std::strerror(errno)));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("bad bind address: " +
                                   options_.bind_address);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const std::string err = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::IoError("bind(" + options_.bind_address + ":" +
                           std::to_string(options_.port) +
                           ") failed: " + err);
  }
  if (::listen(listen_fd_, 64) != 0) {
    const std::string err = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::IoError("listen() failed: " + err);
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) !=
      0) {
    const std::string err = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::IoError("getsockname() failed: " + err);
  }
  port_ = ntohs(bound.sin_port);
  started_ = true;
  stopping_.store(false, std::memory_order_release);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void HttpServer::AcceptLoop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      // EINVAL after Stop() shut the socket down: normal shutdown.
      break;
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++active_connections_;
    }
    options_.pool->Submit([this, fd] {
      ServeConnection(fd);
      std::lock_guard<std::mutex> lock(mu_);
      if (--active_connections_ == 0) idle_.notify_all();
    });
  }
}

void HttpServer::ServeConnection(int fd) {
  WallTimer timer;
  // Bound how long a silent client can hold this worker, in both
  // directions: a client that stops sending its request (SO_RCVTIMEO) and
  // one that stops reading its response (SO_SNDTIMEO, the slow-loris
  // reader of a large facts TSV).
  if (options_.receive_timeout_s > 0) {
    const timeval tv = TimevalFromSeconds(options_.receive_timeout_s);
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }
  if (options_.send_timeout_s > 0) {
    const timeval tv = TimevalFromSeconds(options_.send_timeout_s);
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  }
  if (options_.send_buffer_bytes > 0) {
    ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &options_.send_buffer_bytes,
                 sizeof(options_.send_buffer_bytes));
  }

  Counter* requests = nullptr;
  Counter* errors = nullptr;
  if (options_.metrics != nullptr) {
    requests = options_.metrics->GetCounter(kServerRequestsCounter);
    errors = options_.metrics->GetCounter(kServerRequestErrorsCounter);
  }

  std::string text;
  const Status recv_status =
      RecvRequestText(fd, options_.max_body_bytes, &text);
  HttpResponse response;
  if (!recv_status.ok()) {
    if (recv_status.code() == StatusCode::kIoError) {
      // Nothing parseable arrived (client vanished): no response is owed;
      // just close.
      ::close(fd);
      return;
    }
    if (recv_status.code() == StatusCode::kDeadlineExceeded) {
      // Stalled mid-request: best-effort descriptive 408, then close.
      if (options_.metrics != nullptr) {
        options_.metrics->GetCounter(kServerRecvTimeoutsCounter)
            ->Increment();
      }
      response = TextResponse(408, recv_status.message());
    } else {
      const bool too_large =
          recv_status.message().find("too large") != std::string::npos;
      response = TextResponse(too_large ? 413 : 400, recv_status.message());
    }
  } else {
    const auto request = ParseHttpRequest(text);
    if (!request.ok()) {
      response = TextResponse(400, request.status().message());
    } else {
      response = handler_(request.value());
    }
  }
  if (requests != nullptr) {
    requests->Increment();
    if (response.status_code >= 400) errors->Increment();
    options_.metrics->GetHistogram(kServerRequestSecondsHist)
        ->Observe(timer.ElapsedSeconds());
  }
  bool send_timed_out = false;
  SendAll(fd, SerializeHttpResponse(response), &send_timed_out);
  if (send_timed_out && options_.metrics != nullptr) {
    options_.metrics->GetCounter(kServerSendTimeoutsCounter)->Increment();
  }
  ::shutdown(fd, SHUT_WR);  // flush FIN before close
  ::close(fd);
}

void HttpServer::Stop() {
  if (!started_) return;
  stopping_.store(true, std::memory_order_release);
  // shutdown() pops the accept thread out of accept(); the fd is closed and
  // cleared only once that thread is gone, since it reads listen_fd_.
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
  // Drain: every connection already accepted finishes its response.
  std::unique_lock<std::mutex> lock(mu_);
  idle_.wait(lock, [this] { return active_connections_ == 0; });
  started_ = false;
}

}  // namespace kgfd
