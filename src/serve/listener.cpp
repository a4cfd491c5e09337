#include "serve/listener.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include "serve/frame.hpp"
#include "util/timer.hpp"

namespace lid::serve {
namespace {

Error errno_error(const std::string& what) {
  return Error{ErrorCode::kIo, what + ": " + std::strerror(errno)};
}

/// True when `path` holds a Unix socket nobody is listening on anymore
/// (e.g. left behind by a killed daemon): connecting to it fails with
/// ECONNREFUSED.
bool is_stale_unix_socket(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return false;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  const int rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
  const int saved_errno = errno;
  ::close(fd);
  return rc != 0 && saved_errno == ECONNREFUSED;
}

}  // namespace

Connection::~Connection() {
  if (fd >= 0) ::close(fd);
}

Listener::Listener(std::string name, std::size_t max_request_bytes, const FaultPlan& faults,
                   engine::Metrics* metrics, Accept accept)
    : name_(std::move(name)),
      max_request_bytes_(max_request_bytes),
      faults_(faults),
      metrics_(metrics),
      accept_(std::move(accept)) {}

Listener::~Listener() {
  request_stop();
  wait();
}

void Listener::count(const char* name, std::int64_t delta) {
  if (metrics_ != nullptr) metrics_->count(name, delta);
}

Status Listener::start(const std::string& unix_socket, int tcp_port, const std::string& host) {
  const auto fail = [this](Error error) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return error;
  };
  if (!unix_socket.empty()) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (unix_socket.size() >= sizeof(addr.sun_path)) {
      return Error{ErrorCode::kInvalidArgument,
                   "unix socket path longer than " + std::to_string(sizeof(addr.sun_path) - 1) +
                       " bytes: " + unix_socket};
    }
    std::strncpy(addr.sun_path, unix_socket.c_str(), sizeof(addr.sun_path) - 1);
    if (is_stale_unix_socket(unix_socket)) ::unlink(unix_socket.c_str());
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (listen_fd_ < 0) return errno_error("socket(AF_UNIX)");
    if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
      return fail(errno_error("bind('" + unix_socket + "')"));
    }
    unlink_path_ = unix_socket;
    endpoint_ = "unix:" + unix_socket;
  } else if (tcp_port >= 0) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (listen_fd_ < 0) return errno_error("socket(AF_INET)");
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(tcp_port));
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
      return fail(Error{ErrorCode::kInvalidArgument, "bad host address '" + host + "'"});
    }
    if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
      return fail(errno_error("bind(" + host + ":" + std::to_string(tcp_port) + ")"));
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
      port_ = ntohs(bound.sin_port);
    }
    endpoint_ = "tcp:" + host + ":" + std::to_string(port_);
  } else {
    return Error{ErrorCode::kInvalidArgument, "no endpoint: set unix_socket or tcp_port"};
  }

  if (::listen(listen_fd_, 64) != 0) return fail(errno_error("listen"));
  if (::pipe(stop_pipe_) != 0) return fail(errno_error("pipe"));
  for (const int fd : stop_pipe_) ::fcntl(fd, F_SETFD, FD_CLOEXEC);
  accept_thread_ = std::thread([this] { accept_loop(); });
  return Unit{};
}

void Listener::request_stop() {
  // Async-signal-safe: one write(), no locks, no allocation.
  if (stop_pipe_[1] >= 0) {
    const char byte = 's';
    [[maybe_unused]] const ssize_t n = ::write(stop_pipe_[1], &byte, 1);
  }
}

void Listener::wait() {
  // The accept thread exits only when the stop pipe fires; joining it is the
  // "wait until a stop was requested" step. Readers then notice stopping_
  // and stop admitting.
  if (accept_thread_.joinable()) accept_thread_.join();
  stopping_.store(true);
  {
    const std::lock_guard<std::mutex> lock(readers_mutex_);
    for (Reader& reader : readers_) {
      if (reader.thread.joinable()) reader.thread.join();
    }
    readers_.clear();
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  // Once only: a later daemon may have bound the same path since.
  if (!unlink_path_.empty()) ::unlink(std::exchange(unlink_path_, "").c_str());
  for (int& fd : stop_pipe_) {
    if (fd >= 0) {
      ::close(fd);
      fd = -1;
    }
  }
}

void Listener::accept_loop() {
  while (true) {
    pollfd fds[2] = {{listen_fd_, POLLIN, 0}, {stop_pipe_[0], POLLIN, 0}};
    const int rc = ::poll(fds, 2, -1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if ((fds[1].revents & (POLLIN | POLLHUP | POLLERR)) != 0) break;  // stop requested
    if ((fds[0].revents & POLLIN) == 0) continue;
    const int client = ::accept(listen_fd_, nullptr, nullptr);
    if (client < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      break;
    }
    ::fcntl(client, F_SETFD, FD_CLOEXEC);
    auto connection = std::make_shared<Connection>(client, next_connection_id_.fetch_add(1) + 1);
    connections_total_.fetch_add(1);
    active_connections_.fetch_add(1);
    Handler handler = accept_(connection);
    const std::lock_guard<std::mutex> lock(readers_mutex_);
    for (auto it = readers_.begin(); it != readers_.end();) {
      if (it->done.load()) {
        it->thread.join();
        it = readers_.erase(it);
      } else {
        ++it;
      }
    }
    Reader& reader = readers_.emplace_back();
    reader.thread = std::thread(
        [this, &reader, connection = std::move(connection), handler = std::move(handler)] {
          read_loop(*connection, handler);
          reader.done.store(true);
        });
  }
  stopping_.store(true);
}

void Listener::read_loop(Connection& connection, const Handler& handler) {
  std::string buffer;
  char chunk[65536];
  while (!stopping_.load()) {
    pollfd pfd{connection.fd, POLLIN, 0};
    const int rc = ::poll(&pfd, 1, 100);  // finite timeout: re-check the stop flag
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (rc == 0) continue;
    if ((pfd.revents & (POLLIN | POLLHUP)) == 0) break;
    const ssize_t n = ::recv(connection.fd, chunk, sizeof(chunk), 0);
    if (n == 0) break;  // client hung up
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN) continue;
      break;
    }
    count("bytes_in", n);
    buffer.append(chunk, static_cast<std::size_t>(n));

    bool hangup = false;
    while (!buffer.empty()) {
      if (starts_frame(buffer)) {
        FrameDecode frame = decode_frame(buffer, max_request_bytes_);
        if (frame.status == FrameStatus::kNeedMore) break;
        if (frame.status == FrameStatus::kBad) {
          // Framing is lost (bad header or oversized length): answer once,
          // in kind, and hang up rather than resynchronize heuristically.
          respond(connection,
                  error_line("null", "", frame.error_code, frame.error,
                             connection.protocol.load()),
                  /*binary=*/true);
          count("requests_rejected");
          hangup = true;
          break;
        }
        buffer.erase(0, frame.consumed);
        dispatch(connection, std::move(frame.payload), /*binary=*/true, handler);
        continue;
      }
      const std::size_t newline = buffer.find('\n');
      if (newline == std::string::npos) break;
      std::string line = buffer.substr(0, newline);
      buffer.erase(0, newline + 1);
      dispatch(connection, std::move(line), /*binary=*/false, handler);
    }
    if (hangup) break;

    if (!starts_frame(buffer) && buffer.size() > max_request_bytes_) {
      // A line that exceeds the limit before its newline arrives would
      // otherwise grow the buffer without bound. (Oversized frames are
      // rejected from their declared length by decode_frame above.)
      respond(connection,
              error_line("null", "", codes::kTooLarge,
                         "request line exceeds " + std::to_string(max_request_bytes_) + " bytes",
                         connection.protocol.load()),
              /*binary=*/false);
      break;
    }
  }
  active_connections_.fetch_sub(1);
}

void Listener::dispatch(Connection& connection, std::string text, bool binary,
                        const Handler& handler) {
  if (!binary && !text.empty() && text.back() == '\r') text.pop_back();
  if (text.empty()) return;
  count("requests_total");
  if (binary) count("requests_binary");
  if (text.size() > max_request_bytes_) {
    count("requests_rejected");
    respond(connection,
            error_line("null", "", codes::kTooLarge,
                       "request of " + std::to_string(text.size()) +
                           " bytes exceeds the limit of " + std::to_string(max_request_bytes_),
                       connection.protocol.load()),
            binary);
    return;
  }
  Result<Request> request = parse_request(text);
  Message message{std::move(text), binary, std::move(request)};
  handler(message);
}

void Listener::respond(Connection& connection, const std::string& line, bool binary) {
  std::string bytes = binary ? frame_message(line) : line + '\n';
  bool hang_up = false;
  if (faults_.active()) {
    const FaultDecision fault = faults_.decide();
    if (fault.stall_ms > 0.0) {
      // Worker stall: the response (and this worker) hang for a while.
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(fault.stall_ms));
    }
    if (fault.any()) count("faults_injected");
    if (fault.drop) {
      // Connection reset without a byte of response. shutdown(), not
      // close(): the reader thread still owns the fd.
      bytes.clear();
      hang_up = true;
    } else if (fault.garbage) {
      // A complete line that is not valid JSON: a corrupted frame.
      bytes = "!corrupted-frame #$%&\n";
    } else if (fault.torn) {
      // A prefix of the real response, then EOF: a crash mid-response.
      bytes.resize(std::max<std::size_t>(1, bytes.size() / 2));
      hang_up = true;
    }
  }

  const std::lock_guard<std::mutex> lock(connection.write_mutex);
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    // MSG_NOSIGNAL: a client that hung up must not SIGPIPE the daemon.
    const ssize_t n =
        ::send(connection.fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;  // client gone; drop the response
    }
    sent += static_cast<std::size_t>(n);
  }
  if (hang_up) ::shutdown(connection.fd, SHUT_RDWR);
  if (sent > 0) count("bytes_out", static_cast<std::int64_t>(sent));
}

Outcome Listener::hello(Connection& connection, const Request& request, bool binary,
                        const std::function<void(util::JsonWriter&)>& extra) {
  const util::Timer timer;
  const auto refuse = [&](const char* code, std::string message) {
    Outcome outcome = Outcome::failure(code, std::move(message));
    respond(connection,
            response_line(request, outcome, timer.elapsed_ms(), 0.0, connection.protocol.load()),
            binary);
    return outcome;
  };

  int wanted = kProtocolVersion;
  if (const util::Json* v = request.args.find("protocol"); v != nullptr && !v->is_null()) {
    if (!v->is_number()) return refuse(codes::kInvalidArgument, "'protocol' must be a number");
    wanted = static_cast<int>(v->as_int());
  }
  if (wanted < kProtocolVersionMin || wanted > kProtocolVersion) {
    return refuse(codes::kUnsupportedVersion,
                  "protocol " + std::to_string(wanted) + " is not supported (this server speaks " +
                      std::to_string(kProtocolVersionMin) + ".." +
                      std::to_string(kProtocolVersion) + ")");
  }
  std::string transport = binary ? "binary" : "ndjson";
  if (const util::Json* t = request.args.find("transport"); t != nullptr && !t->is_null()) {
    const std::string value = t->is_string() ? t->as_string() : "";
    if (value != "ndjson" && value != "binary") {
      return refuse(codes::kInvalidArgument, "'transport' must be \"ndjson\" or \"binary\"");
    }
    if (value == "binary" && wanted < 2) {
      return refuse(codes::kInvalidArgument, "the binary transport requires protocol >= 2");
    }
    transport = value;
  }

  connection.protocol.store(wanted);
  util::JsonWriter w;
  w.begin_object();
  w.key("protocol").value(wanted);
  w.key("server").value(name_);
  w.key("transports").begin_array().value("ndjson").value("binary").end_array();
  w.key("transport").value(transport);
  w.key("max_request_bytes").value(max_request_bytes_);
  if (extra) extra(w);
  w.end_object();
  Outcome outcome = Outcome::success(w.str());
  // The hello response itself already speaks the negotiated protocol.
  respond(connection, response_line(request, outcome, timer.elapsed_ms(), 0.0, wanted), binary);
  return outcome;
}

}  // namespace lid::serve
