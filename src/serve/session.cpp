#include "serve/session.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstring>
#include <utility>

#include "serve/frame.hpp"
#include "serve/protocol.hpp"
#include "util/json.hpp"
#include "util/timer.hpp"

namespace lid::serve {
namespace {

Error errno_error(const std::string& what) {
  return Error{ErrorCode::kIo, what + ": " + std::strerror(errno)};
}

/// connect() bounded by `timeout_ms` (0 = the blocking OS default). The fd is
/// flipped to non-blocking for the attempt and restored after, so callers see
/// a plain blocking socket either way. A refused connection reports kIo
/// (errno text) immediately; only an attempt still pending after the budget
/// reports kTimeout.
Status connect_with_timeout(int fd, const sockaddr* addr, socklen_t len, double timeout_ms,
                            const std::string& what) {
  if (timeout_ms <= 0.0) {
    if (::connect(fd, addr, len) != 0) return errno_error(what);
    return Unit{};
  }
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return errno_error("fcntl(F_GETFL)");
  if (::fcntl(fd, F_SETFL, flags | O_NONBLOCK) != 0) return errno_error("fcntl(O_NONBLOCK)");
  Status outcome = Unit{};
  util::Timer waited;
  while (::connect(fd, addr, len) != 0) {
    if (errno == EISCONN) break;  // a retried connect that completed
    if (errno == EINPROGRESS) {
      // TCP handshake pending: poll for writability, then read SO_ERROR.
      const double remaining = timeout_ms - waited.elapsed_ms();
      pollfd pfd{};
      pfd.fd = fd;
      pfd.events = POLLOUT;
      const int ready =
          ::poll(&pfd, 1, remaining > 0.0 ? static_cast<int>(std::ceil(remaining)) : 0);
      if (ready < 0) {
        outcome = errno_error("poll");
      } else if (ready == 0) {
        outcome = Error{ErrorCode::kTimeout,
                        what + ": not connected within " + std::to_string(timeout_ms) + " ms"};
      } else {
        int so_error = 0;
        socklen_t so_len = sizeof(so_error);
        if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &so_error, &so_len) != 0) {
          outcome = errno_error("getsockopt(SO_ERROR)");
        } else if (so_error != 0) {
          errno = so_error;
          outcome = errno_error(what);
        }
      }
      break;
    }
    if (errno == EAGAIN || errno == EINTR) {
      // EAGAIN on a Unix socket means the listener's backlog is full and the
      // connect did NOT start — poll cannot observe it, so retry until the
      // budget runs out.
      if (waited.elapsed_ms() >= timeout_ms) {
        outcome = Error{ErrorCode::kTimeout,
                        what + ": not connected within " + std::to_string(timeout_ms) + " ms"};
        break;
      }
      pollfd delay{};  // a short nap without pulling in <thread>
      (void)::poll(&delay, 0, 5);
      continue;
    }
    outcome = errno_error(what);
    break;
  }
  if (::fcntl(fd, F_SETFL, flags) != 0 && outcome) outcome = errno_error("fcntl(F_SETFL)");
  return outcome;
}

}  // namespace

Session::Session(int fd, SessionOptions options) : fd_(fd), options_(options) {}

Result<Session> Session::connect_unix(const std::string& path, const SessionOptions& options) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    return Error{ErrorCode::kInvalidArgument, "unix socket path too long: " + path};
  }
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return errno_error("socket(AF_UNIX)");
  const Status connected =
      connect_with_timeout(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr),
                           options.connect_timeout_ms, "connect('" + path + "')");
  if (!connected) {
    ::close(fd);
    return connected.error();
  }
  Session session(fd, options);
  const Status negotiated = session.handshake();
  if (!negotiated) return negotiated.error();
  return session;
}

Result<Session> Session::connect_tcp(const std::string& host, int port,
                                     const SessionOptions& options) {
  if (port <= 0 || port > 65535) {
    return Error{ErrorCode::kInvalidArgument, "bad port " + std::to_string(port)};
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Error{ErrorCode::kInvalidArgument, "bad host address '" + host + "'"};
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return errno_error("socket(AF_INET)");
  const Status connected = connect_with_timeout(
      fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr), options.connect_timeout_ms,
      "connect(" + host + ":" + std::to_string(port) + ")");
  if (!connected) {
    ::close(fd);
    return connected.error();
  }
  Session session(fd, options);
  const Status negotiated = session.handshake();
  if (!negotiated) return negotiated.error();
  return session;
}

Session::Session(Session&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      options_(other.options_),
      protocol_(other.protocol_),
      buffer_(std::move(other.buffer_)),
      next_id_(other.next_id_) {}

Session& Session::operator=(Session&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
    options_ = other.options_;
    protocol_ = other.protocol_;
    buffer_ = std::move(other.buffer_);
    next_id_ = other.next_id_;
  }
  return *this;
}

Session::~Session() { close(); }

void Session::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Status Session::handshake() {
  if (options_.binary && options_.protocol < 2) {
    return Error{ErrorCode::kInvalidArgument, "the binary transport requires protocol >= 2"};
  }
  if (options_.protocol < 1 || options_.protocol > kProtocolVersion) {
    return Error{ErrorCode::kInvalidArgument,
                 "unsupported client protocol " + std::to_string(options_.protocol)};
  }
  if (options_.protocol < 2) {
    protocol_ = 1;
    return Unit{};
  }
  util::JsonWriter w;
  w.begin_object();
  w.key("verb").value("hello");
  w.key("protocol").value(options_.protocol);
  w.key("transport").value(options_.binary ? "binary" : "ndjson");
  w.end_object();
  const Result<ResponseEnvelope> envelope = exchange(w.str());
  if (!envelope) return envelope.error();
  if (envelope->error_code == codes::kUnknownVerb) {
    // A pre-v2 server: stay on v1 (NDJSON only).
    if (options_.binary) {
      return Error{ErrorCode::kInvalidArgument,
                   "server does not speak protocol 2; binary transport unavailable"};
    }
    protocol_ = 1;
    return Unit{};
  }
  const Result<const util::Json*> result = envelope->result();
  if (!result) return result.error();
  if (const util::Json* p = (*result)->find("protocol"); p != nullptr && p->is_number()) {
    protocol_ = static_cast<int>(p->as_int());
  }
  return Unit{};
}

Status Session::send_message(const std::string& json) {
  if (fd_ < 0) return Error{ErrorCode::kIo, "session is closed"};
  std::string wire;
  if (options_.binary) {
    std::string_view body = json;
    if (!body.empty() && body.back() == '\n') body.remove_suffix(1);
    wire = frame_message(body);
  } else {
    wire = json;
    if (wire.empty() || wire.back() != '\n') wire.push_back('\n');
  }
  std::size_t sent = 0;
  while (sent < wire.size()) {
    const ssize_t n = ::send(fd_, wire.data() + sent, wire.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return errno_error("send");
    }
    sent += static_cast<std::size_t>(n);
  }
  return Unit{};
}

Result<std::string> Session::recv_message(double timeout_ms) {
  if (fd_ < 0) return Error{ErrorCode::kIo, "session is closed"};
  util::Timer waited;
  while (true) {
    // One complete message buffered? Frames and lines are distinguished per
    // message by the frame magic (which can never begin JSON).
    if (starts_frame(buffer_)) {
      const FrameDecode frame = decode_frame(buffer_, ~std::size_t{0});
      if (frame.status == FrameStatus::kBad) {
        return Error{ErrorCode::kParse, "bad response frame: " + frame.error};
      }
      if (frame.status == FrameStatus::kFrame) {
        std::string payload = frame.payload;
        buffer_.erase(0, frame.consumed);
        return payload;
      }
    } else {
      const std::size_t newline = buffer_.find('\n');
      if (newline != std::string::npos) {
        std::string line = buffer_.substr(0, newline);
        buffer_.erase(0, newline + 1);
        if (!line.empty() && line.back() == '\r') line.pop_back();
        return line;
      }
    }
    if (timeout_ms > 0.0) {
      const double remaining = timeout_ms - waited.elapsed_ms();
      if (remaining <= 0.0) {
        return Error{ErrorCode::kTimeout,
                     "no response within " + std::to_string(timeout_ms) + " ms"};
      }
      pollfd pfd{};
      pfd.fd = fd_;
      pfd.events = POLLIN;
      const int ready = ::poll(&pfd, 1, static_cast<int>(std::ceil(remaining)));
      if (ready < 0) {
        if (errno == EINTR) continue;
        return errno_error("poll");
      }
      if (ready == 0) continue;  // re-check remaining; expires next pass
    }
    char chunk[65536];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n == 0) return Error{ErrorCode::kIo, "server closed the connection"};
    if (n < 0) {
      if (errno == EINTR) continue;
      return errno_error("recv");
    }
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

Result<std::string> Session::call(const std::string& json) {
  const Status sent = send_message(json);
  if (!sent) return sent.error();
  return recv_message(options_.timeout_ms);
}

Result<ResponseEnvelope> Session::exchange(const std::string& json) {
  const Result<std::string> response = call(json);
  if (!response) return response.error();
  return decode_response(*response);
}

util::JsonWriter& Session::begin_request(util::JsonWriter& w, const char* verb) {
  w.begin_object();
  w.key("id").value(static_cast<std::int64_t>(++next_id_));
  return w.key("verb").value(verb);
}

Result<std::string> Session::payload(const std::string& json) {
  const Result<std::string> response = call(json);
  if (!response) return response.error();
  return extract_result(*response);
}

Result<ModelHandle> Session::register_model(const std::string& netlist_text) {
  util::JsonWriter w;
  begin_request(w, "register-model").key("netlist").value(netlist_text).end_object();
  const Result<ResponseEnvelope> envelope = exchange(w.str());
  if (!envelope) return envelope.error();
  const Result<const util::Json*> result = envelope->result();
  if (!result) return result.error();
  const util::Json& info = **result;
  const auto number = [&](const char* key) {
    const util::Json* v = info.find(key);
    return v != nullptr ? v->as_int() : 0;
  };
  ModelHandle handle;
  if (const util::Json* v = info.find("model")) handle.fingerprint = v->as_string();
  handle.bytes = static_cast<std::size_t>(number("bytes"));
  handle.cores = static_cast<std::size_t>(number("cores"));
  handle.channels = static_cast<std::size_t>(number("channels"));
  handle.relay_stations = static_cast<int>(number("relay_stations"));
  if (!handle.valid()) {
    return Error{ErrorCode::kParse, "register-model payload has no 'model' fingerprint"};
  }
  return handle;
}

Status Session::evict_model(const ModelHandle& model) {
  util::JsonWriter w;
  begin_request(w, "evict-model").key("model").value(model.fingerprint).end_object();
  const Result<std::string> evicted = payload(w.str());
  if (!evicted) return evicted.error();
  return Unit{};
}

Result<std::string> Session::query(const ModelHandle& model, const std::string& verb,
                                   const std::string& extra_args_json) {
  if (!model.valid()) {
    return Error{ErrorCode::kInvalidArgument, "query: invalid (empty) model handle"};
  }
  util::JsonWriter w;
  begin_request(w, verb.c_str()).key("model").value(model.fingerprint);
  if (!extra_args_json.empty()) {
    const util::JsonParse extra = util::json_parse(extra_args_json);
    if (!extra || !extra.value.is_object()) {
      return Error{ErrorCode::kInvalidArgument,
                   "query: extra_args_json must be a JSON object"};
    }
    for (const auto& [name, value] : extra.value.members()) {
      w.key(name).raw(value.dump());
    }
  }
  w.end_object();
  return payload(w.str());
}

Result<std::string> Session::list_models() {
  util::JsonWriter w;
  begin_request(w, "list-models").end_object();
  return payload(w.str());
}

Result<std::string> Session::stats() {
  util::JsonWriter w;
  begin_request(w, "stats").end_object();
  return payload(w.str());
}

}  // namespace lid::serve
