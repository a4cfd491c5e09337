// The front door shared by Server and Cluster: one listening socket (Unix or
// TCP), the stop pipe and accept thread, one reader thread per connection,
// the NDJSON/frame demux with its size limits, in-kind writes with the
// response-boundary fault injection, `hello`, and the drain.
//
//   accept thread ──► one reader thread per connection ──► owner's handler
//
// A reader thread ends with its connection and is joined by the accept
// thread at the next accept (all of them at the drain), so a daemon that
// sees many short connections keeps threads only for the open ones.
//
// A message starting with the frame magic (frame.hpp) is a length-prefixed
// binary frame, anything else an NDJSON line; the magic byte can never begin
// JSON, so the two interleave on one connection without ambiguity, and each
// response goes out in the transport of its request. The reader parses every
// message once (parse_request) and hands text and parse result to the
// owner's per-connection handler. Framing failures are answered here: a bad
// or oversized frame gets one error frame and a hang-up (framing is lost;
// no heuristic resync), a line that outgrows the limit before its newline
// gets `too_large` and a hang-up, and a complete message over the limit gets
// `too_large` while the connection stays up.
//
// A Unix socket path that already exists is taken over only when it is
// stale (a connect is refused: its daemon died); binding over a live socket
// fails, so a second daemon never steals a running one's endpoint.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "engine/metrics.hpp"
#include "lid_api.hpp"
#include "serve/faults.hpp"
#include "serve/protocol.hpp"

namespace lid::serve {

/// One accepted client. The reader thread and any queued work share
/// ownership; the fd closes when the last reference drops, which is how a
/// drain hangs up on clients once their responses are flushed.
struct Connection {
  Connection(int fd, std::uint64_t id) : fd(fd), id(id) {}
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;
  ~Connection();

  const int fd;
  const std::uint64_t id;
  /// Negotiated protocol version (1 until a successful `hello`). Atomic:
  /// the reader writes it, workers read it when formatting envelopes.
  std::atomic<int> protocol{1};
  std::mutex write_mutex;
};

/// One request message off a connection.
struct Message {
  std::string text;         ///< the JSON text, without its framing
  bool binary = false;      ///< arrived as a frame; answered with one
  Result<Request> request;  ///< `text`, parsed once
};

class Listener {
 public:
  /// Runs on the connection's reader thread for each message. There is one
  /// handler per connection, so it may carry per-connection state.
  using Handler = std::function<void(Message&)>;
  /// Builds the handler of a newly accepted connection.
  using Accept = std::function<Handler(const std::shared_ptr<Connection>&)>;

  /// `name` is the `server` member of the hello payload. `metrics`
  /// (nullable) counts bytes_in, bytes_out, requests_total,
  /// requests_binary, requests_rejected (framing and size) and
  /// faults_injected.
  Listener(std::string name, std::size_t max_request_bytes, const FaultPlan& faults,
           engine::Metrics* metrics, Accept accept);
  /// Stops and joins if still running.
  ~Listener();

  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  /// Binds `unix_socket` or, when it is empty, `host:tcp_port` (0 = kernel-
  /// assigned; -1 = no endpoint), listens, and starts the accept thread.
  Status start(const std::string& unix_socket, int tcp_port, const std::string& host);

  /// Async-signal-safe (one write() to the stop pipe); returns at once.
  void request_stop();

  /// Blocks until a stop was requested, then stops admitting, joins the
  /// accept and reader threads, closes the socket and removes its file.
  /// Responses still owed (queued work) can be written afterwards.
  void wait();

  [[nodiscard]] bool stopping() const { return stopping_.load(); }
  /// The resolved TCP port, or -1 on Unix.
  [[nodiscard]] int port() const { return port_; }
  /// "unix:/path" or "tcp:host:port".
  [[nodiscard]] const std::string& endpoint() const { return endpoint_; }
  [[nodiscard]] std::int64_t connections_total() const { return connections_total_.load(); }
  [[nodiscard]] std::int64_t active_connections() const { return active_connections_.load(); }
  [[nodiscard]] const FaultInjector& faults() const { return faults_; }

  /// Writes one response line to `connection` in kind: a frame when
  /// `binary`, a newline-terminated line otherwise (the JSON bytes are the
  /// same). The fault plan may stall, tear, drop or garble it first.
  void respond(Connection& connection, const std::string& line, bool binary);

  /// Answers a parsed `hello`: validates `protocol` and `transport`, and on
  /// success switches the connection to the negotiated protocol (the hello
  /// response already speaks it). `extra` appends owner members to the
  /// payload. Returns the outcome it sent.
  Outcome hello(Connection& connection, const Request& request, bool binary,
                const std::function<void(util::JsonWriter&)>& extra = {});

 private:
  void accept_loop();
  void read_loop(Connection& connection, const Handler& handler);
  void dispatch(Connection& connection, std::string text, bool binary, const Handler& handler);
  void count(const char* name, std::int64_t delta = 1);

  const std::string name_;
  const std::size_t max_request_bytes_;
  FaultInjector faults_;
  engine::Metrics* metrics_;
  Accept accept_;

  int listen_fd_ = -1;
  int stop_pipe_[2] = {-1, -1};
  std::string unlink_path_;  ///< the bound Unix socket, removed on close
  std::string endpoint_;
  int port_ = -1;

  std::atomic<bool> stopping_{false};
  std::atomic<std::uint64_t> next_connection_id_{0};
  std::atomic<std::int64_t> connections_total_{0};
  std::atomic<std::int64_t> active_connections_{0};

  /// One connection's reader thread; setting `done` is its last act.
  struct Reader {
    std::thread thread;
    std::atomic<bool> done{false};
  };
  std::mutex readers_mutex_;
  std::list<Reader> readers_;  ///< a list: running threads hold their node
  std::thread accept_thread_;
};

}  // namespace lid::serve
