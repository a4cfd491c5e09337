// The lid_serve daemon core: the shared front door (listener.hpp) over the
// engine TaskPool.
//
// Architecture (one process, no external dependencies):
//
//   Listener: accept thread ──► one reader thread per connection ──► bounded TaskPool
//                                                                ◄── worker responses
//
// The Listener (the same one the cluster router uses) reads, frames and
// parses each request once; the Server answers `stats` and `hello` on the
// reader and submits everything else to the pool. Robustness properties, in
// the paper's own queueing terms (finite queues + backpressure turned on the
// server itself):
//
//   * bounded admission — the pool queue has a fixed capacity; when it is
//     full the reader answers `overloaded` immediately (explicit load
//     shedding) instead of queueing without bound;
//   * deadlines — a request whose `deadline_ms` elapses while queued is
//     answered `deadline_exceeded` without executing; the execution itself
//     is bounded by deterministic node budgets (ExecLimits), never by wall
//     clock, so responses stay reproducible;
//   * input-size limits — oversized request lines and embedded netlists are
//     rejected with `too_large` before they allocate;
//   * graceful drain — request_stop() (async-signal-safe, wired to
//     SIGINT/SIGTERM by the binary) stops accepting work, completes every
//     queued and in-flight request, flushes responses, then shuts down;
//   * observability — per-request structured log lines, engine Metrics
//     (counters + per-verb stage timers), queue depth / shed counts, and a
//     latency histogram, all exposed by the `stats` verb.
//
// Transports: every connection speaks NDJSON; a message starting with the
// frame magic (frame.hpp) is a length-prefixed binary frame instead, and the
// two may interleave freely — each response uses the transport its request
// arrived in. The `hello` verb (answered reader-side, like `stats`) upgrades
// the connection to protocol v2, after which response envelopes carry
// `"protocol":2`. Connections that never send `hello` get byte-identical v1
// behavior. The server also owns the model registry (registry.hpp) backing
// the v2 `register-model` / `model` request family.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>

#include "engine/metrics.hpp"
#include "engine/task_pool.hpp"
#include "lid_api.hpp"
#include "serve/faults.hpp"
#include "serve/histogram.hpp"
#include "serve/listener.hpp"
#include "serve/protocol.hpp"
#include "util/timer.hpp"

namespace lid::serve {

struct ServerOptions {
  /// Path of a Unix-domain listening socket. Takes precedence over TCP.
  std::string unix_socket;
  /// TCP listening port on `host` (0 = kernel-assigned; see Server::port()).
  /// Used only when `unix_socket` is empty; -1 disables TCP.
  int tcp_port = -1;
  std::string host = "127.0.0.1";

  /// Worker threads executing requests.
  int workers = 1;
  /// Admission-queue capacity; requests beyond it are shed with
  /// `overloaded`. Must be >= 1.
  std::size_t queue_capacity = 64;
  /// Longest accepted request line, in bytes.
  std::size_t max_request_bytes = 1 << 20;
  /// Deadline applied to requests that do not carry their own
  /// `deadline_ms`; <= 0 means none.
  double default_deadline_ms = 0.0;
  /// Server-side execution caps (node budgets, size limits).
  ExecLimits limits;
  /// Structured per-request log lines land here; nullptr = silent.
  std::ostream* log = nullptr;
  /// Seeded fault injection applied at the response boundary (chaos
  /// testing). The default plan injects nothing. Faults perturb only the
  /// transport — payload computation is never touched.
  FaultPlan fault_plan;
  /// Model-registry budget (registry.hpp); registry_max_models = 0 disables
  /// registration (register-model answers `registry_full`).
  std::size_t registry_max_bytes = std::size_t{64} << 20;
  std::size_t registry_max_models = 64;
};

class Server {
 public:
  explicit Server(ServerOptions options);
  /// Stops and drains if still running.
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens and spawns the accept thread + worker pool. A Unix
  /// socket path with a live daemon behind it fails (listener.hpp).
  Status start();

  /// Requests a graceful drain. Async-signal-safe (a single write() to an
  /// internal pipe) — this is what the binary's SIGINT/SIGTERM handlers
  /// call. Returns immediately.
  void request_stop();

  /// Blocks until a stop was requested and the drain finished: no more
  /// accepts, every admitted request executed and its response flushed,
  /// all threads joined, sockets closed.
  void wait();

  /// request_stop() + wait().
  void stop();

  /// The resolved TCP port (useful with tcp_port = 0), or -1 on Unix.
  [[nodiscard]] int port() const { return listener_.port(); }
  /// Human-readable listening endpoint ("unix:/path" or "tcp:host:port").
  [[nodiscard]] const std::string& endpoint() const { return listener_.endpoint(); }

  /// The `stats` verb payload: queue/shed/latency snapshot as compact JSON.
  [[nodiscard]] std::string stats_json() const;

  /// The server's model registry (always present; budget from options).
  [[nodiscard]] Registry& registry() { return *registry_; }

 private:
  void handle_message(const std::shared_ptr<Connection>& connection, Message& message);
  void log_request(const Connection& connection, const Request& request,
                   const std::string& status, double wait_ms, double exec_ms);

  ServerOptions options_;
  std::unique_ptr<engine::TaskPool> pool_;
  std::unique_ptr<Registry> registry_;
  engine::Metrics metrics_;
  LatencyHistogram latency_;

  /// Process identity reported by `stats` (pid + wall-clock start time +
  /// uptime): what a supervisor needs to notice that the process behind an
  /// endpoint is not the one it last spoke to (a silent restart). No two
  /// Servers of one process report the same start time.
  std::int64_t start_unix_ms_ = 0;
  util::Timer uptime_;

  std::mutex lifecycle_mutex_;
  bool started_ = false;
  bool finished_ = false;

  /// Last: its reader threads use everything above.
  Listener listener_;
};

}  // namespace lid::serve
