// Cluster mode: a sharded multi-process serving topology behind one front
// door. The in-process robustness layer (bounded admission, retries,
// breakers, fault plans) promoted to a *process* topology — the paper's
// latency-insensitive discipline applied across processes: workers are
// treated as channels of arbitrary (even infinite) latency, and the router
// stays correct under any of it via backpressure, failover and replay.
//
//   clients ──► Listener ──► Cluster router ──► N lid_serve worker processes
//                                 │                 (one model registry each)
//                                 └── health prober (stats verb, generation tracking)
//
// The front door is the Listener (listener.hpp) that Server uses too: the
// same accept loop, per-connection reader, NDJSON/frame demux, size limits,
// `hello` and stale-socket rule. Each request is parsed once there; the
// router reads its route key from that parse and decodes each worker
// response once (decode_response).
//
// Topology and routing:
//
//   * Workers are either SPAWNED (the router fork/execs `lid_serve` on a
//     private Unix socket and owns the child) or ADOPTED (an endpoint the
//     router attaches to — used by tests, selfcheck and external process
//     supervisors).
//   * Requests route by consistent hashing (HashRing, virtual nodes) on the
//     model fingerprint — registered-model requests hash their fingerprint,
//     inline-netlist requests the netlist bytes — so repeated work on one
//     model lands on the worker whose registry/memo already holds it (cache
//     affinity). Verbs with no model (ping, generate, sleep) round-robin.
//   * Workers are unreliable by assumption. Each is probed every
//     `probe_interval_ms` via the existing `stats` verb; `eject_after`
//     consecutive probe failures eject it from routing until a probe
//     succeeds again. The probe also reads the worker's pid and
//     start_unix_ms: a changed identity is a *silent restart* — the worker
//     bumps its generation, which invalidates everything the router believed
//     about it (registered models, breaker state).
//   * Forwarding failures (connect refused, torn/garbage response, EOF,
//     timeout) fail over to the next distinct ring node; every protocol verb
//     is idempotent, so replay is always safe. Per-worker circuit breakers
//     stop the router from burning timeouts on a dead worker between probes.
//   * The router remembers the canonical text of every model registered
//     through it. On failover (or after a worker restart) a model-addressed
//     request re-registers the model on the target worker first — the
//     cluster-level `session_warmup` — so clients never see `unknown_model`
//     for a model they registered. Its record of which worker holds which
//     model is only a hint: a worker's registry may evict a model, so an
//     `unknown_model` answer makes the router forget the model for that
//     worker, re-register it and replay the request once.
//
// Admin verbs (handled by the router itself, see docs/cluster.md):
//
//   * `cluster-stats`  — per-worker health/routing/breaker/generation view.
//   * `drain-worker`   — stop routing to a worker, wait for its in-flight
//                        requests to finish. {"worker": i}
//   * `rejoin-worker`  — undo a drain (the worker re-enters the ring).
//   * `restart-worker` — drain → SIGTERM → respawn → probe → rejoin, for
//                        spawned workers. Zero admitted requests are lost:
//                        new work routes around the worker while its
//                        in-flight requests complete before the signal.
//   * `stats`          — aggregated across workers (counter sums, merged
//                        registry totals) in the single-server shape, so
//                        existing tooling (lid_loadgen's hit-rate probe)
//                        works unchanged against a cluster.
//
// Everything else is transparent: request lines are forwarded verbatim and
// worker response lines returned verbatim, so payloads through the cluster
// are byte-identical to a single server and to direct execution
// (lid_selfcheck invariant 14).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "lid_api.hpp"
#include "serve/listener.hpp"
#include "serve/session.hpp"
#include "util/timer.hpp"

namespace lid::serve {

/// Consistent hashing of string keys onto worker indices. Each worker owns
/// `replicas` pseudo-random points on a 64-bit ring; a key routes to the
/// first point clockwise from its hash. Losing one worker of N therefore
/// moves only that worker's arc — about 1/N of keys, bounded well under 2/N
/// with enough replicas — while every other key keeps its worker (cache
/// affinity survives membership churn).
class HashRing {
 public:
  explicit HashRing(int replicas = 64) : replicas_(replicas < 1 ? 1 : replicas) {}

  /// FNV-1a 64 over `key` (the same family the model registry fingerprints
  /// use, so routing is deterministic across processes and runs).
  static std::uint64_t hash(const std::string& key);

  void add(int worker);
  void remove(int worker);
  [[nodiscard]] bool contains(int worker) const { return workers_.count(worker) > 0; }
  [[nodiscard]] std::size_t size() const { return workers_.size(); }

  /// The primary worker for `key`, or -1 when the ring is empty.
  [[nodiscard]] int primary(const std::string& key) const;

  /// Up to `n` distinct workers for `key` in failover order: the primary
  /// first, then successive distinct ring successors.
  [[nodiscard]] std::vector<int> route(const std::string& key, std::size_t n) const;

 private:
  int replicas_;
  std::map<std::uint64_t, int> ring_;  ///< point -> worker
  std::set<int> workers_;
};

/// One worker endpoint of the cluster.
struct WorkerSpec {
  /// The worker's Unix listening socket.
  std::string unix_socket;
  /// True: the router fork/execs `lid_serve` on that socket and owns the
  /// child (restart-worker works). False: attach to an externally managed
  /// server (restart-worker answers `invalid_argument`).
  bool spawn = false;
  /// `--fault-plan` spec passed to a spawned worker (chaos testing; see
  /// faults.hpp). Empty = no injection.
  std::string fault_plan;
  /// `--pid-file` path for a spawned worker; empty = none.
  std::string pid_file;
};

struct ClusterOptions {
  /// Front-door Unix socket. Takes precedence over TCP.
  std::string unix_socket;
  /// Front-door TCP port (0 = kernel-assigned); -1 disables TCP.
  int tcp_port = -1;
  std::string host = "127.0.0.1";

  std::vector<WorkerSpec> workers;

  /// Path of the lid_serve binary (spawned workers). Required when any
  /// spec.spawn is set.
  std::string serve_binary;
  /// --workers / --queue-capacity forwarded to spawned lid_serve processes.
  int serve_threads = 1;
  std::size_t serve_queue_capacity = 64;

  /// Health probing: period, per-probe budget, and the consecutive-failure
  /// count that ejects a worker from routing.
  double probe_interval_ms = 100.0;
  double probe_timeout_ms = 1'000.0;
  int eject_after = 3;

  /// Virtual nodes per worker on the hash ring.
  int ring_replicas = 64;

  /// Per-hop forwarding budgets. `connect_timeout_ms` bounds backend
  /// connect() (a hung worker must not stall the router on the OS default);
  /// `forward_timeout_ms` bounds one request round trip on a worker.
  double connect_timeout_ms = 1'000.0;
  double forward_timeout_ms = 30'000.0;

  /// Per-worker circuit breaker on the forwarding path: consecutive
  /// transport failures that open it, and how long it rejects before a
  /// half-open probe. 0 disables.
  int breaker_threshold = 3;
  double breaker_cooldown_ms = 500.0;

  /// Longest accepted request line on the front door.
  std::size_t max_request_bytes = 1 << 20;

  /// Structured log lines (worker lifecycle, ejections, failovers);
  /// nullptr = silent.
  std::ostream* log = nullptr;
};

/// The cluster router: front-door socket, worker lifecycle, health, routing.
class Cluster {
 public:
  explicit Cluster(ClusterOptions options);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Spawns/adopts the workers, waits for each to answer a probe, binds the
  /// front door and starts the accept + prober threads. A Unix front-door
  /// path with a live daemon behind it fails (listener.hpp).
  Status start();

  /// Requests a graceful stop. Async-signal-safe (one write()).
  void request_stop();

  /// Blocks until a requested stop finishes: front door closed, in-flight
  /// requests answered, spawned workers SIGTERMed and reaped.
  void wait();

  /// request_stop() + wait().
  void stop();

  [[nodiscard]] const std::string& endpoint() const { return listener_.endpoint(); }
  [[nodiscard]] int port() const { return listener_.port(); }
  [[nodiscard]] std::size_t worker_count() const { return workers_.size(); }

  /// The `cluster-stats` payload: per-worker health/routing state plus
  /// router totals, as compact JSON.
  [[nodiscard]] std::string cluster_stats_json() const;

  // Admin operations (the socket verbs call these; tests call them
  // directly). All are safe to invoke concurrently with traffic.

  /// Takes the worker out of routing and waits up to `timeout_ms` for its
  /// in-flight requests to finish. Idempotent.
  Status drain_worker(std::size_t index, double timeout_ms = 10'000.0);

  /// Puts a drained worker back into routing (health permitting).
  Status rejoin_worker(std::size_t index);

  /// drain → SIGTERM → respawn → probe-until-healthy → rejoin. Spawned
  /// workers only. No admitted request is lost: the drain step completes
  /// everything in flight before the signal.
  Status restart_worker(std::size_t index, double timeout_ms = 30'000.0);

 private:
  struct Worker;
  /// A connection's upstream session to one worker, opened lazily and tagged
  /// with the worker generation it was opened against (a restart
  /// invalidates it). Confined to the connection's reader thread:
  /// forwarding is synchronous.
  struct Backend {
    std::optional<Session> session;
    std::int64_t generation = 0;
  };
  using Backends = std::vector<Backend>;
  /// One worker response: the line as sent and its decoded envelope.
  struct Reply {
    std::string line;
    ResponseEnvelope envelope;
  };

  void handle_message(Connection& connection, Backends& backends, Message& message);
  /// The admin verbs (cluster-stats, drain/rejoin/restart-worker).
  std::string admin(const Request& request, int protocol);
  /// The `stats` verb: the workers' own stats, summed.
  std::string aggregate_stats(Backends& backends, const Request& request, int protocol);

  /// Forwards one request, with affinity routing, failover and on-demand
  /// model re-registration. Returns the response line to send to the client
  /// (always well-formed: a worker response or a structured router error).
  std::string forward(Backends& backends, const Message& message, const std::string& verb,
                      int protocol);

  /// One attempt on one worker over the connection's backend. A failure
  /// (no connection, or a response decode_response rejects) drops the
  /// backend and yields nothing; the caller fails over.
  std::optional<Reply> forward_once(Backends& backends, Worker& worker, const std::string& line);

  /// Takes `worker`'s placement lock (a no-op when `placing` holds it),
  /// waiting at most one forward timeout. False, with the lock not held,
  /// when the wait timed out or the worker stopped being usable meanwhile:
  /// the caller fails over.
  bool lock_placement(Worker& worker, std::unique_lock<std::timed_mutex>& placing) const;

  /// Ensures `fingerprint` is registered on `worker` (current generation),
  /// using the router's remembered canonical text. True when the worker is
  /// believed to hold the model afterwards.
  bool ensure_model(Backends& backends, Worker& worker, const std::string& fingerprint);

  /// Candidate workers for a key: ring failover order, usable (healthy, not
  /// draining, breaker closed/half-open) first, then still-standing
  /// non-draining workers as a last resort.
  std::vector<Worker*> candidates(const std::string& key);

  bool usable(const Worker& worker) const;
  void note_forward_failure(Worker& worker);
  void note_forward_success(Worker& worker);

  Status spawn_worker(Worker& worker);
  Status wait_for_worker(Worker& worker, double timeout_ms);
  /// One synchronous probe: connect + `stats`, updating health, identity
  /// (pid/start time -> silent-restart detection) and breaker state.
  bool probe_worker(Worker& worker);
  void prober_loop();
  void reap_worker(Worker& worker);
  void log_line(const std::string& event, const Worker* worker, const std::string& detail);

  ClusterOptions options_;
  std::vector<std::unique_ptr<Worker>> workers_;

  mutable std::mutex ring_mutex_;
  HashRing ring_;

  /// fingerprint -> canonical netlist text of every model registered through
  /// the router (the failover re-registration source).
  mutable std::mutex models_mutex_;
  std::unordered_map<std::string, std::string> model_texts_;

  std::atomic<std::uint64_t> round_robin_{0};

  // Router totals (cluster-stats; the zero-loss ledger).
  std::atomic<std::int64_t> admitted_{0};      ///< requests accepted for forwarding
  std::atomic<std::int64_t> completed_{0};     ///< answered with a worker response
  std::atomic<std::int64_t> failed_{0};        ///< answered `upstream_unavailable`
  std::atomic<std::int64_t> failovers_{0};     ///< hops past the primary
  std::atomic<std::int64_t> reregistrations_{0};
  std::atomic<std::int64_t> ejections_{0};
  std::atomic<std::int64_t> silent_restarts_{0};

  std::mutex lifecycle_mutex_;
  bool started_ = false;
  bool finished_ = false;

  /// Last: their threads use everything above.
  Listener listener_;
  std::thread prober_thread_;
};

}  // namespace lid::serve
