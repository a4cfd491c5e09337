#include "serve/server.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <ostream>

#include "serve/registry.hpp"
#include "util/timer.hpp"

namespace lid::serve {
namespace {

/// Wall-clock milliseconds, made strictly increasing across the Servers of
/// this process: two started within one millisecond would otherwise report
/// the same identity (pid + start_unix_ms), and a supervisor probing the
/// endpoint could not tell the second from the first.
std::int64_t unique_start_unix_ms() {
  static std::atomic<std::int64_t> last{0};
  const std::int64_t now = std::chrono::duration_cast<std::chrono::milliseconds>(
                               std::chrono::system_clock::now().time_since_epoch())
                               .count();
  std::int64_t previous = last.load();
  std::int64_t next = 0;
  do {
    next = std::max(now, previous + 1);
  } while (!last.compare_exchange_weak(previous, next));
  return next;
}

}  // namespace

Server::Server(ServerOptions options)
    : options_(std::move(options)),
      start_unix_ms_(unique_start_unix_ms()),
      listener_("lid_serve", options_.max_request_bytes, options_.fault_plan, &metrics_,
                [this](const std::shared_ptr<Connection>& connection) -> Listener::Handler {
                  return [this, connection](Message& message) {
                    handle_message(connection, message);
                  };
                }) {
  if (options_.workers < 1) options_.workers = 1;
  if (options_.queue_capacity < 1) options_.queue_capacity = 1;
  registry_ = std::make_unique<Registry>(
      RegistryOptions{options_.registry_max_bytes, options_.registry_max_models});
}

Server::~Server() {
  request_stop();
  wait();
}

Status Server::start() {
  {
    const std::lock_guard<std::mutex> lock(lifecycle_mutex_);
    if (started_) return Error{ErrorCode::kInvalidArgument, "Server::start called twice"};
    started_ = true;
  }
  pool_ = std::make_unique<engine::TaskPool>(
      engine::TaskPool::Options{options_.workers, options_.queue_capacity});
  return listener_.start(options_.unix_socket, options_.tcp_port, options_.host);
}

void Server::request_stop() { listener_.request_stop(); }

void Server::stop() {
  request_stop();
  wait();
}

void Server::wait() {
  const std::lock_guard<std::mutex> lock(lifecycle_mutex_);
  if (finished_ || !started_) return;
  // No new connections or requests once the listener returns; everything
  // already admitted drains through the pool, and the workers flush their
  // responses before drain() returns.
  listener_.wait();
  pool_->drain();
  finished_ = true;
}

void Server::handle_message(const std::shared_ptr<Connection>& connection, Message& message) {
  const bool binary = message.binary;
  if (!message.request) {
    const Error& error = message.request.error();
    metrics_.count("requests_rejected");
    listener_.respond(*connection,
                      error_line("null", "", wire_code(error.code), error.message,
                                 connection->protocol.load()),
                      binary);
    log_request(*connection, Request{}, wire_code(error.code), 0.0, 0.0);
    return;
  }
  Request request = std::move(message.request).value();

  // `hello` negotiates the connection's protocol; it is answered by the
  // reader because it must take effect before any later request on this
  // connection is formatted.
  if (request.verb == "hello") {
    const util::Timer timer;
    metrics_.count("verb_hello");
    const Outcome outcome = listener_.hello(*connection, request, binary);
    metrics_.count(outcome.ok ? "requests_ok" : "requests_error");
    if (outcome.ok) log_request(*connection, request, "ok", 0.0, timer.elapsed_ms());
    return;
  }

  // `stats` is answered by the reader so it works even when every worker is
  // busy — that is exactly when you want to see the queue.
  if (request.verb == "stats") {
    const util::Timer timer;
    const Outcome outcome = Outcome::success(stats_json());
    metrics_.count("requests_ok");
    metrics_.count("verb_stats");
    listener_.respond(
        *connection,
        response_line(request, outcome, timer.elapsed_ms(), 0.0, connection->protocol.load()),
        binary);
    log_request(*connection, request, "ok", 0.0, timer.elapsed_ms());
    return;
  }

  const double deadline =
      request.deadline_ms > 0.0 ? request.deadline_ms : options_.default_deadline_ms;
  const std::string id_json = request_id_json(request);
  const bool has_id = request.has_id;
  const std::string raw_id = request.id;
  const std::string verb = request.verb;

  const engine::TaskPool::Submit submitted = pool_->submit(
      [this, connection, binary,
       request = std::move(request)](const engine::TaskPool::Context& context) {
        const util::Timer exec_timer;
        Outcome outcome;
        if (context.deadline_expired && request.on_deadline != OnDeadline::kDegrade) {
          outcome = Outcome::failure(
              codes::kDeadlineExceeded,
              "deadline expired after " + std::to_string(context.queue_wait_ms) +
                  " ms in the admission queue");
          metrics_.count("requests_deadline_exceeded");
        } else {
          // The context's cancel token carries the remaining deadline budget
          // (already expired on the degrade path), so in-flight solves stop
          // within one loop bound of expiry instead of holding this worker.
          const engine::Metrics::ScopedStage stage(metrics_, "exec_" + request.verb);
          ExecContext exec_context;
          exec_context.cancel = context.cancel;
          exec_context.deadline_expired = context.deadline_expired;
          exec_context.registry = registry_.get();
          outcome = execute(request, options_.limits, exec_context);
          metrics_.count(outcome.ok ? "requests_ok" : "requests_error");
          metrics_.count("verb_" + request.verb);
          if (outcome.degraded) metrics_.count("requests_degraded");
          if (outcome.lazy_iterations > 0) {
            metrics_.count("lazy_iterations", outcome.lazy_iterations);
            metrics_.count("lazy_cycles_generated", outcome.lazy_cycles_generated);
            metrics_.count("howard_warm_restarts", outcome.lazy_warm_restarts);
          }
          if (!outcome.ok && outcome.error_code == codes::kDeadlineExceeded) {
            metrics_.count("requests_deadline_exceeded");
          }
        }
        const double exec_ms = exec_timer.elapsed_ms();
        latency_.record(context.queue_wait_ms + exec_ms);
        listener_.respond(*connection,
                          response_line(request, outcome, exec_ms, context.queue_wait_ms,
                                        connection->protocol.load()),
                          binary);
        log_request(*connection, request,
                    outcome.ok ? "ok" : outcome.error_code, context.queue_wait_ms, exec_ms);
      },
      deadline);

  switch (submitted) {
    case engine::TaskPool::Submit::kAccepted: break;
    case engine::TaskPool::Submit::kShed: {
      metrics_.count("requests_shed");
      listener_.respond(
          *connection,
          error_line(id_json, verb, codes::kOverloaded,
                     "admission queue full (" + std::to_string(pool_->queue_capacity()) +
                         " requests); retry later",
                     connection->protocol.load()),
          binary);
      Request shed_request;
      shed_request.verb = verb;
      shed_request.has_id = has_id;
      shed_request.id = raw_id;
      log_request(*connection, shed_request, codes::kOverloaded, 0.0, 0.0);
      break;
    }
    case engine::TaskPool::Submit::kClosed:
      metrics_.count("requests_rejected");
      listener_.respond(*connection,
                        error_line(id_json, verb, codes::kShuttingDown, "server is draining",
                                   connection->protocol.load()),
                        binary);
      break;
  }
}

void Server::log_request(const Connection& connection, const Request& request,
                         const std::string& status, double wait_ms, double exec_ms) {
  if (options_.log == nullptr) return;
  util::JsonWriter w;
  w.begin_object();
  w.key("conn").value(static_cast<std::int64_t>(connection.id));
  if (request.has_id) {
    w.key("id").value(request.id);
  } else {
    w.key("id").value_null();
  }
  w.key("verb").value(request.verb.empty() ? "-" : request.verb);
  w.key("status").value(status);
  w.key("wait_ms").value_fixed(wait_ms, 3);
  w.key("exec_ms").value_fixed(exec_ms, 3);
  w.key("queue_depth").value(static_cast<std::int64_t>(pool_ ? pool_->queue_depth() : 0));
  w.end_object();
  static std::mutex log_mutex;
  const std::lock_guard<std::mutex> lock(log_mutex);
  *options_.log << w.str() << '\n';
}

std::string Server::stats_json() const {
  util::JsonWriter w;
  w.begin_object();
  w.key("workers").value(options_.workers);
  w.key("queue_capacity").value(static_cast<std::int64_t>(options_.queue_capacity));
  w.key("queue_depth").value(static_cast<std::int64_t>(pool_ ? pool_->queue_depth() : 0));
  w.key("submitted").value(pool_ ? pool_->submitted() : 0);
  w.key("executed").value(pool_ ? pool_->executed() : 0);
  w.key("shed").value(pool_ ? pool_->shed() : 0);
  w.key("deadline_expired").value(pool_ ? pool_->expired() : 0);
  w.key("connections_total").value(listener_.connections_total());
  w.key("active_connections").value(listener_.active_connections());
  w.key("pid").value(static_cast<std::int64_t>(::getpid()));
  w.key("start_unix_ms").value(start_unix_ms_);
  w.key("uptime_ms").value(static_cast<std::int64_t>(uptime_.elapsed_ms()));
  w.key("counters").begin_object();
  for (const auto& [name, value] : metrics_.counters()) w.key(name).value(value);
  w.end_object();
  w.key("stages").begin_object();
  for (const auto& [name, stats] : metrics_.stages()) {
    w.key(name).begin_object();
    w.key("calls").value(stats.calls);
    w.key("wall_ms").value_fixed(stats.wall_ms, 3);
    w.key("cpu_ms").value_fixed(stats.cpu_ms, 3);
    w.end_object();
  }
  w.end_object();
  w.key("latency").raw(latency_.to_json());
  w.key("registry").raw(registry_->stats_json());
  if (listener_.faults().active()) w.key("faults").raw(listener_.faults().stats_json());
  w.end_object();
  return w.str();
}

}  // namespace lid::serve
