// A resilient wrapper over serve::Session: retries, backoff, circuit breaker.
//
// Transport failures (connect refused, send/recv errors, EOF mid-response,
// per-attempt timeout, a line decode_response rejects) are retried on a fresh
// connection with exponential backoff and decorrelated jitter. Valid
// application error responses (`ok:false` with a code) are definitive and
// returned as-is — except `overloaded`, which by default is treated as
// transient and retried, since shedding is exactly the server asking the
// client to come back later.
//
// Every verb of the lid_serve protocol is a pure function of its request
// (the server mutates nothing), so retries are always safe here. The
// `assume_idempotent` switch exists for callers embedding this client
// against future non-idempotent verbs: when false, a failure after the
// request line was fully written is returned instead of retried (the server
// may have executed it).
//
// The circuit breaker watches consecutive transport failures. After
// `breaker_threshold` of them it opens: calls fail fast (kUnavailable-style
// kIo) without touching the network for `breaker_cooldown_ms`, then one
// probe attempt is allowed (half-open); success closes the breaker, failure
// re-opens it. This keeps a dead server from stalling a closed-loop caller
// on full backoff ladders per request.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "serve/session.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace lid::serve {

/// Tuning for RetryingClient.
struct RetryPolicy {
  /// Total attempts per call, including the first; < 1 is clamped to 1.
  int max_attempts = 3;
  /// First backoff; subsequent sleeps use decorrelated jitter
  /// (uniform(base, prev * 3), capped at max_backoff_ms).
  double base_backoff_ms = 5.0;
  double max_backoff_ms = 1'000.0;
  /// Per-attempt response timeout; 0 = wait forever.
  double attempt_timeout_ms = 0.0;
  /// Retry `overloaded` application errors (server shed the request).
  bool retry_overloaded = true;
  /// When false, failures after the request was fully sent are not retried.
  bool assume_idempotent = true;
  /// Seed of the jitter stream (reproducible backoff sequences in tests).
  std::uint64_t jitter_seed = 1;
  /// Consecutive transport failures that open the breaker; 0 disables it.
  int breaker_threshold = 5;
  /// How long an open breaker rejects calls before allowing a probe.
  double breaker_cooldown_ms = 1'000.0;
  /// Runs once on every fresh connection before the pending request is
  /// sent — the hook for per-connection/session state that a reconnect
  /// loses. The canonical use is re-registering models after a failover, so
  /// registered-model requests never see `unknown_model` on a replacement
  /// server. A failing warmup counts as a transport failure of that attempt
  /// (the connection is dropped and retried).
  std::function<Status(Session&)> session_warmup;
};

/// Counters accumulated across calls (not thread-safe; one RetryingClient
/// per thread, like Session itself).
struct RetryStats {
  std::int64_t calls = 0;        ///< call() invocations
  std::int64_t attempts = 0;     ///< network attempts actually made
  std::int64_t retries = 0;      ///< attempts beyond each call's first
  std::int64_t reconnects = 0;   ///< fresh connections established
  std::int64_t giveups = 0;      ///< calls that exhausted max_attempts
  std::int64_t breaker_fast_fails = 0;  ///< calls rejected by an open breaker
  std::int64_t backoff_sleeps = 0;
  double backoff_ms_total = 0.0;
  // Transport failures split by phase, so a dead server (nothing listening:
  // connects fail) reads differently from a flaky one (connects succeed,
  // requests die mid-flight).
  std::int64_t connect_failures = 0;     ///< connector/warmup failed; no request sent
  std::int64_t connect_refused = 0;      ///< subset: actively refused (no listener)
  std::int64_t mid_request_failures = 0; ///< send/recv/garbage on a live connection
};

class RetryingClient {
 public:
  /// `connect` mints a fresh session (e.g. a lambda over
  /// Session::connect_unix); it is invoked lazily on the first call and after
  /// any transport failure.
  using Connector = std::function<Result<Session>()>;

  RetryingClient(Connector connect, RetryPolicy policy);

  /// Sends `line`, returns the raw response line. Applies retries, backoff
  /// and the breaker per the policy.
  Result<std::string> call(const std::string& line);

  [[nodiscard]] const RetryStats& stats() const { return stats_; }
  [[nodiscard]] bool breaker_open() const { return breaker_open_; }

  /// Drops the current connection (next call reconnects).
  void disconnect();

 private:
  /// One network attempt. `sent_request` reports whether the request line
  /// was fully written before any failure (idempotency gate); `overloaded`
  /// whether a valid response carried the `overloaded` error code.
  Result<std::string> attempt(const std::string& line, bool& sent_request, bool& overloaded);

  void note_transport_failure();
  void note_success();

  Connector connect_;
  RetryPolicy policy_;
  std::optional<Session> connection_;
  util::Rng rng_;
  RetryStats stats_;

  int consecutive_failures_ = 0;
  bool breaker_open_ = false;
  util::Timer breaker_opened_at_;
  double previous_backoff_ms_ = 0.0;
};

}  // namespace lid::serve
