#include "serve/retry.hpp"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "serve/protocol.hpp"

namespace lid::serve {
namespace {

/// A short, printable excerpt of a (possibly garbage) line for error text.
std::string preview(const std::string& line) {
  std::string out;
  for (const char c : line.substr(0, 48)) {
    out.push_back(c >= 0x20 && c < 0x7f ? c : '?');
  }
  if (line.size() > 48) out += "...";
  return out;
}

}  // namespace

RetryingClient::RetryingClient(Connector connect, RetryPolicy policy)
    : connect_(std::move(connect)), policy_(policy), rng_(policy.jitter_seed) {}

void RetryingClient::disconnect() { connection_.reset(); }

void RetryingClient::note_transport_failure() {
  ++consecutive_failures_;
  if (policy_.breaker_threshold > 0 && consecutive_failures_ >= policy_.breaker_threshold) {
    breaker_open_ = true;
    breaker_opened_at_ = util::Timer();
  }
}

void RetryingClient::note_success() {
  consecutive_failures_ = 0;
  breaker_open_ = false;
}

Result<std::string> RetryingClient::attempt(const std::string& line, bool& sent_request,
                                            bool& overloaded) {
  sent_request = false;
  overloaded = false;
  if (!connection_) {
    Result<Session> fresh = connect_();
    if (!fresh) {
      ++stats_.connect_failures;
      // ECONNREFUSED surfaces as strerror text; "refused" is stable in the C
      // locale ("Connection refused"), and a dead Unix socket path reports
      // the same errno — both mean "nothing is listening there".
      if (fresh.error().message.find("refused") != std::string::npos) {
        ++stats_.connect_refused;
      }
      return fresh.error();
    }
    connection_.emplace(std::move(fresh).value());
    ++stats_.reconnects;
    if (policy_.session_warmup) {
      const Status warmed = policy_.session_warmup(*connection_);
      if (!warmed) {
        disconnect();
        ++stats_.connect_failures;
        return warmed.error();
      }
    }
  }
  const Status sent = connection_->send_message(line);
  if (!sent) {
    disconnect();
    ++stats_.mid_request_failures;
    return sent.error();
  }
  sent_request = true;
  Result<std::string> response = connection_->recv_message(policy_.attempt_timeout_ms);
  if (!response) {
    // EOF, recv error or timeout: the connection may be mid-frame; drop it.
    disconnect();
    ++stats_.mid_request_failures;
    return response.error();
  }
  // Anything decode_response rejects (a torn line, injected garbage) is a
  // transport failure.
  const Result<ResponseEnvelope> envelope = decode_response(*response);
  if (!envelope) {
    disconnect();
    ++stats_.mid_request_failures;
    return Error{ErrorCode::kParse, "malformed response line: '" + preview(*response) + "'"};
  }
  overloaded = envelope->error_code == codes::kOverloaded;
  return response;
}

Result<std::string> RetryingClient::call(const std::string& line) {
  ++stats_.calls;
  const bool breaker_enabled = policy_.breaker_threshold > 0;
  if (breaker_enabled && breaker_open_ &&
      breaker_opened_at_.elapsed_ms() < policy_.breaker_cooldown_ms) {
    ++stats_.breaker_fast_fails;
    return Error{ErrorCode::kIo,
                 "circuit breaker open after " + std::to_string(consecutive_failures_) +
                     " consecutive transport failures"};
  }
  // Half-open: the cooldown elapsed, so a single probe attempt is allowed;
  // its outcome closes or re-opens the breaker.
  const bool probing = breaker_enabled && breaker_open_;
  const int max_attempts = probing ? 1 : std::max(1, policy_.max_attempts);

  const auto backoff = [&] {
    // Decorrelated jitter: sleep ~ uniform(base, prev * 3), capped.
    const double base = std::max(0.0, policy_.base_backoff_ms);
    const double prev = previous_backoff_ms_ > 0.0 ? previous_backoff_ms_ : base;
    double sleep = base + rng_.uniform01() * std::max(0.0, prev * 3.0 - base);
    sleep = std::min(sleep, policy_.max_backoff_ms);
    previous_backoff_ms_ = sleep;
    if (sleep > 0.0) {
      ++stats_.backoff_sleeps;
      stats_.backoff_ms_total += sleep;
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(sleep));
    }
  };

  Error last{ErrorCode::kIo, "no attempt made"};
  std::optional<std::string> last_overloaded;
  for (int i = 0; i < max_attempts; ++i) {
    if (i > 0) {
      ++stats_.retries;
      backoff();
    }
    ++stats_.attempts;
    bool sent_request = false;
    bool overloaded = false;
    Result<std::string> response = attempt(line, sent_request, overloaded);
    if (response.ok()) {
      note_success();
      previous_backoff_ms_ = 0.0;
      if (overloaded && policy_.retry_overloaded && i + 1 < max_attempts) {
        // Shedding is the server asking us to come back later; the
        // connection itself is healthy, so this does not feed the breaker.
        last_overloaded = std::move(response).value();
        continue;
      }
      return response;
    }
    last = response.error();
    note_transport_failure();
    if (!policy_.assume_idempotent && sent_request) {
      // The server may have executed the request; not safe to repeat.
      return last;
    }
    if (breaker_enabled && breaker_open_) break;  // opened mid-call: stop hammering
  }
  ++stats_.giveups;
  if (last_overloaded) return *last_overloaded;  // a valid, definitive response
  return last;
}

}  // namespace lid::serve
