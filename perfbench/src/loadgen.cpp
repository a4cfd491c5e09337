#include "loadgen.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <stdexcept>
#include <string_view>
#include <thread>

#include "proc.hpp"
#include "serve/protocol.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

double number_after(const std::string& message, std::string_view key) {
  const std::size_t at = message.rfind(key);
  if (at == std::string::npos) return -1.0;
  return std::strtod(message.c_str() + at + key.size(), nullptr);
}

/// The bytes of the `result` member of a response line, found without
/// parsing the payload (the envelope fields after it are fixed); empty when
/// the response carries none.
std::string_view result_bytes(const std::string& message) {
  constexpr std::string_view kResult = "\"result\":";
  constexpr std::string_view kServerMs = ",\"server_ms\":";
  constexpr std::string_view kDegraded = ",\"degraded\":true";
  const std::size_t start = message.find(kResult);
  const std::size_t end = message.rfind(kServerMs);
  if (start == std::string::npos || end == std::string::npos || end < start) return {};
  std::string_view result(message.data() + start + kResult.size(),
                          end - start - kResult.size());
  if (result.size() >= kDegraded.size() &&
      result.substr(result.size() - kDegraded.size()) == kDegraded) {
    result.remove_suffix(kDegraded.size());
  }
  return result;
}

}  // namespace

std::int64_t parse_reply(const std::string& message, Reply& reply) {
  constexpr std::string_view kId = "{\"id\":\"";
  std::int64_t index = -1;
  if (message.compare(0, kId.size(), kId) == 0) {
    char* end = nullptr;
    const long long v = std::strtoll(message.c_str() + kId.size(), &end, 10);
    if (end != nullptr && *end == '"') index = v;
  }
  reply.ok = message.find("\"ok\":true") != std::string::npos;
  if (reply.ok) {
    const std::string_view result = result_bytes(message);
    reply.result_hash = fnv1a(result.data(), result.size());
    reply.degraded = message.find(",\"degraded\":true,\"server_ms\":") != std::string::npos;
  } else {
    constexpr std::string_view kCode = "\"error\":{\"code\":\"";
    const std::size_t at = message.find(kCode);
    if (at != std::string::npos) {
      const std::size_t from = at + kCode.size();
      reply.error_code = message.substr(from, message.find('"', from) - from);
    } else {
      reply.error_code = "malformed";
    }
  }
  reply.server_ms = number_after(message, "\"server_ms\":");
  reply.wait_ms = number_after(message, "\"wait_ms\":");
  return index;
}

Verdict judge(const Reply& reply, std::uint64_t expected_hash) {
  if (reply.recv_ns == 0) return Verdict::kNoResponse;
  if (!reply.ok) {
    if (reply.error_code == lid::serve::codes::kOverloaded) return Verdict::kShed;
    if (reply.error_code == lid::serve::codes::kDeadlineExceeded) return Verdict::kDeadlineMissed;
    return Verdict::kError;
  }
  // A degraded answer is a lower-quality one, not the requested result.
  if (reply.degraded || reply.result_hash != expected_hash) return Verdict::kWrongPayload;
  return Verdict::kOk;
}

std::vector<double> OpenLoopResult::latencies_ms() const {
  std::vector<double> out;
  out.reserve(replies.size());
  for (std::size_t i = measured_from; i < replies.size(); ++i) {
    if (replies[i].ok) out.push_back(1e-6 * static_cast<double>(replies[i].recv_ns - due_ns[i]));
  }
  return out;
}

std::vector<double> OpenLoopResult::lateness_ms() const {
  std::vector<double> out;
  out.reserve(sent_ns.size());
  for (std::size_t i = measured_from; i < sent_ns.size(); ++i) {
    if (sent_ns[i] > 0) out.push_back(1e-6 * static_cast<double>(sent_ns[i] - due_ns[i]));
  }
  return out;
}

OpenLoopResult run_open_loop(const std::vector<std::string>& wire, const std::vector<int>& fds,
                             const OpenLoopOptions& options) {
  if (fds.empty() || options.rate <= 0.0) throw std::invalid_argument("run_open_loop: no load");
  const std::size_t n = wire.size();
  const std::size_t lanes = fds.size();
  OpenLoopResult result;
  result.due_ns.resize(n);
  result.sent_ns.assign(n, 0);
  result.replies.resize(n);

  result.start_ns = now_ns() + 1'000'000;
  const double interval_ns = 1e9 / options.rate;
  for (std::size_t i = 0; i < n; ++i) {
    result.due_ns[i] = result.start_ns + static_cast<std::int64_t>(static_cast<double>(i) * interval_ns);
  }
  result.measured_from = std::min(n, static_cast<std::size_t>(options.warmup_s * options.rate));
  const std::int64_t last_due = n == 0 ? result.start_ns : result.due_ns.back();
  // Replies still missing this long after the last request was due count
  // as never answered.
  const std::int64_t drain_deadline = last_due + 5'000'000'000;

  // The sender never sleeps: on a virtual machine a sleeping thread can wake
  // milliseconds late, which would show up as generator lateness in every
  // percentile. It runs on its own CPU so that the threads its writes wake
  // do not queue behind it. The receiver blocks in poll() elsewhere, so a
  // stalled sender does not delay the timestamps of replies.
  std::vector<int> receiver_cpus;
  if (!options.cpus.empty()) {
    for (const int c : allowed_cpus()) {
      if (std::find(options.cpus.begin(), options.cpus.end(), c) == options.cpus.end()) {
        receiver_cpus.push_back(c);
      }
    }
  }
  std::thread sender([&] {
    if (!options.cpus.empty()) pin_thread(options.cpus);
    std::vector<std::string> outbox(lanes);
    const auto flush = [&](std::size_t c) {
      std::string& out = outbox[c];
      while (!out.empty()) {
        const ssize_t put = ::send(fds[c], out.data(), out.size(), MSG_NOSIGNAL | MSG_DONTWAIT);
        if (put < 0 && errno == EINTR) continue;
        if (put <= 0) return;  // socket full (or broken): retried on the next turn
        out.erase(0, static_cast<std::size_t>(put));
      }
    };
    std::size_t next = 0;
    bool pending = true;
    while (next < n || pending) {
      while (next < n && result.due_ns[next] <= now_ns()) {
        if (options.before_send) options.before_send(next);
        const std::size_t c = next % lanes;
        result.sent_ns[next] = now_ns();
        outbox[c] += wire[next];
        flush(c);
        ++next;
      }
      pending = false;
      for (std::size_t c = 0; c < lanes; ++c) {
        flush(c);
        pending = pending || !outbox[c].empty();
      }
      if (now_ns() > drain_deadline) break;
      cpu_relax();
    }
  });

  std::thread receiver([&] {
    if (!receiver_cpus.empty()) pin_thread(receiver_cpus);
    std::vector<std::string> inbox(lanes);
    std::vector<pollfd> polled(lanes);
    for (std::size_t c = 0; c < lanes; ++c) polled[c] = pollfd{fds[c], POLLIN, 0};
    std::string message;
    char chunk[65536];
    std::size_t received = 0;
    std::size_t open = lanes;
    while (received < n && open > 0) {
      const std::int64_t now = now_ns();
      if (now > drain_deadline) break;
      const int wait_ms = static_cast<int>(std::min<std::int64_t>(
          50, std::max<std::int64_t>(1, (drain_deadline - now) / 1'000'000)));
      const int ready = ::poll(polled.data(), polled.size(), wait_ms);
      if (ready < 0 && errno != EINTR) break;
      if (ready <= 0) continue;
      const std::int64_t t = now_ns();
      for (std::size_t c = 0; c < lanes; ++c) {
        if (polled[c].revents == 0) continue;
        const ssize_t got = ::read(polled[c].fd, chunk, sizeof(chunk));
        if (got < 0 && errno == EINTR) continue;
        if (got <= 0) {
          polled[c].fd = -1;  // closed: poll ignores negative fds
          --open;
          continue;
        }
        inbox[c].append(chunk, static_cast<std::size_t>(got));
        while (take_message(inbox[c], message)) {
          Reply reply;
          const std::int64_t index = parse_reply(message, reply);
          if (index < 0 || static_cast<std::size_t>(index) >= n ||
              result.replies[static_cast<std::size_t>(index)].recv_ns != 0) {
            ++result.unmatched;
            continue;
          }
          reply.recv_ns = t;
          result.replies[static_cast<std::size_t>(index)] = std::move(reply);
          ++received;
          result.end_ns = std::max(result.end_ns, t);
        }
      }
    }
  });
  sender.join();
  receiver.join();
  result.end_ns = std::max(result.end_ns, last_due);
  return result;
}

}  // namespace perfbench
