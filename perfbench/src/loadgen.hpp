// The open-loop load generator of the serving workloads.
//
// Request i is due at start + i / rate, whatever became of earlier requests
// (independent users, not callers waiting for replies). One sender thread
// writes each request when due, on the next connection in turn; one
// receiver thread timestamps and decodes the replies. Latency is taken from when a
// request was due, not from when it was written, so a sender that stalls
// charges its delay to every request it held back; how late the sender ran
// is recorded separately.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "stats.hpp"

namespace perfbench {

/// What the receiver keeps of one response: timing, envelope fields and a
/// hash of the `result` bytes (enough to compare with a direct execution
/// without holding every payload in memory).
struct Reply {
  std::int64_t recv_ns = 0;  ///< 0 = never answered
  bool ok = false;
  bool degraded = false;
  double server_ms = -1.0;
  double wait_ms = -1.0;
  std::uint64_t result_hash = 0;
  std::string error_code;  ///< set when !ok
};

/// Decodes one response message. Returns the request index carried in its
/// `id` (the benchmark numbers requests 0..n-1), or -1 when it has none.
std::int64_t parse_reply(const std::string& message, Reply& reply);

/// The verdict on one reply, given the hash of the payload a direct
/// execution of the same request produces.
Verdict judge(const Reply& reply, std::uint64_t expected_hash);

struct OpenLoopOptions {
  double rate = 1000.0;     ///< requests per second, over all connections
  /// Requests due in the first `warmup_s` seconds are sent, answered and
  /// checked but left out of the latency figures: the first second after
  /// new connections open runs slow (backend connections, page faults).
  double warmup_s = 0.0;
  /// CPUs the sender runs on (empty = anywhere); the receiver then runs on
  /// the others. The sender spins, and a CPU of its own keeps the threads it
  /// wakes from queueing behind it.
  std::vector<int> cpus;
  /// Called before request i is written. Lets a test stall the sender; the
  /// benchmark itself leaves it empty.
  std::function<void(std::size_t)> before_send;
};

struct OpenLoopResult {
  std::vector<std::int64_t> due_ns;
  std::vector<std::int64_t> sent_ns;  ///< when the write began; 0 = never written
  std::vector<Reply> replies;
  std::int64_t start_ns = 0;
  std::size_t measured_from = 0;  ///< first request past the warm-up
  std::int64_t end_ns = 0;        ///< last reply (or drain timeout)
  std::int64_t unmatched = 0;     ///< replies whose id names no request

  /// recv - due of every successful request past the warm-up, in ms. A
  /// failed request has no latency worth reporting; it counts against the
  /// success rate instead.
  [[nodiscard]] std::vector<double> latencies_ms() const;
  /// sent - due of every written request past the warm-up, in ms.
  [[nodiscard]] std::vector<double> lateness_ms() const;
};

/// Writes wire[i] (already framed or newline-terminated; its id must be i)
/// on fds[i % fds.size()] when due, and collects the replies.
OpenLoopResult run_open_loop(const std::vector<std::string>& wire, const std::vector<int>& fds,
                             const OpenLoopOptions& options);

}  // namespace perfbench
