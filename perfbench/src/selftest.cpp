// The benchmark's own tests: the rules its numbers rest on.
//
//   * a tail percentile with fewer than ten samples beyond it is refused;
//   * a wrong payload, a shed reply, a deadline miss and a missing reply
//     each count as a failed operation;
//   * the reply decoder reads what the server writes;
//   * a stalled sender's lateness is charged to the requests it delayed.
//
// Run: .bench_build/perfbench/perfbench_selftest (exit 0 = all pass), or
// `python3 perfbench/run.py --self-test`.
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "loadgen.hpp"
#include "proc.hpp"
#include "serve/protocol.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace {

int g_failures = 0;

void check(bool condition, const std::string& what) {
  if (!condition) {
    ++g_failures;
    std::cerr << "FAIL: " << what << "\n";
  }
}

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

void test_percentile_refusal() {
  const auto p90 = perfbench::percentile(one_to(100), 0.90);
  check(p90.has_value() && p90->value == 90.0 && p90->beyond == 10,
        "p90 of 100 samples has exactly 10 beyond and is reported");
  check(!perfbench::percentile(one_to(99), 0.90).has_value(),
        "p90 of 99 samples (9 beyond) is refused");
  check(perfbench::percentile(one_to(1000), 0.99).has_value(), "p99 of 1000 samples is reported");
  check(!perfbench::percentile(one_to(999), 0.99).has_value(), "p99 of 999 samples is refused");
  check(!perfbench::percentile(one_to(15), 0.50).has_value(),
        "a median with 7 samples beyond is refused as a percentile");
  check(perfbench::median(one_to(4)) == 2.5, "median of an even count averages the middle two");
}

void test_failure_accounting() {
  perfbench::Reply good;
  good.recv_ns = 1;
  good.ok = true;
  good.result_hash = 42;
  perfbench::Reply wrong = good;
  wrong.result_hash = 43;
  perfbench::Reply degraded = good;
  degraded.degraded = true;
  perfbench::Reply shed;
  shed.recv_ns = 1;
  shed.error_code = lid::serve::codes::kOverloaded;
  perfbench::Reply late;
  late.recv_ns = 1;
  late.error_code = lid::serve::codes::kDeadlineExceeded;
  const perfbench::Reply lost;

  using perfbench::Verdict;
  check(perfbench::judge(good, 42) == Verdict::kOk, "the expected payload is ok");
  check(perfbench::judge(wrong, 42) == Verdict::kWrongPayload, "a wrong payload is a failure");
  check(perfbench::judge(degraded, 42) == Verdict::kWrongPayload, "a degraded answer is a failure");
  check(perfbench::judge(shed, 42) == Verdict::kShed, "a shed reply is a failure");
  check(perfbench::judge(late, 42) == Verdict::kDeadlineMissed, "deadline_exceeded is a failure");
  check(perfbench::judge(lost, 42) == Verdict::kNoResponse, "a missing reply is a failure");
  check(perfbench::judge_timed_step(true, false, 10'000.5, 10'000.0) == Verdict::kDeadlineMissed,
        "a step that finishes past its deadline is a miss");
  check(perfbench::judge_timed_step(false, true, 10'000.0, 10'000.0) == Verdict::kDeadlineMissed,
        "a step cut off by its deadline is a miss");
  check(perfbench::judge_timed_step(true, false, 420.0, 10'000.0) == Verdict::kOk,
        "a step within its deadline is ok");

  perfbench::Ledger ledger;
  for (const perfbench::Reply* r : std::vector<const perfbench::Reply*>{&good, &wrong, &shed, &late, &lost}) {
    ledger.record(perfbench::judge(*r, 42));
  }
  ledger.record(perfbench::judge_timed_step(false, true, 10'001.0, 10'000.0));
  check(ledger.attempted() == 6 && ledger.failed() == 5, "the ledger counts 5 failures of 6");
  check(std::fabs(ledger.success_rate() - 1.0 / 6.0) < 1e-12, "success rate is ok / attempted");
}

void test_reply_decoding() {
  lid::serve::Request request;
  request.has_id = true;
  request.id = "17";
  request.verb = "analyze";
  const std::string payload = R"({"theta":"2/3","hops":["a -> b","b -> a"],"server_ms":"x"})";
  const std::string line =
      lid::serve::response_line(request, lid::serve::Outcome::success(payload), 1.25, 0.5, 2);
  perfbench::Reply reply;
  check(perfbench::parse_reply(line, reply) == 17, "the id of a response is decoded");
  check(reply.ok && reply.result_hash == perfbench::fnv1a(payload),
        "the result bytes of a response equal the executed payload");
  check(reply.server_ms == 1.25 && reply.wait_ms == 0.5, "server_ms and wait_ms are decoded");

  lid::serve::Outcome degraded = lid::serve::Outcome::success(payload);
  degraded.degraded = true;
  perfbench::Reply d;
  perfbench::parse_reply(lid::serve::response_line(request, degraded, 1.0, 0.0, 1), d);
  check(d.degraded && d.result_hash == perfbench::fnv1a(payload),
        "a degraded envelope is flagged without changing the result bytes");

  perfbench::Reply shed;
  const std::string error = lid::serve::error_line("\"9\"", "lint", lid::serve::codes::kOverloaded,
                                                   "queue full", 1);
  check(perfbench::parse_reply(error, shed) == 9 && !shed.ok &&
            shed.error_code == lid::serve::codes::kOverloaded,
        "an error reply carries its code");
}

void test_stalled_sender() {
  int pair[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, pair) != 0) {
    check(false, "socketpair");
    return;
  }
  // Answers each request line at once.
  std::thread echo([fd = pair[1]] {
    std::string buffer;
    std::string line;
    while (perfbench::read_message(fd, buffer, line)) {
      const lid::Result<lid::serve::Request> request = lid::serve::parse_request(line);
      if (!request) break;
      const std::string response =
          lid::serve::response_line(*request, lid::serve::Outcome::success("{}"), 0.001, 0.0) + "\n";
      if (!perfbench::write_all(fd, response.data(), response.size())) break;
    }
  });

  constexpr int kRequests = 60;
  constexpr std::size_t kStallAt = 10;
  constexpr double kStallMs = 30.0;
  std::vector<std::string> wire;
  for (int i = 0; i < kRequests; ++i) {
    wire.push_back("{\"id\":\"" + std::to_string(i) + "\",\"verb\":\"ping\"}\n");
  }
  perfbench::OpenLoopOptions options;
  options.rate = 1000.0;  // one request per ms
  options.before_send = [&](std::size_t i) {
    if (i == kStallAt) std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(kStallMs));
  };
  const perfbench::OpenLoopResult loop = perfbench::run_open_loop(wire, {pair[0]}, options);
  ::shutdown(pair[0], SHUT_RDWR);
  echo.join();
  ::close(pair[0]);
  ::close(pair[1]);

  bool all_answered = true;
  for (const perfbench::Reply& r : loop.replies) all_answered = all_answered && r.recv_ns > 0;
  check(all_answered, "every request of the stall test is answered");
  if (!all_answered) return;
  const auto latency_ms = [&](std::size_t i) {
    return 1e-6 * static_cast<double>(loop.replies[i].recv_ns - loop.due_ns[i]);
  };
  const auto lateness_ms = [&](std::size_t i) {
    return 1e-6 * static_cast<double>(loop.sent_ns[i] - loop.due_ns[i]);
  };
  check(lateness_ms(kStallAt) >= kStallMs, "the stalled request is recorded as late");
  // Requests due during the stall were held back: each is charged the rest
  // of the stall from its own due time.
  bool charged = true;
  for (std::size_t i = kStallAt; i < kStallAt + 25; ++i) {
    const double owed = kStallMs - static_cast<double>(i - kStallAt) - 1.0;
    charged = charged && latency_ms(i) >= owed && latency_ms(i) >= lateness_ms(i);
  }
  check(charged, "requests due during the stall carry its delay in their latency");
  double before = 0.0;
  for (std::size_t i = 0; i < kStallAt; ++i) before = std::max(before, latency_ms(i));
  check(before < kStallMs / 2, "requests answered before the stall are not charged for it");
  const std::vector<double> late = loop.lateness_ms();
  check(*std::max_element(late.begin(), late.end()) >= kStallMs,
        "the generator reports how late it ran");
}

void test_self_time() {
  perfbench::Trace trace(true);
  const int root = trace.add("root", 0, 100);
  trace.add("a", 10, 40, root);
  trace.add("b", 30, 60, root);  // overlaps a: the union is 10..60
  trace.add("c", 90, 120, root);  // clipped to the parent: 90..100
  const std::vector<std::int64_t> self = trace.self_ns();
  check(self[static_cast<std::size_t>(root)] == 100 - 50 - 10,
        "self time subtracts the union of the children, clipped to the parent");
  perfbench::Trace off(false);
  check(off.begin("x") == -1 && off.spans().empty(), "a disabled trace records nothing");
}

}  // namespace

int main() {
  test_percentile_refusal();
  test_failure_accounting();
  test_reply_decoding();
  test_stalled_sender();
  test_self_time();
  if (g_failures == 0) std::cout << "perfbench self-test: all checks passed\n";
  return g_failures == 0 ? 0 : 1;
}
