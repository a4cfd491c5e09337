// The lid_serve subsystem: wire protocol, in-process server round trips,
// backpressure (overloaded / deadline_exceeded), graceful drain, the
// determinism contract (server response payloads byte-identical to direct
// protocol execution), and the robustness stack — cooperative cancellation,
// exact→heuristic degradation, the retrying client, and fault injection
// (docs/robustness.md).
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "serve/faults.hpp"
#include "serve/histogram.hpp"
#include "serve/protocol.hpp"
#include "serve/retry.hpp"
#include "serve/server.hpp"
#include "serve/session.hpp"
#include "util/cancel.hpp"
#include "util/json.hpp"
#include "util/split.hpp"
#include "util/timer.hpp"
#include "verify/certificate.hpp"

namespace {

using namespace lid;

// ---------------------------------------------------------------------------
// Protocol unit tests (no sockets).

TEST(Protocol, ParsesIdVerbAndDeadline) {
  const Result<serve::Request> r =
      serve::parse_request(R"({"id": 7, "verb": "ping", "deadline_ms": 250})");
  ASSERT_TRUE(r);
  EXPECT_TRUE(r->has_id);
  EXPECT_EQ(r->id, "7");
  EXPECT_EQ(r->verb, "ping");
  EXPECT_DOUBLE_EQ(r->deadline_ms, 250.0);

  const Result<serve::Request> anonymous = serve::parse_request(R"({"verb": "ping"})");
  ASSERT_TRUE(anonymous);
  EXPECT_FALSE(anonymous->has_id);
  EXPECT_EQ(serve::request_id_json(*anonymous), "null");
}

TEST(Protocol, RejectsMalformedRequests) {
  EXPECT_EQ(serve::parse_request("not json").error().code, ErrorCode::kParse);
  EXPECT_EQ(serve::parse_request("42").error().code, ErrorCode::kInvalidArgument);
  EXPECT_EQ(serve::parse_request(R"({"id": true, "verb": "ping"})").error().code,
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(serve::parse_request(R"({"id": "1"})").error().code, ErrorCode::kInvalidArgument);
  EXPECT_EQ(serve::parse_request(R"({"verb": "ping", "deadline_ms": -1})").error().code,
            ErrorCode::kInvalidArgument);
}

serve::Outcome run_line(const std::string& line, const serve::ExecLimits& limits = {}) {
  const Result<serve::Request> request = serve::parse_request(line);
  EXPECT_TRUE(request) << line;
  return serve::execute(*request, limits);
}

TEST(Protocol, ExecutesEveryVerb) {
  const serve::Outcome pong = run_line(R"({"verb": "ping"})");
  ASSERT_TRUE(pong.ok);
  EXPECT_EQ(pong.payload, R"({"pong":true})");

  const serve::Outcome generated = run_line(R"({"verb": "generate", "v": 8, "s": 2, "seed": 3})");
  ASSERT_TRUE(generated.ok);
  EXPECT_NE(generated.payload.find("\"netlist\""), std::string::npos);

  // Feed the generated netlist through every netlist-consuming verb.
  const util::JsonParse parsed = util::json_parse(generated.payload);
  ASSERT_TRUE(parsed.ok);
  const std::string netlist = parsed.value.find("netlist")->as_string();
  util::JsonWriter request;
  request.begin_object().key("verb").value("analyze").key("netlist").value(netlist).end_object();
  const serve::Outcome analyzed = run_line(request.str());
  ASSERT_TRUE(analyzed.ok) << analyzed.error_message;
  EXPECT_NE(analyzed.payload.find("\"theta_ideal\""), std::string::npos);

  for (const char* verb : {"parse", "size-queues", "insert-rs", "rate-safety", "lint"}) {
    util::JsonWriter w;
    w.begin_object().key("verb").value(verb).key("netlist").value(netlist).end_object();
    const serve::Outcome outcome = run_line(w.str());
    EXPECT_TRUE(outcome.ok) << verb << ": " << outcome.error_message;
  }

  const serve::Outcome slept = run_line(R"({"verb": "sleep", "ms": 1})");
  ASSERT_TRUE(slept.ok);
  EXPECT_EQ(slept.payload, R"({"slept_ms":1})");
}

TEST(Protocol, ErrorsCarryWireCodes) {
  EXPECT_EQ(run_line(R"({"verb": "no-such-verb"})").error_code, serve::codes::kUnknownVerb);
  EXPECT_EQ(run_line(R"({"verb": "analyze"})").error_code, serve::codes::kInvalidArgument);
  EXPECT_EQ(run_line(R"({"verb": "analyze", "netlist": "core A\nchannel A -> "})").error_code,
            serve::codes::kParse);
  EXPECT_EQ(run_line(R"({"verb": "generate", "v": -3})").error_code,
            serve::codes::kInvalidArgument);
  EXPECT_EQ(run_line(R"({"verb": "sleep", "ms": 99999})").error_code,
            serve::codes::kInvalidArgument);

  serve::ExecLimits tight;
  tight.max_netlist_bytes = 8;
  EXPECT_EQ(run_line(R"({"verb": "analyze", "netlist": "core A\ncore B\n"})", tight).error_code,
            serve::codes::kTooLarge);
}

TEST(Protocol, LintVerbReportsDiagnosticsInsteadOfFailing) {
  // A netlist that parses but deadlocks: the lint verb *succeeds* — the
  // findings ride in the payload rather than an error envelope.
  const char* deadlocked = "core A\ncore B\nchannel A -> B q=0\nchannel B -> A q=0\n";
  util::JsonWriter w;
  w.begin_object().key("verb").value("lint").key("netlist").value(deadlocked).end_object();
  const serve::Outcome outcome = run_line(w.str());
  ASSERT_TRUE(outcome.ok) << outcome.error_message;
  const util::JsonParse doc = util::json_parse(outcome.payload);
  ASSERT_TRUE(doc.ok) << doc.error;
  EXPECT_EQ(doc.value.find("errors")->as_int(), 3);
  EXPECT_FALSE(doc.value.find("clean")->as_bool(true));
  EXPECT_EQ(doc.value.find("diagnostics")->at(0).find("code")->as_string(), "L001");

  // errors_only trims the run to the pre-flight tier.
  util::JsonWriter eo;
  eo.begin_object().key("verb").value("lint").key("netlist").value(deadlocked);
  eo.key("errors_only").value(true).end_object();
  const serve::Outcome trimmed = run_line(eo.str());
  ASSERT_TRUE(trimmed.ok);
  const util::JsonParse trimmed_doc = util::json_parse(trimmed.payload);
  ASSERT_TRUE(trimmed_doc.ok);
  EXPECT_EQ(trimmed_doc.value.find("warnings")->as_int(), 0);

  // A healthy netlist comes back clean.
  util::JsonWriter c;
  c.begin_object().key("verb").value("lint");
  c.key("netlist").value("core A\ncore B\nchannel A -> B\nchannel B -> A\n").end_object();
  const serve::Outcome clean = run_line(c.str());
  ASSERT_TRUE(clean.ok);
  const util::JsonParse clean_doc = util::json_parse(clean.payload);
  ASSERT_TRUE(clean_doc.ok);
  EXPECT_TRUE(clean_doc.value.find("clean")->as_bool(false));
}

TEST(Protocol, LintVerbParsesRationalTargetsAndRejectsBadOnes) {
  // Fig. 1's shape (parallel A -> B channels, one relay station): practical
  // MST 2/3 misses target 1, so the L2xx tier fires.
  const char* fig1 = "core A\ncore B\nchannel A -> B rs=1\nchannel A -> B\n";
  util::JsonWriter w;
  w.begin_object().key("verb").value("lint").key("netlist").value(fig1);
  w.key("target").value("1").end_object();
  const serve::Outcome outcome = run_line(w.str());
  ASSERT_TRUE(outcome.ok) << outcome.error_message;
  EXPECT_NE(outcome.payload.find("\"L201\""), std::string::npos);

  // "2/3" is exactly the practical MST: the target is met, L201 stays quiet.
  util::JsonWriter met;
  met.begin_object().key("verb").value("lint").key("netlist").value(fig1);
  met.key("target").value("2/3").end_object();
  const serve::Outcome satisfied = run_line(met.str());
  ASSERT_TRUE(satisfied.ok);
  EXPECT_EQ(satisfied.payload.find("\"L201\""), std::string::npos);

  for (const char* bad : {"abc", "1/0", "2.5", "-1"}) {
    util::JsonWriter b;
    b.begin_object().key("verb").value("lint").key("netlist").value(fig1);
    b.key("target").value(bad).end_object();
    const serve::Outcome rejected = run_line(b.str());
    EXPECT_FALSE(rejected.ok) << bad;
    EXPECT_EQ(rejected.error_code, serve::codes::kInvalidArgument) << bad;
  }
}

TEST(Protocol, AnalyzeOnDeadlockedNetlistReturnsTheLintWireCode) {
  // The pre-flight rejection crosses the wire as a structured error with its
  // own code — previously this netlist would have tripped a LID_CHECK abort.
  const char* deadlocked = "core A\ncore B\nchannel A -> B q=0\nchannel B -> A q=0\n";
  for (const char* verb : {"analyze", "size-queues"}) {
    util::JsonWriter w;
    w.begin_object().key("verb").value(verb).key("netlist").value(deadlocked).end_object();
    const serve::Outcome outcome = run_line(w.str());
    EXPECT_FALSE(outcome.ok) << verb;
    EXPECT_EQ(outcome.error_code, serve::codes::kLint) << verb;
    EXPECT_NE(outcome.error_message.find("L001"), std::string::npos) << verb;
  }
}

TEST(Protocol, ResponseLineRoundTripsThroughExtractResult) {
  const Result<serve::Request> request = serve::parse_request(R"({"id": "a", "verb": "ping"})");
  ASSERT_TRUE(request);
  const serve::Outcome outcome = serve::execute(*request);
  const std::string line = serve::response_line(*request, outcome, 1.25, 0.5);
  const Result<std::string> result = serve::extract_result(line);
  ASSERT_TRUE(result);
  EXPECT_EQ(*result, outcome.payload);

  const std::string failure =
      serve::error_line("\"a\"", "analyze", serve::codes::kOverloaded, "queue full");
  const Result<std::string> rejected = serve::extract_result(failure);
  ASSERT_FALSE(rejected);
  EXPECT_NE(rejected.error().message.find("overloaded"), std::string::npos);
}

TEST(Histogram, QuantilesAreMonotone) {
  serve::LatencyHistogram h;
  for (int i = 1; i <= 1000; ++i) h.record(static_cast<double>(i) * 0.01);
  const double p50 = h.quantile_ms(0.50);
  const double p95 = h.quantile_ms(0.95);
  const double p99 = h.quantile_ms(0.99);
  EXPECT_GT(p50, 0.0);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  EXPECT_NE(h.to_json().find("\"count\":1000"), std::string::npos);
}

// ---------------------------------------------------------------------------
// In-process server tests over real sockets.

serve::Session connect_or_die(const serve::Server& server) {
  Result<serve::Session> client =
      serve::Session::connect_tcp("127.0.0.1", server.port(), {.protocol = 1});
  EXPECT_TRUE(client) << (client ? "" : client.error().to_string());
  return std::move(client).value();
}

serve::ServerOptions tcp_options(int workers) {
  serve::ServerOptions options;
  options.tcp_port = 0;  // kernel-assigned
  options.workers = workers;
  return options;
}

/// A system whose UNSIMPLIFIED TD instance has a loose counting lower bound,
/// so the exact solver must probe (and a "max_nodes": 1 budget genuinely
/// trips). Requests using it must send "simplify": false — the reductions
/// collapse it to a zero-probe search. Same system as test_queue_sizing's
/// make_loose_bound_system().
const char* const kLooseBoundNetlist =
    "core core0\ncore core1\ncore core2\ncore core3\ncore core4\n"
    "core core5\ncore core6\ncore core7\n"
    "channel core5 -> core3\n"
    "channel core3 -> core2 rs=1\n"
    "channel core2 -> core1 rs=2\n"
    "channel core1 -> core7 rs=2\n"
    "channel core7 -> core0\n"
    "channel core0 -> core6\n"
    "channel core6 -> core4\n"
    "channel core4 -> core5\n"
    "channel core3 -> core7\n"
    "channel core5 -> core6\n"
    "channel core6 -> core7\n";

std::string netlist_fixture(std::uint64_t seed) {
  GenerateOptions options;
  options.cores = 12;
  options.sccs = 3;
  options.extra_cycles = 2;
  options.relay_stations = 4;
  options.seed = seed;
  const Result<Instance> instance = generate(options);
  EXPECT_TRUE(instance);
  const Result<std::string> text = netlist_text(*instance);
  EXPECT_TRUE(text);
  return *text;
}

TEST(Server, RoundTripsEveryVerbOverTcp) {
  serve::Server server(tcp_options(2));
  ASSERT_TRUE(server.start());
  serve::Session client = connect_or_die(server);

  const std::string netlist = netlist_fixture(11);
  std::vector<std::string> lines = {R"({"id": "p", "verb": "ping"})",
                                    R"({"id": "g", "verb": "generate", "v": 6, "s": 2})",
                                    R"({"id": "z", "verb": "sleep", "ms": 1})",
                                    R"({"id": "t", "verb": "stats"})"};
  for (const char* verb : {"parse", "analyze", "size-queues", "insert-rs", "rate-safety",
                           "lint"}) {
    util::JsonWriter w;
    w.begin_object().key("id").value(verb).key("verb").value(verb);
    w.key("netlist").value(netlist).end_object();
    lines.push_back(w.str());
  }
  for (const std::string& line : lines) {
    const Result<std::string> response = client.call(line);
    ASSERT_TRUE(response) << line;
    const Result<std::string> result = serve::extract_result(*response);
    EXPECT_TRUE(result) << line << " -> " << *response;
  }
  server.stop();
}

TEST(Server, AnswersProtocolErrorsWithoutExecuting) {
  serve::ServerOptions options = tcp_options(1);
  options.max_request_bytes = 200;
  serve::Server server(options);
  ASSERT_TRUE(server.start());
  serve::Session client = connect_or_die(server);

  Result<std::string> response = client.call("this is not json");
  ASSERT_TRUE(response);
  EXPECT_NE(response->find(serve::codes::kParse), std::string::npos);

  response = client.call(R"({"id": "u", "verb": "frobnicate"})");
  ASSERT_TRUE(response);
  EXPECT_NE(response->find(serve::codes::kUnknownVerb), std::string::npos);

  // A request line over max_request_bytes is rejected with `too_large`
  // without buffering the rest of the line.
  const std::string huge =
      R"({"id": "h", "verb": "analyze", "netlist": ")" + std::string(500, 'x') + R"("})";
  response = client.call(huge);
  ASSERT_TRUE(response);
  EXPECT_NE(response->find(serve::codes::kTooLarge), std::string::npos);

  // The connection and server survive all of the above.
  response = client.call(R"({"id": "p", "verb": "ping"})");
  ASSERT_TRUE(response);
  EXPECT_NE(response->find("\"pong\":true"), std::string::npos);
  server.stop();
}

TEST(Server, ShedsLoadWhenTheAdmissionQueueIsFull) {
  serve::ServerOptions options = tcp_options(1);
  options.queue_capacity = 1;
  serve::Server server(options);
  ASSERT_TRUE(server.start());
  serve::Session client = connect_or_die(server);

  // Occupy the single worker, then flood: with capacity 1 at most two of the
  // pings can ever be admitted; the rest must be shed immediately (not
  // queued, not blocking the reader).
  const int kPings = 10;
  ASSERT_TRUE(client.send_message(R"({"id": "busy", "verb": "sleep", "ms": 1000})"));
  for (int i = 0; i < kPings; ++i) {
    ASSERT_TRUE(client.send_message(R"({"id": "f)" + std::to_string(i) + R"(", "verb": "ping"})"));
  }

  // All 11 responses arrive (nothing blocks, nothing is dropped); at least
  // kPings - 2 pings are shed, and the shed responses come back while the
  // worker is still sleeping — they never wait behind it.
  util::Timer timer;
  int overloaded = 0;
  double sheds_done_ms = -1.0;
  for (int i = 0; i < kPings + 1; ++i) {
    const Result<std::string> response = client.recv_message();
    ASSERT_TRUE(response);
    if (response->find(serve::codes::kOverloaded) != std::string::npos) {
      ++overloaded;
      if (overloaded == kPings - 2) sheds_done_ms = timer.elapsed_ms();
    }
  }
  EXPECT_GE(overloaded, kPings - 2);
  EXPECT_LT(sheds_done_ms, 900.0) << "shedding must not wait for the busy worker";

  const Result<std::string> stats = client.call(R"({"id": "s", "verb": "stats"})");
  ASSERT_TRUE(stats);
  EXPECT_NE(stats->find("\"shed\":" + std::to_string(overloaded)), std::string::npos) << *stats;
  server.stop();
}

TEST(Server, ExpiredDeadlinesAreAnsweredWithoutExecuting) {
  serve::Server server(tcp_options(1));
  ASSERT_TRUE(server.start());
  serve::Session client = connect_or_die(server);

  // The worker is busy for 300 ms; the second request allows only 1 ms of
  // queueing, so it must come back `deadline_exceeded`, unexecuted.
  ASSERT_TRUE(client.send_message(R"({"id": "busy", "verb": "sleep", "ms": 300})"));
  ASSERT_TRUE(client.send_message(R"({"id": "late", "verb": "ping", "deadline_ms": 1})"));

  bool saw_deadline = false;
  for (int i = 0; i < 2; ++i) {
    const Result<std::string> response = client.recv_message();
    ASSERT_TRUE(response);
    if (response->find("\"late\"") != std::string::npos) {
      EXPECT_NE(response->find(serve::codes::kDeadlineExceeded), std::string::npos) << *response;
      EXPECT_EQ(response->find("\"pong\""), std::string::npos) << "must not execute";
      saw_deadline = true;
    }
  }
  EXPECT_TRUE(saw_deadline);
  server.stop();
}

TEST(Server, DrainCompletesAdmittedRequests) {
  serve::Server server(tcp_options(1));
  ASSERT_TRUE(server.start());
  serve::Session client = connect_or_die(server);

  const std::string netlist = netlist_fixture(13);
  ASSERT_TRUE(client.send_message(R"({"id": "busy", "verb": "sleep", "ms": 100})"));
  for (int i = 0; i < 3; ++i) {
    std::string id(1, 'q');
    util::append_decimal(id, i);
    util::JsonWriter w;
    w.begin_object().key("id").value(id);
    w.key("verb").value("analyze").key("netlist").value(netlist).end_object();
    ASSERT_TRUE(client.send_message(w.str()));
  }
  // Give the reader a moment to admit all four, then initiate the drain the
  // same way the SIGTERM handler does.
  const Result<std::string> first = client.recv_message();  // the sleep: all admitted by now
  ASSERT_TRUE(first);
  EXPECT_NE(first->find("\"busy\""), std::string::npos);
  server.request_stop();

  // Every admitted request still gets its (successful) response.
  for (int i = 0; i < 3; ++i) {
    const Result<std::string> response = client.recv_message();
    ASSERT_TRUE(response) << "response lost in drain";
    EXPECT_TRUE(serve::extract_result(*response)) << *response;
  }
  server.wait();
}

// The determinism contract: a response payload observed through the server
// equals the payload of executing the same request directly, byte for byte,
// regardless of worker count (lid_selfcheck invariant 8 re-checks this on
// random instances).
TEST(Server, PayloadsAreByteIdenticalToDirectExecution) {
  const std::string netlist = netlist_fixture(29);
  std::vector<std::string> lines = {R"({"verb": "generate", "v": 10, "s": 3, "seed": 5})"};
  for (const char* verb : {"parse", "analyze", "size-queues", "insert-rs", "rate-safety",
                           "lint"}) {
    util::JsonWriter w;
    w.begin_object().key("verb").value(verb).key("netlist").value(netlist).end_object();
    lines.push_back(w.str());
  }

  for (const int workers : {1, 4}) {
    serve::Server server(tcp_options(workers));
    ASSERT_TRUE(server.start());
    serve::Session client = connect_or_die(server);
    for (const std::string& line : lines) {
      const serve::Outcome direct = run_line(line);
      ASSERT_TRUE(direct.ok) << line;
      const Result<std::string> response = client.call(line);
      ASSERT_TRUE(response);
      const Result<std::string> served = serve::extract_result(*response);
      ASSERT_TRUE(served) << *response;
      EXPECT_EQ(*served, direct.payload) << "workers=" << workers << ": " << line;
    }
    server.stop();
  }
}

TEST(Server, UnixSocketEndToEnd) {
  serve::ServerOptions options;
  options.unix_socket = ::testing::TempDir() + "lid_serve_test.sock";
  options.workers = 2;
  serve::Server server(options);
  ASSERT_TRUE(server.start());
  Result<serve::Session> connected =
      serve::Session::connect_unix(options.unix_socket, {.protocol = 1});
  ASSERT_TRUE(connected) << (connected ? "" : connected.error().to_string());
  serve::Session client = std::move(connected).value();
  const Result<std::string> response = client.call(R"({"id": 1, "verb": "ping"})");
  ASSERT_TRUE(response);
  EXPECT_NE(response->find("\"pong\":true"), std::string::npos);
  client.close();
  server.stop();

  // A second server on the same path recovers the stale socket file.
  serve::Server again(options);
  EXPECT_TRUE(again.start());
  again.stop();
}

TEST(Server, SecondServerOnALiveSocketFailsAndTheFirstKeepsAnswering) {
  serve::ServerOptions options;
  options.unix_socket = ::testing::TempDir() + "lid_serve_live_test.sock";
  serve::Server first(options);
  ASSERT_TRUE(first.start());

  // The path has a live daemon behind it: a second server must not take it
  // over, and stopping the loser must not remove the winner's socket.
  serve::Server second(options);
  EXPECT_FALSE(second.start());
  second.stop();

  Result<serve::Session> connected =
      serve::Session::connect_unix(options.unix_socket, {.protocol = 1});
  ASSERT_TRUE(connected) << (connected ? "" : connected.error().to_string());
  serve::Session client = std::move(connected).value();
  const Result<std::string> response = client.call(R"({"id": 1, "verb": "ping"})");
  ASSERT_TRUE(response);
  EXPECT_NE(response->find("\"pong\":true"), std::string::npos);
  client.close();
  first.stop();
}

TEST(Server, StatsReportConfigurationAndCounters) {
  serve::ServerOptions options = tcp_options(3);
  options.queue_capacity = 17;
  serve::Server server(options);
  ASSERT_TRUE(server.start());
  serve::Session client = connect_or_die(server);
  ASSERT_TRUE(client.call(R"({"verb": "ping"})"));
  const Result<std::string> response = client.call(R"({"id": "s", "verb": "stats"})");
  ASSERT_TRUE(response);
  const Result<std::string> stats = serve::extract_result(*response);
  ASSERT_TRUE(stats);
  EXPECT_NE(stats->find("\"workers\":3"), std::string::npos);
  EXPECT_NE(stats->find("\"queue_capacity\":17"), std::string::npos);
  EXPECT_NE(stats->find("\"verb_ping\":1"), std::string::npos);
  EXPECT_NE(stats->find("\"latency\""), std::string::npos);
  server.stop();
}

// ---------------------------------------------------------------------------
// Robustness: cancellation, degradation, retries, fault injection.

TEST(Protocol, ParsesOnDeadlinePolicy) {
  const Result<serve::Request> degrade =
      serve::parse_request(R"({"verb": "ping", "on_deadline": "degrade"})");
  ASSERT_TRUE(degrade);
  EXPECT_EQ(degrade->on_deadline, serve::OnDeadline::kDegrade);

  const Result<serve::Request> error =
      serve::parse_request(R"({"verb": "ping", "on_deadline": "error"})");
  ASSERT_TRUE(error);
  EXPECT_EQ(error->on_deadline, serve::OnDeadline::kError);

  EXPECT_EQ(serve::parse_request(R"({"verb": "ping", "on_deadline": "maybe"})").error().code,
            ErrorCode::kInvalidArgument);
}

TEST(Protocol, CancelledSleepStopsWithinOneSlice) {
  const Result<serve::Request> request =
      serve::parse_request(R"({"verb": "sleep", "ms": 5000})");
  ASSERT_TRUE(request);

  // Already-expired token: no sleeping at all.
  serve::ExecContext expired;
  expired.cancel = util::CancelToken::after_ms(0.0);
  util::Timer timer;
  const serve::Outcome immediate = serve::execute(*request, {}, expired);
  EXPECT_FALSE(immediate.ok);
  EXPECT_EQ(immediate.error_code, serve::codes::kDeadlineExceeded);
  EXPECT_LT(timer.elapsed_ms(), 1000.0);

  // A 50 ms budget against a 5000 ms sleep: the slice loop frees the thread
  // soon after expiry — far sooner than the requested sleep (the loose bound
  // absorbs CI scheduling noise on a single CPU).
  serve::ExecContext armed;
  armed.cancel = util::CancelToken::after_ms(50.0);
  timer = util::Timer();
  const serve::Outcome cancelled = serve::execute(*request, {}, armed);
  EXPECT_FALSE(cancelled.ok);
  EXPECT_EQ(cancelled.error_code, serve::codes::kDeadlineExceeded);
  EXPECT_LT(timer.elapsed_ms(), 2500.0);
}

/// Builds a size-queues request line for `netlist`.
std::string size_queues_line(const std::string& netlist, const std::string& solver,
                             std::int64_t max_nodes, bool degrade_policy,
                             double deadline_ms = 0.0, bool simplify = true) {
  util::JsonWriter w;
  w.begin_object();
  w.key("id").value("sq");
  w.key("verb").value("size-queues");
  if (deadline_ms > 0.0) w.key("deadline_ms").value_fixed(deadline_ms, 3);
  if (degrade_policy) w.key("on_deadline").value("degrade");
  w.key("solver").value(solver);
  if (max_nodes > 0) w.key("max_nodes").value(max_nodes);
  if (!simplify) w.key("simplify").value(false);
  w.key("netlist").value(netlist);
  w.end_object();
  return w.str();
}

// The acceptance bar for degradation: a degraded response is byte-identical
// to the same request executed with "solver":"heuristic" directly, with the
// degraded tag only in the envelope.
TEST(Protocol, DegradedPayloadIsByteIdenticalToDirectHeuristic) {
  const std::string netlist = kLooseBoundNetlist;

  // With policy "error", a 1-node budget produces the legacy unproven
  // payload — this pins that the fixture genuinely trips the budget (if it
  // proved at the root, the degrade test below would be vacuous).
  const serve::Outcome probe =
      run_line(size_queues_line(netlist, "both", 1, false, 0.0, /*simplify=*/false));
  ASSERT_TRUE(probe.ok) << probe.error_message;
  EXPECT_FALSE(probe.degraded);
  ASSERT_NE(probe.payload.find("\"exact_proved\":false"), std::string::npos)
      << "fixture must trip a 1-node budget: " << probe.payload;

  const serve::Outcome degraded =
      run_line(size_queues_line(netlist, "both", 1, true, 0.0, /*simplify=*/false));
  ASSERT_TRUE(degraded.ok) << degraded.error_message;
  EXPECT_TRUE(degraded.degraded);

  const serve::Outcome heuristic =
      run_line(size_queues_line(netlist, "heuristic", 0, false, 0.0, /*simplify=*/false));
  ASSERT_TRUE(heuristic.ok) << heuristic.error_message;
  EXPECT_FALSE(heuristic.degraded);
  EXPECT_EQ(degraded.payload, heuristic.payload);
}

// A default (lazy) certified sizing whose exact budget cuts rounds off keeps
// each cut round's heuristic cover: the answer is ok, untagged and unproven,
// still reaches the target, its embedded certificate verifies, and the
// registered model answers the same bytes.
TEST(Server, BudgetCutLazySizingAnswersAVerifiedUnprovenSizing) {
  GenerateOptions options;  // gen --v 8000 --s 80 --c 32 --rs 400 --seed 7
  options.cores = 8'000;
  options.sccs = 80;
  options.extra_cycles = 32;
  options.relay_stations = 400;
  options.seed = 7;
  const Result<Instance> instance = generate(options);
  ASSERT_TRUE(instance);
  const Result<std::string> netlist = netlist_text(*instance);
  ASSERT_TRUE(netlist);
  constexpr const char* kArgs = R"({"certify":true,"max_nodes":2000})";

  serve::Server server(tcp_options(1));
  ASSERT_TRUE(server.start());
  Result<serve::Session> connected = serve::Session::connect_tcp("127.0.0.1", server.port(), {});
  ASSERT_TRUE(connected) << connected.error().to_string();
  serve::Session session = std::move(connected).value();

  util::JsonWriter w;
  w.begin_object();
  w.key("id").value("cut").key("verb").value("size-queues");
  w.key("certify").value(true).key("max_nodes").value(2000);
  w.key("netlist").value(*netlist);
  w.end_object();
  const Result<std::string> response = session.call(w.str());
  ASSERT_TRUE(response) << response.error().to_string();
  const util::JsonParse envelope = util::json_parse(*response);
  ASSERT_TRUE(envelope.ok) << envelope.error;
  const util::Json* ok = envelope.value.find("ok");
  ASSERT_TRUE(ok != nullptr && ok->as_bool()) << response->substr(0, 400);
  EXPECT_EQ(envelope.value.find("degraded"), nullptr);
  const util::Json* result = envelope.value.find("result");
  ASSERT_NE(result, nullptr);
  const util::Json* proved = result->find("exact_proved");
  ASSERT_NE(proved, nullptr);
  EXPECT_FALSE(proved->as_bool());
  EXPECT_EQ(result->find("lazy_fell_back"), nullptr);
  const util::Json* achieved = result->find("achieved");
  ASSERT_NE(achieved, nullptr);
  EXPECT_EQ(achieved->as_string(), "1");
  const util::Json* certificate = result->find("certificate");
  ASSERT_NE(certificate, nullptr);
  const verify::CertificateParse parsed = verify::parse_certificate(*certificate);
  ASSERT_TRUE(parsed) << parsed.error;
  const verify::CheckResult checked = verify::check(instance->graph(), parsed.certificate);
  EXPECT_TRUE(checked.ok) << checked.detail;

  const Result<serve::ModelHandle> handle = session.register_model(*netlist);
  ASSERT_TRUE(handle) << handle.error().to_string();
  const Result<std::string> registered = session.query(*handle, "size-queues", kArgs);
  ASSERT_TRUE(registered) << registered.error().to_string();
  const Result<std::string> inlined = serve::extract_result(*response);
  ASSERT_TRUE(inlined);
  EXPECT_EQ(*registered, *inlined);
  session.close();
  server.stop();
}

TEST(Protocol, DeadlineExpiredAtEntryHonorsPolicy) {
  const std::string netlist = netlist_fixture(11);
  serve::ExecContext expired;
  expired.deadline_expired = true;
  expired.cancel = util::CancelToken::after_ms(0.0);

  // Policy "error": deadline_exceeded without solving.
  const Result<serve::Request> strict =
      serve::parse_request(size_queues_line(netlist, "both", 0, false));
  ASSERT_TRUE(strict);
  const serve::Outcome refused = serve::execute(*strict, {}, expired);
  EXPECT_FALSE(refused.ok);
  EXPECT_EQ(refused.error_code, serve::codes::kDeadlineExceeded);

  // Policy "degrade": the heuristic fallback, tagged, byte-identical to a
  // direct heuristic run.
  const Result<serve::Request> lenient =
      serve::parse_request(size_queues_line(netlist, "both", 0, true));
  ASSERT_TRUE(lenient);
  const serve::Outcome rescued = serve::execute(*lenient, {}, expired);
  ASSERT_TRUE(rescued.ok) << rescued.error_message;
  EXPECT_TRUE(rescued.degraded);
  const serve::Outcome heuristic = run_line(size_queues_line(netlist, "heuristic", 0, false));
  ASSERT_TRUE(heuristic.ok);
  EXPECT_EQ(rescued.payload, heuristic.payload);
}

// End-to-end over a real socket: a request whose deadline expires while
// queued behind a busy worker, sent with "on_deadline":"degrade", comes back
// ok + degraded and matches direct heuristic execution byte for byte.
TEST(Server, QueueExpiredDegradeServesHeuristicFallback) {
  serve::Server server(tcp_options(1));
  ASSERT_TRUE(server.start());
  serve::Session client = connect_or_die(server);
  const std::string netlist = netlist_fixture(11);

  ASSERT_TRUE(client.send_message(R"({"id": "busy", "verb": "sleep", "ms": 200})"));
  ASSERT_TRUE(client.send_message(size_queues_line(netlist, "both", 0, true, 1.0)));

  std::string degraded_response;
  for (int i = 0; i < 2; ++i) {
    const Result<std::string> response = client.recv_message();
    ASSERT_TRUE(response);
    if (response->find("\"sq\"") != std::string::npos) degraded_response = *response;
  }
  ASSERT_FALSE(degraded_response.empty());
  EXPECT_NE(degraded_response.find("\"degraded\":true"), std::string::npos) << degraded_response;
  const Result<std::string> served = serve::extract_result(degraded_response);
  ASSERT_TRUE(served) << degraded_response;
  const serve::Outcome direct = run_line(size_queues_line(netlist, "heuristic", 0, false));
  ASSERT_TRUE(direct.ok);
  EXPECT_EQ(*served, direct.payload);
  server.stop();
}

// The worker-freeing bound of the tentpole: a cancellable request whose
// deadline expires mid-execution must release its worker within a bounded
// interval — here a 5000 ms sleep under a 100 ms deadline answers in far
// less than the sleep would take (bound kept loose for 1-CPU CI).
TEST(Server, DeadlineExpiringMidExecutionFreesTheWorker) {
  serve::Server server(tcp_options(1));
  ASSERT_TRUE(server.start());
  serve::Session client = connect_or_die(server);

  util::Timer timer;
  const Result<std::string> response =
      client.call(R"({"id": "c", "verb": "sleep", "ms": 5000, "deadline_ms": 100})");
  const double elapsed = timer.elapsed_ms();
  ASSERT_TRUE(response);
  EXPECT_NE(response->find(serve::codes::kDeadlineExceeded), std::string::npos) << *response;
  EXPECT_LT(elapsed, 3000.0) << "worker held far past its deadline";

  // The worker is actually free again: an immediate ping succeeds fast.
  const Result<std::string> pong = client.call(R"({"id": "p", "verb": "ping"})");
  ASSERT_TRUE(pong);
  EXPECT_NE(pong->find("\"pong\":true"), std::string::npos);
  server.stop();
}

TEST(Faults, PlanParsesAndRoundTrips) {
  const Result<serve::FaultPlan> plan =
      serve::FaultPlan::parse("seed=42,stall=0.1:50,torn=0.05,drop=0.02,garbage=0.01");
  ASSERT_TRUE(plan) << plan.error().to_string();
  EXPECT_EQ(plan->seed, 42u);
  EXPECT_DOUBLE_EQ(plan->stall_p, 0.1);
  EXPECT_DOUBLE_EQ(plan->stall_ms, 50.0);
  EXPECT_DOUBLE_EQ(plan->torn_p, 0.05);
  EXPECT_DOUBLE_EQ(plan->drop_p, 0.02);
  EXPECT_DOUBLE_EQ(plan->garbage_p, 0.01);
  EXPECT_TRUE(plan->any());

  const Result<serve::FaultPlan> again = serve::FaultPlan::parse(plan->to_string());
  ASSERT_TRUE(again);
  EXPECT_EQ(again->to_string(), plan->to_string());

  const Result<serve::FaultPlan> empty = serve::FaultPlan::parse("");
  ASSERT_TRUE(empty);
  EXPECT_FALSE(empty->any());

  EXPECT_FALSE(serve::FaultPlan::parse("torn=1.5"));
  EXPECT_FALSE(serve::FaultPlan::parse("bogus=1"));
  EXPECT_FALSE(serve::FaultPlan::parse("torn=abc"));
  EXPECT_FALSE(serve::FaultPlan::parse("torn=0.6,drop=0.6"));  // sum > 1
}

TEST(Faults, InjectorIsSeededAndCountsDecisions) {
  serve::FaultPlan plan;
  plan.seed = 7;
  plan.drop_p = 0.5;
  serve::FaultInjector a(plan);
  serve::FaultInjector b(plan);
  int drops = 0;
  for (int i = 0; i < 200; ++i) {
    const serve::FaultDecision da = a.decide();
    const serve::FaultDecision db = b.decide();
    EXPECT_EQ(da.drop, db.drop) << "same seed must give the same sequence";
    if (da.drop) ++drops;
  }
  EXPECT_EQ(a.drops(), drops);
  EXPECT_GT(drops, 50);   // ~100 expected
  EXPECT_LT(drops, 150);
  EXPECT_NE(a.stats_json().find("\"drops\":" + std::to_string(drops)), std::string::npos);
}

// A retrying client pointed at a server that tears, drops and corrupts
// frames still completes every (idempotent) request — the chaos-smoke CI
// job re-checks this against a real daemon via lid_loadgen.
TEST(Server, RetryingClientSurvivesInjectedFaults) {
  serve::ServerOptions options = tcp_options(2);
  const Result<serve::FaultPlan> plan =
      serve::FaultPlan::parse("seed=3,stall=0.1:5,torn=0.15,drop=0.15,garbage=0.1");
  ASSERT_TRUE(plan);
  options.fault_plan = *plan;
  serve::Server server(options);
  ASSERT_TRUE(server.start());

  serve::RetryPolicy policy;
  policy.max_attempts = 25;          // ~40% fault rate: 25 attempts make
  policy.base_backoff_ms = 1.0;      // failure astronomically unlikely
  policy.max_backoff_ms = 10.0;
  policy.breaker_threshold = 0;      // faults are random; don't trip fast-fail
  serve::RetryingClient client(
      [&]() { return serve::Session::connect_tcp("127.0.0.1", server.port(), {.protocol = 1}); },
      policy);

  int ok = 0;
  for (int i = 0; i < 40; ++i) {
    const Result<std::string> response =
        client.call(R"({"id": )" + std::to_string(i) + R"(, "verb": "ping"})");
    ASSERT_TRUE(response) << response.error().to_string();
    EXPECT_NE(response->find("\"pong\":true"), std::string::npos);
    ++ok;
  }
  EXPECT_EQ(ok, 40);
  EXPECT_GT(client.stats().retries, 0) << "the plan injected nothing?";
  EXPECT_GT(client.stats().reconnects, 1);
  EXPECT_EQ(client.stats().giveups, 0);

  // The server counted its own injections and exposes them via stats.
  const Result<std::string> stats_line =
      client.call(R"({"id": "s", "verb": "stats"})");
  ASSERT_TRUE(stats_line);
  EXPECT_NE(stats_line->find("\"faults\""), std::string::npos) << *stats_line;
  server.stop();
}

TEST(Retry, CircuitBreakerFailsFastAgainstADeadEndpoint) {
  serve::RetryPolicy policy;
  policy.max_attempts = 2;
  policy.base_backoff_ms = 0.0;
  policy.max_backoff_ms = 0.0;
  policy.breaker_threshold = 2;
  policy.breaker_cooldown_ms = 60'000.0;  // stays open for the whole test
  serve::RetryingClient client(
      [] { return serve::Session::connect_unix("/nonexistent/lid-test.sock", {.protocol = 1}); },
      policy);

  const Result<std::string> first = client.call(R"({"verb": "ping"})");
  EXPECT_FALSE(first);
  EXPECT_TRUE(client.breaker_open());

  const Result<std::string> second = client.call(R"({"verb": "ping"})");
  EXPECT_FALSE(second);
  EXPECT_NE(second.error().message.find("circuit breaker open"), std::string::npos);
  EXPECT_EQ(client.stats().breaker_fast_fails, 1);
  // The fast-fail made no network attempt beyond the first call's two.
  EXPECT_EQ(client.stats().attempts, 2);
}

TEST(Retry, OverloadedResponsesAreRetriedWithoutFeedingTheBreaker) {
  serve::ServerOptions options = tcp_options(1);
  options.queue_capacity = 1;
  serve::Server server(options);
  ASSERT_TRUE(server.start());

  // Saturate the single worker + single queue slot.
  serve::Session saturator = connect_or_die(server);
  ASSERT_TRUE(saturator.send_message(R"({"id": "b1", "verb": "sleep", "ms": 400})"));
  ASSERT_TRUE(saturator.send_message(R"({"id": "b2", "verb": "sleep", "ms": 400})"));

  serve::RetryPolicy policy;
  policy.max_attempts = 50;
  policy.base_backoff_ms = 20.0;
  policy.max_backoff_ms = 100.0;
  serve::RetryingClient client(
      [&]() { return serve::Session::connect_tcp("127.0.0.1", server.port(), {.protocol = 1}); },
      policy);
  const Result<std::string> response = client.call(R"({"id": "r", "verb": "ping"})");
  ASSERT_TRUE(response) << response.error().to_string();
  EXPECT_NE(response->find("\"pong\":true"), std::string::npos)
      << "retries should outlast the ~800 ms saturation: " << *response;
  EXPECT_FALSE(client.breaker_open());
  server.stop();
}

TEST(Session, RecvTimeoutReturnsTimeoutError) {
  serve::Server server(tcp_options(1));
  ASSERT_TRUE(server.start());
  serve::Session client = connect_or_die(server);
  ASSERT_TRUE(client.send_message(R"({"id": "z", "verb": "sleep", "ms": 400})"));
  const Result<std::string> timed_out = client.recv_message(30.0);
  ASSERT_FALSE(timed_out);
  EXPECT_EQ(timed_out.error().code, ErrorCode::kTimeout);
  // The full response is still readable afterwards (nothing was consumed).
  const Result<std::string> eventual = client.recv_message();
  ASSERT_TRUE(eventual);
  EXPECT_NE(eventual->find("\"slept_ms\":400"), std::string::npos);
  server.stop();
}

// Every malformed corpus input produces a structured error response — the
// server survives the entire corpus on one connection.
TEST(Server, MalformedCorpusGetsStructuredErrors) {
  const std::filesystem::path dir = LID_MALFORMED_DIR;
  ASSERT_TRUE(std::filesystem::is_directory(dir)) << dir;
  serve::Server server(tcp_options(1));
  ASSERT_TRUE(server.start());
  serve::Session client = connect_or_die(server);

  int netlists = 0;
  int documents = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    std::ifstream in(entry.path());
    std::stringstream buffer;
    buffer << in.rdbuf();
    if (entry.path().extension() == ".lis") {
      ++netlists;
      // The malformed netlist rides inside a valid request: the parser must
      // answer with a structured parse error, not crash or hang.
      util::JsonWriter w;
      w.begin_object().key("id").value(entry.path().filename().string());
      w.key("verb").value("parse").key("netlist").value(buffer.str()).end_object();
      const Result<std::string> response = client.call(w.str());
      ASSERT_TRUE(response) << entry.path().filename();
      EXPECT_NE(response->find("\"ok\":false"), std::string::npos) << *response;
      EXPECT_NE(response->find(serve::codes::kParse), std::string::npos) << *response;
    } else if (entry.path().extension() == ".json") {
      ++documents;
      // The malformed document IS the request line. Multi-line files send
      // only their first line (the protocol is line-delimited); empty files
      // degenerate to a blank line the server ignores, so skip those.
      const std::string line = buffer.str().substr(0, buffer.str().find('\n'));
      if (line.empty()) continue;
      const Result<std::string> response = client.call(line);
      ASSERT_TRUE(response) << entry.path().filename();
      EXPECT_NE(response->find("\"ok\":false"), std::string::npos)
          << entry.path().filename() << " -> " << *response;
    }
  }
  EXPECT_GE(netlists, 6) << "malformed netlist corpus went missing";
  EXPECT_GE(documents, 5);

  // The connection survived everything above.
  const Result<std::string> pong = client.call(R"({"id": "p", "verb": "ping"})");
  ASSERT_TRUE(pong);
  EXPECT_NE(pong->find("\"pong\":true"), std::string::npos);
  server.stop();
}

}  // namespace
