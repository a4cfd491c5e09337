// Micro-benchmarks for the lid_serve subsystem: wire-protocol parse and
// serialize costs, pure in-process request execution (the work a server
// worker does per request), and full socket round trips through a running
// in-process server over a Unix socket — the serving overhead on top of the
// analysis itself.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "lid_api.hpp"
#include "serve/protocol.hpp"
#include "serve/retry.hpp"
#include "serve/server.hpp"
#include "serve/session.hpp"
#include "util/cancel.hpp"
#include "util/json.hpp"

namespace {

using namespace lid;

std::string analyze_request_line(int cores, std::uint64_t seed) {
  GenerateOptions options;
  options.cores = cores;
  options.sccs = 3;
  options.extra_cycles = 2;
  options.relay_stations = 5;
  options.seed = seed;
  const Result<Instance> instance = generate(options);
  const Result<std::string> text = netlist_text(*instance);
  util::JsonWriter w;
  w.begin_object();
  w.key("id").value(1).key("verb").value("analyze").key("netlist").value(*text);
  w.end_object();
  return w.str();
}

void BM_ParseRequest(benchmark::State& state) {
  const std::string line = analyze_request_line(static_cast<int>(state.range(0)), 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(serve::parse_request(line));
  }
  state.counters["bytes"] = static_cast<double>(line.size());
}
BENCHMARK(BM_ParseRequest)->Arg(20)->Arg(100);

void BM_ExecuteAnalyze(benchmark::State& state) {
  const std::string line = analyze_request_line(static_cast<int>(state.range(0)), 7);
  const Result<serve::Request> request = serve::parse_request(line);
  for (auto _ : state) {
    benchmark::DoNotOptimize(serve::execute(*request));
  }
}
BENCHMARK(BM_ExecuteAnalyze)->Arg(20)->Arg(100);

void BM_ResponseSerialize(benchmark::State& state) {
  const std::string line = analyze_request_line(50, 7);
  const Result<serve::Request> request = serve::parse_request(line);
  const serve::Outcome outcome = serve::execute(*request);
  for (auto _ : state) {
    benchmark::DoNotOptimize(serve::response_line(*request, outcome, 1.0, 0.1));
  }
}
BENCHMARK(BM_ResponseSerialize);

/// One client, blocking request/response over a Unix socket: measures the
/// full serving overhead (framing, queueing, scheduling, write-back) around
/// the same execute() measured above.
void BM_SocketRoundTrip(benchmark::State& state) {
  serve::ServerOptions options;
  options.unix_socket = "/tmp/lid_bench_serve.sock";
  options.workers = static_cast<int>(state.range(0));
  serve::Server server(options);
  if (!server.start()) {
    state.SkipWithError("server failed to start");
    return;
  }
  Result<serve::Session> connected =
      serve::Session::connect_unix(options.unix_socket, {.protocol = 1});
  if (!connected) {
    state.SkipWithError("client failed to connect");
    return;
  }
  serve::Session client = std::move(connected).value();
  const std::string line = analyze_request_line(20, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(client.call(line));
  }
  client.close();
  server.stop();
}
BENCHMARK(BM_SocketRoundTrip)->Arg(1)->Arg(2)->Unit(benchmark::kMicrosecond);

void BM_PingRoundTrip(benchmark::State& state) {
  serve::ServerOptions options;
  options.unix_socket = "/tmp/lid_bench_ping.sock";
  options.workers = 1;
  serve::Server server(options);
  if (!server.start()) {
    state.SkipWithError("server failed to start");
    return;
  }
  Result<serve::Session> connected =
      serve::Session::connect_unix(options.unix_socket, {.protocol = 1});
  if (!connected) {
    state.SkipWithError("client failed to connect");
    return;
  }
  serve::Session client = std::move(connected).value();
  const std::string line = R"({"id": 1, "verb": "ping"})";
  for (auto _ : state) {
    benchmark::DoNotOptimize(client.call(line));
  }
  client.close();
  server.stop();
}
BENCHMARK(BM_PingRoundTrip)->Unit(benchmark::kMicrosecond);

/// Cancellation latency: how long a hot solve keeps running after its token
/// has already fired. Measures execute() on a size-queues request with an
/// expired token — the reported time IS the cancellation-detection overhead
/// plus the degrade fallback (heuristic rerun), i.e. the worker-freeing
/// bound of the robustness docs.
void BM_CancellationLatency(benchmark::State& state) {
  GenerateOptions gen;
  gen.cores = static_cast<int>(state.range(0));
  gen.sccs = 3;
  gen.extra_cycles = 2;
  gen.relay_stations = 5;
  gen.seed = 7;
  const Result<Instance> instance = generate(gen);
  const Result<std::string> text = netlist_text(*instance);
  util::JsonWriter w;
  w.begin_object();
  w.key("id").value(1).key("verb").value("size-queues");
  w.key("solver").value("both").key("on_deadline").value("degrade");
  w.key("netlist").value(*text);
  w.end_object();
  const Result<serve::Request> request = serve::parse_request(w.str());
  serve::ExecContext expired;
  expired.cancel = util::CancelToken::after_ms(0.0);
  expired.deadline_expired = true;
  for (auto _ : state) {
    benchmark::DoNotOptimize(serve::execute(*request, {}, expired));
  }
}
BENCHMARK(BM_CancellationLatency)->Arg(20)->Arg(100)->Unit(benchmark::kMicrosecond);

/// The protocol-v2 register-once/query-many lane against the inline lane of
/// BM_SocketRoundTrip: the same analyze on the same model, but addressed by
/// fingerprint, so the server answers from the registered model's payload
/// memo after the first hit and the request shrinks from a full netlist to
/// ~60 bytes. Arg switches the transport (0 = NDJSON, 1 = binary frames).
void BM_RegisteredAnalyzeRoundTrip(benchmark::State& state) {
  serve::ServerOptions options;
  options.unix_socket = "/tmp/lid_bench_registered.sock";
  options.workers = 1;
  serve::Server server(options);
  if (!server.start()) {
    state.SkipWithError("server failed to start");
    return;
  }
  serve::SessionOptions session_options;
  session_options.binary = state.range(0) != 0;
  Result<serve::Session> connected =
      serve::Session::connect_unix(options.unix_socket, session_options);
  if (!connected) {
    state.SkipWithError("session failed to connect");
    return;
  }
  serve::Session session = std::move(connected).value();

  GenerateOptions gen;
  gen.cores = 20;
  gen.sccs = 3;
  gen.extra_cycles = 2;
  gen.relay_stations = 5;
  gen.seed = 7;  // the same model BM_SocketRoundTrip sends inline
  const Result<Instance> instance = generate(gen);
  const Result<std::string> text = netlist_text(*instance);
  const Result<serve::ModelHandle> handle = session.register_model(*text);
  if (!handle) {
    state.SkipWithError("register-model failed");
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(session.query(*handle, "analyze"));
  }
  session.close();
  server.stop();
}
BENCHMARK(BM_RegisteredAnalyzeRoundTrip)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

/// Retry-path overhead: the RetryingClient wrapper around a healthy server
/// (no faults, every call succeeds first try) against the bare Session of
/// BM_PingRoundTrip — the cost of the validation + bookkeeping layer alone.
void BM_RetryOverhead(benchmark::State& state) {
  serve::ServerOptions options;
  options.unix_socket = "/tmp/lid_bench_retry.sock";
  options.workers = 1;
  serve::Server server(options);
  if (!server.start()) {
    state.SkipWithError("server failed to start");
    return;
  }
  serve::RetryPolicy policy;
  policy.max_attempts = 3;
  serve::RetryingClient client(
      [&]() { return serve::Session::connect_unix(options.unix_socket, {.protocol = 1}); },
      policy);
  const std::string line = R"({"id": 1, "verb": "ping"})";
  for (auto _ : state) {
    benchmark::DoNotOptimize(client.call(line));
  }
  server.stop();
}
BENCHMARK(BM_RetryOverhead)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
