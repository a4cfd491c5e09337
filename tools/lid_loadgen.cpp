// lid_loadgen — closed-loop load generator for lid_serve.
//
//   lid_loadgen --socket /run/lid.sock [--clients N] [--seconds S]
//               [--verb analyze] [--deadline-ms D] [--on-deadline degrade]
//               [--retries N] [--attempt-timeout-ms T] [--backoff-ms B]
//               [--solver lazy|full|both|exact|heuristic] [--max-nodes N]
//               [--v N --s N --c N --rs N --seed N --instances N]
//               [--sleep-ms N] [--registered] [--transport ndjson|binary]
//               [--certify] [--json]
//
// Each client opens one connection and issues requests back to back (send,
// wait for the response, send the next — a closed loop, so offered load
// adapts to server latency). The workload cycles through `--instances`
// pre-generated netlists. At the end it reports offered load, goodput
// (successful responses/s), shed rate, and exact client-side p50/p95/p99
// latency — the numbers Little's Law and the M/M/1 lens want (see
// EXPERIMENTS.md "Serving under load").
//
// Resilience knobs (docs/robustness.md): `--retries N` allows N retry
// attempts per request through serve::RetryingClient (reconnect + backoff
// with decorrelated jitter + circuit breaker); transport failures then only
// count as errors after retries are exhausted. `--on-deadline degrade` asks
// the server for a heuristic fallback instead of `deadline_exceeded`; the
// summary separately counts `degraded` responses. All protocol verbs are
// idempotent, so retrying is always safe here.
//
// `--solver` is passed through to `size-queues` verbatim; omit it to use the
// server default (lazy constraint generation). "full" is the server's alias
// for the eager heuristic+exact pipeline.
//
// `--certify` (analyze / size-queues workloads) asks the server to attach an
// optimality certificate to every response, then re-checks each one locally
// with the independent O(E) checker (src/verify). The summary reports the
// certified share of successful responses and the verify-failure count; any
// verify failure makes the run exit 2 — a server that returns certificates
// its own clients cannot validate is broken.
//
// Protocol-v2 knobs: `--registered` switches the model-addressed verbs
// (analyze, size-queues, lint, rate-safety) to the register-once/query-many
// pattern — each client registers every workload netlist on connect (via the
// retry layer's session_warmup, so a reconnect re-registers) and then sends
// ~60-byte fingerprint requests instead of inline netlists; the summary adds
// the server's registry memo hit rate. `--transport binary` sends requests on
// the length-prefixed frame lane. Either flag upgrades the connection to
// protocol 2 via `hello`.
//
// Cluster knobs (docs/cluster.md): `--cluster` replaces the single-verb
// workload with a mixed scenario shaped like real traffic against a sharded
// deployment — four analysis verbs, hot/cold model skew (a quarter of the
// models take ~80% of the load, exercising the router's registry affinity),
// and three diurnal phases per cycle (two work-heavy, one quiet with pings).
// `--requests N` runs exactly N requests per client instead of a wall-clock
// budget, so replays are count-exact. `--trace-out F` records the generated
// workload (header + netlists + request templates, all verbatim strings — no
// floats re-parsed, so the file is byte-stable) and `--trace-in F` replays it
// identically; CI's cluster-smoke job records one trace and replays it after
// a rolling restart to prove the same workload survives both topologies.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <csignal>
#include <fstream>
#include <iostream>
#include <map>
#include <thread>
#include <vector>

#include "lid_api.hpp"
#include "serve/protocol.hpp"
#include "serve/registry.hpp"
#include "serve/retry.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

using namespace lid;

struct ClientStats {
  std::int64_t sent = 0;
  std::int64_t ok = 0;
  std::int64_t degraded = 0;
  std::int64_t shed = 0;
  std::int64_t deadline_exceeded = 0;
  std::int64_t other_errors = 0;
  std::int64_t retries = 0;
  std::int64_t reconnects = 0;
  std::int64_t breaker_fast_fails = 0;
  std::int64_t certified = 0;        ///< ok responses carrying a certificate
  std::int64_t verify_failures = 0;  ///< certificates the local checker rejected
  std::vector<double> latencies_ms;
  std::string first_error;
};

double percentile(std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::min(sorted.size() - 1, rank == 0 ? 0 : rank - 1)];
}

/// The recorded workload: request templates (each ends at `"id":`, the client
/// splices a per-request id) plus the netlists `--registered` warmup must
/// register. Strings only — replay is byte-exact, no floats are re-parsed.
struct Workload {
  std::string scenario = "default";
  std::uint64_t seed = 0;
  bool registered = false;
  std::vector<std::string> request_bodies;
  std::vector<std::string> netlist_texts;
};

bool write_trace(const std::string& path, const Workload& load) {
  std::ofstream out(path);
  if (!out) return false;
  util::JsonWriter header;
  header.begin_object();
  header.key("lid_trace").value(1);
  header.key("scenario").value(load.scenario);
  header.key("seed").value(static_cast<std::int64_t>(load.seed));
  header.key("registered").value(load.registered);
  header.key("netlists").value(static_cast<std::int64_t>(load.netlist_texts.size()));
  header.key("requests").value(static_cast<std::int64_t>(load.request_bodies.size()));
  header.end_object();
  out << header.str() << "\n";
  for (const std::string& text : load.netlist_texts) {
    util::JsonWriter w;
    w.begin_object().key("netlist").value(text).end_object();
    out << w.str() << "\n";
  }
  for (const std::string& body : load.request_bodies) {
    util::JsonWriter w;
    w.begin_object().key("body").value(body).end_object();
    out << w.str() << "\n";
  }
  return out.good();
}

bool read_trace(const std::string& path, Workload& load, std::string& error) {
  std::ifstream in(path);
  if (!in) {
    error = "cannot open " + path;
    return false;
  }
  std::string line;
  bool saw_header = false;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const util::JsonParse parsed = util::json_parse(line);
    if (!parsed.ok || !parsed.value.is_object()) {
      error = "malformed trace line: " + line.substr(0, 80);
      return false;
    }
    if (!saw_header) {
      const util::Json* version = parsed.value.find("lid_trace");
      if (version == nullptr || !version->is_number() || version->as_int() != 1) {
        error = "not a lid_trace v1 file (bad header)";
        return false;
      }
      if (const util::Json* s = parsed.value.find("scenario")) load.scenario = s->as_string();
      if (const util::Json* s = parsed.value.find("seed")) {
        load.seed = static_cast<std::uint64_t>(s->as_int());
      }
      if (const util::Json* r = parsed.value.find("registered")) load.registered = r->as_bool();
      saw_header = true;
      continue;
    }
    if (const util::Json* netlist = parsed.value.find("netlist")) {
      load.netlist_texts.push_back(netlist->as_string());
    } else if (const util::Json* body = parsed.value.find("body")) {
      load.request_bodies.push_back(body->as_string());
    } else {
      error = "trace record is neither netlist nor body: " + line.substr(0, 80);
      return false;
    }
  }
  if (!saw_header || load.request_bodies.empty()) {
    error = "trace holds no requests";
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const util::Cli cli(argc, argv);
    const std::string socket_path = cli.get_string("socket", "");
    const std::string host = cli.get_string("host", "127.0.0.1");
    const int port = socket_path.empty()
                         ? static_cast<int>(cli.get_int_in("port", 0, 1, 65535))
                         : -1;
    const int clients = static_cast<int>(cli.get_int_in("clients", 4, 1, 1024));
    const double seconds = cli.get_double_in("seconds", 5.0, 0.1, 3600.0);
    const std::string verb = cli.get_string("verb", "analyze");
    const double deadline_ms = cli.get_double_in("deadline-ms", 0.0, 0.0, 1e9);
    const std::string on_deadline = cli.get_string("on-deadline", "error");
    if (on_deadline != "error" && on_deadline != "degrade") {
      std::cerr << "lid_loadgen: --on-deadline must be 'error' or 'degrade'\n";
      return 1;
    }
    const std::string solver = cli.get_string("solver", "");
    const std::int64_t max_nodes = cli.get_int_in("max-nodes", 0, 0, 100'000'000);
    const std::int64_t sleep_ms = cli.get_int_in("sleep-ms", 1, 0, 10'000);
    const int instances = static_cast<int>(cli.get_int_in("instances", 8, 1, 1024));
    const bool as_json = cli.get_bool("json", false);

    const bool registered_flag = cli.get_bool("registered", false);
    const bool certify = cli.get_bool("certify", false);
    const bool cluster_scenario = cli.get_bool("cluster", false);
    const std::string trace_out = cli.get_string("trace-out", "");
    const std::string trace_in = cli.get_string("trace-in", "");
    const std::int64_t requests_per_client = cli.get_int_in("requests", 0, 0, 100'000'000);
    const std::string transport = cli.get_string("transport", "");
    if (!transport.empty() && transport != "ndjson" && transport != "binary") {
      std::cerr << "lid_loadgen: --transport must be 'ndjson' or 'binary'\n";
      return 1;
    }
    if (registered_flag && !cluster_scenario && trace_in.empty() && verb != "analyze" &&
        verb != "size-queues" && verb != "lint" && verb != "rate-safety") {
      std::cerr << "lid_loadgen: --registered applies to analyze, size-queues, lint or "
                   "rate-safety\n";
      return 1;
    }
    // Local verification needs the generated instances in hand, so --certify
    // is a generated-workload knob for the two certifying verbs only.
    if (certify && (cluster_scenario || !trace_in.empty() ||
                    (verb != "analyze" && verb != "size-queues"))) {
      std::cerr << "lid_loadgen: --certify applies to generated analyze or size-queues "
                   "workloads (not --cluster / --trace-in)\n";
      return 1;
    }

    serve::RetryPolicy retry_policy;
    retry_policy.max_attempts =
        1 + static_cast<int>(cli.get_int_in("retries", 0, 0, 100));
    retry_policy.attempt_timeout_ms = cli.get_double_in("attempt-timeout-ms", 0.0, 0.0, 1e9);
    retry_policy.base_backoff_ms = cli.get_double_in("backoff-ms", 5.0, 0.0, 60'000.0);

    // A peer reset while writing must surface as an EPIPE send error the
    // retry layer can handle, not kill the process.
    std::signal(SIGPIPE, SIG_IGN);

    // Pre-generate the request workload: `instances` distinct netlists.
    lid::GenerateOptions gen;
    gen.cores = static_cast<int>(cli.get_int_in("v", 20, 2, 2000));
    gen.sccs = static_cast<int>(cli.get_int_in("s", 3, 1, 2000));
    gen.extra_cycles = static_cast<int>(cli.get_int_in("c", 2, 0, 2000));
    gen.relay_stations = static_cast<int>(cli.get_int_in("rs", 5, 0, 2000));
    // Hoisted so the summary can report the effective seed: reruns of a
    // recorded summary reproduce the exact same workload.
    const std::uint64_t workload_seed =
        static_cast<std::uint64_t>(cli.get_int_in("seed", 1, 0, 1'000'000'000));
    util::Rng seeder(workload_seed);

    Workload load;
    load.seed = workload_seed;
    load.registered = registered_flag;
    // --certify: fingerprint -> generated instance, for local re-checking of
    // returned certificates (read-only once the workload is built).
    std::map<std::string, Instance> verify_instances;
    if (!trace_in.empty()) {
      // Replay: the trace header decides registered/scenario; CLI workload
      // flags are ignored so the replayed byte stream matches the recording.
      load = Workload{};
      std::string trace_error;
      if (!read_trace(trace_in, load, trace_error)) {
        std::cerr << "lid_loadgen: --trace-in: " << trace_error << "\n";
        return 1;
      }
    } else if (cluster_scenario) {
      load.scenario = "cluster";
      // `instances` distinct models; the first quarter are "hot" and absorb
      // ~80% of the model-addressed load, so a consistent-hash router keeps
      // serving most requests from warm registry memos.
      const int hot_models = std::max(1, instances / 4);
      std::vector<std::string> fingerprints;
      for (int i = 0; i < instances; ++i) {
        gen.seed = seeder.fork_seed();
        const Result<Instance> instance = lid::generate(gen);
        if (!instance) {
          std::cerr << "lid_loadgen: generate: " << instance.error().to_string() << "\n";
          return 1;
        }
        const Result<std::string> text = lid::netlist_text(*instance);
        if (!text) {
          std::cerr << "lid_loadgen: " << text.error().to_string() << "\n";
          return 1;
        }
        load.netlist_texts.push_back(*text);
        fingerprints.push_back(serve::Registry::fingerprint(*text));
      }
      // Three diurnal phases per 96-slot cycle: two work-heavy bursts and a
      // quiet phase that mostly pings. Integer draws only — the same seed
      // always yields the same request sequence.
      constexpr int kCycle = 96;
      for (int slot = 0; slot < kCycle; ++slot) {
        const int phase = (slot * 3) / kCycle;
        const int draw = seeder.uniform_int(0, 99);
        const char* slot_verb = nullptr;
        if (phase == 2) {
          slot_verb = draw < 50 ? "ping" : (draw < 80 ? "lint" : "analyze");
        } else {
          slot_verb = draw < 45   ? "analyze"
                      : draw < 65 ? "size-queues"
                      : draw < 85 ? "lint"
                                  : "rate-safety";
        }
        util::JsonWriter w;
        w.begin_object();
        w.key("verb").value(slot_verb);
        if (std::string(slot_verb) != "ping") {
          const bool hot = seeder.uniform_int(0, 99) < 80;
          const std::size_t model =
              hot || instances == hot_models
                  ? static_cast<std::size_t>(seeder.uniform_int(0, hot_models - 1))
                  : static_cast<std::size_t>(seeder.uniform_int(hot_models, instances - 1));
          if (load.registered) {
            w.key("model").value(fingerprints[model]);
          } else {
            w.key("netlist").value(load.netlist_texts[model]);
          }
        }
        w.key("id");
        load.request_bodies.push_back(w.str());
      }
      if (!load.registered) load.netlist_texts.clear();
    } else {
      for (int i = 0; i < instances; ++i) {
        util::JsonWriter w;
        w.begin_object();
        w.key("verb").value(verb);
        if (deadline_ms > 0.0) w.key("deadline_ms").value_fixed(deadline_ms, 3);
        if (on_deadline == "degrade") w.key("on_deadline").value(on_deadline);
        if (verb == "size-queues") {
          if (!solver.empty()) w.key("solver").value(solver);
          if (max_nodes > 0) w.key("max_nodes").value(max_nodes);
        }
        if (certify) w.key("certify").value(true);
        if (verb == "sleep") {
          w.key("ms").value(sleep_ms);
        } else if (verb != "ping" && verb != "stats") {
          gen.seed = seeder.fork_seed();
          const Result<Instance> instance = lid::generate(gen);
          if (!instance) {
            std::cerr << "lid_loadgen: generate: " << instance.error().to_string() << "\n";
            return 1;
          }
          const Result<std::string> text = lid::netlist_text(*instance);
          if (!text) {
            std::cerr << "lid_loadgen: " << text.error().to_string() << "\n";
            return 1;
          }
          if (certify) {
            // Keep the instance for local re-checking, keyed by the same
            // fingerprint recipe the certificate carries.
            verify_instances.emplace(serve::Registry::fingerprint(*text), *instance);
          }
          if (load.registered) {
            // netlist_text output is already canonical, so the fingerprint can
            // be computed locally; warmup registration confirms it server-side.
            load.netlist_texts.push_back(*text);
            w.key("model").value(serve::Registry::fingerprint(*text));
          } else {
            w.key("netlist").value(*text);
          }
        }
        // The per-request id is appended by each client (key must be last-less;
        // JsonWriter cannot reopen, so clients splice it via a template).
        w.key("id");
        load.request_bodies.push_back(w.str());
      }
    }
    if (!trace_out.empty() && !write_trace(trace_out, load)) {
      std::cerr << "lid_loadgen: cannot write trace to " << trace_out << "\n";
      return 1;
    }
    const bool registered = load.registered;
    const std::vector<std::string>& request_bodies = load.request_bodies;
    const std::vector<std::string>& netlist_texts = load.netlist_texts;

    serve::SessionOptions session_options;
    session_options.binary = transport == "binary";
    session_options.protocol = (registered || session_options.binary) ? 2 : 1;

    std::atomic<bool> stop{false};
    std::vector<ClientStats> stats(static_cast<std::size_t>(clients));
    std::vector<std::thread> threads;
    util::Timer run_timer;

    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        ClientStats& s = stats[static_cast<std::size_t>(c)];
        serve::RetryPolicy policy = retry_policy;
        policy.jitter_seed = static_cast<std::uint64_t>(c) + 1;
        if (registered) {
          // Re-register every workload model on each fresh connection so a
          // reconnect (failover, torn connection) never sees unknown_model.
          policy.session_warmup = [&](serve::Session& peer) -> Status {
            for (const std::string& text : netlist_texts) {
              util::JsonWriter reg;
              reg.begin_object();
              reg.key("verb").value("register-model");
              reg.key("netlist").value(text);
              reg.end_object();
              const Result<std::string> response = peer.call(reg.str());
              if (!response) return response.error();
              const Result<serve::ResponseEnvelope> envelope = serve::decode_response(*response);
              if (!envelope || !envelope->ok) {
                return Error{ErrorCode::kIo, "register-model failed: " + *response};
              }
            }
            return Unit{};
          };
        }
        serve::RetryingClient client(
            [&]() -> Result<serve::Session> {
              return socket_path.empty()
                         ? serve::Session::connect_tcp(host, port, session_options)
                         : serve::Session::connect_unix(socket_path, session_options);
            },
            policy);
        std::int64_t n = 0;
        while (!stop.load(std::memory_order_relaxed) &&
               (requests_per_client == 0 || n < requests_per_client)) {
          const std::string& body = request_bodies[static_cast<std::size_t>(
              n % static_cast<std::int64_t>(request_bodies.size()))];
          const std::string line =
              body + "\"c" + std::to_string(c) + "-" + std::to_string(n) + "\"}";
          ++n;
          util::Timer timer;
          ++s.sent;
          const Result<std::string> response = client.call(line);
          const double latency = timer.elapsed_ms();
          if (!response) {
            ++s.other_errors;
            if (s.first_error.empty()) s.first_error = response.error().to_string();
            // An open breaker means the server is gone (retries exhausted on
            // consecutive transport failures); stop instead of spinning on
            // fast-fails for the rest of the run.
            if (client.breaker_open()) break;
            continue;
          }
          s.latencies_ms.push_back(latency);
          const util::JsonParse parsed = util::json_parse(*response);
          const util::Json* ok =
              parsed.ok && parsed.value.is_object() ? parsed.value.find("ok") : nullptr;
          if (ok != nullptr && ok->as_bool()) {
            ++s.ok;
            const util::Json* degraded = parsed.value.find("degraded");
            if (degraded != nullptr && degraded->is_bool() && degraded->as_bool()) {
              ++s.degraded;
            }
            if (certify) {
              // Re-check the returned certificate with the independent O(E)
              // checker against the locally generated instance.
              const util::Json* result = parsed.value.find("result");
              const util::Json* cert_json =
                  result != nullptr && result->is_object() ? result->find("certificate") : nullptr;
              if (cert_json != nullptr) {
                ++s.certified;
                const verify::CertificateParse cert = verify::parse_certificate(*cert_json);
                const auto it =
                    cert ? verify_instances.find(cert.certificate.fingerprint)
                         : verify_instances.end();
                bool valid = false;
                if (it != verify_instances.end()) {
                  const Result<verify::CheckResult> verdict =
                      lid::verify_certificate(it->second, cert.certificate);
                  valid = verdict && verdict->ok;
                }
                if (!valid) {
                  ++s.verify_failures;
                  if (s.first_error.empty()) s.first_error = "certificate verify failed: " + *response;
                }
              }
            }
            continue;
          }
          std::string code;
          if (parsed.ok && parsed.value.is_object()) {
            if (const util::Json* error = parsed.value.find("error")) {
              if (const util::Json* code_field = error->find("code")) {
                code = code_field->as_string();
              }
            }
          }
          if (code == serve::codes::kOverloaded) {
            ++s.shed;
          } else if (code == serve::codes::kDeadlineExceeded) {
            ++s.deadline_exceeded;
          } else {
            ++s.other_errors;
            if (s.first_error.empty()) s.first_error = *response;
          }
        }
        const serve::RetryStats& rs = client.stats();
        s.retries = rs.retries;
        s.reconnects = rs.reconnects;
        s.breaker_fast_fails = rs.breaker_fast_fails;
      });
    }

    if (requests_per_client > 0) {
      // Count-exact run: every client performs exactly --requests calls (the
      // retry layer's timeouts bound each one), so replays are comparable
      // request-for-request rather than wall-clock-for-wall-clock.
      for (std::thread& t : threads) t.join();
      stop.store(true);
    } else {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(static_cast<std::int64_t>(seconds * 1000.0)));
      stop.store(true);
      for (std::thread& t : threads) t.join();
    }
    const double elapsed_s = run_timer.elapsed_s();

    ClientStats total;
    std::vector<double> latencies;
    for (const ClientStats& s : stats) {
      total.sent += s.sent;
      total.ok += s.ok;
      total.degraded += s.degraded;
      total.shed += s.shed;
      total.deadline_exceeded += s.deadline_exceeded;
      total.other_errors += s.other_errors;
      total.retries += s.retries;
      total.reconnects += s.reconnects;
      total.breaker_fast_fails += s.breaker_fast_fails;
      total.certified += s.certified;
      total.verify_failures += s.verify_failures;
      latencies.insert(latencies.end(), s.latencies_ms.begin(), s.latencies_ms.end());
      if (total.first_error.empty() && !s.first_error.empty()) total.first_error = s.first_error;
    }
    std::sort(latencies.begin(), latencies.end());
    const double offered = static_cast<double>(total.sent) / elapsed_s;
    const double goodput = static_cast<double>(total.ok) / elapsed_s;
    const double shed_rate =
        total.sent == 0 ? 0.0 : static_cast<double>(total.shed) / static_cast<double>(total.sent);
    const double p50 = percentile(latencies, 0.50);
    const double p95 = percentile(latencies, 0.95);
    const double p99 = percentile(latencies, 0.99);

    // Registered mode: one post-run stats probe reports how much of the load
    // the server answered from its per-model payload memo.
    std::int64_t memo_hits = 0;
    std::int64_t memo_misses = 0;
    if (registered) {
      const serve::SessionOptions v1{.protocol = 1};
      Result<serve::Session> probe = socket_path.empty()
                                         ? serve::Session::connect_tcp(host, port, v1)
                                         : serve::Session::connect_unix(socket_path, v1);
      if (probe) {
        serve::Session prober = std::move(probe).value();
        const Result<std::string> response = prober.call("{\"verb\":\"stats\"}");
        if (response) {
          const util::JsonParse parsed = util::json_parse(*response);
          const util::Json* result =
              parsed.ok && parsed.value.is_object() ? parsed.value.find("result") : nullptr;
          const util::Json* registry =
              result != nullptr && result->is_object() ? result->find("registry") : nullptr;
          if (registry != nullptr && registry->is_object()) {
            if (const util::Json* hits = registry->find("memo_hits")) memo_hits = hits->as_int();
            if (const util::Json* misses = registry->find("memo_misses")) {
              memo_misses = misses->as_int();
            }
          }
        }
      }
    }
    const double registry_hit_rate =
        memo_hits + memo_misses == 0
            ? 0.0
            : static_cast<double>(memo_hits) / static_cast<double>(memo_hits + memo_misses);

    if (as_json) {
      util::JsonWriter w;
      w.begin_object();
      w.key("verb").value(load.scenario == "cluster" ? "mixed" : verb);
      w.key("scenario").value(load.scenario);
      w.key("clients").value(clients);
      w.key("seed").value(static_cast<std::int64_t>(load.seed));
      w.key("elapsed_s").value_fixed(elapsed_s, 3);
      w.key("sent").value(total.sent);
      w.key("ok").value(total.ok);
      w.key("degraded").value(total.degraded);
      w.key("shed").value(total.shed);
      w.key("deadline_exceeded").value(total.deadline_exceeded);
      w.key("other_errors").value(total.other_errors);
      w.key("retries").value(total.retries);
      w.key("reconnects").value(total.reconnects);
      w.key("breaker_fast_fails").value(total.breaker_fast_fails);
      w.key("offered_rps").value_fixed(offered, 2);
      w.key("goodput_rps").value_fixed(goodput, 2);
      w.key("shed_rate").value_fixed(shed_rate, 4);
      w.key("p50_ms").value_fixed(p50, 3);
      w.key("p95_ms").value_fixed(p95, 3);
      w.key("p99_ms").value_fixed(p99, 3);
      if (registered) {
        w.key("registered").value(true);
        w.key("registry_memo_hits").value(memo_hits);
        w.key("registry_memo_misses").value(memo_misses);
        w.key("registry_hit_rate").value_fixed(registry_hit_rate, 4);
      }
      if (certify) {
        w.key("certified").value(total.certified);
        w.key("certified_share")
            .value_fixed(total.ok == 0 ? 0.0
                                       : static_cast<double>(total.certified) /
                                             static_cast<double>(total.ok),
                         4);
        w.key("verify_failures").value(total.verify_failures);
      }
      if (!transport.empty()) w.key("transport").value(transport);
      w.end_object();
      std::cout << w.str() << "\n";
    } else {
      util::Table table({"metric", "value"});
      table.add_row({"clients x seconds", std::to_string(clients) + " x " +
                                              util::Table::fmt(elapsed_s, 1)});
      table.add_row({"workload", load.scenario + " (seed " + std::to_string(load.seed) + ")"});
      table.add_row({"requests sent", std::to_string(total.sent)});
      table.add_row({"offered load (req/s)", util::Table::fmt(offered, 1)});
      table.add_row({"goodput (req/s)", util::Table::fmt(goodput, 1)});
      table.add_row({"shed (overloaded)", std::to_string(total.shed) + " (" +
                                              util::Table::fmt(shed_rate * 100.0, 2) + "%)"});
      table.add_row({"deadline exceeded", std::to_string(total.deadline_exceeded)});
      table.add_row({"degraded responses", std::to_string(total.degraded)});
      table.add_row({"other errors", std::to_string(total.other_errors)});
      table.add_row({"retries / reconnects", std::to_string(total.retries) + " / " +
                                                 std::to_string(total.reconnects)});
      table.add_row({"breaker fast-fails", std::to_string(total.breaker_fast_fails)});
      table.add_row({"latency p50 (ms)", util::Table::fmt(p50, 3)});
      table.add_row({"latency p95 (ms)", util::Table::fmt(p95, 3)});
      table.add_row({"latency p99 (ms)", util::Table::fmt(p99, 3)});
      if (registered) {
        table.add_row({"registry hit rate",
                       util::Table::fmt(registry_hit_rate * 100.0, 2) + "% (" +
                           std::to_string(memo_hits) + "/" +
                           std::to_string(memo_hits + memo_misses) + ")"});
      }
      if (certify) {
        const double share = total.ok == 0 ? 0.0
                                           : static_cast<double>(total.certified) * 100.0 /
                                                 static_cast<double>(total.ok);
        table.add_row({"certified responses", std::to_string(total.certified) + " (" +
                                                  util::Table::fmt(share, 2) + "% of ok)"});
        table.add_row({"certificate verify failures", std::to_string(total.verify_failures)});
      }
      table.print(std::cout);
      if (!total.first_error.empty()) {
        std::cout << "first error: " << total.first_error << "\n";
      }
    }
    return total.other_errors == 0 && total.verify_failures == 0 ? 0 : 2;
  } catch (const std::exception& e) {
    std::cerr << "lid_loadgen: " << e.what() << "\n";
    return 1;
  }
}
