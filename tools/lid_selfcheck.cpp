// lid_selfcheck — a randomized cross-validation harness.
//
//   lid_selfcheck [--seconds N] [--seed S] [--verbose]
//
// Generates random systems and checks, for each, every cross-cutting
// invariant the library promises:
//   1. Karp, Howard and brute-force cycle enumeration agree on the minimum
//      cycle mean of the doubled graph;
//   2. the marked-graph simulator's sustained rate equals the practical MST;
//   3. the protocol simulator fires the same shells in the same periods as
//      the marked-graph semantics;
//   4. queue sizing (heuristic and exact) restores the ideal MST, exact <=
//      heuristic, and the MILP baseline agrees with the exact optimum;
//   5. netlist serialization round-trips;
//   6. simulated place occupancies never exceed the structural bounds;
//   7. the batch engine is deterministic across thread counts and its
//      AnalysisCache agrees with the uncached per-module entry points;
//   8. responses observed through an in-process lid_serve server (over a
//      real Unix socket) are byte-identical to executing the same requests
//      directly, at 1 and at 4 workers — the serving layer adds no
//      nondeterminism;
//   9. graceful degradation is honest: whenever the exact solver fails to
//      prove within its node budget and the request says
//      "on_deadline":"degrade", the degraded payload is byte-identical to
//      executing the same request with "solver":"heuristic" directly, and
//      the heuristic total it reports bounds the exact optimum from above;
//  10. lazy constraint generation is equivalent to the full pipeline: on
//      every system, solver "lazy" reaches the same achieved MST as the
//      enumerate-everything pipeline, and when both exact solves prove, the
//      same optimal extra-token total;
//  11. lint hygiene: every generated system passes the error-tier lint
//      checks (the analyze/size-queues pre-flight admits it), and a
//      deadlocked netlist is rejected with the structured `lint` error code
//      through both the facade and the serve protocol — never an abort;
//  12. the model registry is a pure address: for every model-addressed verb,
//      querying a registered fingerprint (protocol v2, over NDJSON and over
//      the binary frame transport) returns a payload byte-identical to
//      sending the same netlist inline, which equals direct execution — at
//      1 and at 4 workers;
//  13. the event-driven simulator (src/des) cross-validates: its
//      deterministic limit reproduces min(1, practical MST) exactly, the
//      sized system simulates at exactly min(1, ideal MST) and — when that
//      rate is 1 — runs stall-free past the transient, and stochastic
//      reports are byte-identical for a given seed;
//  14. the cluster router is a pure transport: payloads read back through a
//      3-worker lid_cluster front door equal the payloads of a single
//      lid_serve and of direct execution, byte for byte — for inline and
//      registered (model-addressed) requests, and still after a worker is
//      stopped mid-run so the router must fail over and re-register;
//  15. certificates are sound and transport-stable: every opt-in analyze /
//      size-queues certificate passes the independent O(E) checker
//      (src/verify) through the facade — typed and JSON forms — and through
//      lid_serve, where certified payloads are byte-identical between inline
//      and registered requests over both the NDJSON and binary transports.
// The lazy sizings, analyses and lints without a target that (10), (11),
// (12) and (15) run enumerate no cycle: graph::enumerated_cycles() does not
// move across them.
// Exits nonzero on the first violation, printing the seed that triggers it.
#include <unistd.h>

#include <iostream>
#include <memory>

#include "core/exact_milp.hpp"
#include "des/des.hpp"
#include "engine/analysis_cache.hpp"
#include "engine/engine.hpp"
#include "lid_api.hpp"
#include "lint/checks.hpp"
#include "core/queue_sizing.hpp"
#include "gen/generator.hpp"
#include "graph/cycles.hpp"
#include "lis/netlist_io.hpp"
#include "lis/protocol_sim.hpp"
#include "mg/analysis.hpp"
#include "mg/mcm.hpp"
#include "mg/simulate.hpp"
#include "serve/cluster.hpp"
#include "serve/protocol.hpp"
#include "serve/registry.hpp"
#include "serve/server.hpp"
#include "serve/session.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace {

using namespace lid;

#define CHECK_OR_FAIL(cond, what)                                              \
  do {                                                                         \
    if (!(cond)) {                                                             \
      std::cerr << "SELFCHECK FAILED [" << what << "] seed=" << trial_seed     \
                << "\n";                                                       \
      return false;                                                            \
    }                                                                          \
  } while (false)

bool check_one(std::uint64_t trial_seed, bool verbose) {
  util::Rng rng(trial_seed);
  gen::GeneratorParams params;
  params.vertices = rng.uniform_int(4, 14);
  params.sccs = rng.uniform_int(1, 3);
  params.min_cycles = rng.uniform_int(0, 3);
  params.relay_stations = rng.uniform_int(0, 5);
  params.reconvergent = true;
  params.policy = rng.flip(0.5) ? gen::RsPolicy::kAny : gen::RsPolicy::kScc;
  params.queue_capacity = rng.uniform_int(1, 2);
  lis::LisGraph system;
  try {
    system = gen::generate(params, rng);
  } catch (const std::invalid_argument&) {
    return true;  // e.g. scc policy with a single SCC: nothing to check
  }
  for (lis::CoreId v = 0; v < static_cast<lis::CoreId>(system.num_cores()); ++v) {
    if (rng.flip(0.2)) system.set_core_latency(v, rng.uniform_int(2, 3));
  }

  // (1) analytic agreement on the doubled graph.
  const lis::Expansion doubled = lis::expand_doubled(system);
  const auto karp = mg::min_cycle_mean_karp(doubled.graph);
  const auto howard = mg::min_cycle_mean_howard(doubled.graph);
  CHECK_OR_FAIL(karp.has_value() == howard.has_value(), "karp/howard cyclicity");
  if (karp) {
    CHECK_OR_FAIL(*karp == howard->mean, "karp == howard");
    util::Rational brute(1000000);
    for (const auto& c : graph::enumerate_cycles(doubled.graph.structure()).cycles) {
      brute = util::Rational::min(
          brute, util::Rational(doubled.graph.cycle_tokens(c),
                                static_cast<std::int64_t>(c.size())));
    }
    CHECK_OR_FAIL(*karp == brute, "karp == enumeration");
  }

  // (2) simulator rate == practical MST.
  const util::Rational practical = lis::practical_mst(system);
  const mg::SimulationResult mg_sim = mg::simulate(doubled.graph, 30000);
  CHECK_OR_FAIL(mg_sim.periodic_found, "marked-graph recurrence");
  CHECK_OR_FAIL(mg_sim.throughput == util::Rational::min(util::Rational(1), practical),
                "simulated rate == practical MST");

  // (6) occupancy bounds.
  const auto bounds = mg::place_bounds(doubled.graph);
  for (mg::PlaceId p = 0; p < static_cast<mg::PlaceId>(doubled.graph.num_places()); ++p) {
    CHECK_OR_FAIL(bounds[static_cast<std::size_t>(p)].has_value(), "doubled graph bounded");
    CHECK_OR_FAIL(mg_sim.max_tokens[static_cast<std::size_t>(p)] <=
                      *bounds[static_cast<std::size_t>(p)],
                  "occupancy within structural bound");
  }

  // (3) protocol equivalence, period for period.
  std::vector<std::vector<char>> mg_rows;
  mg::simulate(doubled.graph, 50, 0, [&](std::size_t, const std::vector<char>& fired) {
    std::vector<char> shells;
    for (const mg::TransitionId t : doubled.core_transition) {
      shells.push_back(fired[static_cast<std::size_t>(t)]);
    }
    mg_rows.push_back(std::move(shells));
    return mg_rows.size() < 50;
  });
  std::vector<std::vector<char>> proto_rows;
  lis::ProtocolOptions proto_options;
  proto_options.periods = 51;
  proto_options.observer = [&](std::size_t, const std::vector<char>& fired) {
    proto_rows.push_back(fired);
    return proto_rows.size() < 50;
  };
  simulate_protocol(system, proto_options);
  const std::size_t common = std::min(mg_rows.size(), proto_rows.size());
  for (std::size_t t = 0; t < common; ++t) {
    CHECK_OR_FAIL(mg_rows[t] == proto_rows[t], "protocol == marked graph");
  }

  // (4) the queue-sizing stack.
  core::QsOptions qs_options;
  qs_options.method = core::QsMethod::kBoth;
  qs_options.exact.timeout_ms = 5000;
  const core::QsReport report = core::size_queues(system, qs_options);
  CHECK_OR_FAIL(report.achieved_mst == report.problem.theta_ideal, "sizing restores ideal");
  if (report.exact->finished) {
    CHECK_OR_FAIL(report.exact->total_extra_tokens <= report.heuristic->total_extra_tokens,
                  "exact <= heuristic");
    if (report.problem.has_degradation()) {
      const core::TdSolution upper = core::solve_heuristic(report.problem.td);
      const core::ExactResult milp =
          core::solve_exact_milp(report.problem.td, upper, qs_options.exact);
      if (milp.solution) {
        CHECK_OR_FAIL(milp.solution->total == report.exact->total_extra_tokens,
                      "MILP == exact");
      }
    }
  }

  // (10) lazy constraint generation == full enumeration (reuses the full
  // pipeline's report from (4) as the reference).
  const std::uint64_t enumerated = graph::enumerated_cycles();
  core::QsOptions lazy_options;
  lazy_options.method = core::QsMethod::kLazy;
  const core::QsReport lazy = core::size_queues(system, lazy_options);
  CHECK_OR_FAIL(lazy.lazy.has_value(), "lazy stats present");
  CHECK_OR_FAIL(lazy.achieved_mst == report.achieved_mst, "lazy achieved == full achieved");
  if (report.exact->finished) {
    CHECK_OR_FAIL(lazy.exact.has_value() && lazy.exact->finished, "lazy solve proves");
    CHECK_OR_FAIL(lazy.exact->total_extra_tokens == report.exact->total_extra_tokens,
                  "lazy total == exact total");
  }

  // (5) serialization round trip.
  const lis::LisGraph parsed = lis::from_text(lis::to_text(system));
  CHECK_OR_FAIL(lis::to_text(parsed) == lis::to_text(system), "round trip canonical");
  CHECK_OR_FAIL(lis::practical_mst(parsed) == practical, "round trip MST");

  // (11) every generated system passes the error-tier lint pre-flight —
  // everything above already analyzed it, so a lint error here would mean
  // the pre-flight rejects models the solvers in fact handle.
  CHECK_OR_FAIL(linter::run_error_checks(system).empty(), "lint: generated system error-clean");
  CHECK_OR_FAIL(graph::enumerated_cycles() == enumerated,
                "lazy sizing and lint enumerate no cycle");

  // (13) DES cross-validation against the analytic stack, reusing the sized
  // netlist from (4).
  {
    des::SimOptions des_options;
    des_options.horizon = 30'000;
    const des::SimReport des_run = des::simulate(system, des_options);
    CHECK_OR_FAIL(des_run.deterministic && des_run.periodic_found, "des: recurrence found");
    CHECK_OR_FAIL(des_run.throughput == util::Rational::min(util::Rational(1), practical),
                  "des: deterministic limit == practical MST");

    const des::SimReport des_sized = des::simulate(report.sized, des_options);
    CHECK_OR_FAIL(des_sized.periodic_found, "des: sized system recurrence");
    CHECK_OR_FAIL(des_sized.throughput ==
                      util::Rational::min(util::Rational(1), report.problem.theta_ideal),
                  "des: sized system == min(1, ideal MST)");
    if (des_sized.throughput == util::Rational(1)) {
      // Rate 1 means every core fires every cycle in steady state, so no
      // credit can bind strictly: a post-warmup window must be stall-free.
      // uniform:1:1 draws the same unit latencies but skips the recurrence
      // early-exit, so the run actually covers the window.
      des::SimOptions steady;
      steady.horizon = 500;
      steady.warmup = 500;
      steady.channel_latency = des::LatencyDist::uniform(1, 1);
      const des::SimReport windowed = des::simulate(report.sized, steady);
      CHECK_OR_FAIL(windowed.total_stall_events == 0, "des: sized rate-1 system stall-free");
    }

    des::SimOptions stochastic;
    stochastic.horizon = 2'000;
    stochastic.seed = trial_seed;
    stochastic.channel_latency = des::LatencyDist::geometric(1, 2);
    stochastic.arrival = des::ArrivalSpec::poisson(1, 2);
    const std::string once = des::simulate(system, stochastic).serialize();
    const std::string twice = des::simulate(system, stochastic).serialize();
    CHECK_OR_FAIL(once == twice, "des: same-seed reports byte-identical");
  }

  if (verbose) {
    std::cout << "seed " << trial_seed << ": v=" << system.num_cores()
              << " e=" << system.num_channels() << " MST " << practical.to_string() << " ok\n";
  }
  return true;
}

// Invariant (7): batch-engine determinism across thread counts, and cache
// agreement with the uncached entry points. Runs once per selfcheck.
bool check_engine(std::uint64_t trial_seed) {
  std::vector<Instance> instances;
  util::Rng seeder(trial_seed);
  for (int i = 0; i < 16; ++i) {
    GenerateOptions options;
    options.cores = 6 + i % 7;
    options.sccs = 1 + i % 3;
    options.extra_cycles = i % 3;
    options.relay_stations = 1 + i % 4;
    // The SCC placement policy needs inter-SCC channels to exist.
    options.rs_anywhere = options.sccs == 1;
    options.seed = seeder.fork_seed();
    const Result<Instance> generated = lid::generate(options);
    CHECK_OR_FAIL(generated.ok(), "engine: generate");
    instances.push_back(*generated);
  }

  engine::EngineOptions options;
  options.analyses = *engine::parse_analyses("all");
  options.exact_max_nodes = 50'000;  // deterministic budget, no wall clock
  options.threads = 1;
  const engine::BatchResult serial = engine::BatchEngine(options).run(instances);
  options.threads = 4;
  const engine::BatchResult parallel = engine::BatchEngine(options).run(instances);
  CHECK_OR_FAIL(serial.serialize() == parallel.serialize(), "engine: 1 vs 4 threads identical");

  for (const engine::InstanceResult& r : serial.results) {
    CHECK_OR_FAIL(r.error.empty(), "engine: no analysis failures");
  }

  // Cached intermediates equal their uncached counterparts.
  for (const Instance& instance : instances) {
    engine::AnalysisCache cache(instance.graph());
    CHECK_OR_FAIL(cache.theta_ideal() == lis::ideal_mst(instance.graph()),
                  "engine: cached ideal MST");
    CHECK_OR_FAIL(cache.theta_practical() == lis::practical_mst(instance.graph()),
                  "engine: cached practical MST");
    const core::QsProblem& cached = cache.qs_problem();
    const core::QsProblem fresh = core::build_qs_problem(instance.graph());
    CHECK_OR_FAIL(cached.td.deficits == fresh.td.deficits &&
                      cached.td.set_members == fresh.td.set_members &&
                      cached.channels == fresh.channels,
                  "engine: cached QS problem == fresh");
    const std::int64_t misses = cache.misses();
    (void)cache.qs_problem();
    CHECK_OR_FAIL(cache.misses() == misses, "engine: repeat qs_problem is a cache hit");
  }
  return true;
}

// Invariant (8): the serving layer is a pure transport. For a randomized
// request set covering every deterministic verb, the `result` payload read
// back through a Unix-socket lid_serve equals the payload of executing the
// same request line directly, byte for byte — at 1 worker and at 4.
bool check_serve(std::uint64_t trial_seed) {
  util::Rng rng(trial_seed);
  std::vector<std::string> lines;
  for (int i = 0; i < 6; ++i) {
    GenerateOptions options;
    options.cores = 5 + static_cast<int>(rng.uniform_int(0, 8));
    options.sccs = 1 + static_cast<int>(rng.uniform_int(0, 2));
    options.extra_cycles = static_cast<int>(rng.uniform_int(0, 2));
    options.relay_stations = 1 + static_cast<int>(rng.uniform_int(0, 3));
    options.rs_anywhere = true;
    options.seed = rng.fork_seed();
    const Result<Instance> generated = lid::generate(options);
    CHECK_OR_FAIL(generated.ok(), "serve: generate");
    const Result<std::string> text = netlist_text(*generated);
    CHECK_OR_FAIL(text.ok(), "serve: netlist text");
    static const char* kVerbs[] = {"parse", "analyze", "size-queues", "insert-rs", "rate-safety"};
    util::JsonWriter w;
    w.begin_object();
    w.key("id").value(i);
    w.key("verb").value(kVerbs[i % 5]);
    w.key("netlist").value(*text);
    w.end_object();
    lines.push_back(w.str());
  }
  lines.push_back(R"({"id": "g", "verb": "generate", "v": 9, "s": 2, "seed": 17})");

  std::vector<std::string> direct;
  for (const std::string& line : lines) {
    const Result<serve::Request> request = serve::parse_request(line);
    CHECK_OR_FAIL(request.ok(), "serve: request parses");
    const serve::Outcome outcome = serve::execute(*request);
    CHECK_OR_FAIL(outcome.ok, "serve: direct execution succeeds");
    direct.push_back(outcome.payload);
  }

  for (const int workers : {1, 4}) {
    serve::ServerOptions options;
    options.unix_socket = "/tmp/lid_selfcheck_" + std::to_string(::getpid()) + ".sock";
    options.workers = workers;
    serve::Server server(options);
    CHECK_OR_FAIL(server.start().ok(), "serve: server starts");
    Result<serve::Session> connected =
        serve::Session::connect_unix(options.unix_socket, {.protocol = 1});
    CHECK_OR_FAIL(connected.ok(), "serve: client connects");
    serve::Session client = std::move(connected).value();
    for (std::size_t i = 0; i < lines.size(); ++i) {
      const Result<std::string> response = client.call(lines[i]);
      CHECK_OR_FAIL(response.ok(), "serve: response arrives");
      const Result<std::string> served = serve::extract_result(*response);
      CHECK_OR_FAIL(served.ok(), "serve: response is ok");
      CHECK_OR_FAIL(*served == direct[i], "serve: served payload == direct payload");
    }
    client.close();
    server.stop();
  }
  return true;
}

// Invariant (12): the model registry is a pure address. Registering a model
// and querying it by fingerprint — over NDJSON and over the binary frame
// transport, at 1 and at 4 workers — answers byte-identically to sending the
// same netlist inline on the same connection, which in turn equals direct
// in-process execution. This covers both the registry's canonicalize/reparse
// path and the per-model payload memo (the second worker sweep replays every
// query against warm memo entries).
bool check_registry(std::uint64_t trial_seed) {
  const std::uint64_t enumerated = graph::enumerated_cycles();
  util::Rng rng(trial_seed);
  std::vector<std::string> texts;
  for (int i = 0; i < 3; ++i) {
    GenerateOptions options;
    options.cores = 5 + static_cast<int>(rng.uniform_int(0, 6));
    options.sccs = 1 + static_cast<int>(rng.uniform_int(0, 2));
    options.extra_cycles = static_cast<int>(rng.uniform_int(0, 2));
    options.relay_stations = 1 + static_cast<int>(rng.uniform_int(0, 3));
    options.rs_anywhere = true;
    options.seed = rng.fork_seed();
    const Result<Instance> generated = lid::generate(options);
    CHECK_OR_FAIL(generated.ok(), "registry: generate");
    const Result<std::string> text = netlist_text(*generated);
    CHECK_OR_FAIL(text.ok(), "registry: netlist text");
    texts.push_back(*text);
  }

  static const char* kVerbs[] = {"analyze", "size-queues", "lint", "rate-safety"};
  const auto inline_line = [&](std::size_t m, const char* verb) {
    util::JsonWriter w;
    w.begin_object();
    w.key("verb").value(verb).key("netlist").value(texts[m]);
    w.end_object();
    return w.str();
  };

  // Direct execution of the inline-netlist form is the reference.
  std::vector<std::vector<std::string>> direct(texts.size());
  for (std::size_t m = 0; m < texts.size(); ++m) {
    for (const char* verb : kVerbs) {
      const Result<serve::Request> request = serve::parse_request(inline_line(m, verb));
      CHECK_OR_FAIL(request.ok(), "registry: request parses");
      const serve::Outcome outcome = serve::execute(*request);
      CHECK_OR_FAIL(outcome.ok, "registry: direct execution succeeds");
      direct[m].push_back(outcome.payload);
    }
  }

  for (const int workers : {1, 4}) {
    serve::ServerOptions options;
    options.unix_socket =
        "/tmp/lid_selfcheck_reg_" + std::to_string(::getpid()) + ".sock";
    options.workers = workers;
    serve::Server server(options);
    CHECK_OR_FAIL(server.start().ok(), "registry: server starts");
    for (const bool binary : {false, true}) {
      serve::SessionOptions session_options;
      session_options.binary = binary;
      Result<serve::Session> connected =
          serve::Session::connect_unix(options.unix_socket, session_options);
      CHECK_OR_FAIL(connected.ok(), "registry: session connects");
      serve::Session session = std::move(connected).value();
      CHECK_OR_FAIL(session.protocol() == 2, "registry: hello negotiates v2");
      for (std::size_t m = 0; m < texts.size(); ++m) {
        const Result<serve::ModelHandle> handle = session.register_model(texts[m]);
        CHECK_OR_FAIL(handle.ok(), "registry: register-model succeeds");
        for (std::size_t v = 0; v < 4; ++v) {
          const Result<std::string> registered = session.query(*handle, kVerbs[v]);
          CHECK_OR_FAIL(registered.ok(), "registry: registered query succeeds");
          CHECK_OR_FAIL(*registered == direct[m][v],
                        "registry: registered payload == direct payload");
          const Result<std::string> response = session.call(inline_line(m, kVerbs[v]));
          CHECK_OR_FAIL(response.ok(), "registry: inline call succeeds");
          const Result<std::string> inlined = serve::extract_result(*response);
          CHECK_OR_FAIL(inlined.ok(), "registry: inline response ok");
          CHECK_OR_FAIL(*inlined == direct[m][v],
                        "registry: inline v2 payload == direct payload");
        }
      }
      session.close();
    }
    server.stop();
  }
  CHECK_OR_FAIL(graph::enumerated_cycles() == enumerated, "registry: no cycle enumerated");
  return true;
}

// Invariant (9): graceful degradation is honest. Requests that trip a
// 1-node exact budget with "on_deadline":"degrade" must answer with a
// payload byte-identical to direct heuristic execution, tagged degraded in
// the envelope only; and the heuristic total always upper-bounds the exact
// optimum (when the latter is provable with a generous budget).
bool check_degrade(std::uint64_t trial_seed) {
  util::Rng rng(trial_seed);
  // Four random systems, plus a fixed one whose UNSIMPLIFIED TD instance has
  // a loose counting bound and provably trips a 1-node budget (random
  // instances usually prove at zero search nodes, leaving the degrade branch
  // unexercised; the reductions are disabled on this case for the same
  // reason).
  constexpr const char* kLooseBoundNetlist =
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
  for (int i = 0; i < 5; ++i) {
    const bool fixed_case = i == 4;
    const bool simplify = !fixed_case;
    std::string text;
    if (fixed_case) {
      text = kLooseBoundNetlist;
    } else {
      GenerateOptions options;
      options.cores = 6 + static_cast<int>(rng.uniform_int(0, 6));
      options.sccs = 1 + static_cast<int>(rng.uniform_int(0, 2));
      options.extra_cycles = static_cast<int>(rng.uniform_int(0, 2));
      options.relay_stations = 1 + static_cast<int>(rng.uniform_int(0, 3));
      options.rs_anywhere = true;
      options.seed = rng.fork_seed();
      const Result<Instance> generated = lid::generate(options);
      CHECK_OR_FAIL(generated.ok(), "degrade: generate");
      const Result<std::string> generated_text = netlist_text(*generated);
      CHECK_OR_FAIL(generated_text.ok(), "degrade: netlist text");
      text = *generated_text;
    }

    const auto request_line = [&](const char* solver, bool degrade_policy,
                                  std::int64_t max_nodes) {
      util::JsonWriter w;
      w.begin_object();
      w.key("id").value(i);
      w.key("verb").value("size-queues");
      w.key("solver").value(solver);
      if (max_nodes > 0) w.key("max_nodes").value(max_nodes);
      if (!simplify) w.key("simplify").value(false);
      if (degrade_policy) w.key("on_deadline").value("degrade");
      w.key("netlist").value(text);
      w.end_object();
      return w.str();
    };
    const auto execute_line = [](const std::string& line) -> serve::Outcome {
      const Result<serve::Request> request = serve::parse_request(line);
      if (!request) return serve::Outcome::failure("parse_error", request.error().message);
      return serve::execute(*request);
    };

    // Probe with policy "error" first: its legacy payload says whether a
    // 1-node budget actually fails the proof on this instance (trivial
    // instances may prove at the root and never degrade).
    const serve::Outcome probe = execute_line(request_line("both", false, 1));
    CHECK_OR_FAIL(probe.ok, "degrade: probe execution succeeds");
    const util::JsonParse probe_json = util::json_parse(probe.payload);
    CHECK_OR_FAIL(probe_json.ok && probe_json.value.is_object(), "degrade: probe payload parses");
    const util::Json* proved = probe_json.value.find("exact_proved");
    const bool budget_trips = proved != nullptr && proved->is_bool() && !proved->as_bool();
    if (fixed_case) {
      CHECK_OR_FAIL(budget_trips, "degrade: fixed loose-bound case trips a 1-node budget");
    }

    const serve::Outcome degraded = execute_line(request_line("both", true, 1));
    CHECK_OR_FAIL(degraded.ok, "degrade: degraded execution succeeds");
    CHECK_OR_FAIL(degraded.degraded == budget_trips, "degrade: tag iff budget tripped");
    if (budget_trips) {
      const serve::Outcome heuristic = execute_line(request_line("heuristic", false, 0));
      CHECK_OR_FAIL(heuristic.ok, "degrade: heuristic execution succeeds");
      CHECK_OR_FAIL(!heuristic.degraded, "degrade: direct heuristic untagged");
      CHECK_OR_FAIL(degraded.payload == heuristic.payload,
                    "degrade: degraded payload == direct heuristic payload");
    }

    // The heuristic total in the (possibly degraded) payload bounds the
    // exact optimum whenever a generous budget proves it.
    const Result<Instance> reparsed = parse_netlist(text);
    CHECK_OR_FAIL(reparsed.ok(), "degrade: reparse");
    SizeQueuesOptions full;
    full.solver = Solver::kBoth;
    full.exact_max_nodes = 200'000;
    full.simplify = simplify;
    const Result<Sizing> sized = size_queues(*reparsed, full);
    CHECK_OR_FAIL(sized.ok(), "degrade: full sizing succeeds");
    if (sized->exact_proved && sized->exact_total >= 0) {
      const util::JsonParse payload = util::json_parse(degraded.payload);
      CHECK_OR_FAIL(payload.ok && payload.value.is_object(), "degrade: payload parses");
      const util::Json* heuristic_total = payload.value.find("heuristic_total");
      if (heuristic_total != nullptr && heuristic_total->is_number()) {
        CHECK_OR_FAIL(heuristic_total->as_int() >= sized->exact_total,
                      "degrade: heuristic total bounds exact optimum");
      }
    }
  }
  return true;
}

// Invariant (11), structured-rejection half: a parseable but deadlocked
// netlist must come back as a `lint` error — with the offending check code in
// the message — through the facade AND through the serve protocol, while the
// lint verb itself succeeds and itemizes the findings. Runs once.
bool check_lint(std::uint64_t trial_seed) {
  const std::uint64_t enumerated = graph::enumerated_cycles();
  constexpr const char* kDeadlocked =
      "core A\ncore B\nchannel A -> B q=0\nchannel B -> A q=0\n";
  const Result<Instance> instance = parse_netlist(kDeadlocked, "deadlocked");
  CHECK_OR_FAIL(instance.ok(), "lint: deadlocked netlist still parses");

  const Result<Analysis> analysis = analyze(*instance);
  CHECK_OR_FAIL(!analysis.ok() && analysis.error().code == ErrorCode::kLint,
                "lint: analyze rejects with kLint");
  CHECK_OR_FAIL(analysis.error().message.find("L001") != std::string::npos,
                "lint: rejection names the check code");
  const Result<Sizing> sizing = size_queues(*instance);
  CHECK_OR_FAIL(!sizing.ok() && sizing.error().code == ErrorCode::kLint,
                "lint: size_queues rejects with kLint");

  const auto execute_line = [](const std::string& line) -> serve::Outcome {
    const Result<serve::Request> request = serve::parse_request(line);
    if (!request) return serve::Outcome::failure("parse_error", request.error().message);
    return serve::execute(*request);
  };
  util::JsonWriter analyze_request;
  analyze_request.begin_object();
  analyze_request.key("verb").value("analyze").key("netlist").value(kDeadlocked);
  analyze_request.end_object();
  const serve::Outcome rejected = execute_line(analyze_request.str());
  CHECK_OR_FAIL(!rejected.ok && rejected.error_code == serve::codes::kLint,
                "lint: serve analyze rejects with the lint wire code");

  util::JsonWriter lint_request;
  lint_request.begin_object();
  lint_request.key("verb").value("lint").key("netlist").value(kDeadlocked);
  lint_request.end_object();
  const serve::Outcome linted = execute_line(lint_request.str());
  CHECK_OR_FAIL(linted.ok, "lint: the lint verb itself succeeds");
  const util::JsonParse payload = util::json_parse(linted.payload);
  CHECK_OR_FAIL(payload.ok && payload.value.is_object(), "lint: payload parses");
  const util::Json* errors = payload.value.find("errors");
  CHECK_OR_FAIL(errors != nullptr && errors->as_int() == 3,
                "lint: payload itemizes the three error findings");
  CHECK_OR_FAIL(graph::enumerated_cycles() == enumerated, "lint: no cycle enumerated");
  return true;
}

// Invariant (14): the cluster router is a pure transport. Every payload read
// back through a 3-worker lid_cluster front door equals the payload of a
// single lid_serve and of direct in-process execution, byte for byte —
// inline netlists and registered fingerprints alike — and the identity
// survives stopping a worker mid-run (failover + model re-registration) on
// workers whose registries hold fewer models than the run registers, so
// evicted models are re-registered too.
bool check_cluster(std::uint64_t trial_seed) {
  util::Rng rng(trial_seed);
  std::vector<std::string> texts;
  for (int i = 0; i < 3; ++i) {
    GenerateOptions options;
    options.cores = 5 + static_cast<int>(rng.uniform_int(0, 6));
    options.sccs = 1 + static_cast<int>(rng.uniform_int(0, 2));
    options.extra_cycles = static_cast<int>(rng.uniform_int(0, 2));
    options.relay_stations = 1 + static_cast<int>(rng.uniform_int(0, 3));
    options.rs_anywhere = true;
    options.seed = rng.fork_seed();
    const Result<Instance> generated = lid::generate(options);
    CHECK_OR_FAIL(generated.ok(), "cluster: generate");
    const Result<std::string> text = netlist_text(*generated);
    CHECK_OR_FAIL(text.ok(), "cluster: netlist text");
    texts.push_back(*text);
  }

  static const char* kVerbs[] = {"analyze", "size-queues", "lint", "rate-safety"};
  const auto inline_line = [&](std::size_t m, const char* verb) {
    util::JsonWriter w;
    w.begin_object();
    w.key("verb").value(verb).key("netlist").value(texts[m]);
    w.end_object();
    return w.str();
  };
  const auto model_line = [&](std::size_t m, const char* verb) {
    util::JsonWriter w;
    w.begin_object();
    w.key("verb").value(verb).key("model").value(serve::Registry::fingerprint(texts[m]));
    w.end_object();
    return w.str();
  };

  // Direct execution is the reference.
  std::vector<std::vector<std::string>> direct(texts.size());
  for (std::size_t m = 0; m < texts.size(); ++m) {
    for (const char* verb : kVerbs) {
      const Result<serve::Request> request = serve::parse_request(inline_line(m, verb));
      CHECK_OR_FAIL(request.ok(), "cluster: request parses");
      const serve::Outcome outcome = serve::execute(*request);
      CHECK_OR_FAIL(outcome.ok, "cluster: direct execution succeeds");
      direct[m].push_back(outcome.payload);
    }
  }

  // Three adopted in-process workers behind a router, plus one plain server
  // as the middle term of the identity.
  const std::string stem = "/tmp/lid_selfcheck_cl_" + std::to_string(::getpid());
  std::vector<std::unique_ptr<serve::Server>> workers;
  serve::ClusterOptions cluster_options;
  for (int i = 0; i < 3; ++i) {
    serve::ServerOptions options;
    options.unix_socket = stem + "_w" + std::to_string(i) + ".sock";
    options.registry_max_models = 1;  // below the 3 models registered here
    workers.push_back(std::make_unique<serve::Server>(options));
    CHECK_OR_FAIL(workers.back()->start().ok(), "cluster: worker starts");
    serve::WorkerSpec spec;
    spec.unix_socket = options.unix_socket;
    spec.spawn = false;
    cluster_options.workers.push_back(spec);
  }
  cluster_options.unix_socket = stem + "_front.sock";
  cluster_options.probe_interval_ms = 20.0;
  cluster_options.eject_after = 2;
  serve::Cluster cluster(cluster_options);
  CHECK_OR_FAIL(cluster.start().ok(), "cluster: router starts");

  serve::ServerOptions single_options;
  single_options.unix_socket = stem + "_single.sock";
  serve::Server single(single_options);
  CHECK_OR_FAIL(single.start().ok(), "cluster: single server starts");

  const serve::SessionOptions v1{.protocol = 1};
  Result<serve::Session> front = serve::Session::connect_unix(cluster_options.unix_socket, v1);
  Result<serve::Session> side = serve::Session::connect_unix(single_options.unix_socket, v1);
  CHECK_OR_FAIL(front.ok() && side.ok(), "cluster: clients connect");
  serve::Session via_cluster = std::move(front).value();
  serve::Session via_single = std::move(side).value();

  const auto payload_of = [](serve::Session& client,
                             const std::string& line) -> Result<std::string> {
    const Result<std::string> response = client.call(line);
    if (!response) return response.error();
    return serve::extract_result(*response);
  };

  // Inline requests: cluster == single server == direct.
  for (std::size_t m = 0; m < texts.size(); ++m) {
    for (std::size_t v = 0; v < 4; ++v) {
      const Result<std::string> clustered = payload_of(via_cluster, inline_line(m, kVerbs[v]));
      const Result<std::string> singled = payload_of(via_single, inline_line(m, kVerbs[v]));
      CHECK_OR_FAIL(clustered.ok() && singled.ok(), "cluster: inline responses ok");
      CHECK_OR_FAIL(*clustered == *singled, "cluster: inline cluster == single server");
      CHECK_OR_FAIL(*clustered == direct[m][v], "cluster: inline cluster == direct");
    }
  }

  // Registered requests through the router (which owns placement).
  for (const std::string& text : texts) {
    util::JsonWriter w;
    w.begin_object();
    w.key("verb").value("register-model").key("netlist").value(text);
    w.end_object();
    const Result<std::string> registered = payload_of(via_cluster, w.str());
    CHECK_OR_FAIL(registered.ok(), "cluster: register-model succeeds");
  }
  for (std::size_t m = 0; m < texts.size(); ++m) {
    for (std::size_t v = 0; v < 4; ++v) {
      const Result<std::string> payload = payload_of(via_cluster, model_line(m, kVerbs[v]));
      CHECK_OR_FAIL(payload.ok(), "cluster: registered query succeeds");
      CHECK_OR_FAIL(*payload == direct[m][v], "cluster: registered payload == direct");
    }
  }

  // Stop one worker: the router must fail over, re-register the displaced
  // models, and keep every payload byte-identical — never unknown_model.
  workers[0]->stop();
  for (std::size_t m = 0; m < texts.size(); ++m) {
    for (std::size_t v = 0; v < 4; ++v) {
      const Result<std::string> payload = payload_of(via_cluster, model_line(m, kVerbs[v]));
      CHECK_OR_FAIL(payload.ok(), "cluster: post-failover query succeeds");
      CHECK_OR_FAIL(*payload == direct[m][v], "cluster: post-failover payload == direct");
    }
  }

  via_cluster.close();
  via_single.close();
  cluster.stop();
  single.stop();
  for (const std::unique_ptr<serve::Server>& worker : workers) worker->stop();
  return true;
}

// Invariant (15): certificates are sound and transport-stable. The facade's
// opt-in certificates (analyze and size-queues) pass the independent O(E)
// checker in both the typed and the JSON form; through lid_serve, the
// certified payloads are byte-identical between inline and registered
// (model-addressed) requests over both the NDJSON and binary transports, and
// the certificate embedded in every served payload re-verifies locally.
bool check_certificates(std::uint64_t trial_seed) {
  const std::uint64_t enumerated = graph::enumerated_cycles();
  util::Rng rng(trial_seed);
  std::vector<Instance> instances;
  std::vector<std::string> texts;
  for (int i = 0; i < 3; ++i) {
    GenerateOptions options;
    options.cores = 5 + static_cast<int>(rng.uniform_int(0, 6));
    options.sccs = 1 + static_cast<int>(rng.uniform_int(0, 2));
    options.extra_cycles = static_cast<int>(rng.uniform_int(0, 2));
    options.relay_stations = 1 + static_cast<int>(rng.uniform_int(0, 3));
    options.rs_anywhere = true;
    options.seed = rng.fork_seed();
    const Result<Instance> generated = lid::generate(options);
    CHECK_OR_FAIL(generated.ok(), "cert: generate");
    const Result<std::string> text = netlist_text(*generated);
    CHECK_OR_FAIL(text.ok(), "cert: netlist text");
    instances.push_back(*generated);
    texts.push_back(*text);
  }

  // Facade: both certifying entry points, typed and JSON checker forms.
  for (const Instance& instance : instances) {
    AnalyzeOptions analyze_options;
    analyze_options.certify = true;
    const Result<Analysis> analysis = analyze(instance, analyze_options);
    CHECK_OR_FAIL(analysis.ok() && analysis->certificate.has_value(), "cert: analyze certifies");
    Result<verify::CheckResult> verdict = verify_certificate(instance, *analysis->certificate);
    CHECK_OR_FAIL(verdict.ok() && verdict->ok, "cert: analyze certificate verifies");
    verdict = verify_certificate(instance, verify::to_json(*analysis->certificate));
    CHECK_OR_FAIL(verdict.ok() && verdict->ok, "cert: analyze JSON form verifies");

    SizeQueuesOptions sizing_options;
    sizing_options.certify = true;
    const Result<Sizing> sizing = size_queues(instance, sizing_options);
    CHECK_OR_FAIL(sizing.ok() && sizing->certificate.has_value(), "cert: sizing certifies");
    verdict = verify_certificate(instance, *sizing->certificate);
    CHECK_OR_FAIL(verdict.ok() && verdict->ok, "cert: sizing certificate verifies");
    verdict = verify_certificate(instance, verify::to_json(*sizing->certificate));
    CHECK_OR_FAIL(verdict.ok() && verdict->ok, "cert: sizing JSON form verifies");
  }

  // A certified payload must embed a certificate that the independent
  // checker accepts against the locally held instance.
  const auto payload_certificate_verifies = [&](const std::string& payload,
                                                std::size_t m) -> bool {
    const util::JsonParse parsed = util::json_parse(payload);
    if (!parsed.ok || !parsed.value.is_object()) return false;
    const util::Json* cert_json = parsed.value.find("certificate");
    if (cert_json == nullptr) return false;
    const verify::CertificateParse cert = verify::parse_certificate(*cert_json);
    if (!cert) return false;
    const Result<verify::CheckResult> verdict =
        verify_certificate(instances[m], cert.certificate);
    return verdict.ok() && verdict->ok;
  };

  static const char* kVerbs[] = {"analyze", "size-queues"};
  const auto inline_line = [&](std::size_t m, const char* verb) {
    util::JsonWriter w;
    w.begin_object();
    w.key("verb").value(verb).key("netlist").value(texts[m]).key("certify").value(true);
    w.end_object();
    return w.str();
  };

  // Direct execution of the certified inline form is the reference.
  std::vector<std::vector<std::string>> direct(texts.size());
  for (std::size_t m = 0; m < texts.size(); ++m) {
    for (const char* verb : kVerbs) {
      const Result<serve::Request> request = serve::parse_request(inline_line(m, verb));
      CHECK_OR_FAIL(request.ok(), "cert: request parses");
      const serve::Outcome outcome = serve::execute(*request);
      CHECK_OR_FAIL(outcome.ok, "cert: direct certified execution succeeds");
      CHECK_OR_FAIL(payload_certificate_verifies(outcome.payload, m),
                    "cert: direct payload certificate verifies");
      direct[m].push_back(outcome.payload);
    }
  }

  serve::ServerOptions server_options;
  server_options.unix_socket = "/tmp/lid_selfcheck_cert_" + std::to_string(::getpid()) + ".sock";
  serve::Server server(server_options);
  CHECK_OR_FAIL(server.start().ok(), "cert: server starts");
  for (const bool binary : {false, true}) {
    serve::SessionOptions session_options;
    session_options.binary = binary;
    Result<serve::Session> connected =
        serve::Session::connect_unix(server_options.unix_socket, session_options);
    CHECK_OR_FAIL(connected.ok(), "cert: session connects");
    serve::Session session = std::move(connected).value();
    for (std::size_t m = 0; m < texts.size(); ++m) {
      const Result<serve::ModelHandle> handle = session.register_model(texts[m]);
      CHECK_OR_FAIL(handle.ok(), "cert: register-model succeeds");
      for (std::size_t v = 0; v < 2; ++v) {
        const Result<std::string> registered =
            session.query(*handle, kVerbs[v], R"({"certify":true})");
        CHECK_OR_FAIL(registered.ok(), "cert: registered certified query succeeds");
        CHECK_OR_FAIL(*registered == direct[m][v],
                      "cert: registered certified payload == inline == direct");
        const Result<std::string> response = session.call(inline_line(m, kVerbs[v]));
        CHECK_OR_FAIL(response.ok(), "cert: inline certified call succeeds");
        const Result<std::string> inlined = serve::extract_result(*response);
        CHECK_OR_FAIL(inlined.ok(), "cert: inline certified response ok");
        CHECK_OR_FAIL(*inlined == direct[m][v], "cert: inline certified payload == direct");
      }
    }
    session.close();
  }
  server.stop();
  CHECK_OR_FAIL(graph::enumerated_cycles() == enumerated, "cert: no cycle enumerated");
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const util::Cli cli(argc, argv);
    const double seconds = cli.get_double("seconds", 5.0);
    const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
    const bool verbose = cli.get_bool("verbose", false);

    util::Rng seeder(seed);
    util::Timer timer;
    if (!check_engine(seed)) return 1;
    if (!check_serve(seed)) return 1;
    if (!check_registry(seed)) return 1;
    if (!check_degrade(seed)) return 1;
    if (!check_lint(seed)) return 1;
    if (!check_cluster(seed)) return 1;
    if (!check_certificates(seed)) return 1;
    std::int64_t trials = 0;
    while (timer.elapsed_s() < seconds) {
      if (!check_one(seeder.fork_seed(), verbose)) return 1;
      ++trials;
    }
    std::cout << "lid_selfcheck: " << trials << " randomized systems, all invariants hold ("
              << timer.elapsed_s() << " s)\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "lid_selfcheck: " << e.what() << "\n";
    return 1;
  }
}
