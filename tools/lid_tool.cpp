// lid_tool — command-line front end, built on the lid:: facade
// (src/lid_api.hpp) and the batch engine (src/engine).
//
// Verb subcommands (legacy spellings kept as aliases):
//   lid_tool analyze   --netlist sys.lis [--slack] [--rates]
//                      [--certify] [--certificate-out cert.json]
//   lid_tool size      --netlist sys.lis [--method heuristic|exact|both|lazy]
//                      [--out sized.lis] [--timeout-ms N] [--max-nodes N]
//                      [--certify] [--certificate-out cert.json]
//                      (alias: size-queues)
//   lid_tool verify    --netlist sys.lis --certificate cert.json
//                      independent O(E) re-check of an analysis / sizing
//                      certificate (src/verify — no solver code); exit 0 on
//                      OK, 2 with a structured reason on rejection
//   lid_tool batch     [--netlists a.lis,b.lis] [--cofdm] [--count N]
//                      [--v N --s N --c N --rs N --policy scc|any --seed N]
//                      [--threads N] [--analyses list|all]
//                      [--metrics] [--metrics-json file] [--out file]
//   lid_tool export    --netlist sys.lis [--format dot|dot-doubled|text]
//                      [--highlight-critical] [--show-queues]  (alias: dot)
//   lid_tool gen       --out sys.lis [--v N --s N --c N --rs N
//                      --policy scc|any --seed N --reconvergent 0|1]
//                      [--stochastic [--max-latency N --max-period N]]
//                      (alias: generate)
//   lid_tool insert-rs --netlist sys.lis --budget N [--out repaired.lis]
//   lid_tool simulate  --netlist sys.lis [--periods N] [--reference core]
//                      [--vcd out.vcd]
//                      DES mode (any of these flags selects the stochastic
//                      event-driven backend, src/des):
//                      [--dist fixed:3|uniform:1:4|geometric:1/2]
//                      [--arrival saturated|rate:P|poisson:N/D|bursty:ON:OFF]
//                      [--horizon N] [--warmup N] [--seed N]
//                      [--occupancy-out occ.csv]
//                      `#!` annotations in the netlist override per channel /
//                      per source (see gen --stochastic, docs/simulation.md)
//   lid_tool storage   --netlist sys.lis
//   lid_tool pareto    --netlist sys.lis [--timeout-ms N]
//   lid_tool schedule  --netlist sys.lis [--max-periods N]
//   lid_tool lint      (--netlist sys.lis | --netlists a.lis,b.lis)
//                      [--target N|N/D] [--errors-only]
//                      [--format pretty|json|sarif] [--out file]
//                      [--fail-on error|warning|info|never]
//                      [--baseline known.sarif]  suppress findings already in
//                      a prior SARIF report (same rule at the same file/line);
//                      only NEW findings render or count toward --fail-on
//   lid_tool client    (--socket PATH | --port N [--host A]) --verb analyze
//                      [--netlist sys.lis | --model FINGERPRINT]
//                      [--deadline-ms N] [--id STR]
//                      [--on-deadline error|degrade] [--retries N]
//                      [--attempt-timeout-ms T]
//                      [--protocol 1|2] [--transport ndjson|binary]
//                      [verb args: --v/--s/--c/--rs/--seed/--policy, --solver,
//                       --max-nodes, --budget, --ms, --certify] [--result-only]
//                      [--stdin]
//                      Protocol-v2 verbs: hello, register-model (--netlist),
//                      evict-model (--model), list-models; analyze /
//                      size-queues / lint / rate-safety / simulate accept
//                      --model to hit a registered model instead of shipping
//                      the netlist.
//
// Numeric flags are range-validated (Cli::get_int_in): zero, negative or
// non-numeric values where they make no sense exit 1 with a message naming
// the flag and the accepted range.
#include <fstream>
#include <iostream>
#include <limits>
#include <set>
#include <sstream>

#include "serve/protocol.hpp"
#include "serve/retry.hpp"
#include "util/json.hpp"

#include "core/diagnostics.hpp"
#include "core/pareto.hpp"
#include "des/annotations.hpp"
#include "des/des.hpp"
#include "core/scheduling.hpp"
#include "core/slack.hpp"
#include "core/storage.hpp"
#include "engine/engine.hpp"
#include "graph/cycles.hpp"
#include "lid_api.hpp"
#include "lint/render.hpp"
#include "lis/dot_export.hpp"
#include "lis/protocol_sim.hpp"
#include "lis/vcd_export.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

using namespace lid;

/// Loads --netlist through the facade; throws the Result error as an
/// exception so every verb reports failures uniformly.
Instance load(const util::Cli& cli) {
  const std::string path = cli.get_string("netlist", "");
  if (path.empty()) throw std::invalid_argument("--netlist <file> is required");
  Result<Instance> loaded = load_netlist(path);
  if (!loaded) throw std::runtime_error(loaded.error().to_string());
  return *loaded;
}

template <typename T>
T value_or_throw(Result<T> result) {
  if (!result) throw std::runtime_error(result.error().to_string());
  return std::move(result).value();
}

/// Writes an emitted certificate: to --certificate-out when given, else to
/// stdout after the verb's human-readable report.
void emit_certificate(const util::Cli& cli, const verify::Certificate& cert) {
  const std::string json = verify::to_json(cert);
  const std::string out = cli.get_string("certificate-out", "");
  if (out.empty()) {
    std::cout << json << "\n";
    return;
  }
  std::ofstream file(out);
  if (!file) throw std::runtime_error("cannot open '" + out + "' for writing");
  file << json << "\n";
  std::cout << "certificate written to " << out << "\n";
}

/// True when the verb should emit a certificate: --certify, or an implied
/// opt-in via --certificate-out.
bool wants_certificate(const util::Cli& cli) {
  return cli.get_bool("certify", false) || !cli.get_string("certificate-out", "").empty();
}

GenerateOptions generate_options(const util::Cli& cli) {
  GenerateOptions options;
  options.cores = static_cast<int>(cli.get_int_in("v", 50, 2, 1'000'000));
  options.sccs = static_cast<int>(cli.get_int_in("s", 5, 1, 1'000'000));
  options.extra_cycles = static_cast<int>(cli.get_int_in("c", 5, 0, 1'000'000));
  options.relay_stations = static_cast<int>(cli.get_int_in("rs", 10, 0, 1'000'000));
  options.reconvergent = cli.get_bool("reconvergent", true);
  options.seed = static_cast<std::uint64_t>(
      cli.get_int_in("seed", 1, 0, std::numeric_limits<std::int64_t>::max()));
  const std::string policy = cli.get_string("policy", "scc");
  if (policy == "any") {
    options.rs_anywhere = true;
  } else if (policy == "scc") {
    options.rs_anywhere = false;
  } else {
    throw std::invalid_argument("--policy must be scc or any");
  }
  return options;
}

int cmd_analyze(const util::Cli& cli) {
  const Instance system = load(cli);
  AnalyzeOptions options;
  options.rate_safety = cli.get_bool("rates", false);
  options.certify = wants_certificate(cli);
  const Analysis& analysis = value_or_throw(analyze(system, options));
  std::cout << "cores: " << analysis.cores << ", channels: " << analysis.channels
            << ", relay stations: " << analysis.relay_stations << "\n";
  std::cout << "topology class: " << analysis.topology << "\n";
  if (options.rate_safety) {
    std::cout << "rate hazards: " << analysis.rate_hazards
              << (analysis.rate_safe ? " (ideal system safe)" : " (ideal system UNSAFE)") << "\n";
  }
  std::cout << "ideal MST " << analysis.theta_ideal << ", practical MST "
            << analysis.theta_practical << (analysis.degraded ? "  DEGRADED" : "") << "\n";
  if (analysis.degraded && !analysis.critical_cycle.empty()) {
    std::cout << "critical cycle:\n";
    for (const std::string& hop : analysis.critical_cycle) std::cout << "  " << hop << "\n";
  }
  if (cli.get_bool("slack", false)) {
    std::cout << "wire-pipelining slack (extra relay stations each channel absorbs before\n"
                 "the ideal MST drops):\n";
    util::Table table({"channel", "slack", "ideal MST if exceeded"});
    const lis::LisGraph& graph = system.graph();
    for (const core::ChannelSlack& s : core::channel_slacks(graph)) {
      const lis::Channel& ch = graph.channel(s.channel);
      table.add_row({graph.core_name(ch.src) + " -> " + graph.core_name(ch.dst),
                     s.slack == core::ChannelSlack::kUnbounded ? "unbounded"
                                                               : std::to_string(s.slack),
                     s.slack == core::ChannelSlack::kUnbounded
                         ? "-"
                         : s.mst_if_exceeded.to_string()});
    }
    table.print(std::cout);
  }
  if (analysis.certificate) emit_certificate(cli, *analysis.certificate);
  return 0;
}

int cmd_size(const util::Cli& cli) {
  const Instance system = load(cli);
  // Default matches the facade: lazy constraint generation, which never
  // enumerates cycles. The eager solvers stay explicit opt-ins.
  const std::string method = cli.get_string("method", "lazy");
  SizeQueuesOptions options;
  if (method == "heuristic") {
    options.solver = Solver::kHeuristic;
  } else if (method == "exact") {
    options.solver = Solver::kExact;
  } else if (method == "both" || method == "full") {
    options.solver = Solver::kBoth;
  } else if (method == "lazy") {
    options.solver = Solver::kLazy;
  } else {
    throw std::invalid_argument("--method must be heuristic, exact, both or lazy");
  }
  options.exact_timeout_ms = cli.get_double_in("timeout-ms", 60000.0, 0.0, 1e9);
  options.exact_max_nodes = cli.get_int_in("max-nodes", 0, 0, 1'000'000'000);
  options.certify = wants_certificate(cli);
  const Sizing& sizing = value_or_throw(size_queues(system, options));

  std::cout << "ideal MST " << sizing.theta_ideal << ", practical MST " << sizing.theta_practical
            << "\n";
  if (!sizing.degraded) {
    std::cout << "no degradation: queues are already sufficient\n";
  } else {
    // Wall-clock times go to stderr, so that stdout is a pure function of
    // the netlist and the options.
    if (sizing.heuristic_total >= 0) {
      std::cout << "heuristic: " << sizing.heuristic_total << " extra slot(s)\n";
      std::cerr << "heuristic solve: " << util::Table::fmt(sizing.heuristic_ms, 3) << " ms\n";
    }
    if (sizing.exact_total >= 0) {
      // An unproven lazy sizing still reaches its target: only its last
      // round's sub-solve ran out of budget and kept the heuristic's cover.
      const char* unproven = sizing.solver_lazy ? "  (unproven: the last round's budget ran out)"
                                                : "  (timed out — heuristic fallback)";
      std::cout << "exact:     " << sizing.exact_total << " extra slot(s)"
                << (sizing.exact_proved ? "" : unproven) << "\n";
      std::cerr << "exact solve: " << util::Table::fmt(sizing.exact_ms, 3) << " ms\n";
    }
    if (sizing.solver_lazy) {
      std::cout << "lazy:      " << sizing.lazy_iterations << " separation round(s), "
                << sizing.cycles_generated << " cycle constraint(s), "
                << sizing.howard_warm_restarts << " warm Howard restart(s)\n";
    }
    std::cout << "achieved MST " << sizing.achieved << "\n";
    for (const QueueChange& change : sizing.changes) {
      std::cout << "  queue of " << change.dst << " fed by " << change.src << ": "
                << change.before << " -> " << change.after << "\n";
    }
  }
  // Every cycle this process enumerated: 0 unless an eager method ran.
  std::cerr << "cycles enumerated: " << graph::enumerated_cycles() << "\n";
  const std::string out = cli.get_string("out", "");
  if (!out.empty()) {
    const Status saved = save_netlist(sizing.sized, out);
    if (!saved) throw std::runtime_error(saved.error().to_string());
    std::cout << "sized netlist written to " << out << "\n";
  }
  if (sizing.certificate) emit_certificate(cli, *sizing.certificate);
  return 0;
}

/// `verify` — the independent half of the certificate story: load a netlist
/// and a certificate document, run the O(E) checker (src/verify shares no
/// solver code with the emitters), and report the verdict. Exit 0 on OK,
/// 2 with the structured rejection reason otherwise.
int cmd_verify(const util::Cli& cli) {
  const Instance system = load(cli);
  const std::string path = cli.get_string("certificate", "");
  if (path.empty()) throw std::invalid_argument("--certificate <file> is required");
  std::ifstream file(path);
  if (!file) throw std::runtime_error("cannot open '" + path + "'");
  std::ostringstream text;
  text << file.rdbuf();
  const verify::CertificateParse parsed = verify::parse_certificate_text(text.str());
  if (!parsed) {
    std::cout << "certificate REJECTED: malformed document: " << parsed.error << "\n";
    return 2;
  }
  const char* kind = parsed.certificate.kind == verify::Kind::kSizing ? "sizing" : "analysis";
  const verify::CheckResult result =
      value_or_throw(verify_certificate(system, parsed.certificate));
  if (result.ok) {
    std::cout << "certificate OK (" << kind << ", model " << parsed.certificate.fingerprint
              << ")\n";
    return 0;
  }
  std::cout << "certificate REJECTED (" << kind << "): " << verify::to_string(result.reason);
  if (!result.detail.empty()) std::cout << " — " << result.detail;
  std::cout << "\n";
  return 2;
}

int cmd_batch(const util::Cli& cli) {
  std::vector<Instance> instances;

  // Source 1: explicit netlist files (comma-separated).
  const std::string netlists = cli.get_string("netlists", "");
  std::istringstream paths(netlists);
  std::string path;
  while (std::getline(paths, path, ',')) {
    if (path.empty()) continue;
    Result<Instance> loaded = load_netlist(path);
    if (!loaded) throw std::runtime_error(loaded.error().to_string());
    instances.push_back(*loaded);
  }

  // Source 2: the COFDM SoC case study.
  if (cli.get_bool("cofdm", false)) instances.push_back(cofdm_soc());

  // Source 3: generated instances (the default when nothing else is given).
  std::int64_t count = cli.get_int_in("count", 0, 0, 1'000'000);
  if (count <= 0 && instances.empty()) count = 20;
  if (count > 0) {
    GenerateOptions base = generate_options(cli);
    util::Rng seeder(base.seed);
    for (std::int64_t i = 0; i < count; ++i) {
      base.seed = seeder.fork_seed();
      instances.push_back(value_or_throw(generate(base)));
    }
  }

  engine::EngineOptions options;
  options.threads = static_cast<int>(cli.get_int_in("threads", 1, 1, 1024));
  options.exact_max_nodes = cli.get_int_in("max-nodes", 200'000, 0, 1'000'000'000);
  options.exact_timeout_ms = cli.get_double_in("timeout-ms", 0.0, 0.0, 1e9);
  options.rs_budget = static_cast<int>(cli.get_int_in("rs-budget", 2, 0, 1024));
  options.max_cycles =
      static_cast<std::size_t>(cli.get_int_in("max-cycles", 500'000, 1, 1'000'000'000));
  options.analyses = value_or_throw(
      engine::parse_analyses(cli.get_string("analyses", "mst-ideal,mst-practical,qs-heuristic")));

  const engine::BatchEngine batch_engine(options);
  const engine::BatchResult batch = batch_engine.run(instances);

  const std::string out = cli.get_string("out", "");
  if (out.empty()) {
    std::cout << batch.serialize();
  } else {
    std::ofstream file(out);
    if (!file) throw std::runtime_error("cannot open '" + out + "' for writing");
    file << batch.serialize();
    std::cout << "batch results written to " << out << "\n";
  }

  if (cli.get_bool("metrics", false)) batch.metrics.print(std::cout);
  const std::string metrics_json = cli.get_string("metrics-json", "");
  if (!metrics_json.empty()) {
    std::ofstream file(metrics_json);
    if (!file) throw std::runtime_error("cannot open '" + metrics_json + "' for writing");
    file << batch.metrics.to_json();
    std::cout << "metrics written to " << metrics_json << "\n";
  }

  for (const engine::InstanceResult& r : batch.results) {
    if (!r.error.empty()) return 2;
  }
  return 0;
}

int cmd_export(const util::Cli& cli) {
  const Instance system = load(cli);
  std::string format = cli.get_string("format", "dot");
  if (cli.get_bool("doubled", false)) format = "dot-doubled";  // legacy spelling
  if (format == "text") {
    std::cout << value_or_throw(netlist_text(system));
    return 0;
  }
  if (format == "dot-doubled") {
    std::cout << lis::marked_graph_to_dot(lis::expand_doubled(system.graph()).graph);
    return 0;
  }
  if (format != "dot") {
    throw std::invalid_argument("--format must be dot, dot-doubled or text");
  }
  lis::DotOptions options;
  options.always_show_queues = cli.get_bool("show-queues", false);
  if (cli.get_bool("highlight-critical", false)) {
    // The facade's critical-cycle strings are for humans; the highlight needs
    // channel ids, so this one path stays on the low-level report.
    for (const core::CriticalHop& hop : core::explain_degradation(system.graph()).critical_cycle) {
      if (hop.channel != graph::kInvalidEdge) options.highlight.push_back(hop.channel);
    }
  }
  std::cout << lis::to_dot(system.graph(), options);
  return 0;
}

int cmd_gen(const util::Cli& cli) {
  const std::string out = cli.get_string("out", "");
  if (out.empty()) throw std::invalid_argument("--out <file> is required");
  const GenerateOptions options = generate_options(cli);
  const Instance generated = value_or_throw(generate(options));
  if (cli.get_bool("stochastic", false)) {
    // Annotate every channel / source with a random latency model and
    // arrival process as `#!` comment lines, which legacy readers skip: the
    // annotated file round-trips through parse/save untouched for them while
    // `simulate` picks the profile up.
    des::RandomProfileOptions profile_options;
    profile_options.max_latency = cli.get_int_in("max-latency", 4, 1, 1'000'000);
    profile_options.max_period = cli.get_int_in("max-period", 8, 1, 1'000'000);
    util::Rng rng(options.seed ^ 0x5371'6f63'6861'7374ULL);
    const des::Profile profile =
        des::random_profile(generated.graph(), profile_options, rng);
    const std::string text =
        value_or_throw(netlist_text(generated)) + des::profile_text(profile, generated.graph());
    std::ofstream file(out);
    if (!file) throw std::runtime_error("cannot open '" + out + "' for writing");
    file << text;
    std::cout << "generated netlist (stochastic annotations) written to " << out << "\n";
    return 0;
  }
  const Status saved = save_netlist(generated, out);
  if (!saved) throw std::runtime_error(saved.error().to_string());
  std::cout << "generated netlist written to " << out << "\n";
  return 0;
}

int cmd_insert_rs(const util::Cli& cli) {
  const Instance system = load(cli);
  InsertRelayStationsOptions options;
  options.budget = static_cast<int>(cli.get_int_in("budget", 1, 0, 100'000));
  options.exhaustive = cli.get_bool("exhaustive", false);
  const RelayInsertion& result = value_or_throw(insert_relay_stations(system, options));
  std::cout << "original ideal MST " << result.original_ideal << "\n";
  std::cout << "added " << result.added << " relay station(s); practical MST "
            << result.best_practical << (result.reached_ideal ? " (ideal reached)" : "") << "\n";
  const std::string out = cli.get_string("out", "");
  if (!out.empty()) {
    const Status saved = save_netlist(result.repaired, out);
    if (!saved) throw std::runtime_error(saved.error().to_string());
    std::cout << "repaired netlist written to " << out << "\n";
  }
  return result.reached_ideal ? 0 : 2;
}

/// The stochastic DES mode of `simulate` (selected by any DES flag): the
/// src/des backend with per-channel latency models, open-system arrivals and
/// occupancy tracing. `#!` annotations in the netlist file override the
/// --dist/--arrival defaults per channel / per source.
int cmd_simulate_des(const util::Cli& cli) {
  const Instance instance = load(cli);
  const lis::LisGraph& system = instance.graph();
  DesOptions options;
  options.horizon = cli.get_int_in("horizon", 10'000, 1, 1'000'000'000);
  options.warmup = cli.get_int_in("warmup", 0, 0, 1'000'000'000);
  options.seed = static_cast<std::uint64_t>(
      cli.get_int_in("seed", 1, 0, std::numeric_limits<std::int64_t>::max()));
  if (const std::string dist = cli.get_string("dist", ""); !dist.empty()) {
    const std::optional<des::LatencyDist> parsed = des::parse_latency_dist(dist);
    if (!parsed) {
      throw std::invalid_argument("--dist must be fixed:N, uniform:LO:HI or geometric:N/D, got '" +
                                  dist + "'");
    }
    options.channel_latency = *parsed;
  }
  if (const std::string arrival = cli.get_string("arrival", ""); !arrival.empty()) {
    const std::optional<des::ArrivalSpec> parsed = des::parse_arrival_spec(arrival);
    if (!parsed) {
      throw std::invalid_argument(
          "--arrival must be saturated, rate:P, poisson:N/D or bursty:ON:OFF, got '" + arrival +
          "'");
    }
    options.arrival = *parsed;
  }
  options.reference = cli.get_string("reference", "");

  // Per-channel / per-source `#!` annotation overrides from the netlist file.
  {
    std::ifstream file(cli.get_string("netlist", ""));
    std::ostringstream text;
    text << file.rdbuf();
    options.profile = des::parse_profile(text.str(), system);
  }

  const DesReport report = value_or_throw(simulate_des(instance, options));
  std::cout << "simulated " << report.cycles_run << " cycle(s), " << report.events
            << " event(s), " << report.firings << " firing(s)"
            << (report.deterministic ? " [deterministic]" : "") << "\n";
  std::cout << "throughput " << report.throughput.to_string()
            << (report.periodic_found ? " (exact, periodic regime found)" : " (empirical)")
            << "\n";
  if (report.arrivals_generated > 0) {
    std::cout << "arrivals: " << report.arrivals_generated << " generated, "
              << report.arrivals_consumed << " consumed, max backlog " << report.max_backlog
              << "\n";
  }
  std::cout << "backpressure stalls: " << report.total_stall_events << " event(s), "
            << report.total_stall_cycles << " cycle(s)\n";
  util::Table table({"channel", "q", "rs", "in", "out", "stalls", "max", "p50", "p95", "p99",
                     "mean occupancy"});
  for (const des::ChannelStats& ch : report.channels) {
    table.add_row({system.core_name(ch.src) + " -> " + system.core_name(ch.dst),
                   std::to_string(ch.capacity), std::to_string(ch.relay_stations),
                   std::to_string(ch.tokens_in), std::to_string(ch.tokens_out),
                   std::to_string(ch.stall_events), std::to_string(ch.max_occupancy),
                   std::to_string(ch.p50), std::to_string(ch.p95), std::to_string(ch.p99),
                   ch.mean_occupancy.to_string()});
  }
  table.print(std::cout);

  if (const std::string occ = cli.get_string("occupancy-out", ""); !occ.empty()) {
    // The full time-weighted histograms, one row per (channel, level).
    util::CsvWriter csv(occ, {"src", "dst", "capacity", "relay_stations", "occupancy", "cycles"});
    for (const des::ChannelStats& ch : report.channels) {
      for (std::size_t level = 0; level < ch.histogram.size(); ++level) {
        if (ch.histogram[level] == 0) continue;
        csv.add_row({system.core_name(ch.src), system.core_name(ch.dst),
                     std::to_string(ch.capacity), std::to_string(ch.relay_stations),
                     std::to_string(level), std::to_string(ch.histogram[level])});
      }
    }
    std::cout << "occupancy histograms written to " << occ << "\n";
  }
  return 0;
}

int cmd_simulate(const util::Cli& cli) {
  // Any DES flag routes to the stochastic event-driven backend; the flagless
  // form stays the legacy cycle-accurate protocol simulation.
  if (cli.has("dist") || cli.has("arrival") || cli.has("horizon") || cli.has("warmup") ||
      cli.has("seed") || cli.has("occupancy-out")) {
    return cmd_simulate_des(cli);
  }
  const Instance instance = load(cli);
  const lis::LisGraph& system = instance.graph();
  lis::ProtocolOptions options;
  options.periods = static_cast<std::size_t>(cli.get_int_in("periods", 10000, 1, 100'000'000));
  const std::string reference = cli.get_string("reference", "");
  if (!reference.empty()) {
    bool found = false;
    for (lis::CoreId v = 0; v < static_cast<lis::CoreId>(system.num_cores()); ++v) {
      if (system.core_name(v) == reference) {
        options.reference = v;
        found = true;
      }
    }
    if (!found) throw std::invalid_argument("unknown core '" + reference + "'");
  }
  const std::string vcd = cli.get_string("vcd", "");
  options.record_traces = !vcd.empty();
  const lis::ProtocolResult result = simulate_protocol(system, options);
  std::cout << "simulated " << result.periods << " period(s); throughput of "
            << system.core_name(options.reference) << " = " << result.throughput.to_string()
            << (result.periodic_found ? " (exact, periodic regime found)" : " (empirical)")
            << "\n";
  if (!vcd.empty()) {
    lis::save_vcd(system, result, vcd);
    std::cout << "waveforms written to " << vcd << "\n";
  }
  return 0;
}

int cmd_storage(const util::Cli& cli) {
  const Instance instance = load(cli);
  const lis::LisGraph& system = instance.graph();
  util::Table table({"channel", "q", "relay stations", "worst-case occupancy"});
  for (const core::ChannelStorage& s : core::storage_bounds(system)) {
    const lis::Channel& ch = system.channel(s.channel);
    table.add_row({system.core_name(ch.src) + " -> " + system.core_name(ch.dst),
                   std::to_string(s.configured_capacity), std::to_string(s.relay_stations),
                   std::to_string(s.occupancy_bound)});
  }
  table.print(std::cout);
  std::cout << "total worst-case storage: " << core::total_storage_bound(system)
            << " item(s)\n";
  return 0;
}

int cmd_pareto(const util::Cli& cli) {
  const Instance instance = load(cli);
  core::ParetoOptions options;
  options.exact.timeout_ms = cli.get_double_in("timeout-ms", 60000.0, 0.0, 1e9);
  util::Table table({"extra queue slots", "achieved MST"});
  for (const core::ParetoPoint& point : core::qs_pareto_frontier(instance.graph(), options)) {
    table.add_row({std::to_string(point.extra_tokens), point.achieved_mst.to_string()});
  }
  table.print(std::cout);
  return 0;
}

int cmd_schedule(const util::Cli& cli) {
  const Instance instance = load(cli);
  const lis::LisGraph& system = instance.graph();
  const core::StaticSchedule schedule = core::compute_static_schedule(
      system, static_cast<std::size_t>(cli.get_int_in("max-periods", 20000, 1, 100'000'000)));
  if (!schedule.found) {
    std::cout << "no periodic schedule exists (unbalanced rates or budget too small);\n"
                 "this system needs backpressure (Sec. III-C)\n";
    return 2;
  }
  std::cout << "schedule rate " << schedule.throughput << ", transient " << schedule.transient
            << ", period " << schedule.period << "\n";
  for (lis::CoreId v = 0; v < static_cast<lis::CoreId>(system.num_cores()); ++v) {
    std::cout << "  " << system.core_name(v) << ": ";
    for (std::size_t t = schedule.transient; t < schedule.transient + schedule.period; ++t) {
      std::cout << (schedule.fires(v, t) ? '1' : '.');
    }
    std::cout << "\n";
  }
  std::cout << "per-channel queue requirement:";
  for (const std::int64_t q : schedule.required_queues) std::cout << " " << q;
  std::cout << "\n";
  const core::ScheduleReplay replay = core::replay_schedule(system, schedule, 4000);
  std::cout << "replay: throughput " << replay.throughput.to_string() << ", violations "
            << replay.violations << "\n";
  return 0;
}

/// The "ruleId|uri|startLine" identity used by `lint --baseline` suppression.
/// Must stay aligned with render_sarif's emission so a baseline produced by
/// `lint --format sarif` round-trips: uri is the provenance file ("" when the
/// netlist had none), line 0 when unresolved.
std::string finding_key(const std::string& rule, const std::string& uri, std::int64_t line) {
  return rule + "|" + uri + "|" + std::to_string(line);
}

/// Loads a SARIF baseline into the set of finding keys it contains.
std::set<std::string> load_baseline(const std::string& path) {
  std::ifstream file(path);
  if (!file) throw std::runtime_error("cannot open baseline '" + path + "'");
  std::ostringstream text;
  text << file.rdbuf();
  const util::JsonParse parsed = util::json_parse(text.str());
  if (!parsed.ok || !parsed.value.is_object()) {
    throw std::runtime_error("baseline '" + path + "' is not a valid SARIF document");
  }
  std::set<std::string> keys;
  const util::Json* runs = parsed.value.find("runs");
  if (runs == nullptr || !runs->is_array()) return keys;
  for (const util::Json& run : runs->items()) {
    const util::Json* results = run.find("results");
    if (results == nullptr || !results->is_array()) continue;
    for (const util::Json& result : results->items()) {
      const util::Json* rule = result.find("ruleId");
      if (rule == nullptr || !rule->is_string()) continue;
      std::string uri;
      std::int64_t line = 0;
      if (const util::Json* locations = result.find("locations");
          locations != nullptr && locations->is_array() && locations->size() > 0) {
        if (const util::Json* phys = locations->at(0).find("physicalLocation");
            phys != nullptr) {
          if (const util::Json* artifact = phys->find("artifactLocation"); artifact != nullptr) {
            if (const util::Json* u = artifact->find("uri"); u != nullptr) uri = u->as_string();
          }
          if (const util::Json* region = phys->find("region"); region != nullptr) {
            if (const util::Json* l = region->find("startLine"); l != nullptr) line = l->as_int();
          }
        }
      }
      keys.insert(finding_key(rule->as_string(), uri, line));
    }
  }
  return keys;
}

int cmd_lint(const util::Cli& cli) {
  // Inputs: --netlist one file, or --netlists a comma-separated list.
  std::vector<std::string> files;
  if (const std::string single = cli.get_string("netlist", ""); !single.empty()) {
    files.push_back(single);
  }
  std::istringstream paths(cli.get_string("netlists", ""));
  std::string path;
  while (std::getline(paths, path, ',')) {
    if (!path.empty()) files.push_back(path);
  }
  if (files.empty()) {
    throw std::invalid_argument("lint: --netlist <file> or --netlists <a,b,...> is required");
  }

  linter::LintOptions options;
  options.errors_only = cli.get_bool("errors-only", false);
  if (const std::string target = cli.get_string("target", ""); !target.empty()) {
    options.target = util::rational_from_string(target);
    if (options.target < util::Rational(0)) {
      throw std::invalid_argument("--target must be non-negative");
    }
  }

  // Keep instances and reports alive for the render items that point at them.
  std::vector<Instance> instances;
  std::vector<linter::Report> reports;
  instances.reserve(files.size());
  reports.reserve(files.size());
  for (const std::string& file : files) {
    Result<Instance> loaded = load_netlist(file);
    if (!loaded) throw std::runtime_error(loaded.error().to_string());
    instances.push_back(*loaded);
    reports.push_back(value_or_throw(lint(instances.back(), options)));
  }

  // --baseline <sarif>: findings already recorded in a prior SARIF report —
  // same rule at the same file/line — are dropped before rendering, so they
  // neither appear in the output nor count toward --fail-on. CI gates only on
  // NEW findings while a known-findings backlog is burned down.
  std::size_t suppressed = 0;
  if (const std::string baseline_path = cli.get_string("baseline", "");
      !baseline_path.empty()) {
    const std::set<std::string> baseline = load_baseline(baseline_path);
    for (std::size_t i = 0; i < files.size(); ++i) {
      const auto* provenance = instances[i].provenance();
      const std::string uri = provenance != nullptr ? provenance->file : "";
      std::erase_if(reports[i].diagnostics, [&](const linter::Diagnostic& d) {
        std::int64_t line = 0;
        if (provenance != nullptr) {
          if (d.location.has_channel()) {
            line = provenance->line_of_channel(d.location.channel);
          } else if (d.location.has_core()) {
            line = provenance->line_of_core(d.location.core);
          }
        }
        const bool known = baseline.count(finding_key(d.code, uri, line)) > 0;
        suppressed += known ? 1 : 0;
        return known;
      });
    }
    // stderr so --format json/sarif stdout stays machine-parseable.
    if (suppressed > 0) std::cerr << suppressed << " finding(s) suppressed by baseline\n";
  }

  std::vector<linter::RenderItem> items(files.size());
  for (std::size_t i = 0; i < files.size(); ++i) {
    items[i].lis = &instances[i].graph();
    items[i].report = &reports[i];
    items[i].provenance = instances[i].provenance();
    items[i].name = files[i];
  }

  const std::string format = cli.get_string("format", "pretty");
  std::string rendered;
  if (format == "pretty") {
    rendered = linter::render_pretty(items);
  } else if (format == "json") {
    rendered = linter::render_json(items) + "\n";
  } else if (format == "sarif") {
    rendered = linter::render_sarif(items) + "\n";
  } else {
    throw std::invalid_argument("--format must be pretty, json or sarif");
  }
  const std::string out = cli.get_string("out", "");
  if (out.empty()) {
    std::cout << rendered;
  } else {
    std::ofstream file(out);
    if (!file) throw std::runtime_error("cannot open '" + out + "' for writing");
    file << rendered;
    std::cout << "lint report written to " << out << "\n";
  }

  // Exit status: 0 clean at the threshold, 2 otherwise ("error" counts only
  // errors, "warning" also warnings, "info" any finding, "never" always 0).
  const std::string fail_on = cli.get_string("fail-on", "error");
  std::size_t failing = 0;
  for (const linter::Report& report : reports) {
    if (fail_on == "error") {
      failing += report.errors();
    } else if (fail_on == "warning") {
      failing += report.errors() + report.warnings();
    } else if (fail_on == "info") {
      failing += report.diagnostics.size();
    } else if (fail_on != "never") {
      throw std::invalid_argument("--fail-on must be error, warning, info or never");
    }
  }
  return failing > 0 ? 2 : 0;
}

/// Builds one request line for `client` from the command-line flags. The
/// embedded netlist comes from --netlist (a local file read client-side; the
/// server only ever sees text).
std::string build_client_request(const util::Cli& cli, const std::string& verb) {
  util::JsonWriter w;
  w.begin_object();
  w.key("id").value(cli.get_string("id", "cli"));
  w.key("verb").value(verb);
  const double deadline_ms = cli.get_double_in("deadline-ms", 0.0, 0.0, 1e9);
  if (deadline_ms > 0.0) w.key("deadline_ms").value_fixed(deadline_ms, 3);
  const std::string on_deadline = cli.get_string("on-deadline", "");
  if (!on_deadline.empty()) w.key("on_deadline").value(on_deadline);

  if (verb == "sleep") {
    w.key("ms").value(cli.get_int_in("ms", 0, 0, 10'000));
  } else if (verb == "generate") {
    const GenerateOptions options = generate_options(cli);
    w.key("v").value(options.cores);
    w.key("s").value(options.sccs);
    w.key("c").value(options.extra_cycles);
    w.key("rs").value(options.relay_stations);
    w.key("seed").value(static_cast<std::int64_t>(options.seed));
    w.key("policy").value(options.rs_anywhere ? "any" : "scc");
    w.key("reconvergent").value(options.reconvergent);
  } else if (verb == "hello") {
    w.key("protocol").value(cli.get_int_in("protocol", 2, 1, 2));
  } else if (verb == "evict-model") {
    const std::string model = cli.get_string("model", "");
    if (model.empty()) {
      throw std::invalid_argument("--model <fingerprint> is required for evict-model");
    }
    w.key("model").value(model);
  } else if (verb != "ping" && verb != "stats" && verb != "list-models") {
    // A registered-model fingerprint replaces the inline netlist for the
    // model-addressed verbs; register-model always ships the text.
    const std::string model = verb == "register-model" ? "" : cli.get_string("model", "");
    if (!model.empty()) {
      w.key("model").value(model);
    } else {
      const std::string path = cli.get_string("netlist", "");
      if (path.empty()) throw std::invalid_argument("--netlist <file> is required for " + verb);
      std::ifstream file(path);
      if (!file) throw std::runtime_error("cannot open '" + path + "'");
      std::ostringstream text;
      text << file.rdbuf();
      w.key("netlist").value(text.str());
    }
    // Certificate opt-in, passed through to the certifying verbs; the
    // response then carries a "certificate" section lid_tool verify (or any
    // independent checker) can validate offline.
    if ((verb == "analyze" || verb == "size-queues") && cli.get_bool("certify", false)) {
      w.key("certify").value(true);
    }
    if (verb == "size-queues") {
      // Passed through verbatim; omitted when not given so the server
      // default (lazy) applies. The server also accepts the "full" alias.
      const std::string solver = cli.get_string("solver", "");
      if (!solver.empty()) w.key("solver").value(solver);
      const std::int64_t max_nodes = cli.get_int_in("max-nodes", 0, 0, 1'000'000'000);
      if (max_nodes > 0) w.key("max_nodes").value(max_nodes);
    } else if (verb == "insert-rs") {
      w.key("budget").value(cli.get_int_in("budget", 1, 0, 64));
      if (cli.get_bool("exhaustive", false)) w.key("exhaustive").value(true);
    } else if (verb == "lint") {
      const std::string target = cli.get_string("target", "");
      if (!target.empty()) w.key("target").value(target);
      if (cli.get_bool("errors-only", false)) w.key("errors_only").value(true);
    } else if (verb == "simulate") {
      // DES args pass through verbatim; omitted flags fall to server
      // defaults. Spec strings are validated server-side.
      if (cli.has("horizon")) {
        w.key("horizon").value(cli.get_int_in("horizon", 10'000, 1, 1'000'000'000));
      }
      if (cli.has("warmup")) w.key("warmup").value(cli.get_int_in("warmup", 0, 0, 1'000'000'000));
      if (cli.has("seed")) {
        w.key("seed").value(
            cli.get_int_in("seed", 1, 0, std::numeric_limits<std::int64_t>::max()));
      }
      if (const std::string dist = cli.get_string("dist", ""); !dist.empty()) {
        w.key("dist").value(dist);
      }
      if (const std::string arrival = cli.get_string("arrival", ""); !arrival.empty()) {
        w.key("arrival").value(arrival);
      }
      if (cli.get_bool("occupancy", false)) w.key("occupancy").value(true);
      if (const std::string reference = cli.get_string("reference", ""); !reference.empty()) {
        w.key("reference").value(reference);
      }
    }
  }
  w.end_object();
  return w.str();
}

int cmd_client(const util::Cli& cli) {
  const std::string socket_path = cli.get_string("socket", "");
  const std::string host = cli.get_string("host", "127.0.0.1");
  const int port = socket_path.empty()
                       ? static_cast<int>(cli.get_int_in("port", 0, 1, 65535))
                       : -1;
  // --retries N allows N retry attempts on transport failures (reconnect +
  // jittered backoff); every protocol verb is idempotent, so this is safe.
  serve::RetryPolicy policy;
  policy.max_attempts = 1 + static_cast<int>(cli.get_int_in("retries", 0, 0, 100));
  policy.attempt_timeout_ms = cli.get_double_in("attempt-timeout-ms", 0.0, 0.0, 1e9);

  // --protocol 2 / --transport binary opt into the v2 handshake; the default
  // stays a byte-identical v1 NDJSON connection.
  const std::string transport = cli.get_string("transport", "");
  if (!transport.empty() && transport != "ndjson" && transport != "binary") {
    throw std::invalid_argument("--transport must be ndjson or binary");
  }
  const int protocol = static_cast<int>(cli.get_int_in("protocol", 1, 1, 2));
  serve::SessionOptions session_options;
  session_options.binary = transport == "binary";
  session_options.protocol = (protocol >= 2 || session_options.binary) ? 2 : 1;

  serve::RetryingClient client(
      [socket_path, host, port, session_options]() -> Result<serve::Session> {
        return socket_path.empty()
                   ? serve::Session::connect_tcp(host, port, session_options)
                   : serve::Session::connect_unix(socket_path, session_options);
      },
      policy);

  // Raw mode: forward NDJSON request lines from stdin verbatim, print each
  // response line. Lets scripts drive the full protocol through one
  // connection.
  if (cli.get_bool("stdin", false)) {
    bool all_ok = true;
    std::string line;
    while (std::getline(std::cin, line)) {
      if (line.empty()) continue;
      const Result<std::string> response = client.call(line);
      if (!response) throw std::runtime_error(response.error().to_string());
      std::cout << *response << "\n";
      const util::JsonParse parsed = util::json_parse(*response);
      const util::Json* ok =
          parsed.ok && parsed.value.is_object() ? parsed.value.find("ok") : nullptr;
      all_ok = all_ok && ok != nullptr && ok->is_bool() && ok->as_bool();
    }
    return all_ok ? 0 : 2;
  }

  const std::string verb = cli.get_string("verb", "ping");
  const std::string request = build_client_request(cli, verb);
  const Result<std::string> response = client.call(request);
  if (!response) throw std::runtime_error(response.error().to_string());
  if (cli.get_bool("result-only", false)) {
    const Result<std::string> result = serve::extract_result(*response);
    if (!result) throw std::runtime_error(result.error().to_string());
    std::cout << *result << "\n";
    return 0;
  }
  std::cout << *response << "\n";
  const Result<std::string> result = serve::extract_result(*response);
  return result ? 0 : 2;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<util::Command> commands = {
      {"analyze", {}, "throughput, topology class, critical cycle, rate safety", cmd_analyze},
      {"size", {"size-queues"}, "queue sizing (lazy default; heuristic / exact / both)", cmd_size},
      {"verify", {}, "independent O(E) check of an analysis / sizing certificate", cmd_verify},
      {"batch", {}, "parallel batch analysis over many instances, with metrics", cmd_batch},
      {"export", {"dot"}, "GraphViz / netlist-text export", cmd_export},
      {"gen", {"generate"}, "synthetic netlist generator (Sec. VIII)", cmd_gen},
      {"insert-rs", {}, "relay-station insertion repair (Sec. VI)", cmd_insert_rs},
      {"simulate", {}, "protocol simulation; --dist/--arrival select stochastic DES",
       cmd_simulate},
      {"storage", {}, "worst-case per-channel storage bounds", cmd_storage},
      {"pareto", {}, "cost vs throughput frontier of queue sizing", cmd_pareto},
      {"schedule", {}, "static schedule baseline (Casu–Macchiarulo)", cmd_schedule},
      {"lint", {}, "static diagnostics: deadlocks, broken queues, antipatterns", cmd_lint},
      {"client", {}, "send one request (or --stdin NDJSON) to a lid_serve daemon", cmd_client},
  };
  return util::dispatch_commands(argc, argv, commands, "lid_tool", std::cerr);
}
