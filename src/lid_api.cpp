#include "lid_api.hpp"

#include <exception>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <utility>

#include "core/certify.hpp"
#include "core/diagnostics.hpp"
#include "core/queue_sizing.hpp"
#include "core/rate_safety.hpp"
#include "core/rs_insertion.hpp"
#include "lid_api_detail.hpp"
#include "gen/generator.hpp"
#include "graph/topology.hpp"
#include "lis/netlist_io.hpp"
#include "mg/mcm.hpp"
#include "soc/cofdm.hpp"
#include "util/file.hpp"
#include "util/rng.hpp"

namespace lid {

using detail::guarded;
using detail::invalid_handle;

namespace detail {

std::optional<Error> lint_preflight(const char* who, const lis::LisGraph& lis) {
  return lint_preflight(who, lis, lis::expand_doubled(lis));
}

std::optional<Error> lint_preflight(const char* who, const lis::LisGraph& lis,
                                    const lis::Expansion& doubled) {
  linter::LintOptions errors_only;
  errors_only.errors_only = true;
  const linter::Report report = linter::run_checks(lis, errors_only, doubled);
  if (!report.has_errors()) return std::nullopt;
  return Error{ErrorCode::kLint, std::string(who) + ": " + report.error_summary()};
}

Analysis analysis_from_reports(const lis::LisGraph& lis, const core::DegradationReport& report,
                               const std::optional<core::RateSafetyReport>& rates,
                               std::optional<verify::Certificate> certificate,
                               const AnalyzeOptions& options) {
  Analysis analysis;
  analysis.cores = lis.num_cores();
  analysis.channels = lis.num_channels();
  analysis.relay_stations = lis.total_relay_stations();
  analysis.topology = graph::to_string(graph::classify(lis.structure()));
  analysis.theta_ideal = report.theta_ideal;
  analysis.theta_practical = report.theta_practical;
  analysis.degraded = report.degraded;
  if (options.critical_cycle) {
    analysis.critical_cycle.reserve(report.critical_cycle.size());
    for (const core::CriticalHop& hop : report.critical_cycle) {
      analysis.critical_cycle.push_back(hop.description);
    }
  }
  if (rates) {
    analysis.rate_hazards = rates->hazards.size();
    analysis.rate_safe = rates->safe();
  }
  analysis.certificate = std::move(certificate);
  return analysis;
}

core::QsOptions qs_options_from(const SizeQueuesOptions& options) {
  core::QsOptions qs;
  switch (options.solver) {
    case Solver::kHeuristic: qs.method = core::QsMethod::kHeuristic; break;
    case Solver::kExact: qs.method = core::QsMethod::kExact; break;
    case Solver::kBoth: qs.method = core::QsMethod::kBoth; break;
    case Solver::kLazy: qs.method = core::QsMethod::kLazy; break;
  }
  qs.exact.timeout_ms = options.exact_timeout_ms;
  qs.exact.max_nodes = options.exact_max_nodes;
  qs.exact.cancel = options.cancel;
  qs.simplify = options.simplify;
  qs.build.max_cycles = options.max_cycles;
  qs.build.target_mst = options.target;
  qs.build.cancel = options.cancel;
  // A certified sizing reads the achieved MST off the certificate's
  // post-sizing witness (sizing_from_report), so skip the solver's re-check.
  qs.verify = !options.certify;
  return qs;
}

Result<Sizing> sizing_from_report(const lis::LisGraph& lis, const core::QsReport& report,
                                  const Instance& original, const SizeQueuesOptions& options) {
  if (report.problem.cancelled) {
    // A partial enumeration depends on wall-clock timing; serving weights
    // derived from it would break response determinism, so fail instead.
    return Error{ErrorCode::kTimeout, "size_queues: cancelled during cycle enumeration"};
  }

  Sizing sizing;
  // Certify before copying the sized netlist into the result: at 10^5 cores
  // the copy would sit idle through the certificate's evidence passes.
  if (options.certify) {
    verify::Certificate certificate = core::certify_sizing(lis, report);
    const verify::McmWitness& achieved = certificate.achieved;
    sizing.achieved = achieved.acyclic ? util::Rational(1)
                                       : util::Rational::min(util::Rational(1), achieved.theta);
    LID_ENSURE(sizing.achieved.num() != 0,
               "size_queues: token-free cycle (deadlocked sized netlist)");
    sizing.certificate = std::move(certificate);
  } else {
    sizing.achieved = report.achieved_mst;
  }
  sizing.theta_ideal = report.problem.theta_ideal;
  sizing.theta_practical = report.problem.theta_practical;
  sizing.degraded = report.problem.has_degradation();
  sizing.cycles_enumerated = report.problem.cycles_enumerated;
  sizing.truncated = report.problem.truncated;
  if (report.heuristic) {
    sizing.heuristic_total = report.heuristic->total_extra_tokens;
    sizing.heuristic_ms = report.heuristic->cpu_ms;
  }
  if (report.exact) {
    sizing.exact_total = report.exact->total_extra_tokens;
    sizing.exact_ms = report.exact->cpu_ms;
    sizing.exact_proved = report.exact->finished;
    sizing.exact_cancelled = report.exact->cancelled;
    sizing.exact_nodes = report.exact->nodes_explored;
  }
  if (report.lazy) {
    sizing.solver_lazy = true;
    sizing.lazy_iterations = report.lazy->iterations;
    sizing.cycles_generated = report.lazy->cycles_generated;
    sizing.howard_warm_restarts = report.lazy->howard_warm_restarts;
  }
  for (const lis::ChannelId ch : report.problem.channels) {
    const int before = lis.channel(ch).queue_capacity;
    const int after = report.sized.channel(ch).queue_capacity;
    if (after != before) {
      sizing.changes.push_back(QueueChange{lis.core_name(lis.channel(ch).src),
                                           lis.core_name(lis.channel(ch).dst), before, after});
    }
  }
  sizing.sized = Instance::wrap(report.sized, original.name());
  return sizing;
}

}  // namespace detail

const char* to_string(ErrorCode code) {
  switch (code) {
    case ErrorCode::kIo: return "io";
    case ErrorCode::kParse: return "parse";
    case ErrorCode::kInvalidArgument: return "invalid-argument";
    case ErrorCode::kTimeout: return "timeout";
    case ErrorCode::kInternal: return "internal";
    case ErrorCode::kLint: return "lint";
  }
  return "unknown";
}

std::string Error::to_string() const {
  return std::string("[") + lid::to_string(code) + "] " + message;
}

// ---------------------------------------------------------------------------
// Instance.

struct Instance::Impl {
  lis::LisGraph graph;
  std::string name;
  /// Set when parsed from `.lis` text; empty file + empty line tables mean
  /// "no provenance" (generated or wrapped instances).
  lis::Provenance provenance;
  bool has_provenance = false;
};

std::size_t Instance::num_cores() const { return graph().num_cores(); }
std::size_t Instance::num_channels() const { return graph().num_channels(); }
int Instance::total_relay_stations() const { return graph().total_relay_stations(); }

const std::string& Instance::name() const {
  LID_ENSURE(valid(), "Instance::name: invalid handle");
  return impl_->name;
}

const lis::LisGraph& Instance::graph() const {
  LID_ENSURE(valid(), "Instance::graph: invalid handle");
  return impl_->graph;
}

const lis::Provenance* Instance::provenance() const {
  LID_ENSURE(valid(), "Instance::provenance: invalid handle");
  return impl_->has_provenance ? &impl_->provenance : nullptr;
}

Instance Instance::wrap(lis::LisGraph graph, std::string name) {
  Instance instance;
  Impl impl;
  impl.graph = std::move(graph);
  impl.name = std::move(name);
  instance.impl_ = std::make_shared<const Impl>(std::move(impl));
  return instance;
}

Instance Instance::wrap(lis::ParsedNetlist parsed, std::string name) {
  Instance instance;
  Impl impl;
  impl.graph = std::move(parsed.graph);
  impl.name = std::move(name);
  impl.provenance = std::move(parsed.provenance);
  impl.has_provenance = true;
  instance.impl_ = std::make_shared<const Impl>(std::move(impl));
  return instance;
}

// ---------------------------------------------------------------------------
// Loading, saving, generating.

Result<Instance> load_netlist(const std::string& path) {
  std::string text;
  switch (util::read_file(path, text)) {
    case util::ReadStatus::kCannotOpen:
      return Error{ErrorCode::kIo, "cannot open '" + path + "' for reading"};
    case util::ReadStatus::kReadError:
      return Error{ErrorCode::kIo, "read error on '" + path + "'"};
    case util::ReadStatus::kOk:
      break;
  }
  auto parsed = parse_netlist(text, path);
  if (!parsed.ok()) {
    return Error{parsed.error().code, path + ": " + parsed.error().message};
  }
  return parsed;
}

Result<Instance> parse_netlist(const std::string& text, std::string name) {
  return guarded<Instance>(ErrorCode::kParse, [&] {
    // Parse before wrapping: wrap() would otherwise race the move of `name`
    // into its second argument against the copy in the first.
    lis::ParsedNetlist parsed = lis::from_text_with_provenance(text, name);
    return Instance::wrap(std::move(parsed), std::move(name));
  });
}

Result<std::string> netlist_text(const Instance& instance) {
  if (!instance.valid()) return invalid_handle("netlist_text");
  return lis::to_text(instance.graph());
}

Status save_netlist(const Instance& instance, const std::string& path) {
  if (!instance.valid()) return invalid_handle("save_netlist");
  std::ofstream out(path);
  if (!out) return Error{ErrorCode::kIo, "cannot open '" + path + "' for writing"};
  out << lis::to_text(instance.graph());
  out.flush();
  if (!out) return Error{ErrorCode::kIo, "write error on '" + path + "'"};
  return Unit{};
}

Result<Instance> generate(const GenerateOptions& options) {
  return guarded<Instance>(ErrorCode::kInvalidArgument, [&]() -> Result<Instance> {
    gen::GeneratorParams params;
    params.vertices = options.cores;
    params.sccs = options.sccs;
    params.min_cycles = options.extra_cycles;
    params.relay_stations = options.relay_stations;
    params.reconvergent = options.reconvergent;
    params.policy = options.rs_anywhere ? gen::RsPolicy::kAny : gen::RsPolicy::kScc;
    params.queue_capacity = options.queue_capacity;
    util::Rng rng(options.seed);
    return Instance::wrap(gen::generate(params, rng), "gen-" + std::to_string(options.seed));
  });
}

Instance cofdm_soc() { return Instance::wrap(soc::build_cofdm(), "cofdm"); }

// ---------------------------------------------------------------------------
// Analysis.

Result<Analysis> analyze(const Instance& instance, const AnalyzeOptions& options) {
  if (!instance.valid()) return invalid_handle("analyze");
  return guarded<Analysis>(ErrorCode::kInvalidArgument, [&]() -> Result<Analysis> {
    // One expansion and one evidence pass per graph feed every verdict; d[G]
    // is dropped before G is expanded, so the two never share the heap.
    const lis::LisGraph& lis = instance.graph();
    core::DegradationReport report;
    mg::McmEvidence practical;
    {
      const lis::Expansion doubled = lis::expand_doubled(lis);
      if (options.preflight) {
        if (auto rejected = detail::lint_preflight("analyze", lis, doubled)) return *rejected;
      }
      practical = mg::mcm_evidence(doubled.graph);
      report = core::explain_practical(lis, doubled, practical.critical);
    }
    const lis::Expansion ideal = lis::expand_ideal(lis);
    mg::McmEvidence ideal_evidence = mg::mcm_evidence(ideal.graph);
    report.set_theta_ideal(mg::mst(ideal_evidence));
    std::optional<core::RateSafetyReport> rates;
    if (options.rate_safety) rates = core::analyze_rate_safety(lis, ideal, ideal_evidence);
    std::optional<verify::Certificate> certificate;
    if (options.certify) {
      certificate = core::certify_analysis(lis, std::move(ideal_evidence), std::move(practical));
    }
    return detail::analysis_from_reports(lis, report, rates, std::move(certificate), options);
  });
}

// ---------------------------------------------------------------------------
// Static diagnostics.

Result<linter::Report> lint(const Instance& instance, const linter::LintOptions& options) {
  if (!instance.valid()) return invalid_handle("lint");
  return guarded<linter::Report>(ErrorCode::kInvalidArgument,
                               [&] { return linter::run_checks(instance.graph(), options); });
}

// ---------------------------------------------------------------------------
// Queue sizing.

Result<Sizing> size_queues(const Instance& instance, const SizeQueuesOptions& options) {
  if (!instance.valid()) return invalid_handle("size_queues");
  return guarded<Sizing>(ErrorCode::kInvalidArgument, [&]() -> Result<Sizing> {
    const lis::LisGraph& lis = instance.graph();
    // The pre-flight's d[G] also gives θ(d[G]), as in analyze; it is
    // dropped before the sizer builds its own graphs.
    std::optional<util::Rational> theta_practical;
    if (options.preflight) {
      const lis::Expansion doubled = lis::expand_doubled(lis);
      if (auto rejected = detail::lint_preflight("size_queues", lis, doubled)) return *rejected;
      theta_practical = mg::mst(doubled.graph);
    }
    const core::QsReport report =
        core::size_queues(lis, detail::qs_options_from(options), theta_practical);
    return detail::sizing_from_report(lis, report, instance, options);
  });
}

// ---------------------------------------------------------------------------
// Certificate verification.

Result<verify::CheckResult> verify_certificate(const Instance& instance,
                                               const verify::Certificate& certificate) {
  if (!instance.valid()) return invalid_handle("verify_certificate");
  return guarded<verify::CheckResult>(ErrorCode::kInvalidArgument,
                                      [&] { return verify::check(instance.graph(), certificate); });
}

Result<verify::CheckResult> verify_certificate(const Instance& instance, const std::string& json) {
  if (!instance.valid()) return invalid_handle("verify_certificate");
  const verify::CertificateParse parsed = verify::parse_certificate_text(json);
  if (!parsed.ok) return Error{ErrorCode::kParse, "verify_certificate: " + parsed.error};
  return verify_certificate(instance, parsed.certificate);
}

// ---------------------------------------------------------------------------
// Event-driven stochastic simulation.

Result<DesReport> simulate_des(const Instance& instance, const DesOptions& options) {
  if (!instance.valid()) return invalid_handle("simulate_des");
  if (options.preflight) {
    if (auto rejected = detail::lint_preflight("simulate_des", instance.graph())) {
      return *rejected;
    }
  }
  return guarded<DesReport>(ErrorCode::kInvalidArgument, [&]() -> Result<DesReport> {
    const lis::LisGraph& lis = instance.graph();
    des::SimOptions sim;
    sim.horizon = options.horizon;
    sim.warmup = options.warmup;
    sim.seed = options.seed;
    sim.channel_latency = options.channel_latency;
    sim.arrival = options.arrival;
    sim.profile = options.profile;
    sim.trace_occupancy = options.trace_occupancy;
    sim.detect_period = options.detect_period;
    sim.cancel = options.cancel;
    if (!options.reference.empty()) {
      lis::CoreId reference = graph::kInvalidNode;
      for (lis::CoreId v = 0; v < static_cast<lis::CoreId>(lis.num_cores()); ++v) {
        if (lis.core_name(v) == options.reference) {
          reference = v;
          break;
        }
      }
      if (reference == graph::kInvalidNode) {
        return Error{ErrorCode::kInvalidArgument,
                     "simulate_des: unknown reference core '" + options.reference + "'"};
      }
      sim.reference = reference;
    }
    DesReport report = des::simulate(lis, sim);
    if (report.cancelled) {
      return Error{ErrorCode::kTimeout,
                   "simulate_des: cancelled after " + std::to_string(report.cycles_run) +
                       " of " + std::to_string(options.warmup + options.horizon) + " cycles"};
    }
    return report;
  });
}

// ---------------------------------------------------------------------------
// Relay-station insertion.

Result<RelayInsertion> insert_relay_stations(const Instance& instance,
                                             const InsertRelayStationsOptions& options) {
  if (!instance.valid()) return invalid_handle("insert_relay_stations");
  if (options.budget < 0) {
    return Error{ErrorCode::kInvalidArgument, "insert_relay_stations: negative budget"};
  }
  return guarded<RelayInsertion>(ErrorCode::kInvalidArgument, [&] {
    const core::RsInsertionResult result =
        options.exhaustive ? core::exhaustive_rs_insertion(instance.graph(), options.budget)
                           : core::greedy_rs_insertion(instance.graph(), options.budget);
    RelayInsertion insertion;
    insertion.original_ideal = result.original_ideal;
    insertion.best_practical = result.best_practical;
    insertion.added = result.relay_stations_added;
    insertion.reached_ideal = result.reached_ideal;
    insertion.configurations_tried = result.configurations_tried;
    insertion.repaired = Instance::wrap(result.best, instance.name());
    return insertion;
  });
}

}  // namespace lid
