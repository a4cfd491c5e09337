#include "engine/engine.hpp"

#include <algorithm>
#include <exception>
#include <sstream>

#include "core/lazy_sizing.hpp"
#include "core/qs_problem.hpp"
#include "core/queue_sizing.hpp"
#include "core/rate_safety.hpp"
#include "core/rs_insertion.hpp"
#include "engine/analysis_cache.hpp"
#include "engine/task_pool.hpp"
#include "lint/checks.hpp"

namespace lid::engine {
namespace {

core::QsOptions qs_options_for(const EngineOptions& options, core::QsMethod method) {
  core::QsOptions qs;
  qs.method = method;
  qs.build.max_cycles = options.max_cycles;
  qs.exact.max_nodes = options.exact_max_nodes;
  qs.exact.timeout_ms = options.exact_timeout_ms;
  return qs;
}

void run_qs(const EngineOptions& options, AnalysisCache& cache, Metrics& metrics,
            core::QsMethod method, InstanceResult& out) {
  const core::QsProblem& problem = cache.qs_problem(qs_options_for(options, method).build);
  out.theta_ideal = problem.theta_ideal;
  out.theta_practical = problem.theta_practical;
  out.qs_cycles = problem.cycles_enumerated;
  out.qs_truncated = out.qs_truncated || problem.truncated;

  const char* stage = method == core::QsMethod::kExact ? "qs_exact" : "qs_heuristic";
  const Metrics::ScopedStage timer(metrics, stage);
  const core::QsReport report =
      core::size_queues_on_problem(cache.lis(), problem, qs_options_for(options, method));
  if (report.heuristic) out.qs_heuristic_total = report.heuristic->total_extra_tokens;
  if (report.exact) {
    out.qs_exact_total = report.exact->total_extra_tokens;
    out.qs_exact_proved = report.exact->finished;
  }
  out.qs_achieved = report.achieved_mst;
}

void run_qs_lazy(const EngineOptions& options, AnalysisCache& cache, Metrics& metrics,
                 InstanceResult& out) {
  // No eager cycle enumeration: the lazy driver separates critical cycles on
  // demand, warm-starting Howard through the cache's pooled workspace.
  const Metrics::ScopedStage timer(metrics, "qs_lazy");
  const core::QsReport report = core::size_queues_lazy_with_mst(
      cache.lis(), cache.theta_ideal(), cache.theta_practical(),
      qs_options_for(options, core::QsMethod::kLazy), &cache.mcm_workspace());
  out.theta_ideal = report.problem.theta_ideal;
  out.theta_practical = report.problem.theta_practical;
  out.qs_truncated = out.qs_truncated || report.problem.truncated;
  if (report.exact) {
    out.qs_exact_total = report.exact->total_extra_tokens;
    out.qs_exact_proved = report.exact->finished;
  }
  if (report.heuristic) out.qs_heuristic_total = report.heuristic->total_extra_tokens;
  out.qs_achieved = report.achieved_mst;
  if (report.lazy) {
    out.qs_lazy_iterations = report.lazy->iterations;
    out.qs_cycles_generated = report.lazy->cycles_generated;
    metrics.count("lazy_iterations", report.lazy->iterations);
    metrics.count("cycles_generated", report.lazy->cycles_generated);
    metrics.count("howard_warm_restarts", report.lazy->howard_warm_restarts);
  }
}

void analyze_one(const EngineOptions& options, const Instance& instance, InstanceResult& out,
                 Metrics& metrics) {
  metrics.count("instances");
  if (!instance.valid()) {
    out.error = "invalid (empty) instance handle";
    metrics.count("failures");
    return;
  }
  out.name = instance.name();
  out.cores = instance.num_cores();
  out.channels = instance.num_channels();
  out.relay_stations = instance.total_relay_stations();

  // The error-tier lint checks reject broken instances (deadlocked, empty,
  // q = 0) with the diagnostic summary before any analysis trips an
  // invariant mid-solve.
  const linter::Report lint = linter::run_error_checks(instance.graph());
  if (lint.has_errors()) {
    out.error = "lint: " + lint.error_summary();
    metrics.count("lint_rejected");
    return;
  }

  AnalysisCache cache(instance.graph(), &metrics);
  try {
    for (const AnalysisKind kind : options.analyses) {
      switch (kind) {
        case AnalysisKind::kIdealMst:
          out.theta_ideal = cache.theta_ideal();
          break;
        case AnalysisKind::kPracticalMst:
          out.theta_practical = cache.theta_practical();
          break;
        case AnalysisKind::kQsHeuristic:
          run_qs(options, cache, metrics, core::QsMethod::kHeuristic, out);
          break;
        case AnalysisKind::kQsExact:
          run_qs(options, cache, metrics, core::QsMethod::kExact, out);
          break;
        case AnalysisKind::kQsLazy:
          run_qs_lazy(options, cache, metrics, out);
          break;
        case AnalysisKind::kRsInsertion: {
          const Metrics::ScopedStage timer(metrics, "rs_insertion");
          const core::RsInsertionResult rs =
              core::greedy_rs_insertion(instance.graph(), options.rs_budget);
          out.rs_added = rs.relay_stations_added;
          out.rs_reached_ideal = rs.reached_ideal;
          break;
        }
        case AnalysisKind::kRateSafety: {
          const Metrics::ScopedStage timer(metrics, "rate_safety");
          out.rate_hazards = cache.rate_safety().hazards.size();
          break;
        }
        case AnalysisKind::kDes: {
          // Deterministic limit (fixed unit latencies, saturated sources,
          // so no draw from the seed): the throughput is exact once a
          // recurrence is found, so this doubles as a cheap cross-check of
          // mst-practical. Occupancy tracing is off — the batch report
          // carries no histograms.
          const Metrics::ScopedStage timer(metrics, "des");
          des::SimOptions sim;
          sim.horizon = options.des_horizon;
          sim.trace_occupancy = false;
          const des::SimReport report = des::simulate(instance.graph(), sim);
          out.des_throughput = report.throughput;
          out.des_events = report.events;
          out.des_stalls = report.total_stall_events;
          out.des_periodic = report.periodic_found;
          metrics.count("des_events", report.events);
          metrics.count("des_firings", report.firings);
          metrics.count("des_stall_events", report.total_stall_events);
          break;
        }
      }
    }
  } catch (const std::exception& e) {
    out.error = e.what();
    metrics.count("failures");
  }
}

void append_field(std::ostream& os, const char* key, const std::string& value) {
  os << ' ' << key << '=' << value;
}

}  // namespace

const char* to_string(AnalysisKind kind) {
  switch (kind) {
    case AnalysisKind::kIdealMst: return "mst-ideal";
    case AnalysisKind::kPracticalMst: return "mst-practical";
    case AnalysisKind::kQsHeuristic: return "qs-heuristic";
    case AnalysisKind::kQsExact: return "qs-exact";
    case AnalysisKind::kQsLazy: return "qs-lazy";
    case AnalysisKind::kRsInsertion: return "rs-insertion";
    case AnalysisKind::kRateSafety: return "rate-safety";
    case AnalysisKind::kDes: return "des";
  }
  return "unknown";
}

Result<std::vector<AnalysisKind>> parse_analyses(const std::string& csv) {
  static constexpr AnalysisKind kAll[] = {
      AnalysisKind::kIdealMst, AnalysisKind::kPracticalMst, AnalysisKind::kQsHeuristic,
      AnalysisKind::kQsExact,  AnalysisKind::kQsLazy,       AnalysisKind::kRsInsertion,
      AnalysisKind::kRateSafety, AnalysisKind::kDes,
  };
  std::vector<AnalysisKind> kinds;
  std::istringstream stream(csv);
  std::string token;
  while (std::getline(stream, token, ',')) {
    if (token.empty()) continue;
    if (token == "all") {
      kinds.assign(std::begin(kAll), std::end(kAll));
      continue;
    }
    bool found = false;
    for (const AnalysisKind kind : kAll) {
      if (token == to_string(kind)) {
        kinds.push_back(kind);
        found = true;
        break;
      }
    }
    if (!found) {
      return Error{ErrorCode::kInvalidArgument,
                   "unknown analysis '" + token +
                       "' (expected mst-ideal, mst-practical, qs-heuristic, qs-exact, "
                       "qs-lazy, rs-insertion, rate-safety, des or all)"};
    }
  }
  if (kinds.empty()) {
    return Error{ErrorCode::kInvalidArgument, "empty analysis list"};
  }
  return kinds;
}

std::string InstanceResult::serialize() const {
  std::ostringstream os;
  os << index;
  append_field(os, "name", name.empty() ? "-" : name);
  append_field(os, "cores", std::to_string(cores));
  append_field(os, "channels", std::to_string(channels));
  append_field(os, "rs", std::to_string(relay_stations));
  if (theta_ideal) append_field(os, "ideal", theta_ideal->to_string());
  if (theta_practical) append_field(os, "practical", theta_practical->to_string());
  if (qs_cycles) append_field(os, "cycles", std::to_string(*qs_cycles));
  if (qs_truncated) append_field(os, "truncated", "1");
  if (qs_heuristic_total) append_field(os, "qs_heur", std::to_string(*qs_heuristic_total));
  if (qs_exact_total) {
    append_field(os, "qs_exact", std::to_string(*qs_exact_total));
    append_field(os, "qs_proved", qs_exact_proved ? "1" : "0");
  }
  if (qs_achieved) append_field(os, "achieved", qs_achieved->to_string());
  if (qs_lazy_iterations) {
    append_field(os, "lazy_iters", std::to_string(*qs_lazy_iterations));
    append_field(os, "lazy_cycles", std::to_string(qs_cycles_generated.value_or(0)));
  }
  if (rs_added) {
    append_field(os, "rs_added", std::to_string(*rs_added));
    append_field(os, "rs_ideal", rs_reached_ideal ? "1" : "0");
  }
  if (rate_hazards) append_field(os, "hazards", std::to_string(*rate_hazards));
  if (des_throughput) {
    append_field(os, "des", des_throughput->to_string());
    append_field(os, "des_periodic", des_periodic ? "1" : "0");
    append_field(os, "des_events", std::to_string(des_events.value_or(0)));
    append_field(os, "des_stalls", std::to_string(des_stalls.value_or(0)));
  }
  if (!error.empty()) append_field(os, "error", '"' + error + '"');
  return os.str();
}

std::string BatchResult::serialize() const {
  std::ostringstream os;
  os << "# lid-batch v1 instances=" << results.size() << "\n";
  for (const InstanceResult& r : results) os << r.serialize() << "\n";
  return os.str();
}

BatchEngine::BatchEngine(EngineOptions options) : options_(std::move(options)) {
  options_.threads = std::max(1, options_.threads);
}

BatchResult BatchEngine::run(const std::vector<Instance>& instances) const {
  BatchResult batch;
  batch.results.resize(instances.size());
  for (std::size_t i = 0; i < instances.size(); ++i) batch.results[i].index = i;

  const int workers =
      static_cast<int>(std::min<std::size_t>(static_cast<std::size_t>(options_.threads),
                                             std::max<std::size_t>(instances.size(), 1)));
  std::vector<Metrics> worker_metrics(static_cast<std::size_t>(workers));

  // One task per instance on the shared pool; tasks are enqueued in input
  // order and results land in preassigned slots, so serialize() stays
  // byte-identical at any thread count.
  TaskPool pool(TaskPool::Options{workers, /*queue_capacity=*/0});
  for (std::size_t i = 0; i < instances.size(); ++i) {
    pool.submit([&, i](const TaskPool::Context& context) {
      Metrics& metrics = worker_metrics[static_cast<std::size_t>(context.worker)];
      const Metrics::ScopedStage timer(metrics, "instance_total");
      analyze_one(options_, instances[i], batch.results[i], metrics);
    });
  }
  pool.drain();

  batch.metrics.count("threads", workers);
  for (const Metrics& m : worker_metrics) batch.metrics.merge(m);
  return batch;
}

}  // namespace lid::engine
