#include "serve/protocol.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include "des/des.hpp"
#include "engine/cached_analysis.hpp"
#include "lint/render.hpp"
#include "serve/registry.hpp"
#include "util/rational.hpp"

namespace lid::serve {
namespace {

/// Pulls typed, range-checked arguments out of a request object. The first
/// violation is latched; callers check `error()` once after reading
/// everything.
class ArgReader {
 public:
  explicit ArgReader(const util::Json& args) : args_(args) {}

  [[nodiscard]] bool failed() const { return !error_.empty(); }
  [[nodiscard]] const std::string& error() const { return error_; }
  [[nodiscard]] const std::string& error_code() const { return code_; }

  std::int64_t get_int(const char* key, std::int64_t fallback, std::int64_t min,
                       std::int64_t max) {
    const util::Json* v = args_.find(key);
    if (v == nullptr || v->is_null()) return fallback;
    if (!v->is_number()) {
      fail(codes::kInvalidArgument, std::string("'") + key + "' must be a number");
      return fallback;
    }
    const std::int64_t value = v->as_int();
    if (value < min || value > max) {
      fail(codes::kInvalidArgument, std::string("'") + key + "' must be in [" +
                                        std::to_string(min) + ", " + std::to_string(max) +
                                        "], got " + std::to_string(value));
      return fallback;
    }
    return value;
  }

  bool get_bool(const char* key, bool fallback) {
    const util::Json* v = args_.find(key);
    if (v == nullptr || v->is_null()) return fallback;
    if (!v->is_bool()) {
      fail(codes::kInvalidArgument, std::string("'") + key + "' must be a boolean");
      return fallback;
    }
    return v->as_bool();
  }

  std::string get_string(const char* key, const std::string& fallback) {
    const util::Json* v = args_.find(key);
    if (v == nullptr || v->is_null()) return fallback;
    if (!v->is_string()) {
      fail(codes::kInvalidArgument, std::string("'") + key + "' must be a string");
      return fallback;
    }
    return v->as_string();
  }

  [[nodiscard]] bool has(const char* key) const { return args_.find(key) != nullptr; }

  /// The optional "model" fingerprint; empty when absent.
  std::string get_model() {
    const util::Json* v = args_.find("model");
    if (v == nullptr || v->is_null()) return {};
    if (!v->is_string() || v->as_string().empty()) {
      fail(codes::kInvalidArgument, "'model' must be a non-empty fingerprint string");
      return {};
    }
    return v->as_string();
  }

  /// The required embedded netlist text, with the size limit applied.
  std::string get_netlist(const ExecLimits& limits) {
    const util::Json* v = args_.find("netlist");
    if (v == nullptr || !v->is_string()) {
      fail(codes::kInvalidArgument, "'netlist' (string) is required");
      return {};
    }
    if (v->as_string().size() > limits.max_netlist_bytes) {
      fail(codes::kTooLarge, "netlist of " + std::to_string(v->as_string().size()) +
                                 " bytes exceeds the limit of " +
                                 std::to_string(limits.max_netlist_bytes));
      return {};
    }
    return v->as_string();
  }

  void fail(const char* code, std::string message) {
    if (error_.empty()) {
      code_ = code;
      error_ = std::move(message);
    }
  }

 private:
  const util::Json& args_;
  std::string code_;
  std::string error_;
};

Outcome arg_failure(const ArgReader& reader) {
  return Outcome::failure(reader.error_code(), reader.error());
}

Outcome from_error(const Error& error) {
  return Outcome::failure(wire_code(error.code), error.message);
}

/// How a netlist verb names its target: inline `netlist` text (v1) or a
/// registered `model` fingerprint (v2). Reading only validates argument
/// shape — parsing/registry lookup happens in `resolve_instance` after the
/// caller has checked every argument, preserving v1's error precedence.
struct ModelRef {
  std::string fingerprint;  ///< non-empty selects the registry path
  std::string netlist;
};

ModelRef read_model_ref(ArgReader& reader, const ExecLimits& limits) {
  ModelRef ref;
  ref.fingerprint = reader.get_model();
  if (!ref.fingerprint.empty()) {
    if (reader.has("netlist")) {
      reader.fail(codes::kInvalidArgument, "give 'netlist' or 'model', not both");
    }
    return ref;
  }
  ref.netlist = reader.get_netlist(limits);
  return ref;
}

/// The target instance plus, for registry-addressed requests, the resident
/// entry whose pooled cache/memo serve it. `entry` stays null on the inline
/// path.
struct ResolvedModel {
  Instance instance;
  std::shared_ptr<Registry::Entry> entry;
};

std::optional<Outcome> resolve_instance(const ModelRef& ref, const ExecContext& context,
                                        ResolvedModel& out) {
  if (!ref.fingerprint.empty()) {
    if (context.registry == nullptr) {
      return Outcome::failure(codes::kUnknownModel,
                              "model '" + ref.fingerprint +
                                  "' cannot be resolved: this server has no model registry");
    }
    out.entry = context.registry->acquire(ref.fingerprint);
    if (out.entry == nullptr) {
      return Outcome::failure(codes::kUnknownModel,
                              "model '" + ref.fingerprint +
                                  "' is not registered (it may have been evicted; "
                                  "register-model again)");
    }
    out.instance = out.entry->instance;
    return std::nullopt;
  }
  const Result<Instance> parsed = parse_netlist(ref.netlist);
  if (!parsed) return from_error(parsed.error());
  out.instance = *parsed;
  return std::nullopt;
}

/// The payload-memo key for a registered-model request: the verb plus every
/// argument that can influence the payload, in request order. Envelope-only
/// keys (id, deadline) are excluded so retries and different deadlines hit
/// the same memo slot; `model` is constant within one entry's memo.
std::string memo_key(const Request& request) {
  std::string key = request.verb;
  for (const auto& [name, value] : request.args.members()) {
    if (name == "id" || name == "verb" || name == "model" || name == "deadline_ms" ||
        name == "on_deadline") {
      continue;
    }
    key += '\x1f';
    key += name;
    key += '=';
    key += value.dump();
  }
  return key;
}

/// Runs `compute` for a resolved model. Registry-addressed requests take the
/// entry lock (serializing work on one model, so the single-threaded
/// AnalysisCache is safe) and consult the payload memo first; only ok,
/// non-degraded outcomes are memoized — a degraded payload reflects deadline
/// policy, not the request alone. Inline requests just compute.
template <typename Fn>
Outcome memoized(const ResolvedModel& model, const ExecContext& context, const Request& request,
                 Fn&& compute) {
  if (model.entry == nullptr) return compute();
  const std::string key = memo_key(request);
  const std::lock_guard<std::mutex> lock(model.entry->mutex);
  if (const auto it = model.entry->memo.find(key); it != model.entry->memo.end()) {
    context.registry->note_memo(true);
    return Outcome::success(it->second);
  }
  context.registry->note_memo(false);
  Outcome outcome = compute();
  if (outcome.ok && !outcome.degraded) {
    context.registry->memoize(*model.entry, key, outcome.payload);
  }
  return outcome;
}

void instance_summary(util::JsonWriter& w, const Instance& instance) {
  w.key("cores").value(instance.num_cores());
  w.key("channels").value(instance.num_channels());
  w.key("relay_stations").value(instance.total_relay_stations());
}

Outcome do_ping() {
  util::JsonWriter w;
  w.begin_object().key("pong").value(true).end_object();
  return Outcome::success(w.str());
}

Outcome do_sleep(ArgReader& reader, const ExecLimits& limits, const ExecContext& context) {
  const std::int64_t ms = reader.get_int("ms", 0, 0, limits.max_sleep_ms);
  if (reader.failed()) return arg_failure(reader);
  if (context.cancel.can_cancel()) {
    // Sleep in short slices polling the token, so a deadline expiring
    // mid-sleep frees the worker within ~10 ms instead of `ms`.
    std::int64_t slept = 0;
    while (slept < ms) {
      if (context.cancel.cancelled()) {
        return Outcome::failure(codes::kDeadlineExceeded,
                                "deadline expired after " + std::to_string(slept) + " of " +
                                    std::to_string(ms) + " ms of sleep");
      }
      const std::int64_t slice = std::min<std::int64_t>(10, ms - slept);
      std::this_thread::sleep_for(std::chrono::milliseconds(slice));
      slept += slice;
    }
  } else {
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
  }
  util::JsonWriter w;
  w.begin_object().key("slept_ms").value(ms).end_object();
  return Outcome::success(w.str());
}

Outcome do_parse(ArgReader& reader, const ExecLimits& limits) {
  const std::string text = reader.get_netlist(limits);
  if (reader.failed()) return arg_failure(reader);
  const Result<Instance> parsed = parse_netlist(text);
  if (!parsed) return from_error(parsed.error());
  const Result<std::string> canonical = netlist_text(*parsed);
  if (!canonical) return from_error(canonical.error());
  util::JsonWriter w;
  w.begin_object();
  instance_summary(w, *parsed);
  w.key("netlist").value(*canonical);
  w.end_object();
  return Outcome::success(w.str());
}

Outcome do_generate(ArgReader& reader, const ExecLimits& limits) {
  GenerateOptions options;
  options.cores = static_cast<int>(reader.get_int("v", options.cores, 1, limits.max_gen_cores));
  options.sccs = static_cast<int>(reader.get_int("s", options.sccs, 1, limits.max_gen_cores));
  options.extra_cycles =
      static_cast<int>(reader.get_int("c", options.extra_cycles, 0, limits.max_gen_cores));
  options.relay_stations =
      static_cast<int>(reader.get_int("rs", options.relay_stations, 0, limits.max_gen_cores));
  options.queue_capacity = static_cast<int>(reader.get_int("q", options.queue_capacity, 1, 1024));
  options.seed = static_cast<std::uint64_t>(
      reader.get_int("seed", 1, 0, std::numeric_limits<std::int64_t>::max()));
  options.reconvergent = reader.get_bool("reconvergent", options.reconvergent);
  const std::string policy = reader.get_string("policy", "scc");
  if (policy == "any") {
    options.rs_anywhere = true;
  } else if (policy != "scc") {
    reader.fail(codes::kInvalidArgument, "'policy' must be \"scc\" or \"any\"");
  }
  if (reader.failed()) return arg_failure(reader);

  const Result<Instance> generated = generate(options);
  if (!generated) return from_error(generated.error());
  const Result<std::string> text = netlist_text(*generated);
  if (!text) return from_error(text.error());
  util::JsonWriter w;
  w.begin_object();
  instance_summary(w, *generated);
  w.key("netlist").value(*text);
  w.end_object();
  return Outcome::success(w.str());
}

/// The `analyze` result payload: a pure function of the Analysis + options,
/// shared by the inline and the cache-pooled path.
Outcome analyze_payload(const Analysis& analysis, const AnalyzeOptions& options) {
  util::JsonWriter w;
  w.begin_object();
  w.key("cores").value(analysis.cores);
  w.key("channels").value(analysis.channels);
  w.key("relay_stations").value(analysis.relay_stations);
  w.key("topology").value(analysis.topology);
  w.key("theta_ideal").value(analysis.theta_ideal.to_string());
  w.key("theta_practical").value(analysis.theta_practical.to_string());
  w.key("degraded").value(analysis.degraded);
  if (options.critical_cycle) {
    w.key("critical_cycle").begin_array();
    for (const std::string& hop : analysis.critical_cycle) w.value(hop);
    w.end_array();
  }
  if (options.rate_safety) {
    w.key("rate_hazards").value(analysis.rate_hazards);
    w.key("rate_safe").value(analysis.rate_safe);
  }
  // Float-free and deterministic by construction (write_certificate), so
  // certified payloads stay memo- and registry-safe.
  if (analysis.certificate) {
    w.key("certificate");
    verify::write_certificate(w, *analysis.certificate);
  }
  w.end_object();
  return Outcome::success(w.str());
}

Outcome do_analyze(ArgReader& reader, const ExecLimits& limits, const ExecContext& context,
                   const Request& request) {
  const ModelRef ref = read_model_ref(reader, limits);
  AnalyzeOptions options;
  options.critical_cycle = reader.get_bool("critical_cycle", true);
  options.rate_safety = reader.get_bool("rate_safety", true);
  options.certify = reader.get_bool("certify", false);
  if (reader.failed()) return arg_failure(reader);
  ResolvedModel model;
  if (auto failed = resolve_instance(ref, context, model)) return *failed;
  return memoized(model, context, request, [&]() -> Outcome {
    const Result<Analysis> analysis =
        model.entry != nullptr
            ? engine::analyze_cached(*model.entry->cache, model.instance, options)
            : analyze(model.instance, options);
    if (!analysis) return from_error(analysis.error());
    return analyze_payload(*analysis, options);
  });
}

/// The `size-queues` result payload: a pure function of the Sizing (no
/// floats, no timings), shared by the normal and the degraded path so a
/// degraded response is byte-identical to a direct heuristic execution.
Outcome sizing_outcome(const Sizing& sizing) {
  const Result<std::string> sized_text = netlist_text(sizing.sized);
  if (!sized_text) return from_error(sized_text.error());

  util::JsonWriter w;
  w.begin_object();
  w.key("theta_ideal").value(sizing.theta_ideal.to_string());
  w.key("theta_practical").value(sizing.theta_practical.to_string());
  w.key("degraded").value(sizing.degraded);
  if (sizing.heuristic_total >= 0) w.key("heuristic_total").value(sizing.heuristic_total);
  if (sizing.exact_total >= 0) {
    w.key("exact_total").value(sizing.exact_total);
    w.key("exact_proved").value(sizing.exact_proved);
  }
  w.key("achieved").value(sizing.achieved.to_string());
  w.key("cycles_enumerated").value(sizing.cycles_enumerated);
  w.key("truncated").value(sizing.truncated);
  // Lazy-only keys, so heuristic/exact/both payloads (and the degraded
  // fallback, which reruns as heuristic) stay byte-stable.
  if (sizing.solver_lazy) {
    w.key("lazy_iterations").value(sizing.lazy_iterations);
    w.key("cycles_generated").value(sizing.cycles_generated);
  }
  w.key("changes").begin_array();
  for (const QueueChange& change : sizing.changes) {
    w.begin_object();
    w.key("src").value(change.src);
    w.key("dst").value(change.dst);
    w.key("before").value(change.before);
    w.key("after").value(change.after);
    w.end_object();
  }
  w.end_array();
  w.key("netlist").value(*sized_text);
  if (sizing.certificate) {
    w.key("certificate");
    verify::write_certificate(w, *sizing.certificate);
  }
  w.end_object();
  Outcome outcome = Outcome::success(w.str());
  if (sizing.solver_lazy) {
    outcome.lazy_iterations = sizing.lazy_iterations;
    outcome.lazy_cycles_generated = sizing.cycles_generated;
    outcome.lazy_warm_restarts = sizing.howard_warm_restarts;
  }
  return outcome;
}

Outcome do_size_queues(ArgReader& reader, const ExecLimits& limits, const ExecContext& context,
                       const Request& request) {
  const OnDeadline policy = request.on_deadline;
  const ModelRef ref = read_model_ref(reader, limits);
  SizeQueuesOptions options;
  // Default "lazy": constraint generation, no cycle enumeration. "full" is
  // an alias for the eager heuristic+exact pipeline ("both").
  const std::string solver = reader.get_string("solver", "lazy");
  if (solver == "heuristic") {
    options.solver = Solver::kHeuristic;
  } else if (solver == "exact") {
    options.solver = Solver::kExact;
  } else if (solver == "both" || solver == "full") {
    options.solver = Solver::kBoth;
  } else if (solver == "lazy") {
    options.solver = Solver::kLazy;
  } else {
    reader.fail(codes::kInvalidArgument,
                "'solver' must be \"heuristic\", \"exact\", \"both\", \"full\" or \"lazy\"");
  }
  // Deterministic node budget only — no wall clock — so the response is a
  // pure function of the request. 0 ("unlimited") is clamped to the server
  // cap to keep a single request from monopolizing a worker.
  std::int64_t max_nodes =
      reader.get_int("max_nodes", limits.exact_max_nodes, 0, limits.exact_max_nodes);
  if (max_nodes == 0) max_nodes = limits.exact_max_nodes;
  options.exact_max_nodes = max_nodes;
  options.exact_timeout_ms = 0.0;
  std::int64_t max_cycles =
      reader.get_int("max_cycles", static_cast<std::int64_t>(limits.max_cycles), 0,
                     static_cast<std::int64_t>(limits.max_cycles));
  if (max_cycles == 0) max_cycles = static_cast<std::int64_t>(limits.max_cycles);
  options.max_cycles = static_cast<std::size_t>(max_cycles);
  // TD-instance reductions, on by default. Off is the ablation mode; it also
  // makes small node budgets observable (reduced instances usually prove at
  // zero search nodes). The degrade fallback inherits the flag, so degraded
  // payloads stay byte-identical to a direct heuristic request.
  options.simplify = reader.get_bool("simplify", true);
  options.certify = reader.get_bool("certify", false);
  if (reader.failed()) return arg_failure(reader);

  ResolvedModel model;
  if (auto failed = resolve_instance(ref, context, model)) return *failed;

  return memoized(model, context, request, [&]() -> Outcome {
    const bool wants_exact = options.solver != Solver::kHeuristic;

    // Registered models solve through the entry's pooled cache (we hold its
    // mutex via `memoized`); inline requests run the plain facade. Both
    // produce byte-identical payloads (cached_analysis.hpp).
    const auto solve = [&](const SizeQueuesOptions& opts) -> Result<Sizing> {
      return model.entry != nullptr
                 ? engine::size_queues_cached(*model.entry->cache, model.instance, opts)
                 : size_queues(model.instance, opts);
    };

    // The degrade fallback: the same request with "solver":"heuristic" and no
    // cancel token — its payload is byte-identical to direct heuristic
    // execution by construction. Runtime stays bounded by the cycle cap.
    const auto degrade = [&]() -> Outcome {
      SizeQueuesOptions fallback = options;
      fallback.solver = Solver::kHeuristic;
      fallback.cancel = util::CancelToken();
      const Result<Sizing> sizing = solve(fallback);
      if (!sizing) return from_error(sizing.error());
      Outcome outcome = sizing_outcome(*sizing);
      outcome.degraded = outcome.ok;
      return outcome;
    };

    if (context.deadline_expired || context.cancel.cancelled()) {
      // Deadline already gone before any solving started (queue wait ate it).
      // Policy "degrade" still buys the heuristic answer; "error" requests
      // normally never reach here (the server answers them at dequeue).
      if (policy != OnDeadline::kDegrade) {
        return Outcome::failure(codes::kDeadlineExceeded,
                                "deadline expired before size-queues started");
      }
      if (wants_exact) return degrade();
      // Heuristic-only request: nothing to degrade to — run it as asked,
      // untagged, with no token (the answer is exactly what was requested).
    } else {
      options.cancel = context.cancel;
    }

    const Result<Sizing> sizing = solve(options);
    if (!sizing) {
      if (sizing.error().code == ErrorCode::kTimeout) {
        // Cancelled during cycle enumeration. Even the heuristic needs the
        // full enumeration, so degrading cannot beat this deadline either.
        return Outcome::failure(codes::kDeadlineExceeded, sizing.error().message);
      }
      return from_error(sizing.error());
    }
    if (wants_exact && !sizing->exact_proved) {
      if (policy == OnDeadline::kDegrade) return degrade();
      if (sizing->exact_cancelled) {
        return Outcome::failure(codes::kDeadlineExceeded,
                                "deadline expired mid-exact-solve after " +
                                    std::to_string(sizing->exact_nodes) +
                                    " search nodes; raise deadline_ms or send "
                                    "\"on_deadline\":\"degrade\"");
      }
      // Node-budget trip with policy "error": the legacy payload (heuristic
      // weights, exact_proved:false) — still a pure function of the request.
    }
    return sizing_outcome(*sizing);
  });
}

Outcome do_insert_rs(ArgReader& reader, const ExecLimits& limits) {
  const std::string text = reader.get_netlist(limits);
  InsertRelayStationsOptions options;
  options.budget = static_cast<int>(reader.get_int("budget", 1, 0, limits.max_rs_budget));
  options.exhaustive = reader.get_bool("exhaustive", false);
  if (reader.failed()) return arg_failure(reader);
  const Result<Instance> parsed = parse_netlist(text);
  if (!parsed) return from_error(parsed.error());
  const Result<RelayInsertion> insertion = insert_relay_stations(*parsed, options);
  if (!insertion) return from_error(insertion.error());
  const Result<std::string> repaired = netlist_text(insertion->repaired);
  if (!repaired) return from_error(repaired.error());

  util::JsonWriter w;
  w.begin_object();
  w.key("original_ideal").value(insertion->original_ideal.to_string());
  w.key("best_practical").value(insertion->best_practical.to_string());
  w.key("added").value(insertion->added);
  w.key("reached_ideal").value(insertion->reached_ideal);
  w.key("configurations_tried").value(insertion->configurations_tried);
  w.key("netlist").value(*repaired);
  w.end_object();
  return Outcome::success(w.str());
}

Outcome do_lint(ArgReader& reader, const ExecLimits& limits, const ExecContext& context,
                const Request& request) {
  const ModelRef ref = read_model_ref(reader, limits);
  const std::string target = reader.get_string("target", "");
  const bool errors_only = reader.get_bool("errors_only", false);
  if (reader.failed()) return arg_failure(reader);

  linter::LintOptions options;
  options.errors_only = errors_only;
  if (!target.empty()) {
    try {
      options.target = util::rational_from_string(target);
    } catch (const std::exception& e) {
      return Outcome::failure(codes::kInvalidArgument, std::string("'target': ") + e.what());
    }
    if (options.target < util::Rational(0)) {
      return Outcome::failure(codes::kInvalidArgument, "'target' must be non-negative");
    }
  }

  ResolvedModel model;
  if (auto failed = resolve_instance(ref, context, model)) return *failed;
  return memoized(model, context, request, [&]() -> Outcome {
    const Result<linter::Report> report = lint(model.instance, options);
    if (!report) return from_error(report.error());

    linter::RenderItem item;
    item.lis = &model.instance.graph();
    item.report = &*report;
    item.provenance = model.instance.provenance();
    util::JsonWriter w;
    write_report_json(w, item);
    return Outcome::success(w.str());
  });
}

Outcome do_rate_safety(ArgReader& reader, const ExecLimits& limits, const ExecContext& context,
                       const Request& request) {
  const ModelRef ref = read_model_ref(reader, limits);
  if (reader.failed()) return arg_failure(reader);
  ResolvedModel model;
  if (auto failed = resolve_instance(ref, context, model)) return *failed;
  AnalyzeOptions options;
  options.critical_cycle = false;
  options.rate_safety = true;
  return memoized(model, context, request, [&]() -> Outcome {
    const Result<Analysis> analysis =
        model.entry != nullptr
            ? engine::analyze_cached(*model.entry->cache, model.instance, options)
            : analyze(model.instance, options);
    if (!analysis) return from_error(analysis.error());
    util::JsonWriter w;
    w.begin_object();
    w.key("hazards").value(analysis->rate_hazards);
    w.key("safe").value(analysis->rate_safe);
    w.end_object();
    return Outcome::success(w.str());
  });
}

Outcome do_simulate(ArgReader& reader, const ExecLimits& limits, const ExecContext& context,
                    const Request& request) {
  const OnDeadline policy = request.on_deadline;
  const ModelRef ref = read_model_ref(reader, limits);
  DesOptions options;
  options.horizon = reader.get_int("horizon", options.horizon, 1, limits.max_sim_horizon);
  options.warmup = reader.get_int("warmup", options.warmup, 0, limits.max_sim_horizon);
  options.seed = static_cast<std::uint64_t>(
      reader.get_int("seed", 1, 0, std::numeric_limits<std::int64_t>::max()));
  const std::string dist = reader.get_string("dist", "");
  if (!dist.empty()) {
    const std::optional<des::LatencyDist> parsed = des::parse_latency_dist(dist);
    if (!parsed) {
      reader.fail(codes::kInvalidArgument,
                  "'dist' must be a latency spec (\"fixed:3\", \"uniform:1:4\", "
                  "\"geometric:1/2\"), got '" +
                      dist + "'");
    } else {
      options.channel_latency = *parsed;
    }
  }
  const std::string arrival = reader.get_string("arrival", "");
  if (!arrival.empty()) {
    const std::optional<des::ArrivalSpec> parsed = des::parse_arrival_spec(arrival);
    if (!parsed) {
      reader.fail(codes::kInvalidArgument,
                  "'arrival' must be an arrival spec (\"saturated\", \"rate:4\", "
                  "\"poisson:1/4\", \"bursty:8:8\"), got '" +
                      arrival + "'");
    } else {
      options.arrival = *parsed;
    }
  }
  const bool occupancy = reader.get_bool("occupancy", false);
  options.trace_occupancy = occupancy;
  options.reference = reader.get_string("reference", "");
  options.detect_period = reader.get_bool("detect_period", true);
  if (reader.failed()) return arg_failure(reader);

  ResolvedModel model;
  if (auto failed = resolve_instance(ref, context, model)) return *failed;
  return memoized(model, context, request, [&]() -> Outcome {
    if (context.deadline_expired && policy != OnDeadline::kDegrade) {
      return Outcome::failure(codes::kDeadlineExceeded,
                              "deadline expired before simulate started");
    }
    // Policy "degrade" has nothing cheaper to fall back to, so it runs the
    // request to completion (the header's contract for verbs with no
    // degraded form); "error" cancels cooperatively at batch boundaries.
    if (policy != OnDeadline::kDegrade) options.cancel = context.cancel;
    const Result<DesReport> simulated = simulate_des(model.instance, options);
    if (!simulated) {
      if (simulated.error().code == ErrorCode::kTimeout) {
        return Outcome::failure(codes::kDeadlineExceeded, simulated.error().message);
      }
      return from_error(simulated.error());
    }
    const DesReport& report = *simulated;
    util::JsonWriter w;
    w.begin_object();
    w.key("horizon").value(report.horizon);
    w.key("warmup").value(report.warmup);
    w.key("seed").value(static_cast<std::int64_t>(report.seed));
    w.key("deterministic").value(report.deterministic);
    w.key("cycles_run").value(report.cycles_run);
    w.key("events").value(report.events);
    w.key("firings").value(report.firings);
    w.key("throughput").value(report.throughput.to_string());
    w.key("periodic").value(report.periodic_found);
    if (report.periodic_found) {
      w.key("transient_cycles").value(report.transient_cycles);
      w.key("period_cycles").value(report.period_cycles);
    }
    w.key("arrivals_generated").value(report.arrivals_generated);
    w.key("arrivals_consumed").value(report.arrivals_consumed);
    w.key("max_backlog").value(report.max_backlog);
    w.key("stall_events").value(report.total_stall_events);
    w.key("stall_cycles").value(report.total_stall_cycles);
    w.key("channels").begin_array();
    for (const des::ChannelStats& ch : report.channels) {
      w.begin_object();
      w.key("src").value(model.instance.graph().core_name(ch.src));
      w.key("dst").value(model.instance.graph().core_name(ch.dst));
      w.key("capacity").value(ch.capacity);
      w.key("relay_stations").value(ch.relay_stations);
      w.key("tokens_in").value(ch.tokens_in);
      w.key("tokens_out").value(ch.tokens_out);
      w.key("in_flight").value(ch.in_flight);
      w.key("stall_events").value(ch.stall_events);
      w.key("stall_cycles").value(ch.stall_cycles);
      if (occupancy) {
        w.key("max_occupancy").value(ch.max_occupancy);
        w.key("p50").value(ch.p50);
        w.key("p95").value(ch.p95);
        w.key("p99").value(ch.p99);
        w.key("mean_occupancy").value(ch.mean_occupancy.to_string());
      }
      w.end_object();
    }
    w.end_array();
    w.end_object();
    return Outcome::success(w.str());
  });
}

void model_info_json(util::JsonWriter& w, const ModelInfo& info) {
  w.begin_object();
  w.key("model").value(info.fingerprint);
  w.key("bytes").value(info.bytes);
  w.key("cores").value(info.cores);
  w.key("channels").value(info.channels);
  w.key("relay_stations").value(info.relay_stations);
  w.end_object();
}

Outcome do_register_model(ArgReader& reader, const ExecLimits& limits,
                          const ExecContext& context) {
  const std::string text = reader.get_netlist(limits);
  if (reader.failed()) return arg_failure(reader);
  if (context.registry == nullptr) {
    return Outcome::failure(codes::kRegistryFull, "this server has no model registry");
  }
  const Result<ModelInfo> info = context.registry->register_model(text);
  if (!info) {
    // The registry reports "does not fit" as kInvalidArgument; on the wire
    // that is the dedicated registry_full code. Parse errors pass through.
    if (info.error().code == ErrorCode::kInvalidArgument) {
      return Outcome::failure(codes::kRegistryFull, info.error().message);
    }
    return from_error(info.error());
  }
  util::JsonWriter w;
  model_info_json(w, *info);
  return Outcome::success(w.str());
}

Outcome do_evict_model(ArgReader& reader, const ExecContext& context) {
  const std::string fingerprint = reader.get_model();
  if (fingerprint.empty() && !reader.failed()) {
    reader.fail(codes::kInvalidArgument, "'model' (string) is required");
  }
  if (reader.failed()) return arg_failure(reader);
  if (context.registry == nullptr || !context.registry->evict(fingerprint)) {
    return Outcome::failure(codes::kUnknownModel,
                            "model '" + fingerprint + "' is not registered");
  }
  util::JsonWriter w;
  w.begin_object();
  w.key("model").value(fingerprint);
  w.key("evicted").value(true);
  w.end_object();
  return Outcome::success(w.str());
}

Outcome do_list_models(const ExecContext& context) {
  util::JsonWriter w;
  w.begin_object();
  w.key("models").begin_array();
  std::size_t resident = 0;
  std::size_t resident_bytes = 0;
  if (context.registry != nullptr) {
    for (const ModelInfo& info : context.registry->list()) model_info_json(w, info);
    const Registry::Stats stats = context.registry->stats();
    resident = stats.resident;
    resident_bytes = stats.bytes;
  }
  w.end_array();
  w.key("resident").value(resident);
  w.key("resident_bytes").value(resident_bytes);
  w.end_object();
  return Outcome::success(w.str());
}

}  // namespace

const char* wire_code(ErrorCode code) {
  switch (code) {
    case ErrorCode::kIo: return codes::kIo;
    case ErrorCode::kParse: return codes::kParse;
    case ErrorCode::kInvalidArgument: return codes::kInvalidArgument;
    case ErrorCode::kTimeout: return codes::kTimeout;
    case ErrorCode::kInternal: return codes::kInternal;
    case ErrorCode::kLint: return codes::kLint;
  }
  return codes::kInternal;
}

Outcome Outcome::success(std::string payload_json) {
  Outcome outcome;
  outcome.ok = true;
  outcome.payload = std::move(payload_json);
  return outcome;
}

Outcome Outcome::failure(std::string code, std::string message) {
  Outcome outcome;
  outcome.ok = false;
  outcome.error_code = std::move(code);
  outcome.error_message = std::move(message);
  return outcome;
}

Result<Request> parse_request(const std::string& line) {
  const util::JsonParse parsed = util::json_parse(line);
  if (!parsed) {
    return Error{ErrorCode::kParse, "request is not valid JSON: " + parsed.error};
  }
  if (!parsed.value.is_object()) {
    return Error{ErrorCode::kInvalidArgument, "request must be a JSON object"};
  }
  Request request;
  request.args = parsed.value;

  if (const util::Json* id = request.args.find("id")) {
    if (id->is_string()) {
      request.id = id->as_string();
      request.has_id = true;
    } else if (id->type() == util::Json::Type::kInt) {
      request.id = std::to_string(id->as_int());
      request.has_id = true;
    } else if (!id->is_null()) {
      return Error{ErrorCode::kInvalidArgument, "'id' must be a string or an integer"};
    }
  }

  const util::Json* verb = request.args.find("verb");
  if (verb == nullptr || !verb->is_string() || verb->as_string().empty()) {
    return Error{ErrorCode::kInvalidArgument, "'verb' (string) is required"};
  }
  request.verb = verb->as_string();

  if (const util::Json* deadline = request.args.find("deadline_ms")) {
    if (!deadline->is_number() || deadline->as_double() < 0.0) {
      return Error{ErrorCode::kInvalidArgument, "'deadline_ms' must be a non-negative number"};
    }
    request.deadline_ms = deadline->as_double();
  }

  if (const util::Json* policy = request.args.find("on_deadline")) {
    if (policy->is_string() && policy->as_string() == "error") {
      request.on_deadline = OnDeadline::kError;
    } else if (policy->is_string() && policy->as_string() == "degrade") {
      request.on_deadline = OnDeadline::kDegrade;
    } else if (!policy->is_null()) {
      return Error{ErrorCode::kInvalidArgument, "'on_deadline' must be \"error\" or \"degrade\""};
    }
  }
  return request;
}

Outcome execute(const Request& request, const ExecLimits& limits) {
  return execute(request, limits, ExecContext{});
}

Outcome execute(const Request& request, const ExecLimits& limits, const ExecContext& context) {
  ArgReader reader(request.args);
  if (request.verb == "ping") return do_ping();
  if (request.verb == "sleep") return do_sleep(reader, limits, context);
  if (request.verb == "parse") return do_parse(reader, limits);
  if (request.verb == "generate") return do_generate(reader, limits);
  if (request.verb == "analyze") return do_analyze(reader, limits, context, request);
  if (request.verb == "size-queues") return do_size_queues(reader, limits, context, request);
  if (request.verb == "insert-rs") return do_insert_rs(reader, limits);
  if (request.verb == "rate-safety") return do_rate_safety(reader, limits, context, request);
  if (request.verb == "lint") return do_lint(reader, limits, context, request);
  if (request.verb == "simulate") return do_simulate(reader, limits, context, request);
  if (request.verb == "register-model") return do_register_model(reader, limits, context);
  if (request.verb == "evict-model") return do_evict_model(reader, context);
  if (request.verb == "list-models") return do_list_models(context);
  return Outcome::failure(codes::kUnknownVerb,
                          "unknown verb '" + request.verb +
                              "' (expected ping, parse, generate, analyze, size-queues, "
                              "insert-rs, rate-safety, lint, simulate, register-model, "
                              "evict-model, list-models, sleep, hello or stats)");
}

std::string request_id_json(const Request& request) {
  return request.has_id ? util::json_quote(request.id) : "null";
}

std::string response_line(const Request& request, const Outcome& outcome, double server_ms,
                          double wait_ms, int protocol) {
  util::JsonWriter w;
  w.begin_object();
  w.key("id").raw(request_id_json(request));
  if (protocol >= 2) w.key("protocol").value(protocol);
  w.key("ok").value(outcome.ok);
  w.key("verb").value(request.verb);
  if (outcome.ok) {
    w.key("result").raw(outcome.payload);
  } else {
    w.key("error").begin_object();
    w.key("code").value(outcome.error_code);
    w.key("message").value(outcome.error_message);
    w.end_object();
  }
  if (outcome.degraded) w.key("degraded").value(true);
  w.key("server_ms").value_fixed(server_ms, 3);
  w.key("wait_ms").value_fixed(wait_ms, 3);
  w.end_object();
  return w.str();
}

std::string error_line(const std::string& id_json, const std::string& verb,
                       const std::string& code, const std::string& message, int protocol) {
  util::JsonWriter w;
  w.begin_object();
  w.key("id").raw(id_json.empty() ? "null" : id_json);
  if (protocol >= 2) w.key("protocol").value(protocol);
  w.key("ok").value(false);
  if (!verb.empty()) w.key("verb").value(verb);
  w.key("error").begin_object();
  w.key("code").value(code);
  w.key("message").value(message);
  w.end_object();
  w.end_object();
  return w.str();
}

Result<const util::Json*> ResponseEnvelope::result() const {
  if (!ok) {
    return Error{ErrorCode::kInvalidArgument,
                 "server error [" + error_code + "] " + error_message};
  }
  const util::Json* result = json.find("result");
  if (result == nullptr) return Error{ErrorCode::kParse, "ok response has no 'result'"};
  return result;
}

Result<ResponseEnvelope> decode_response(const std::string& response) {
  util::JsonParse parsed = util::json_parse(response);
  if (!parsed) {
    return Error{ErrorCode::kParse, "response is not valid JSON: " + parsed.error};
  }
  if (!parsed.value.is_object()) {
    return Error{ErrorCode::kParse, "response must be a JSON object"};
  }
  const util::Json* ok = parsed.value.find("ok");
  if (ok == nullptr || !ok->is_bool()) {
    return Error{ErrorCode::kParse, "response has no boolean 'ok'"};
  }
  ResponseEnvelope envelope;
  envelope.ok = ok->as_bool();
  if (!envelope.ok) {
    envelope.error_code = "unknown";
    if (const util::Json* error = parsed.value.find("error");
        error != nullptr && error->is_object()) {
      if (const util::Json* c = error->find("code"); c != nullptr && c->is_string()) {
        envelope.error_code = c->as_string();
      }
      if (const util::Json* m = error->find("message")) envelope.error_message = m->as_string();
    }
  }
  envelope.json = std::move(parsed.value);
  return envelope;
}

Result<std::string> extract_result(const std::string& response) {
  const Result<ResponseEnvelope> envelope = decode_response(response);
  if (!envelope) return envelope.error();
  const Result<const util::Json*> result = envelope->result();
  if (!result) return result.error();
  return (*result)->dump();
}

}  // namespace lid::serve
