// The unified public facade of the library.
//
// Everything a client needs for the common workflows — loading or generating
// a LIS, analyzing its throughput, sizing its queues, inserting relay
// stations — is exposed here under the top-level `lid::` namespace, over an
// opaque `lid::Instance` handle and a `lid::Result<T>` error type (code +
// message) instead of the historical mix of bools, exceptions and asserts.
//
//   lid::Result<lid::Instance> sys = lid::load_netlist("soc.lis");
//   if (!sys) { log(sys.error().to_string()); return; }
//   lid::Result<lid::Analysis> a = lid::analyze(*sys);
//   if (a && a->degraded) {
//     lid::Result<lid::Sizing> s = lid::size_queues(*sys);
//     if (s) lid::save_netlist(s->sized, "sized.lis");
//   }
//
// The per-module headers (lis/netlist_io.hpp, core/qs_problem.hpp,
// core/queue_sizing.hpp, core/rs_insertion.hpp, ...) remain available as the
// implementation layer for code that needs the full detail — e.g. the batch
// engine in src/engine — but new call sites should start here.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "des/des.hpp"
#include "lint/checks.hpp"
#include "lis/lis_graph.hpp"
#include "lis/netlist_io.hpp"
#include "util/cancel.hpp"
#include "util/check.hpp"
#include "util/rational.hpp"
#include "verify/certificate.hpp"

namespace lid {

// ---------------------------------------------------------------------------
// Result<T> — the facade's error channel.

/// Machine-readable failure categories.
enum class ErrorCode {
  kIo = 1,           ///< file could not be read/written
  kParse,            ///< malformed netlist text
  kInvalidArgument,  ///< bad option value or inapplicable request
  kTimeout,          ///< a solver budget expired before an answer was proven
  kInternal,         ///< invariant violation inside the library
  kLint,             ///< pre-flight lint found error-tier diagnostics (the
                     ///< model is outside the analyses' domain); run
                     ///< lid::lint() for the full report
};

const char* to_string(ErrorCode code);

/// A failure: code + human-readable message.
struct Error {
  ErrorCode code = ErrorCode::kInternal;
  std::string message;

  [[nodiscard]] std::string to_string() const;
};

/// Either a value or an Error. Implicitly constructible from both, so
/// functions can `return Error{...}` or `return value` directly.
template <typename T>
class [[nodiscard]] Result {
 public:
  Result(T value) : v_(std::move(value)) {}          // NOLINT(google-explicit-constructor)
  Result(Error error) : v_(std::move(error)) {}      // NOLINT(google-explicit-constructor)
  Result(ErrorCode code, std::string message) : v_(Error{code, std::move(message)}) {}

  [[nodiscard]] bool ok() const { return std::holds_alternative<T>(v_); }
  explicit operator bool() const { return ok(); }

  /// The value; throws std::invalid_argument when this holds an error.
  [[nodiscard]] const T& value() const& {
    LID_ENSURE(ok(), "Result::value on error: " + std::get<Error>(v_).message);
    return std::get<T>(v_);
  }
  [[nodiscard]] T&& value() && {
    LID_ENSURE(ok(), "Result::value on error: " + std::get<Error>(v_).message);
    return std::get<T>(std::move(v_));
  }
  [[nodiscard]] T value_or(T fallback) const {
    return ok() ? std::get<T>(v_) : std::move(fallback);
  }

  /// The error; throws std::invalid_argument when this holds a value.
  [[nodiscard]] const Error& error() const {
    LID_ENSURE(!ok(), "Result::error on success");
    return std::get<Error>(v_);
  }

  const T& operator*() const { return value(); }
  const T* operator->() const { return &value(); }

 private:
  std::variant<T, Error> v_;
};

/// Result payload for operations that only succeed or fail.
struct Unit {};
using Status = Result<Unit>;

// ---------------------------------------------------------------------------
// Instance — the opaque netlist handle.

/// An immutable, cheaply copyable handle to a loaded/generated LIS. All
/// facade operations consume and produce Instances; transformations
/// (size_queues, insert_relay_stations) return new handles and never mutate
/// their input.
class Instance {
 public:
  /// An empty (invalid) handle; every facade call on it fails cleanly.
  Instance() = default;

  [[nodiscard]] bool valid() const { return impl_ != nullptr; }
  [[nodiscard]] std::size_t num_cores() const;
  [[nodiscard]] std::size_t num_channels() const;
  [[nodiscard]] int total_relay_stations() const;

  /// Optional label carried through analyses and batch reports ("" if unset).
  [[nodiscard]] const std::string& name() const;

  /// Escape hatch for layers below the facade (the batch engine, exporters,
  /// simulators): the underlying netlist. Throws on an invalid handle.
  [[nodiscard]] const lis::LisGraph& graph() const;

  /// Source provenance (file + per-core/channel line numbers) when the
  /// instance was parsed from `.lis` text; nullptr for generated/wrapped
  /// instances. Lint renderers use it to anchor diagnostics to file:line.
  [[nodiscard]] const lis::Provenance* provenance() const;

  /// Wraps an already-built netlist in a handle (used by generators, tests
  /// and code migrating from the per-module APIs).
  static Instance wrap(lis::LisGraph graph, std::string name = {});

  /// Wraps a parsed netlist together with its source provenance, so lint
  /// diagnostics can point at file:line (parse_netlist/load_netlist use this).
  static Instance wrap(lis::ParsedNetlist parsed, std::string name = {});

 private:
  struct Impl;
  std::shared_ptr<const Impl> impl_;
};

// ---------------------------------------------------------------------------
// Loading, saving, generating.

/// Loads a netlist file (the text format of docs/file-format.md).
Result<Instance> load_netlist(const std::string& path);

/// Parses netlist text.
Result<Instance> parse_netlist(const std::string& text, std::string name = {});

/// Serializes to the canonical text format (round-trip safe).
Result<std::string> netlist_text(const Instance& instance);

/// Writes the canonical text format to `path`.
Status save_netlist(const Instance& instance, const std::string& path);

/// Parameters of the paper's synthetic generator (Sec. VIII).
struct GenerateOptions {
  int cores = 50;            ///< v — total cores
  int sccs = 5;              ///< s — number of SCCs
  int extra_cycles = 5;      ///< c — extra chords (and thus cycles) per SCC
  int relay_stations = 10;   ///< rs — relay stations to distribute
  bool reconvergent = true;  ///< rp — allow reconvergent inter-SCC paths
  bool rs_anywhere = false;  ///< false: relay stations only between SCCs
  int queue_capacity = 1;    ///< initial uniform queue capacity
  std::uint64_t seed = 1;
};

/// Generates a random LIS; deterministic per seed.
Result<Instance> generate(const GenerateOptions& options = {});

/// The COFDM UWB transmitter case study (Sec. IX; 12 blocks, 30 channels).
Instance cofdm_soc();

// ---------------------------------------------------------------------------
// Analysis.

struct AnalyzeOptions {
  /// Also compute the critical cycle of d[G] (hop descriptions).
  bool critical_cycle = true;
  /// Also run the Sec. III-C rate-safety analysis.
  bool rate_safety = true;
  /// Run the error-tier lint checks first and fail with ErrorCode::kLint
  /// (carrying the diagnostic summary) instead of tripping an internal
  /// invariant mid-solve on a broken model (deadlocked, empty, q = 0).
  bool preflight = true;
  /// Attach an independently checkable certificate for the reported thetas
  /// (verify::Certificate; see docs/certificates.md), built from the evidence
  /// passes the thetas come from, so it costs no extra solve; off by default.
  bool certify = false;
};

/// Throughput analysis of one instance.
struct Analysis {
  std::size_t cores = 0;
  std::size_t channels = 0;
  int relay_stations = 0;
  /// Table II topology class ("tree", "cactus SCCs", "general", ...).
  std::string topology;
  util::Rational theta_ideal;      ///< θ(G), infinite queues
  util::Rational theta_practical;  ///< θ(d[G]), finite queues
  bool degraded = false;           ///< theta_practical < theta_ideal
  /// Hops of the limiting cycle of d[G] (empty when not requested or acyclic).
  std::vector<std::string> critical_cycle;
  /// Inter-SCC channels where a faster producer feeds a slower consumer.
  std::size_t rate_hazards = 0;
  bool rate_safe = true;
  /// The optimality certificate (present when AnalyzeOptions::certify).
  std::optional<verify::Certificate> certificate;
};

Result<Analysis> analyze(const Instance& instance, const AnalyzeOptions& options = {});

// ---------------------------------------------------------------------------
// Static diagnostics (the lid_lint subsystem; see docs/lint.md).

/// Runs the registered lint checks over the instance. The report lists every
/// finding with its stable code ("L001"...), severity, message, location and
/// machine-applicable fix-its; linter::LintOptions selects the tier (set
/// `target` to enable the throughput-antipattern checks). A clean model
/// yields an empty report — lint() only fails on an invalid handle or an
/// internal error, never because diagnostics were found.
Result<linter::Report> lint(const Instance& instance, const linter::LintOptions& options = {});

// ---------------------------------------------------------------------------
// Queue sizing.

enum class Solver {
  kHeuristic,  ///< the paper's sweep heuristic (fast, near-optimal)
  kExact,      ///< branch-and-bound (optimal, budgeted)
  kBoth,
  kLazy,  ///< lazy critical-cycle constraint generation (optimal; no
          ///< cycle enumeration)
};

struct SizeQueuesOptions {
  /// Default kLazy: optimal totals without enumerating the cycles of d[G]
  /// (it generates only the binding critical cycles), so the default path
  /// scales to netlists whose cycle count is astronomical; a budget cut
  /// still reaches the target, with exact_proved == false. Pick kBoth/
  /// kHeuristic/kExact explicitly to force the eager pipeline.
  Solver solver = Solver::kLazy;
  /// Wall-clock budget of the exact solver; <= 0 means unlimited. Wall-clock
  /// cutoffs are load-dependent; prefer exact_max_nodes when reproducibility
  /// matters (the batch engine does).
  double exact_timeout_ms = 60'000.0;
  /// Deterministic work budget of the exact solver: search nodes, plus the
  /// tableau cells simplex pivots rewrite in the lazy solver's LP
  /// sub-solves (see core::ExactOptions::max_nodes); 0 means unlimited.
  std::int64_t exact_max_nodes = 0;
  /// Cap on enumerated cycles (0 = unlimited). Eager solvers only.
  std::size_t max_cycles = 2'000'000;
  /// Run the paper's TD-instance reductions before solving. Leave on except
  /// for ablation, or to force the exact search to work on the raw instance
  /// (the reductions collapse most instances to a zero-probe search, which
  /// makes node budgets and cancel tokens unobservable). Eager solvers only.
  bool simplify = true;
  /// Target throughput; 0 means the ideal MST θ(G).
  util::Rational target = util::Rational(0);
  /// Cooperative cancellation (e.g. a request deadline). A token firing
  /// during cycle enumeration fails the whole call with ErrorCode::kTimeout —
  /// a partial enumeration is timing-dependent and never served as an
  /// answer. A token firing during the exact solve degrades gracefully: the
  /// result carries the heuristic weights with exact_proved == false and
  /// exact_cancelled == true. The default token never cancels.
  util::CancelToken cancel;
  /// Run the error-tier lint checks first; see AnalyzeOptions::preflight.
  bool preflight = true;
  /// Attach an independently checkable certificate for the sizing: the ideal
  /// ceiling, the applied weights, a post-sizing optimality witness, and —
  /// when the lazy solver converged without the SCC collapse — its
  /// generating constraint set as the lower-bound witness.
  bool certify = false;
};

/// One grown queue.
struct QueueChange {
  std::string src;
  std::string dst;
  int before = 1;
  int after = 1;
};

/// Outcome of queue sizing.
struct Sizing {
  util::Rational theta_ideal;
  util::Rational theta_practical;
  util::Rational achieved;  ///< MST of `sized`
  bool degraded = false;    ///< false: nothing to do, `sized` == input
  std::int64_t heuristic_total = -1;  ///< -1 when the heuristic did not run
  double heuristic_ms = 0.0;
  std::int64_t exact_total = -1;  ///< -1 when the exact solver did not run
  double exact_ms = 0.0;
  bool exact_proved = false;      ///< exact finished within its budget
  bool exact_cancelled = false;   ///< the cancel token ended the exact solve
  std::int64_t exact_nodes = 0;   ///< work charged against exact_max_nodes
  std::size_t cycles_enumerated = 0;
  bool truncated = false;  ///< cycle enumeration hit max_cycles
  std::vector<QueueChange> changes;
  Instance sized;
  // --- lazy solver diagnostics (meaningful only when solver == kLazy) ---
  bool solver_lazy = false;            ///< the lazy driver handled this call
  std::int64_t lazy_iterations = 0;    ///< separation rounds run
  std::int64_t cycles_generated = 0;   ///< critical-cycle constraints added
  std::int64_t howard_warm_restarts = 0;  ///< warm-started Howard solves
  /// The sizing certificate (present when SizeQueuesOptions::certify).
  std::optional<verify::Certificate> certificate;
};

Result<Sizing> size_queues(const Instance& instance, const SizeQueuesOptions& options = {});

// ---------------------------------------------------------------------------
// Certificate verification (the src/verify checker; docs/certificates.md).

/// Re-checks a certificate against an instance with the standalone O(E)
/// checker — no solver code runs. A *rejected* certificate is a successful
/// call (inspect CheckResult::ok / reason); the Result only fails on an
/// invalid handle. The `json` overload parses the certificate document first
/// and fails with ErrorCode::kParse when it is not even well-formed.
Result<verify::CheckResult> verify_certificate(const Instance& instance,
                                               const verify::Certificate& certificate);
Result<verify::CheckResult> verify_certificate(const Instance& instance, const std::string& json);

// ---------------------------------------------------------------------------
// Event-driven stochastic simulation (src/des; see docs/simulation.md).

struct DesOptions {
  /// Measured window in cycles; statistics cover [warmup, warmup + horizon).
  std::int64_t horizon = 10'000;
  /// Cycles excluded from statistics (transient skip).
  std::int64_t warmup = 0;
  /// RNG seed. Reports are byte-identical per (netlist, options, seed).
  std::uint64_t seed = 1;
  /// Default per-channel forward-hop latency model (fixed:1 = the paper's
  /// synchronous limit).
  des::LatencyDist channel_latency{};
  /// Default arrival process at source cores (saturated = closed system).
  des::ArrivalSpec arrival{};
  /// Per-channel / per-source overrides, e.g. parsed from `#!` netlist
  /// annotations (des/annotations.hpp). Empty = defaults everywhere.
  des::Profile profile;
  /// Record per-channel occupancy histograms and percentiles.
  bool trace_occupancy = true;
  /// Name of the core whose firing rate is reported ("" = first core).
  std::string reference;
  /// Detect state recurrence in the deterministic regime and return the
  /// exact periodic throughput (stopping early).
  bool detect_period = true;
  /// Cooperative cancellation, polled once per event batch. A cancelled run
  /// fails with ErrorCode::kTimeout (partial statistics are never served).
  util::CancelToken cancel;
  /// Run the error-tier lint checks first; see AnalyzeOptions::preflight.
  bool preflight = true;
};

/// The DES report: exact throughput, stall counters, per-channel occupancy
/// percentiles. See des::SimReport for the field-level documentation.
using DesReport = des::SimReport;

/// Simulates the doubled marked graph d[G] of the instance as a
/// discrete-event system with stochastic channel latencies and open-system
/// arrivals. In the deterministic limit (fixed unit latencies, saturated
/// sources) the reported throughput equals min(1, θ(d[G])) exactly.
Result<DesReport> simulate_des(const Instance& instance, const DesOptions& options = {});

// ---------------------------------------------------------------------------
// Relay-station insertion (Sec. VI).

struct InsertRelayStationsOptions {
  /// Maximum relay stations to add.
  int budget = 1;
  /// Exhaustive multiset search instead of greedy (exponential; small
  /// systems only).
  bool exhaustive = false;
};

struct RelayInsertion {
  util::Rational original_ideal;   ///< θ(G) of the input — the repair target
  util::Rational best_practical;   ///< θ(d[G]) achieved
  int added = 0;
  bool reached_ideal = false;
  std::size_t configurations_tried = 0;
  Instance repaired;
};

Result<RelayInsertion> insert_relay_stations(const Instance& instance,
                                             const InsertRelayStationsOptions& options = {});

}  // namespace lid
