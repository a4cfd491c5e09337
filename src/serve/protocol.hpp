// The lid_serve wire protocol: newline-delimited JSON over a stream socket.
//
// One request per line, one response line per request. A request is a JSON
// object:
//
//   {"id": "7", "verb": "analyze", "netlist": "...", "deadline_ms": 250}
//
// `verb` selects a lid:: facade operation (the tokens match the CLI:
// "ping", "parse", "generate", "analyze", "size-queues", "insert-rs",
// "rate-safety", "lint", "simulate", "sleep", "stats"); the remaining keys
// are verb arguments
// (snake_case). `id` (string or integer, echoed back) correlates responses,
// which a multi-worker server may emit out of order. `deadline_ms` bounds
// the request end to end: a request whose deadline elapsed in the admission
// queue is answered `deadline_exceeded` without running, and one whose
// deadline expires mid-execution is cancelled cooperatively (the solvers
// poll a CancelToken at iteration boundaries). `on_deadline` selects what a
// deadline miss yields: "error" (the default) answers `deadline_exceeded`;
// "degrade" trades quality for an answer — `size-queues` falls back to the
// heuristic solver and tags the response `"degraded": true`, other verbs
// simply run to completion.
//
// Responses:
//
//   {"id":"7","ok":true,"verb":"analyze","result":{...},"server_ms":1.25,"wait_ms":0.02}
//   {"id":"7","ok":false,"verb":"analyze","error":{"code":"overloaded","message":"..."}}
//
// A degraded response carries `"degraded":true` in the envelope (never in
// `result`, which stays a pure function of the request — a degraded
// `size-queues` payload is byte-identical to the same request executed with
// `"solver":"heuristic"` directly).
//
// `result` payloads are deliberately free of floating point and are produced
// by the pure `execute()` below, so a response observed through the server
// is byte-identical to executing the same request directly — the serving
// layer adds no nondeterminism (lid_selfcheck invariant 8). Timings live
// only in the non-deterministic envelope fields (`server_ms`, `wait_ms`).
//
// Protocol v2 (negotiated per connection with the `hello` verb; see
// docs/api-overview.md for the full walkthrough):
//
//   * `hello` — version/capability negotiation. A connection that never
//     sends it stays on v1 and behaves exactly as above, byte for byte.
//     After a successful hello, every response envelope carries
//     `"protocol":2`.
//   * registry verbs — `register-model` / `evict-model` / `list-models`
//     manage the server's content-addressed model registry (registry.hpp),
//     and `analyze` / `size-queues` / `lint` / `rate-safety` / `simulate`
//     accept `"model": "<fingerprint>"` in place of inline `netlist` text. A
//     registered-model payload is byte-identical to sending the model's
//     canonical netlist inline.
//   * a binary transport lane — length-prefixed frames (frame.hpp) carrying
//     the same JSON bytes as the NDJSON lane. Responses always use the
//     transport their request arrived in.
#pragma once

#include <cstdint>
#include <string>

#include "lid_api.hpp"
#include "util/cancel.hpp"
#include "util/json.hpp"

namespace lid::serve {

/// Machine-readable `error.code` values.
namespace codes {
inline constexpr const char* kParse = "parse_error";           ///< request line is not valid JSON
inline constexpr const char* kInvalidArgument = "invalid_argument";
inline constexpr const char* kUnknownVerb = "unknown_verb";
inline constexpr const char* kTooLarge = "too_large";          ///< request/netlist over size limit
inline constexpr const char* kOverloaded = "overloaded";       ///< admission queue full, load shed
inline constexpr const char* kDeadlineExceeded = "deadline_exceeded";
inline constexpr const char* kShuttingDown = "shutting_down";  ///< received during drain
inline constexpr const char* kIo = "io";
inline constexpr const char* kTimeout = "timeout";
inline constexpr const char* kInternal = "internal";
inline constexpr const char* kLint = "lint";  ///< pre-flight lint rejected the model
inline constexpr const char* kUnknownModel = "unknown_model";  ///< fingerprint not resident
inline constexpr const char* kRegistryFull = "registry_full";  ///< model refused by the budget
inline constexpr const char* kUnsupportedVersion = "unsupported_version";
/// Cluster router: every candidate worker failed (after failover + retries).
inline constexpr const char* kUpstreamUnavailable = "upstream_unavailable";
}  // namespace codes

/// Protocol versions this build speaks. v1 is the implicit NDJSON protocol
/// every connection starts in; v2 (negotiated via `hello`) adds the model
/// registry, the binary frame lane, and the `protocol` envelope field.
inline constexpr int kProtocolVersionMin = 1;
inline constexpr int kProtocolVersion = 2;

/// `code` mapped onto the wire string (kParse -> "parse_error", ...).
const char* wire_code(ErrorCode code);

/// Per-request deadline-miss policy.
enum class OnDeadline {
  kError,    ///< answer `deadline_exceeded` (default)
  kDegrade,  ///< prefer a lower-quality answer over an error
};

/// One parsed request.
struct Request {
  bool has_id = false;
  std::string id;            ///< echoed verbatim; "" when has_id is false
  std::string verb;
  double deadline_ms = 0.0;  ///< <= 0: no deadline
  OnDeadline on_deadline = OnDeadline::kError;
  util::Json args;           ///< the whole request object
};

/// Server-side caps applied to every request, independent of what the
/// client asks for. These keep a single request from monopolizing a worker
/// (deterministic node budgets) or exhausting memory (size limits).
struct ExecLimits {
  /// Hard cap on the exact-QS work budget (ExactOptions::max_nodes: search
  /// nodes; for the lazy solver's LP sub-solve, nodes plus the tableau
  /// cells its simplex pivots rewrite); requests asking for more (or for
  /// "unlimited" via 0) are clamped here, keeping responses deterministic.
  /// An LP sub-solve that exhausts it stops after 10-20 ms of CPU on an
  /// Intel Xeon server core (EXPERIMENTS.md, "Certified sizing at 10^5-core
  /// scale").
  std::int64_t exact_max_nodes = 200'000;
  /// Cap on cycle enumeration during queue sizing.
  std::size_t max_cycles = 500'000;
  /// Largest accepted embedded netlist text, in bytes.
  std::size_t max_netlist_bytes = 1 << 20;
  /// Largest accepted `generate` core count.
  std::int64_t max_gen_cores = 2'000;
  /// Cap on the diagnostic `sleep` verb.
  std::int64_t max_sleep_ms = 10'000;
  /// Relay stations `insert-rs` may be asked to add.
  std::int64_t max_rs_budget = 64;
  /// Cap on the `simulate` cycle horizon (and warmup), keeping one DES
  /// request from monopolizing a worker.
  std::int64_t max_sim_horizon = 1'000'000;
};

class Registry;

/// Execution-time context the server threads into `execute`: the request's
/// cancel token (armed from the remaining deadline budget), whether the
/// deadline had already expired when a worker dequeued the request, and the
/// server's model registry (nullptr disables `model` resolution and the
/// registry verbs). The default context never cancels — direct
/// `execute(request, limits)` calls stay pure and uncancellable.
struct ExecContext {
  util::CancelToken cancel;
  bool deadline_expired = false;
  Registry* registry = nullptr;
};

/// Outcome of executing one request: either a compact JSON `result` payload
/// or a wire error code + message.
struct Outcome {
  bool ok = false;
  std::string payload;        ///< compact JSON object ("{...}") when ok
  std::string error_code;     ///< codes::* when !ok
  std::string error_message;
  /// True when the deadline-miss policy downgraded the answer (heuristic
  /// instead of exact). Emitted in the response envelope, never the payload.
  bool degraded = false;
  /// Lazy-solver counters from a `size-queues` execution (zero for every
  /// other verb/solver). The server folds them into its metrics so the
  /// `stats` verb can report aggregate lazy-solver behavior.
  std::int64_t lazy_iterations = 0;
  std::int64_t lazy_cycles_generated = 0;
  std::int64_t lazy_warm_restarts = 0;
  bool lazy_fell_back = false;

  static Outcome success(std::string payload_json);
  static Outcome failure(std::string code, std::string message);
};

/// Parses one request line. Error codes: kParse for malformed JSON,
/// kInvalidArgument for a structurally wrong request (non-object, bad id,
/// missing verb, negative deadline).
Result<Request> parse_request(const std::string& line);

/// Executes `request` against the lid:: facade. Pure and deterministic for
/// every verb except "sleep" (which blocks the calling thread) — and even
/// sleep's payload is deterministic. "stats" is not handled here: it needs
/// server state and is answered by the Server directly.
Outcome execute(const Request& request, const ExecLimits& limits = {});

/// Like the two-argument overload, but cancellable: `context.cancel` is
/// polled by the solvers, and a mid-flight expiry yields `deadline_exceeded`
/// (policy "error") or a degraded answer (policy "degrade"). Successful
/// payloads remain byte-identical to the pure overload's — cancellation
/// never emits a partial result.
Outcome execute(const Request& request, const ExecLimits& limits, const ExecContext& context);

/// Formats the response line (without trailing newline) for an executed
/// request. `server_ms` / `wait_ms` land in the envelope, not the payload.
/// `protocol` >= 2 adds the negotiated `"protocol"` envelope field; the
/// default keeps v1 envelopes byte-identical to pre-v2 builds.
std::string response_line(const Request& request, const Outcome& outcome, double server_ms,
                          double wait_ms, int protocol = 1);

/// Formats an error response for a request that never executed (parse
/// failure, shed, expired deadline). `id_json` is the already-serialized id
/// ("\"7\"", "7", or "null"); use `request_id_json` to build it.
std::string error_line(const std::string& id_json, const std::string& verb,
                       const std::string& code, const std::string& message, int protocol = 1);

/// The id of `request` as a JSON fragment ("null" when absent).
std::string request_id_json(const Request& request);

/// Client-side helper: parses a response line and returns the canonical
/// compact re-serialization of its `result` member. Errors when the line is
/// not a response object, `ok` is false, or `result` is missing. Because
/// payloads avoid floating point, the returned bytes equal the producing
/// Outcome::payload exactly.
Result<std::string> extract_result(const std::string& response);

}  // namespace lid::serve
