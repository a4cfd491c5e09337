// The client API: a Session owns one connection plus its negotiated
// protocol/transport, and hands out typed ModelHandles. It is the only
// client class; the retry layer (retry.hpp) reconnects Sessions.
//
// The intended shape of a v2 client program:
//
//   auto session = Session::connect_unix("/tmp/lid.sock");      // hello -> v2
//   auto model = session->register_model(netlist_text);         // once
//   auto payload = session->analyze(*model);                    // many times
//
// Registering is what buys the round-trip win: the server parses the netlist
// once, pools its analysis caches, and every subsequent `analyze` /
// `size-queues` / `lint` / `rate-safety` on the handle ships a ~60-byte
// fingerprint instead of the netlist text — with payloads byte-identical to
// inline requests by construction (registry.hpp).
//
// Transports: `SessionOptions::binary` selects the length-prefixed frame
// lane (frame.hpp) for requests; the server always answers in the request's
// transport, and `recv_message` accepts either, so a session never has to
// care which lane a response used.
//
// Compatibility: connecting with protocol = 1 sends no `hello` and yields a
// plain v1 NDJSON session, byte for byte what pre-v2 clients sent (the
// cluster router talks to its workers this way). Every response is read
// through decode_response (protocol.hpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "lid_api.hpp"
#include "serve/protocol.hpp"

namespace lid::serve {

struct SessionOptions {
  /// Protocol to negotiate (1..kProtocolVersion). 1 skips negotiation
  /// entirely — a legacy NDJSON session; the server sees no traffic until
  /// the first real request.
  int protocol = 2;
  /// Send requests as binary frames instead of NDJSON lines. Requires
  /// protocol >= 2.
  bool binary = false;
  /// Default receive timeout applied by call()/typed wrappers; 0 = forever.
  double timeout_ms = 0.0;
  /// Bound on connect() itself; 0 = the OS default (which can be minutes for
  /// TCP). A connection not established within the budget fails with
  /// kTimeout; a refused one still fails immediately with kIo.
  double connect_timeout_ms = 0.0;
};

/// A registered model: the content-address plus the server's registration
/// report. Cheap to copy; valid until evicted (a query on an evicted handle
/// fails with `unknown_model` — re-register and retry).
struct ModelHandle {
  std::string fingerprint;
  std::size_t bytes = 0;  ///< accounted base footprint on the server
  std::size_t cores = 0;
  std::size_t channels = 0;
  int relay_stations = 0;

  [[nodiscard]] bool valid() const { return !fingerprint.empty(); }
};

class Session {
 public:
  static Result<Session> connect_unix(const std::string& path, const SessionOptions& options = {});
  static Result<Session> connect_tcp(const std::string& host, int port,
                                     const SessionOptions& options = {});

  Session(Session&& other) noexcept;
  Session& operator=(Session&& other) noexcept;
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;
  ~Session();

  void close();

  /// The negotiated protocol version (1 when protocol 1 was asked for or
  /// the server predates v2).
  [[nodiscard]] int protocol() const { return protocol_; }
  /// Whether requests go out as binary frames.
  [[nodiscard]] bool binary() const { return options_.binary; }

  /// Sends one JSON message in the session's transport (a newline is
  /// appended on the NDJSON lane if missing).
  Status send_message(const std::string& json);

  /// Blocks until one full message arrives and returns its JSON text —
  /// from either lane; frames and lines are detected per message. kIo on
  /// EOF, kTimeout after `timeout_ms` (> 0) with any partial input left
  /// buffered (reconnect, as RetryingClient does).
  Result<std::string> recv_message(double timeout_ms = 0.0);

  /// send_message + recv_message (with the session's default timeout).
  /// Correct while requests are issued one at a time on this session.
  Result<std::string> call(const std::string& json);

  /// Registers (or re-finds) a model on the server and returns its handle.
  Result<ModelHandle> register_model(const std::string& netlist_text);

  /// Forgets a registered model. kInvalidArgument with the server's
  /// `unknown_model` detail when the handle is not resident.
  Status evict_model(const ModelHandle& model);

  /// Runs `verb` against a registered model and returns the raw `result`
  /// payload. `extra_args_json` is an optional JSON object of verb
  /// arguments merged into the request (e.g. `{"solver":"lazy"}`).
  Result<std::string> query(const ModelHandle& model, const std::string& verb,
                            const std::string& extra_args_json = "");

  /// Typed conveniences over query(): the raw result payloads of the four
  /// model-addressed verbs.
  Result<std::string> analyze(const ModelHandle& model) { return query(model, "analyze"); }
  Result<std::string> size_queues(const ModelHandle& model, const std::string& extra_args_json = "") {
    return query(model, "size-queues", extra_args_json);
  }
  Result<std::string> lint(const ModelHandle& model) { return query(model, "lint"); }
  Result<std::string> rate_safety(const ModelHandle& model) { return query(model, "rate-safety"); }

  /// Raw result payloads of the connection-level verbs.
  Result<std::string> list_models();
  Result<std::string> stats();

 private:
  Session(int fd, SessionOptions options);

  /// Sends `hello` and records the negotiated protocol. A server that does
  /// not know the verb (pre-v2) downgrades the session to v1.
  Status handshake();

  /// call() + decode_response: the decoded envelope of one round trip.
  Result<ResponseEnvelope> exchange(const std::string& json);

  /// call() + extract_result: the compact `result` bytes (or the error).
  Result<std::string> payload(const std::string& json);

  /// Opens a typed request: `{"id":<next id>,"verb":verb`.
  util::JsonWriter& begin_request(util::JsonWriter& w, const char* verb);

  int fd_ = -1;
  SessionOptions options_;
  int protocol_ = 1;
  std::string buffer_;
  std::uint64_t next_id_ = 0;
};

}  // namespace lid::serve
