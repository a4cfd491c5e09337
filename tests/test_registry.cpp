// The protocol-v2 surface: binary framing, the model registry (fingerprints,
// LRU eviction, evict-while-in-flight, the payload memo), the registry verbs
// (register-model / evict-model / list-models), hello negotiation, and the
// contract that registered-model responses are byte-identical to inline
// execution over both transports and any worker count.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "lid_api.hpp"
#include "serve/frame.hpp"
#include "serve/protocol.hpp"
#include "serve/registry.hpp"
#include "serve/retry.hpp"
#include "serve/server.hpp"
#include "serve/session.hpp"
#include "util/json.hpp"

namespace {

using namespace lid;

// A small cyclic system, and a comment/whitespace variant that must
// canonicalize (and therefore fingerprint) identically.
constexpr const char* kNetlist =
    "core A\ncore B\ncore C\n"
    "channel A -> B\nchannel B -> C rs=1\nchannel C -> A\n";
constexpr const char* kNetlistNoisy =
    "# the same system, dressed differently\n"
    "core A\n\ncore B\n  core C\n"
    "channel A -> B   # forward\n"
    "channel B -> C rs=1\n"
    "channel C -> A\n";

std::string generated_netlist(int cores, std::uint64_t seed) {
  GenerateOptions options;
  options.cores = cores;
  options.sccs = 1;
  options.relay_stations = 1;
  options.rs_anywhere = true;
  options.seed = seed;
  const Result<Instance> instance = lid::generate(options);
  EXPECT_TRUE(instance.ok());
  const Result<std::string> text = netlist_text(*instance);
  EXPECT_TRUE(text.ok());
  return *text;
}

serve::Outcome run_line(const std::string& line, serve::Registry* registry = nullptr) {
  const Result<serve::Request> request = serve::parse_request(line);
  EXPECT_TRUE(request) << line;
  serve::ExecContext context;
  context.registry = registry;
  return serve::execute(*request, {}, context);
}

std::string netlist_request(const char* verb, const std::string& text) {
  util::JsonWriter w;
  w.begin_object().key("verb").value(verb).key("netlist").value(text).end_object();
  return w.str();
}

std::string model_request(const char* verb, const std::string& fingerprint) {
  util::JsonWriter w;
  w.begin_object().key("verb").value(verb).key("model").value(fingerprint).end_object();
  return w.str();
}

/// Whether `registry` holds `fingerprint`, without counting as a query.
bool resident(const serve::Registry& registry, const std::string& fingerprint) {
  for (const serve::ModelInfo& info : registry.list()) {
    if (info.fingerprint == fingerprint) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Binary framing.

TEST(Frame, RoundTripsExactPayloadBytes) {
  const std::string payload = R"({"id":1,"verb":"ping"})";
  const std::string wire = serve::frame_message(payload);
  ASSERT_EQ(wire.size(), serve::kFrameHeaderBytes + payload.size());
  EXPECT_TRUE(serve::starts_frame(wire));
  EXPECT_FALSE(serve::starts_frame(payload));  // JSON can never open a frame

  const serve::FrameDecode decoded = serve::decode_frame(wire, 1 << 20);
  ASSERT_EQ(decoded.status, serve::FrameStatus::kFrame);
  EXPECT_EQ(decoded.payload, payload);
  EXPECT_EQ(decoded.consumed, wire.size());
}

TEST(Frame, PartialHeaderAndPayloadNeedMore) {
  const std::string wire = serve::frame_message("{}");
  for (std::size_t n = 0; n < wire.size(); ++n) {
    const serve::FrameDecode decoded = serve::decode_frame(wire.substr(0, n), 1 << 20);
    EXPECT_EQ(decoded.status, serve::FrameStatus::kNeedMore) << "prefix " << n;
  }
}

TEST(Frame, RejectsBadHeaders) {
  std::string wrong_version = serve::frame_message("{}");
  wrong_version[2] = 3;
  const serve::FrameDecode bad_version = serve::decode_frame(wrong_version, 1 << 20);
  ASSERT_EQ(bad_version.status, serve::FrameStatus::kBad);
  EXPECT_STREQ(bad_version.error_code, serve::codes::kUnsupportedVersion);

  std::string wrong_flags = serve::frame_message("{}");
  wrong_flags[3] = 1;
  EXPECT_EQ(serve::decode_frame(wrong_flags, 1 << 20).status, serve::FrameStatus::kBad);

  const serve::FrameDecode oversized =
      serve::decode_frame(serve::frame_message(std::string(64, 'x')), 16);
  ASSERT_EQ(oversized.status, serve::FrameStatus::kBad);
  EXPECT_STREQ(oversized.error_code, serve::codes::kTooLarge);
}

// ---------------------------------------------------------------------------
// Registry unit tests (no sockets).

TEST(Registry, FingerprintIgnoresWhitespaceAndComments) {
  serve::Registry registry;
  const Result<serve::ModelInfo> a = registry.register_model(kNetlist);
  const Result<serve::ModelInfo> b = registry.register_model(kNetlistNoisy);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->fingerprint, b->fingerprint);
  EXPECT_EQ(a->bytes, b->bytes);
  EXPECT_EQ(registry.list().size(), 1u);  // one model, not two

  const Result<serve::ModelInfo> other = registry.register_model(generated_netlist(6, 7));
  ASSERT_TRUE(other.ok());
  EXPECT_NE(other->fingerprint, a->fingerprint);
  EXPECT_EQ(a->fingerprint.rfind("lis-", 0), 0u);
  EXPECT_EQ(a->fingerprint.size(), 4u + 16u);  // "lis-" + 16 hex digits
}

TEST(Registry, LruEvictsColdestModelFirst) {
  serve::RegistryOptions options;
  options.max_models = 2;
  serve::Registry registry(options);
  const std::string a = registry.register_model(generated_netlist(5, 1))->fingerprint;
  const std::string b = registry.register_model(generated_netlist(6, 2))->fingerprint;
  // Touch A so B becomes the LRU victim.
  ASSERT_NE(registry.acquire(a), nullptr);
  const std::string c = registry.register_model(generated_netlist(7, 3))->fingerprint;

  EXPECT_NE(registry.acquire(a), nullptr);
  EXPECT_EQ(registry.acquire(b), nullptr);
  EXPECT_NE(registry.acquire(c), nullptr);
  EXPECT_EQ(registry.stats().evictions, 1);
  EXPECT_EQ(registry.list().size(), 2u);
}

TEST(Registry, NeverQueriedModelsAreEvictedBeforeQueriedOnes) {
  serve::RegistryOptions options;
  options.max_models = 2;
  serve::Registry registry(options);
  const std::string queried = registry.register_model(generated_netlist(5, 1))->fingerprint;
  ASSERT_NE(registry.acquire(queried), nullptr);
  // Registered after that query, so plain LRU would drop `queried` next;
  // but it never served a query itself, so it leaves first.
  const std::string idle = registry.register_model(generated_netlist(6, 2))->fingerprint;
  const std::string fresh = registry.register_model(generated_netlist(7, 3))->fingerprint;
  EXPECT_TRUE(resident(registry, queried));
  EXPECT_FALSE(resident(registry, idle));
  EXPECT_TRUE(resident(registry, fresh));
  EXPECT_EQ(registry.stats().evictions, 1);

  // Among never-queried models, the first registered leaves first.
  const std::string later = registry.register_model(generated_netlist(8, 4))->fingerprint;
  EXPECT_TRUE(resident(registry, queried));
  EXPECT_FALSE(resident(registry, fresh));
  EXPECT_TRUE(resident(registry, later));
  EXPECT_EQ(registry.stats().evictions, 2);
}

TEST(Registry, RegisteringANeverQueriedModelAgainKeepsItsFirstInPlace) {
  serve::RegistryOptions options;
  options.max_models = 2;
  serve::Registry registry(options);
  const std::string first = registry.register_model(generated_netlist(5, 1))->fingerprint;
  const std::string second = registry.register_model(generated_netlist(6, 2))->fingerprint;
  // A client's warm-up registers every model again on each connection; that
  // does not make `first` younger than `second`.
  ASSERT_EQ(registry.register_model(generated_netlist(5, 1))->fingerprint, first);
  const std::string third = registry.register_model(generated_netlist(7, 3))->fingerprint;
  EXPECT_FALSE(resident(registry, first));
  EXPECT_TRUE(resident(registry, second));
  EXPECT_TRUE(resident(registry, third));
}

TEST(Registry, ByteBudgetBoundsResidency) {
  const std::string one = generated_netlist(6, 11);
  serve::Registry probe;
  const std::size_t footprint = probe.register_model(one)->bytes;

  serve::RegistryOptions options;
  options.max_bytes = footprint * 2 + footprint / 2;  // room for two, not three
  serve::Registry registry(options);
  ASSERT_TRUE(registry.register_model(one).ok());
  ASSERT_TRUE(registry.register_model(generated_netlist(6, 12)).ok());
  ASSERT_TRUE(registry.register_model(generated_netlist(6, 13)).ok());
  const serve::Registry::Stats stats = registry.stats();
  EXPECT_LE(stats.bytes, options.max_bytes);
  EXPECT_GE(stats.evictions, 1);
  EXPECT_LE(stats.resident, 2u);
}

TEST(Registry, EvictionIsSafeWhileInFlight) {
  serve::Registry registry;
  const std::string fp = registry.register_model(kNetlist)->fingerprint;
  std::shared_ptr<serve::Registry::Entry> borrowed = registry.acquire(fp);
  ASSERT_NE(borrowed, nullptr);

  EXPECT_TRUE(registry.evict(fp));
  EXPECT_FALSE(registry.evict(fp));           // already gone
  EXPECT_EQ(registry.acquire(fp), nullptr);   // unknown_model for new requests

  // The borrower's entry stays fully usable: the pooled cache still answers.
  EXPECT_EQ(borrowed->cache->theta_practical(),
            lis::practical_mst(borrowed->instance.graph()));
  EXPECT_EQ(registry.stats().misses, 1);
}

TEST(Registry, RefusesWhenDisabledOrOverBudget) {
  serve::RegistryOptions disabled;
  disabled.max_models = 0;
  EXPECT_FALSE(serve::Registry(disabled).register_model(kNetlist).ok());

  serve::RegistryOptions tiny;
  tiny.max_bytes = 16;  // smaller than any model's base footprint
  EXPECT_FALSE(serve::Registry(tiny).register_model(kNetlist).ok());

  EXPECT_FALSE(serve::Registry().register_model("channel ghost -> nowhere\n").ok());
}

// ---------------------------------------------------------------------------
// Registry verbs through the protocol layer (no sockets).

TEST(ProtocolV2, RegisterQueryEvictLifecycle) {
  serve::Registry registry;
  const serve::Outcome registered =
      run_line(netlist_request("register-model", kNetlist), &registry);
  ASSERT_TRUE(registered.ok) << registered.error_message;
  const util::JsonParse info = util::json_parse(registered.payload);
  ASSERT_TRUE(info.ok);
  const std::string fp = info.value.find("model")->as_string();
  EXPECT_EQ(info.value.find("cores")->as_int(), 3);
  EXPECT_EQ(info.value.find("relay_stations")->as_int(), 1);

  // Registering again is idempotent: byte-identical payload, same residency.
  const serve::Outcome again =
      run_line(netlist_request("register-model", kNetlistNoisy), &registry);
  ASSERT_TRUE(again.ok);
  EXPECT_EQ(again.payload, registered.payload);

  for (const char* verb : {"analyze", "size-queues", "lint", "rate-safety"}) {
    const serve::Outcome inline_form = run_line(netlist_request(verb, kNetlist), &registry);
    const serve::Outcome by_model = run_line(model_request(verb, fp), &registry);
    ASSERT_TRUE(inline_form.ok) << verb;
    ASSERT_TRUE(by_model.ok) << verb << ": " << by_model.error_message;
    EXPECT_EQ(by_model.payload, inline_form.payload) << verb;
    // Second query by model replays the memo, still byte-identical.
    EXPECT_EQ(run_line(model_request(verb, fp), &registry).payload, inline_form.payload);
  }
  EXPECT_GT(registry.stats().memo_hits, 0);

  const serve::Outcome listed = run_line(R"({"verb":"list-models"})", &registry);
  ASSERT_TRUE(listed.ok);
  EXPECT_NE(listed.payload.find(fp), std::string::npos);
  EXPECT_NE(listed.payload.find("\"resident\":1"), std::string::npos);

  const serve::Outcome evicted = run_line(model_request("evict-model", fp), &registry);
  ASSERT_TRUE(evicted.ok);
  EXPECT_NE(evicted.payload.find("\"evicted\":true"), std::string::npos);
  const serve::Outcome gone = run_line(model_request("analyze", fp), &registry);
  ASSERT_FALSE(gone.ok);
  EXPECT_EQ(gone.error_code, serve::codes::kUnknownModel);
}

TEST(ProtocolV2, StructuredErrorCodes) {
  serve::Registry registry;
  const serve::Outcome unknown = run_line(model_request("analyze", "lis-deadbeefdeadbeef"), &registry);
  ASSERT_FALSE(unknown.ok);
  EXPECT_EQ(unknown.error_code, serve::codes::kUnknownModel);

  // No registry wired (a server built without one): model refs cannot
  // resolve, registration reports the registry as full.
  const serve::Outcome unresolved = run_line(model_request("analyze", "lis-deadbeefdeadbeef"));
  ASSERT_FALSE(unresolved.ok);
  EXPECT_EQ(unresolved.error_code, serve::codes::kUnknownModel);
  const serve::Outcome no_registry = run_line(netlist_request("register-model", kNetlist));
  ASSERT_FALSE(no_registry.ok);
  EXPECT_EQ(no_registry.error_code, serve::codes::kRegistryFull);

  serve::RegistryOptions disabled;
  disabled.max_models = 0;
  serve::Registry off(disabled);
  const serve::Outcome full = run_line(netlist_request("register-model", kNetlist), &off);
  ASSERT_FALSE(full.ok);
  EXPECT_EQ(full.error_code, serve::codes::kRegistryFull);

  // Ambiguous addressing is an argument error, not a resolution error.
  util::JsonWriter both;
  both.begin_object().key("verb").value("analyze").key("model").value("lis-deadbeefdeadbeef");
  both.key("netlist").value(kNetlist).end_object();
  const serve::Outcome ambiguous = run_line(both.str(), &registry);
  ASSERT_FALSE(ambiguous.ok);
  EXPECT_EQ(ambiguous.error_code, serve::codes::kInvalidArgument);

  const serve::Outcome empty_evict = run_line(R"({"verb":"evict-model"})", &registry);
  ASSERT_FALSE(empty_evict.ok);
  EXPECT_EQ(empty_evict.error_code, serve::codes::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Socket-level: hello negotiation, envelopes, transports, byte identity.

struct LiveServer {
  explicit LiveServer(int workers = 1) {
    options.unix_socket = ::testing::TempDir() + "lid_registry_test.sock";
    options.workers = workers;
    server = std::make_unique<serve::Server>(options);
    EXPECT_TRUE(server->start().ok());
  }
  ~LiveServer() { server->stop(); }
  serve::ServerOptions options;
  std::unique_ptr<serve::Server> server;
};

TEST(ServeV2, HelloNegotiatesAndStampsEnvelopes) {
  LiveServer live;
  // A v1 client sees pre-v2 envelopes: no "protocol" field anywhere.
  Result<serve::Session> connected_v1 =
      serve::Session::connect_unix(live.options.unix_socket, {.protocol = 1});
  ASSERT_TRUE(connected_v1.ok());
  serve::Session v1 = std::move(connected_v1).value();
  const Result<std::string> pong = v1.call(R"({"id":1,"verb":"ping"})");
  ASSERT_TRUE(pong.ok());
  EXPECT_EQ(pong->find("\"protocol\""), std::string::npos);
  v1.close();

  serve::SessionOptions options;
  Result<serve::Session> connected =
      serve::Session::connect_unix(live.options.unix_socket, options);
  ASSERT_TRUE(connected.ok());
  serve::Session session = std::move(connected).value();
  EXPECT_EQ(session.protocol(), 2);
  const Result<std::string> v2pong = session.call(R"({"id":2,"verb":"ping"})");
  ASSERT_TRUE(v2pong.ok());
  EXPECT_NE(v2pong->find("\"protocol\":2"), std::string::npos);
  session.close();
}

TEST(ServeV2, HelloRejectsBadRequests) {
  LiveServer live;
  Result<serve::Session> connected =
      serve::Session::connect_unix(live.options.unix_socket, {.protocol = 1});
  ASSERT_TRUE(connected.ok());
  serve::Session raw = std::move(connected).value();
  const Result<std::string> future = raw.call(R"({"verb":"hello","protocol":3})");
  ASSERT_TRUE(future.ok());
  EXPECT_NE(future->find(serve::codes::kUnsupportedVersion), std::string::npos);
  const Result<std::string> mismatch =
      raw.call(R"({"verb":"hello","protocol":1,"transport":"binary"})");
  ASSERT_TRUE(mismatch.ok());
  EXPECT_NE(mismatch->find(serve::codes::kInvalidArgument), std::string::npos);
  raw.close();
}

TEST(ServeV2, RegisteredEqualsInlineOverBothTransportsAndWorkerCounts) {
  const std::string text = generated_netlist(8, 21);
  static const char* kVerbs[] = {"analyze", "size-queues", "lint", "rate-safety"};

  std::vector<std::string> direct;
  for (const char* verb : kVerbs) {
    const serve::Outcome outcome = run_line(netlist_request(verb, text));
    ASSERT_TRUE(outcome.ok) << verb;
    direct.push_back(outcome.payload);
  }

  for (const int workers : {1, 4}) {
    LiveServer live(workers);
    for (const bool binary : {false, true}) {
      serve::SessionOptions options;
      options.binary = binary;
      Result<serve::Session> connected =
          serve::Session::connect_unix(live.options.unix_socket, options);
      ASSERT_TRUE(connected.ok());
      serve::Session session = std::move(connected).value();
      EXPECT_EQ(session.binary(), binary);
      const Result<serve::ModelHandle> handle = session.register_model(text);
      ASSERT_TRUE(handle.ok()) << handle.error().to_string();
      EXPECT_EQ(handle->cores, 8u);
      for (std::size_t v = 0; v < 4; ++v) {
        const Result<std::string> payload = session.query(*handle, kVerbs[v]);
        ASSERT_TRUE(payload.ok()) << kVerbs[v] << ": " << payload.error().to_string();
        EXPECT_EQ(*payload, direct[v])
            << kVerbs[v] << " workers=" << workers << " binary=" << binary;
      }
      session.close();
    }
  }
}

TEST(ServeV2, EvictModelRoundTripAndStatsSection) {
  LiveServer live;
  serve::SessionOptions options;
  Result<serve::Session> connected =
      serve::Session::connect_unix(live.options.unix_socket, options);
  ASSERT_TRUE(connected.ok());
  serve::Session session = std::move(connected).value();
  const Result<serve::ModelHandle> handle = session.register_model(kNetlist);
  ASSERT_TRUE(handle.ok());
  ASSERT_TRUE(session.query(*handle, "analyze").ok());
  ASSERT_TRUE(session.query(*handle, "analyze").ok());  // memo hit
  EXPECT_TRUE(session.evict_model(*handle).ok());
  const Result<std::string> gone = session.query(*handle, "analyze");
  ASSERT_FALSE(gone.ok());
  EXPECT_NE(gone.error().message.find(serve::codes::kUnknownModel), std::string::npos);

  const Result<std::string> stats = session.stats();
  ASSERT_TRUE(stats.ok());
  const util::JsonParse parsed = util::json_parse(*stats);
  ASSERT_TRUE(parsed.ok);
  const util::Json* registry = parsed.value.find("registry");
  ASSERT_NE(registry, nullptr);
  EXPECT_EQ(registry->find("memo_hits")->as_int(), 1);
  EXPECT_EQ(registry->find("memo_misses")->as_int(), 1);
  EXPECT_GE(registry->find("evictions")->as_int(), 1);
  session.close();
}

TEST(ServeV2, SessionWarmupRunsOnEveryFreshConnection) {
  LiveServer live;
  int warmups = 0;
  serve::RetryPolicy policy;
  policy.session_warmup = [&](serve::Session& client) -> Status {
    ++warmups;
    const Result<std::string> response =
        client.call(netlist_request("register-model", kNetlist));
    if (!response) return response.error();
    return Unit{};
  };
  serve::RetryingClient client(
      [&]() -> Result<serve::Session> {
        return serve::Session::connect_unix(live.options.unix_socket, {.protocol = 1});
      },
      policy);
  ASSERT_TRUE(client.call(R"({"verb":"ping"})").ok());
  EXPECT_EQ(warmups, 1);
  client.disconnect();
  ASSERT_TRUE(client.call(R"({"verb":"ping"})").ok());
  EXPECT_EQ(warmups, 2);  // re-ran after the reconnect
  EXPECT_EQ(client.stats().reconnects, 2);
}

}  // namespace
