// Cluster mode: the consistent-hash ring, the router's transparency
// (payloads byte-identical to a single server and to direct execution),
// failover with model re-registration, drain/rejoin, silent-restart
// detection, and the connect-vs-mid-request failure split in RetryingClient.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "lid_api.hpp"
#include "serve/cluster.hpp"
#include "serve/faults.hpp"
#include "serve/protocol.hpp"
#include "serve/registry.hpp"
#include "serve/retry.hpp"
#include "serve/server.hpp"
#include "serve/session.hpp"
#include "util/json.hpp"
#include "util/timer.hpp"

namespace {

using namespace lid;

constexpr const char* kNetlist =
    "core A\ncore B\ncore C\n"
    "channel A -> B\nchannel B -> C rs=1\nchannel C -> A\n";

std::string unique_path(const std::string& stem) {
  static int counter = 0;
  return ::testing::TempDir() + stem + "-" + std::to_string(::getpid()) + "-" +
         std::to_string(++counter) + ".sock";
}

/// Direct (in-process, no socket) execution of one request line — the
/// byte-identity baseline of invariant 14.
serve::Outcome direct(const std::string& line, serve::Registry* registry = nullptr) {
  const Result<serve::Request> request = serve::parse_request(line);
  EXPECT_TRUE(request.ok()) << line;
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

std::string error_code_of(const std::string& response) {
  const util::JsonParse parsed = util::json_parse(response);
  if (!parsed || !parsed.value.is_object()) return "<malformed>";
  if (const util::Json* error = parsed.value.find("error");
      error != nullptr && error->is_object()) {
    if (const util::Json* code = error->find("code"); code != nullptr && code->is_string()) {
      return code->as_string();
    }
  }
  return "";
}

// ---------------------------------------------------------------------------
// HashRing.

TEST(HashRing, RoutesDeterministicallyWithDistinctFailoverOrder) {
  serve::HashRing ring(64);
  for (int w = 0; w < 4; ++w) ring.add(w);
  EXPECT_EQ(ring.size(), 4u);
  const std::vector<int> order = ring.route("lis-0123456789abcdef", 4);
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order[0], ring.primary("lis-0123456789abcdef"));
  EXPECT_EQ(std::set<int>(order.begin(), order.end()).size(), 4u);  // all distinct

  serve::HashRing same(64);
  for (int w = 0; w < 4; ++w) same.add(w);
  for (int k = 0; k < 200; ++k) {
    const std::string key = "key-" + std::to_string(k);
    EXPECT_EQ(ring.primary(key), same.primary(key));
  }
}

TEST(HashRing, SingleWorkerLossMovesAtMostTwoOverNKeys) {
  constexpr int kWorkers = 5;
  constexpr int kKeys = 2'000;
  serve::HashRing ring(64);
  for (int w = 0; w < kWorkers; ++w) ring.add(w);

  std::map<std::string, int> before;
  for (int k = 0; k < kKeys; ++k) {
    const std::string key = "model-" + std::to_string(k);
    before[key] = ring.primary(key);
  }
  ring.remove(2);
  int moved = 0;
  for (const auto& [key, owner] : before) {
    const int now = ring.primary(key);
    if (owner == 2) {
      EXPECT_NE(now, 2);  // orphaned keys must move somewhere real
      ++moved;
    } else {
      // Consistent hashing: surviving workers keep their arcs untouched.
      EXPECT_EQ(now, owner) << key;
    }
  }
  // The removed worker owned ~1/N of the keys; 2/N is the contract bound.
  EXPECT_GT(moved, 0);
  EXPECT_LE(moved, 2 * kKeys / kWorkers);
}

TEST(HashRing, EmptyRingRoutesNowhere) {
  serve::HashRing ring;
  EXPECT_EQ(ring.primary("anything"), -1);
  EXPECT_TRUE(ring.route("anything", 3).empty());
  ring.add(7);
  ring.remove(7);
  EXPECT_EQ(ring.primary("anything"), -1);
}

// ---------------------------------------------------------------------------
// Cluster over adopted in-process workers.

struct LiveCluster {
  explicit LiveCluster(int workers, serve::FaultPlan fault_on_worker0 = {},
                       std::size_t registry_max_models = 64,
                       double forward_timeout_ms = 2'000.0) {
    for (int i = 0; i < workers; ++i) {
      serve::ServerOptions options;
      options.unix_socket = unique_path("lid-cluster-worker");
      options.registry_max_models = registry_max_models;
      if (i == 0) options.fault_plan = fault_on_worker0;
      servers.push_back(std::make_unique<serve::Server>(options));
      EXPECT_TRUE(servers.back()->start().ok());
      serve::WorkerSpec spec;
      spec.unix_socket = options.unix_socket;
      spec.spawn = false;
      cluster_options.workers.push_back(spec);
    }
    cluster_options.unix_socket = unique_path("lid-cluster-front");
    cluster_options.probe_interval_ms = 20.0;
    cluster_options.probe_timeout_ms = 500.0;
    cluster_options.eject_after = 2;
    cluster_options.connect_timeout_ms = 500.0;
    cluster_options.forward_timeout_ms = forward_timeout_ms;
    cluster_options.breaker_cooldown_ms = 100.0;
    if (::getenv("LID_TEST_LOG") != nullptr) cluster_options.log = &std::cerr;
    cluster = std::make_unique<serve::Cluster>(cluster_options);
    EXPECT_TRUE(cluster->start().ok());
  }

  ~LiveCluster() {
    cluster->stop();
    for (const std::unique_ptr<serve::Server>& server : servers) server->stop();
  }

  [[nodiscard]] serve::Session connect() const {
    Result<serve::Session> connected =
        serve::Session::connect_unix(cluster_options.unix_socket, {.protocol = 1});
    EXPECT_TRUE(connected.ok());
    return std::move(connected).value();
  }

  serve::ClusterOptions cluster_options;
  std::vector<std::unique_ptr<serve::Server>> servers;
  std::unique_ptr<serve::Cluster> cluster;
};

TEST(Cluster, PayloadsByteIdenticalToSingleServerAndDirect) {
  LiveCluster live(3);
  serve::Session via_cluster = live.connect();

  // One plain single server as the middle term of the identity.
  serve::ServerOptions single_options;
  single_options.unix_socket = unique_path("lid-cluster-single");
  serve::Server single(single_options);
  ASSERT_TRUE(single.start().ok());
  Result<serve::Session> single_connected =
      serve::Session::connect_unix(single_options.unix_socket, {.protocol = 1});
  ASSERT_TRUE(single_connected.ok());
  serve::Session via_single = std::move(single_connected).value();

  const std::vector<std::string> lines = {
      R"({"verb":"ping"})",
      netlist_request("analyze", kNetlist),
      netlist_request("size-queues", kNetlist),
      netlist_request("lint", kNetlist),
      netlist_request("rate-safety", kNetlist),
  };
  for (const std::string& line : lines) {
    const Result<std::string> from_cluster = via_cluster.call(line);
    const Result<std::string> from_single = via_single.call(line);
    ASSERT_TRUE(from_cluster.ok()) << line;
    ASSERT_TRUE(from_single.ok()) << line;
    const Result<std::string> cluster_payload = serve::extract_result(*from_cluster);
    const Result<std::string> single_payload = serve::extract_result(*from_single);
    ASSERT_TRUE(cluster_payload.ok()) << *from_cluster;
    ASSERT_TRUE(single_payload.ok()) << *from_single;
    EXPECT_EQ(*cluster_payload, *single_payload) << line;
    const serve::Outcome baseline = direct(line);
    ASSERT_TRUE(baseline.ok) << line;
    EXPECT_EQ(*cluster_payload, baseline.payload) << line;
  }
  single.stop();
}

/// A response without its timing fields, which differ from run to run.
std::string envelope_of(const std::string& response) {
  const std::size_t timing = response.rfind(",\"server_ms\":");
  return timing == std::string::npos ? response : response.substr(0, timing) + "}";
}

TEST(Cluster, EnvelopesMatchASingleServerOnBothProtocols) {
  LiveCluster live(2);
  serve::ServerOptions single_options;
  single_options.unix_socket = unique_path("lid-cluster-single");
  serve::Server single(single_options);
  ASSERT_TRUE(single.start().ok());

  const std::vector<std::string> lines = {
      R"({"verb":"ping"})",
      R"({"id":"p-1","verb":"ping"})",
      netlist_request("analyze", kNetlist),
      R"({"id":"a\"1","verb":"analyze","netlist":"core A\nchannel A -> A\n"})",
      R"({"id":"r-1","verb":"register-model",)"
      R"("netlist":"core A\ncore B\nchannel A -> B\nchannel B -> A q=2\n"})",
      R"({"id":"bad","verb":"analyze","netlist":"core A\nchannel A -> Z\n"})",
      R"({"verb":42})",
  };
  for (const int protocol : {1, 2}) {
    for (const bool binary : {false, true}) {
      if (binary && protocol < 2) continue;
      const serve::SessionOptions options{.protocol = protocol, .binary = binary};
      Result<serve::Session> cluster_connected =
          serve::Session::connect_unix(live.cluster_options.unix_socket, options);
      Result<serve::Session> single_connected =
          serve::Session::connect_unix(single_options.unix_socket, options);
      ASSERT_TRUE(cluster_connected.ok() && single_connected.ok());
      serve::Session via_cluster = std::move(cluster_connected).value();
      serve::Session via_single = std::move(single_connected).value();
      for (const std::string& line : lines) {
        const Result<std::string> from_cluster = via_cluster.call(line);
        const Result<std::string> from_single = via_single.call(line);
        ASSERT_TRUE(from_cluster.ok() && from_single.ok()) << line;
        EXPECT_EQ(envelope_of(*from_cluster), envelope_of(*from_single))
            << "protocol " << protocol << (binary ? " binary" : "") << ": " << line;
        EXPECT_EQ(from_cluster->find("\"protocol\":2,") != std::string::npos, protocol == 2)
            << *from_cluster;
      }
    }
  }
  single.stop();
}

TEST(Cluster, DrainedHotModelReRegistersByteIdentically) {
  LiveCluster live(3);
  serve::Session client = live.connect();

  // Register through the router; remember the fingerprint.
  const Result<std::string> registered =
      client.call(netlist_request("register-model", kNetlist));
  ASSERT_TRUE(registered.ok());
  const Result<std::string> reg_payload = serve::extract_result(*registered);
  ASSERT_TRUE(reg_payload.ok()) << *registered;
  const util::JsonParse parsed = util::json_parse(*reg_payload);
  ASSERT_TRUE(parsed && parsed.value.is_object());
  const util::Json* fp = parsed.value.find("model");
  ASSERT_NE(fp, nullptr);
  const std::string fingerprint = fp->as_string();

  // The identity baseline: the same model-addressed request against a fresh
  // direct registry (registered == inline == direct, PR 6's invariant).
  serve::Registry registry{serve::RegistryOptions{}};
  ASSERT_TRUE(direct(netlist_request("register-model", kNetlist), &registry).ok);
  const serve::Outcome baseline = direct(model_request("analyze", fingerprint), &registry);
  ASSERT_TRUE(baseline.ok);

  // Drain every worker in turn. Whichever held the model, the query must
  // keep answering byte-identically — the router re-registers on the
  // failover target; the client never sees unknown_model.
  for (std::size_t i = 0; i < live.servers.size(); ++i) {
    ASSERT_TRUE(live.cluster->drain_worker(i, 5'000.0).ok()) << i;
    const Result<std::string> response = client.call(model_request("analyze", fingerprint));
    ASSERT_TRUE(response.ok()) << i;
    EXPECT_NE(error_code_of(*response), serve::codes::kUnknownModel) << *response;
    const Result<std::string> payload = serve::extract_result(*response);
    ASSERT_TRUE(payload.ok()) << *response;
    EXPECT_EQ(*payload, baseline.payload) << "drained worker " << i;
    ASSERT_TRUE(live.cluster->rejoin_worker(i).ok());
  }

  const util::JsonParse stats = util::json_parse(live.cluster->cluster_stats_json());
  ASSERT_TRUE(stats && stats.value.is_object());
  EXPECT_GE(stats.value.find("reregistrations")->as_int(), 1);
  EXPECT_EQ(stats.value.find("failed")->as_int(), 0);
}

TEST(Cluster, EvictedModelsAreReRegisteredInsteadOfAnsweringUnknownModel) {
  // Two workers whose registries hold two models each, six models
  // registered through the router: the workers evict, and the router's
  // record of which worker holds which model goes stale.
  LiveCluster live(2, {}, /*registry_max_models=*/2);
  serve::Session client = live.connect();
  serve::Registry registry{serve::RegistryOptions{}};
  std::vector<std::string> fingerprints;
  std::vector<std::string> baselines;
  for (int m = 0; m < 6; ++m) {
    const std::string text = "core A\ncore B\ncore C\nchannel A -> B\nchannel B -> C rs=" +
                             std::to_string(m + 1) + "\nchannel C -> A\n";
    const Result<std::string> registered = client.call(netlist_request("register-model", text));
    ASSERT_TRUE(registered.ok());
    const Result<std::string> payload = serve::extract_result(*registered);
    ASSERT_TRUE(payload.ok()) << *registered;
    const util::JsonParse parsed = util::json_parse(*payload);
    ASSERT_TRUE(parsed && parsed.value.is_object());
    fingerprints.push_back(parsed.value.find("model")->as_string());
    ASSERT_TRUE(direct(netlist_request("register-model", text), &registry).ok);
    const serve::Outcome baseline =
        direct(model_request("analyze", fingerprints.back()), &registry);
    ASSERT_TRUE(baseline.ok);
    baselines.push_back(baseline.payload);
  }

  for (int round = 0; round < 2; ++round) {
    for (std::size_t m = 0; m < fingerprints.size(); ++m) {
      const Result<std::string> response =
          client.call(model_request("analyze", fingerprints[m]));
      ASSERT_TRUE(response.ok());
      EXPECT_NE(error_code_of(*response), serve::codes::kUnknownModel) << *response;
      const Result<std::string> payload = serve::extract_result(*response);
      ASSERT_TRUE(payload.ok()) << *response;
      EXPECT_EQ(*payload, baselines[m]) << "model " << m << ", round " << round;
    }
  }

  const util::JsonParse stats = util::json_parse(live.cluster->cluster_stats_json());
  ASSERT_TRUE(stats && stats.value.is_object());
  EXPECT_GE(stats.value.find("reregistrations")->as_int(), 1);
  EXPECT_EQ(stats.value.find("failed")->as_int(), 0);
}

TEST(Cluster, WorkerKilledMidStreamFailsOverTransparently) {
  // Worker 0 drops half its responses (connection shut without writing) —
  // mid-request loss on a worker that still passes probes. With a healthy
  // peer, every request must still answer correctly: drops fail over.
  serve::FaultPlan drops;
  drops.seed = 7;
  drops.drop_p = 0.5;
  LiveCluster live(2, drops);
  serve::Session client = live.connect();

  const serve::Outcome baseline = direct(netlist_request("analyze", kNetlist));
  ASSERT_TRUE(baseline.ok);
  for (int i = 0; i < 8; ++i) {
    util::JsonWriter w;
    w.begin_object().key("id").value(i).key("verb").value("analyze");
    w.key("netlist").value(std::string(kNetlist) + "# variant " + std::to_string(i) + "\n");
    w.end_object();
    const Result<std::string> response = client.call(w.str());
    ASSERT_TRUE(response.ok()) << i;
    const Result<std::string> payload = serve::extract_result(*response);
    ASSERT_TRUE(payload.ok()) << *response;
    EXPECT_EQ(*payload, baseline.payload) << i;  // comments don't change the model
  }
}

TEST(Cluster, AllWorkersDownYieldsStructuredErrorNotAHang) {
  LiveCluster live(1);
  serve::Session client = live.connect();
  ASSERT_TRUE(client.call(R"({"verb":"ping"})").ok());

  live.servers[0]->stop();  // the only worker dies; its socket is unlinked

  util::Timer waited;
  const Result<std::string> response =
      client.call(R"({"id":"gone","verb":"analyze","netlist":"core A\n"})");
  ASSERT_TRUE(response.ok()) << "the router itself must keep answering";
  EXPECT_LT(waited.elapsed_ms(), 10'000.0) << "bounded failure, not a hang";
  EXPECT_EQ(error_code_of(*response), serve::codes::kUpstreamUnavailable) << *response;
  const util::JsonParse parsed = util::json_parse(*response);
  ASSERT_TRUE(parsed && parsed.value.is_object());
  EXPECT_EQ(parsed.value.find("id")->as_string(), "gone");  // id still echoed
}

TEST(Cluster, HungWorkerCostsConcurrentRegistrationsAboutOneTimeoutEach) {
  // Worker 0's one pool thread sleeps: its reader still answers the
  // prober's `stats`, so it stays in routing, but every request forwarded to
  // it hangs. Registrations and queries of models whose primary it is must
  // each fail over within about one forward timeout (at most one more spent
  // waiting for its placement lock), not queue one after another there.
  constexpr double kForwardTimeoutMs = 400.0;
  LiveCluster live(2, {}, 64, kForwardTimeoutMs);
  serve::HashRing ring(live.cluster_options.ring_replicas);
  ring.add(0);
  ring.add(1);
  std::vector<std::string> on_worker0;  // netlists whose primary is worker 0
  for (int rs = 1; on_worker0.size() < 8; ++rs) {
    const std::string text = "core A\ncore B\ncore C\nchannel A -> B\nchannel B -> C rs=" +
                             std::to_string(rs) + "\nchannel C -> A\n";
    const Result<Instance> instance = parse_netlist(text);
    ASSERT_TRUE(instance.ok());
    const Result<std::string> canonical = netlist_text(*instance);
    ASSERT_TRUE(canonical.ok());
    if (ring.primary(serve::Registry::fingerprint(*canonical)) == 0) on_worker0.push_back(text);
  }
  // Two models registered before the hang, for the queries.
  std::vector<std::string> queried;
  serve::Session client = live.connect();
  for (int m = 0; m < 2; ++m) {
    const Result<std::string> registered =
        client.call(netlist_request("register-model", on_worker0[m]));
    ASSERT_TRUE(registered.ok());
    const Result<std::string> payload = serve::extract_result(*registered);
    ASSERT_TRUE(payload.ok()) << *registered;
    queried.push_back(util::json_parse(*payload).value.find("model")->as_string());
  }

  std::thread sleeper([&] {
    Result<serve::Session> connected = serve::Session::connect_unix(
        live.cluster_options.workers[0].unix_socket, {.protocol = 1});
    ASSERT_TRUE(connected.ok());
    serve::Session direct_session = std::move(connected).value();
    EXPECT_TRUE(direct_session.call(R"({"verb":"sleep","ms":3000})").ok());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(200));

  std::vector<std::string> lines;
  for (std::size_t m = 2; m < on_worker0.size(); ++m) {
    lines.push_back(netlist_request("register-model", on_worker0[m]));
  }
  for (const std::string& model : queried) lines.push_back(model_request("analyze", model));
  std::vector<std::string> responses(lines.size());
  std::vector<double> elapsed_ms(lines.size());
  std::vector<std::thread> clients;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    clients.emplace_back([&, i] {
      serve::Session session = live.connect();
      const util::Timer timer;
      const Result<std::string> response = session.call(lines[i]);
      elapsed_ms[i] = timer.elapsed_ms();
      responses[i] = response ? *response : response.error().to_string();
    });
  }
  for (std::thread& t : clients) t.join();
  for (std::size_t i = 0; i < lines.size(); ++i) {
    EXPECT_TRUE(serve::extract_result(responses[i]).ok()) << responses[i];
    EXPECT_LT(elapsed_ms[i], 3 * kForwardTimeoutMs) << lines[i];
  }
  sleeper.join();
}

TEST(Cluster, SilentRestartBumpsGenerationAndCounter) {
  LiveCluster live(2);
  const std::string path = live.cluster_options.workers[1].unix_socket;

  // Replace worker 1 behind the router's back: same socket, new process
  // identity (a fresh Server reports a new start_unix_ms).
  live.servers[1]->stop();
  serve::ServerOptions options;
  options.unix_socket = path;
  serve::Server replacement(options);
  ASSERT_TRUE(replacement.start().ok());

  util::Timer waited;
  std::int64_t silent_restarts = 0;
  while (waited.elapsed_ms() < 10'000.0) {
    const util::JsonParse stats = util::json_parse(live.cluster->cluster_stats_json());
    ASSERT_TRUE(stats && stats.value.is_object());
    silent_restarts = stats.value.find("silent_restarts")->as_int();
    if (silent_restarts >= 1) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_GE(silent_restarts, 1) << "the prober must notice the identity change";
  replacement.stop();
}

TEST(Cluster, SecondRouterOnALiveSocketFailsAndTheFirstKeepsAnswering) {
  LiveCluster live(1);
  serve::Cluster second(live.cluster_options);
  EXPECT_FALSE(second.start().ok()) << "the front door belongs to a live router";
  second.stop();

  serve::Session client = live.connect();
  const Result<std::string> pong = client.call(R"({"verb":"ping"})");
  ASSERT_TRUE(pong.ok());
  EXPECT_NE(pong->find("\"pong\":true"), std::string::npos) << *pong;
}

TEST(Cluster, MalformedHelloGetsTheErrorCodeOfASingleServer) {
  LiveCluster live(1);
  serve::Session via_cluster = live.connect();
  Result<serve::Session> single =
      serve::Session::connect_unix(live.cluster_options.workers[0].unix_socket, {.protocol = 1});
  ASSERT_TRUE(single.ok());
  serve::Session via_single = std::move(single).value();
  for (const char* hello :
       {R"({"verb":"hello","protocol":"2"})", R"({"verb":"hello","transport":"pigeon"})"}) {
    const Result<std::string> from_cluster = via_cluster.call(hello);
    const Result<std::string> from_single = via_single.call(hello);
    ASSERT_TRUE(from_cluster.ok() && from_single.ok()) << hello;
    EXPECT_EQ(error_code_of(*from_single), serve::codes::kInvalidArgument) << *from_single;
    EXPECT_EQ(error_code_of(*from_cluster), error_code_of(*from_single)) << *from_cluster;
  }
}

TEST(Cluster, AggregatedStatsSumWorkersInSingleServerShape) {
  LiveCluster live(3);
  serve::Session client = live.connect();
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(client.call(R"({"verb":"ping"})").ok());
  }
  const Result<std::string> response = client.call(R"({"verb":"stats"})");
  ASSERT_TRUE(response.ok());
  const Result<std::string> payload = serve::extract_result(*response);
  ASSERT_TRUE(payload.ok()) << *response;
  const util::JsonParse stats = util::json_parse(*payload);
  ASSERT_TRUE(stats && stats.value.is_object());
  EXPECT_EQ(stats.value.find("workers")->as_int(), 3);
  EXPECT_EQ(stats.value.find("workers_reachable")->as_int(), 3);
  EXPECT_GE(stats.value.find("executed")->as_int(), 5);  // the pings ran somewhere
  // The merged registry block keeps the single-server keys (loadgen's
  // hit-rate probe reads result.registry.memo_hits / memo_misses).
  const util::Json* registry = stats.value.find("registry");
  ASSERT_NE(registry, nullptr);
  ASSERT_TRUE(registry->is_object());
  EXPECT_NE(registry->find("memo_hits"), nullptr);
  EXPECT_NE(registry->find("memo_misses"), nullptr);
}

// ---------------------------------------------------------------------------
// Satellites: connect timeout, connect_refused vs mid-request counters.

TEST(Session, ConnectTimeoutBoundsFullBacklogConnect) {
  // A listener that never accepts: once its backlog is full, further
  // connects hang forever by default — the connect timeout must bound them.
  const std::string path = unique_path("lid-cluster-backlog");
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  const int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  ASSERT_EQ(::bind(listener, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_EQ(::listen(listener, 0), 0);

  serve::SessionOptions options{.protocol = 1, .connect_timeout_ms = 100.0};
  bool saw_timeout = false;
  std::vector<serve::Session> pending;  // keep early connects alive
  for (int i = 0; i < 16 && !saw_timeout; ++i) {
    util::Timer waited;
    Result<serve::Session> connected = serve::Session::connect_unix(path, options);
    if (connected.ok()) {
      pending.push_back(std::move(connected).value());
      continue;
    }
    EXPECT_LT(waited.elapsed_ms(), 5'000.0);
    saw_timeout = connected.error().code == ErrorCode::kTimeout;
  }
  EXPECT_TRUE(saw_timeout) << "a full backlog must surface as kTimeout, promptly";
  ::close(listener);
  ::unlink(path.c_str());
}

TEST(Retry, DistinguishesConnectRefusedFromMidRequestLoss) {
  // A socket file with no listener behind it: ECONNREFUSED on every attempt.
  const std::string refused_path = unique_path("lid-cluster-refused");
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, refused_path.c_str(), sizeof(addr.sun_path) - 1);
  const int stale = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(stale, 0);
  ASSERT_EQ(::bind(stale, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)), 0);
  ::close(stale);  // the path stays; nothing will ever listen

  serve::RetryPolicy policy;
  policy.max_attempts = 3;
  policy.base_backoff_ms = 0.0;
  policy.max_backoff_ms = 0.0;
  policy.breaker_threshold = 0;
  serve::RetryingClient refused(
      [&] { return serve::Session::connect_unix(refused_path, {.protocol = 1}); },
      policy);
  EXPECT_FALSE(refused.call(R"({"verb":"ping"})").ok());
  EXPECT_EQ(refused.stats().connect_failures, 3);
  EXPECT_EQ(refused.stats().connect_refused, 3);
  EXPECT_EQ(refused.stats().mid_request_failures, 0);
  ::unlink(refused_path.c_str());

  // A live server that drops every response: connects succeed, requests die
  // mid-flight — the opposite split.
  serve::ServerOptions options;
  options.unix_socket = unique_path("lid-cluster-dropper");
  options.fault_plan.seed = 3;
  options.fault_plan.drop_p = 1.0;
  serve::Server server(options);
  ASSERT_TRUE(server.start().ok());
  serve::RetryingClient dropped(
      [&] { return serve::Session::connect_unix(options.unix_socket, {.protocol = 1}); },
      policy);
  EXPECT_FALSE(dropped.call(R"({"verb":"ping"})").ok());
  EXPECT_EQ(dropped.stats().connect_failures, 0);
  EXPECT_EQ(dropped.stats().connect_refused, 0);
  EXPECT_EQ(dropped.stats().mid_request_failures, 3);
  server.stop();
}

}  // namespace
