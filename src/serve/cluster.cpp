#include "serve/cluster.hpp"

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <ostream>
#include <utility>

#include "serve/protocol.hpp"
#include "serve/registry.hpp"
#include "util/json.hpp"

namespace lid::serve {
namespace {

Error errno_error(const std::string& what) {
  return Error{ErrorCode::kIo, what + ": " + std::strerror(errno)};
}

void sleep_ms(double ms) {
  std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
}

/// A plain v1 upstream session: the router sends no `hello` and reads
/// responses as workers wrote them; with_protocol adds the one v2 field.
SessionOptions upstream_options(double connect_timeout_ms, double timeout_ms) {
  return {.protocol = 1, .timeout_ms = timeout_ms, .connect_timeout_ms = connect_timeout_ms};
}

/// A worker's response as a single server writes it on a `protocol`
/// connection: workers are spoken to in protocol 1, so for v2 the field
/// `"protocol":2` goes in after the id, where response_line puts it.
std::string with_protocol(std::string line, const std::string& id_json, int protocol) {
  if (protocol < 2) return line;
  const std::string head = "{\"id\":" + id_json;
  if (line.compare(0, head.size(), head) == 0) {
    line.insert(head.size(), ",\"protocol\":" + std::to_string(protocol));
  }
  return line;
}

/// The `verb` of a request that parse_request refused ("" when there is
/// none): a router verb still answers its own malformed requests.
std::string verb_of(const std::string& text) {
  const util::JsonParse parsed = util::json_parse(text);
  const util::Json* verb = parsed ? parsed.value.find("verb") : nullptr;
  return verb != nullptr ? verb->as_string() : "";
}

}  // namespace

std::uint64_t HashRing::hash(const std::string& key) {
  std::uint64_t h = 1469598103934665603ull;  // FNV offset basis
  for (const unsigned char c : key) {
    h ^= c;
    h *= 1099511628211ull;  // FNV prime
  }
  return h;
}

void HashRing::add(int worker) {
  if (!workers_.insert(worker).second) return;
  for (int r = 0; r < replicas_; ++r) {
    ring_.emplace(hash("vnode-" + std::to_string(worker) + "-" + std::to_string(r)), worker);
  }
}

void HashRing::remove(int worker) {
  if (workers_.erase(worker) == 0) return;
  for (auto it = ring_.begin(); it != ring_.end();) {
    it = it->second == worker ? ring_.erase(it) : std::next(it);
  }
}

int HashRing::primary(const std::string& key) const {
  if (ring_.empty()) return -1;
  auto it = ring_.lower_bound(hash(key));
  if (it == ring_.end()) it = ring_.begin();
  return it->second;
}

std::vector<int> HashRing::route(const std::string& key, std::size_t n) const {
  std::vector<int> out;
  if (ring_.empty() || n == 0) return out;
  auto it = ring_.lower_bound(hash(key));
  for (std::size_t steps = 0; steps < ring_.size() && out.size() < std::min(n, workers_.size());
       ++steps, ++it) {
    if (it == ring_.end()) it = ring_.begin();
    if (std::find(out.begin(), out.end(), it->second) == out.end()) out.push_back(it->second);
  }
  return out;
}

/// One worker of the cluster: spec, child pid (spawned), health/identity
/// from the prober, breaker state, and the per-generation set of models the
/// router knows to be registered there.
struct Cluster::Worker {
  WorkerSpec spec;
  int index = 0;
  pid_t child_pid = -1;  ///< spawned child; -1 for adopted workers

  std::atomic<bool> healthy{false};
  std::atomic<bool> draining{false};
  std::atomic<int> probe_failures{0};
  /// Bumped whenever the worker's identity changes (restart-worker, or a
  /// silent restart detected by the prober). Everything the router believed
  /// about the old process — registered models, breaker — dies with it.
  std::atomic<std::int64_t> generation{1};
  std::atomic<std::int64_t> reported_pid{0};
  std::atomic<std::int64_t> reported_start_unix_ms{0};

  std::atomic<std::int64_t> outstanding{0};  ///< in-flight forwards
  std::atomic<std::int64_t> forwarded{0};
  std::atomic<std::int64_t> forward_failures{0};
  std::atomic<std::int64_t> probes_ok{0};
  std::atomic<std::int64_t> probes_failed{0};

  std::mutex breaker_mutex;
  int consecutive_transport_failures = 0;
  bool breaker_open = false;
  util::Timer breaker_opened_at;

  /// Held by a connection from registering a model here through the query
  /// that needs it: every registration through the router takes it, so
  /// none can evict that model in between (the worker's registry evicts
  /// never-queried models first). Waits for it are bounded (lock_placement).
  std::timed_mutex placement_mutex;

  /// Models registered on this worker, valid for `models_generation` only.
  std::mutex models_mutex;
  std::int64_t models_generation = 1;
  std::set<std::string> registered;

  void bump_generation() {
    generation.fetch_add(1);
    {
      const std::lock_guard<std::mutex> lock(models_mutex);
      models_generation = generation.load();
      registered.clear();
    }
    const std::lock_guard<std::mutex> lock(breaker_mutex);
    consecutive_transport_failures = 0;
    breaker_open = false;
  }

  bool knows_model(const std::string& fingerprint) {
    const std::lock_guard<std::mutex> lock(models_mutex);
    return models_generation == generation.load() && registered.count(fingerprint) > 0;
  }

  void note_model(const std::string& fingerprint) {
    const std::lock_guard<std::mutex> lock(models_mutex);
    if (models_generation != generation.load()) {
      models_generation = generation.load();
      registered.clear();
    }
    registered.insert(fingerprint);
  }

  void forget_model(const std::string& fingerprint) {
    const std::lock_guard<std::mutex> lock(models_mutex);
    registered.erase(fingerprint);
  }
};

Cluster::Cluster(ClusterOptions options)
    : options_(std::move(options)),
      ring_(options_.ring_replicas),
      listener_("lid_cluster", options_.max_request_bytes, FaultPlan{}, nullptr,
                [this](const std::shared_ptr<Connection>& connection) -> Listener::Handler {
                  auto backends = std::make_shared<Backends>(workers_.size());
                  return [this, connection, backends](Message& message) {
                    handle_message(*connection, *backends, message);
                  };
                }) {
  if (options_.eject_after < 1) options_.eject_after = 1;
  for (std::size_t i = 0; i < options_.workers.size(); ++i) {
    auto worker = std::make_unique<Worker>();
    worker->spec = options_.workers[i];
    worker->index = static_cast<int>(i);
    workers_.push_back(std::move(worker));
  }
}

Cluster::~Cluster() {
  request_stop();
  wait();
}

void Cluster::log_line(const std::string& event, const Worker* worker,
                       const std::string& detail) {
  if (options_.log == nullptr) return;
  util::JsonWriter w;
  w.begin_object();
  w.key("cluster").value(event);
  if (worker != nullptr) {
    w.key("worker").value(worker->index);
    w.key("generation").value(worker->generation.load());
  }
  if (!detail.empty()) w.key("detail").value(detail);
  w.end_object();
  static std::mutex log_mutex;
  const std::lock_guard<std::mutex> lock(log_mutex);
  *options_.log << w.str() << '\n';
}

Status Cluster::spawn_worker(Worker& worker) {
  if (options_.serve_binary.empty()) {
    return Error{ErrorCode::kInvalidArgument,
                 "worker " + std::to_string(worker.index) + " wants spawning but no "
                 "serve_binary is configured"};
  }
  std::vector<std::string> args = {
      options_.serve_binary,
      "--socket", worker.spec.unix_socket,
      "--workers", std::to_string(options_.serve_threads),
      "--queue-capacity", std::to_string(options_.serve_queue_capacity),
      "--quiet",
  };
  if (!worker.spec.fault_plan.empty()) {
    args.push_back("--fault-plan");
    args.push_back(worker.spec.fault_plan);
  }
  if (!worker.spec.pid_file.empty()) {
    args.push_back("--pid-file");
    args.push_back(worker.spec.pid_file);
  }
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  // A stale socket file from a previous (killed) worker would make the
  // child's bind fail; lid_serve itself also clears stale sockets, but a
  // fresh spawn over a live old child must not race that, so restart_worker
  // reaps first.
  const pid_t pid = ::fork();
  if (pid < 0) return errno_error("fork");
  if (pid == 0) {
    ::execv(argv[0], argv.data());
    // exec failed; exit hard without running atexit handlers.
    ::_exit(127);
  }
  worker.child_pid = pid;
  log_line("spawn", &worker, "pid " + std::to_string(pid));
  return Unit{};
}

void Cluster::reap_worker(Worker& worker) {
  if (worker.child_pid <= 0) return;
  int status = 0;
  const pid_t reaped = ::waitpid(worker.child_pid, &status, WNOHANG);
  if (reaped == worker.child_pid) {
    log_line("reaped", &worker, "exit status " + std::to_string(status));
    worker.child_pid = -1;
  }
}

bool Cluster::probe_worker(Worker& worker) {
  Result<Session> connected = Session::connect_unix(
      worker.spec.unix_socket,
      upstream_options(options_.connect_timeout_ms, options_.probe_timeout_ms));
  bool ok = false;
  if (connected) {
    Session session = std::move(connected).value();
    const Result<std::string> response = session.call(R"({"verb":"stats"})");
    const Result<ResponseEnvelope> envelope =
        response ? decode_response(*response) : Result<ResponseEnvelope>(response.error());
    if (envelope && envelope->ok) {
      ok = true;
      // Identity tracking: a changed pid or start time is a restart the
      // router did not perform — distrust everything about the old process.
      const Result<const util::Json*> result = envelope->result();
      const util::Json* pid_json = result ? (*result)->find("pid") : nullptr;
      const util::Json* start_json = result ? (*result)->find("start_unix_ms") : nullptr;
      const std::int64_t pid = pid_json != nullptr ? pid_json->as_int() : 0;
      const std::int64_t start_ms = start_json != nullptr ? start_json->as_int() : 0;
      const std::int64_t old_pid = worker.reported_pid.exchange(pid);
      const std::int64_t old_start = worker.reported_start_unix_ms.exchange(start_ms);
      if (old_pid != 0 && (old_pid != pid || old_start != start_ms)) {
        silent_restarts_.fetch_add(1);
        worker.bump_generation();
        log_line("silent-restart", &worker,
                 "pid " + std::to_string(old_pid) + " -> " + std::to_string(pid));
      }
    }
  }
  if (ok) {
    worker.probes_ok.fetch_add(1);
    worker.probe_failures.store(0);
    if (!worker.healthy.exchange(true)) log_line("rejoined", &worker, "probe succeeded");
    // A live probe is better evidence than a stale breaker.
    const std::lock_guard<std::mutex> lock(worker.breaker_mutex);
    worker.consecutive_transport_failures = 0;
    worker.breaker_open = false;
  } else {
    worker.probes_failed.fetch_add(1);
    const int failures = worker.probe_failures.fetch_add(1) + 1;
    if (failures >= options_.eject_after && worker.healthy.exchange(false)) {
      ejections_.fetch_add(1);
      log_line("ejected", &worker, std::to_string(failures) + " consecutive probe failures");
    }
    reap_worker(worker);  // a dead spawned child becomes visible here
  }
  return ok;
}

void Cluster::prober_loop() {
  while (!listener_.stopping()) {
    for (const std::unique_ptr<Worker>& worker : workers_) {
      if (listener_.stopping()) return;
      probe_worker(*worker);
    }
    // Finite dozes so a stop request is honored promptly.
    double remaining = options_.probe_interval_ms;
    while (remaining > 0.0 && !listener_.stopping()) {
      const double nap = std::min(remaining, 20.0);
      sleep_ms(nap);
      remaining -= nap;
    }
  }
}

Status Cluster::wait_for_worker(Worker& worker, double timeout_ms) {
  util::Timer waited;
  while (waited.elapsed_ms() < timeout_ms) {
    if (probe_worker(worker)) return Unit{};
    sleep_ms(std::min(50.0, options_.probe_interval_ms));
  }
  return Error{ErrorCode::kTimeout, "worker " + std::to_string(worker.index) + " ('" +
                                        worker.spec.unix_socket + "') not answering probes after " +
                                        std::to_string(timeout_ms) + " ms"};
}

Status Cluster::start() {
  {
    const std::lock_guard<std::mutex> lock(lifecycle_mutex_);
    if (started_) return Error{ErrorCode::kInvalidArgument, "Cluster::start called twice"};
    started_ = true;
  }
  if (workers_.empty()) {
    return Error{ErrorCode::kInvalidArgument, "a cluster needs at least one worker"};
  }

  for (const std::unique_ptr<Worker>& worker : workers_) {
    if (worker->spec.spawn) {
      const Status spawned = spawn_worker(*worker);
      if (!spawned) return spawned.error();
    }
  }
  // Workers are unreliable by assumption, at startup too: wait for each, but
  // a worker that will not answer (its fault plan may be eating the probes)
  // starts ejected and re-enters routing when a probe finally lands. Only a
  // cluster with no healthy worker at all refuses to start.
  for (const std::unique_ptr<Worker>& worker : workers_) {
    const Status up = wait_for_worker(*worker, 5'000.0);
    if (!up) log_line("start-unhealthy", worker.get(), up.error().message);
  }
  if (std::none_of(workers_.begin(), workers_.end(),
                   [](const std::unique_ptr<Worker>& w) { return w->healthy.load(); })) {
    return Error{ErrorCode::kIo, "no worker answered a startup probe"};
  }
  {
    const std::lock_guard<std::mutex> lock(ring_mutex_);
    for (const std::unique_ptr<Worker>& worker : workers_) ring_.add(worker->index);
  }

  const Status listening = listener_.start(options_.unix_socket, options_.tcp_port, options_.host);
  if (!listening) return listening;
  prober_thread_ = std::thread([this] { prober_loop(); });
  log_line("started", nullptr,
           listener_.endpoint() + ", " + std::to_string(workers_.size()) + " workers");
  return Unit{};
}

void Cluster::request_stop() { listener_.request_stop(); }

void Cluster::stop() {
  request_stop();
  wait();
}

void Cluster::wait() {
  const std::lock_guard<std::mutex> lock(lifecycle_mutex_);
  if (finished_ || !started_) return;
  listener_.wait();  // front door closed, every admitted request answered
  if (prober_thread_.joinable()) prober_thread_.join();
  // Spawned workers drain and exit on SIGTERM; reap them so no zombies
  // outlive the router.
  for (const std::unique_ptr<Worker>& worker : workers_) {
    if (worker->child_pid > 0) ::kill(worker->child_pid, SIGTERM);
  }
  for (const std::unique_ptr<Worker>& worker : workers_) {
    if (worker->child_pid > 0) {
      int status = 0;
      ::waitpid(worker->child_pid, &status, 0);
      worker->child_pid = -1;
    }
  }
  finished_ = true;
}

void Cluster::handle_message(Connection& connection, Backends& backends, Message& message) {
  const Result<Request>& parsed = message.request;
  const std::string verb = parsed ? parsed->verb : verb_of(message.text);
  const int protocol = connection.protocol.load();
  const bool admin_verb = verb == "cluster-stats" || verb == "drain-worker" ||
                          verb == "rejoin-worker" || verb == "restart-worker";
  std::string response;
  if (!parsed && (admin_verb || verb == "hello" || verb == "stats")) {
    response = error_line("null", verb, wire_code(parsed.error().code), parsed.error().message,
                          protocol);
  } else if (verb == "hello") {
    listener_.hello(connection, *parsed, message.binary, [this](util::JsonWriter& w) {
      w.key("workers").value(static_cast<std::int64_t>(workers_.size()));
    });
    return;
  } else if (admin_verb) {
    response = admin(*parsed, protocol);
  } else if (verb == "stats") {
    response = aggregate_stats(backends, *parsed, protocol);
  } else {
    // Everything else forwards verbatim (workers answer their own parse
    // errors, keeping the router transparent).
    admitted_.fetch_add(1);
    response = forward(backends, message, verb, protocol);
  }
  listener_.respond(connection, response, message.binary);
}

bool Cluster::usable(const Worker& worker) const {
  if (!worker.healthy.load() || worker.draining.load()) return false;
  if (options_.breaker_threshold > 0) {
    const std::lock_guard<std::mutex> lock(
        const_cast<Worker&>(worker).breaker_mutex);
    if (worker.breaker_open &&
        worker.breaker_opened_at.elapsed_ms() < options_.breaker_cooldown_ms) {
      return false;  // open; half-open (cooldown elapsed) counts as usable
    }
  }
  return true;
}

void Cluster::note_forward_failure(Worker& worker) {
  worker.forward_failures.fetch_add(1);
  if (options_.breaker_threshold <= 0) return;
  const std::lock_guard<std::mutex> lock(worker.breaker_mutex);
  if (++worker.consecutive_transport_failures >= options_.breaker_threshold) {
    worker.breaker_open = true;
    worker.breaker_opened_at = util::Timer();
  }
}

void Cluster::note_forward_success(Worker& worker) {
  const std::lock_guard<std::mutex> lock(worker.breaker_mutex);
  worker.consecutive_transport_failures = 0;
  worker.breaker_open = false;
}

std::vector<Cluster::Worker*> Cluster::candidates(const std::string& key) {
  std::vector<int> order;
  {
    const std::lock_guard<std::mutex> lock(ring_mutex_);
    if (key.empty()) {
      // No affinity: start from a rotating ring position for spread.
      order = ring_.route("rr-" + std::to_string(round_robin_.fetch_add(1)), workers_.size());
    } else {
      order = ring_.route(key, workers_.size());
    }
  }
  std::vector<Worker*> usable_first;
  std::vector<Worker*> last_resort;
  for (const int index : order) {
    Worker& worker = *workers_[static_cast<std::size_t>(index)];
    if (usable(worker)) {
      usable_first.push_back(&worker);
    } else if (!worker.draining.load()) {
      // Unhealthy/broken workers are still tried last — between probe
      // intervals this is what notices a recovery first, and when every
      // worker looks down it beats failing without trying.
      last_resort.push_back(&worker);
    }
  }
  usable_first.insert(usable_first.end(), last_resort.begin(), last_resort.end());
  return usable_first;
}

std::optional<Cluster::Reply> Cluster::forward_once(Backends& backends, Worker& worker,
                                                    const std::string& line) {
  Backend& backend = backends[static_cast<std::size_t>(worker.index)];
  const std::int64_t generation = worker.generation.load();
  if (!backend.session || backend.generation != generation) {
    backend.session.reset();
    Result<Session> fresh = Session::connect_unix(
        worker.spec.unix_socket,
        upstream_options(options_.connect_timeout_ms, options_.forward_timeout_ms));
    if (!fresh) {
      note_forward_failure(worker);
      return std::nullopt;
    }
    backend.session.emplace(std::move(fresh).value());
    backend.generation = generation;
  }
  worker.outstanding.fetch_add(1);
  Result<std::string> response = backend.session->call(line);
  worker.outstanding.fetch_sub(1);
  Result<ResponseEnvelope> envelope =
      response ? decode_response(*response) : Result<ResponseEnvelope>(response.error());
  if (!envelope) {
    // Torn line, garbage, EOF, timeout: drop the backend (it may be
    // mid-frame) and let the caller fail over.
    backend.session.reset();
    note_forward_failure(worker);
    return std::nullopt;
  }
  worker.forwarded.fetch_add(1);
  note_forward_success(worker);
  return Reply{std::move(response).value(), std::move(envelope).value()};
}

bool Cluster::lock_placement(Worker& worker, std::unique_lock<std::timed_mutex>& placing) const {
  if (placing.owns_lock()) return true;
  // The holder may be stuck on a hung worker: wait one forward timeout at
  // most, and skip a worker that went bad meanwhile, so waiters never queue
  // behind one another. (A system_clock deadline waits in
  // pthread_mutex_timedlock, which ThreadSanitizer models; try_lock_for's
  // pthread_mutex_clocklock it does not, and reports a false unlock error.)
  const bool was_usable = usable(worker);
  if (!placing.try_lock_until(
          std::chrono::system_clock::now() +
          std::chrono::duration<double, std::milli>(options_.forward_timeout_ms))) {
    return false;
  }
  if (was_usable && !usable(worker)) {
    placing.unlock();
    return false;
  }
  return true;
}

bool Cluster::ensure_model(Backends& backends, Worker& worker, const std::string& fingerprint) {
  if (worker.knows_model(fingerprint)) return true;
  std::string text;
  {
    const std::lock_guard<std::mutex> lock(models_mutex_);
    const auto it = model_texts_.find(fingerprint);
    if (it == model_texts_.end()) return false;  // not registered through us
    text = it->second;
  }
  util::JsonWriter w;
  w.begin_object().key("verb").value("register-model").key("netlist").value(text).end_object();
  const std::optional<Reply> reply = forward_once(backends, worker, w.str());
  if (!reply || !reply->envelope.ok) return false;
  reregistrations_.fetch_add(1);
  worker.note_model(fingerprint);
  log_line("reregistered", &worker, fingerprint);
  return true;
}

std::string Cluster::forward(Backends& backends, const Message& message, const std::string& verb,
                             int protocol) {
  // Route by the model fingerprint, else by the netlist bytes, else round
  // robin (also for a request that did not parse: any worker phrases its
  // error the same way, with a null id).
  const std::string id_json = message.request ? request_id_json(*message.request) : "null";
  std::string fingerprint;
  std::string key;
  std::string canonical_fingerprint;
  if (const Request* request = message.request ? &*message.request : nullptr) {
    const util::Json* model = request->args.find("model");
    const util::Json* netlist = request->args.find("netlist");
    if (model != nullptr && model->is_string()) {
      fingerprint = key = model->as_string();
    } else if (netlist != nullptr && netlist->is_string()) {
      key = "netlist-" + std::to_string(HashRing::hash(netlist->as_string()));
      // register-model: canonicalize router-side so the routing key equals
      // the canonical fingerprint later model-addressed requests will carry,
      // and remember the text for re-registration. A netlist the router
      // cannot parse routes by raw bytes and lets the worker phrase the error.
      if (verb == "register-model" && !netlist->as_string().empty()) {
        if (const Result<Instance> instance = parse_netlist(netlist->as_string())) {
          if (const Result<std::string> canonical = netlist_text(*instance)) {
            canonical_fingerprint = key = Registry::fingerprint(*canonical);
            const std::lock_guard<std::mutex> lock(models_mutex_);
            model_texts_[canonical_fingerprint] = *canonical;
          }
        }
      }
    }
  }

  int hops = 0;
  for (Worker* worker : candidates(key)) {
    if (++hops > 1) failovers_.fetch_add(1);
    // Any registration on this worker (register-model, or placing the model
    // for this query) holds its placement lock through the query; a request
    // that cannot get the lock in time fails over instead of queueing.
    std::unique_lock<std::timed_mutex> placing(worker->placement_mutex, std::defer_lock);
    if ((verb == "register-model" || (!fingerprint.empty() && !worker->knows_model(fingerprint))) &&
        !lock_placement(*worker, placing)) {
      continue;
    }
    // Model-addressed request: make sure the target holds the model before
    // asking, so a failover target answers instead of `unknown_model`.
    if (!fingerprint.empty()) (void)ensure_model(backends, *worker, fingerprint);
    std::optional<Reply> reply = forward_once(backends, *worker, message.text);
    if (reply && reply->envelope.error_code == codes::kUnknownModel && !fingerprint.empty()) {
      // The router's record was only a hint: the worker evicted the model
      // (or restarted between ensure and forward). Forget it there,
      // re-register it and replay once on the same worker.
      worker->forget_model(fingerprint);
      if (!lock_placement(*worker, placing)) continue;
      if (ensure_model(backends, *worker, fingerprint)) {
        reply = forward_once(backends, *worker, message.text);
      }
    }
    if (!reply || reply->envelope.error_code == codes::kShuttingDown) continue;  // fail over
    if (!canonical_fingerprint.empty() && reply->envelope.ok) {
      worker->note_model(canonical_fingerprint);
    }
    if (verb == "evict-model" && !fingerprint.empty()) {
      worker->forget_model(fingerprint);
      const std::lock_guard<std::mutex> lock(models_mutex_);
      model_texts_.erase(fingerprint);
    }
    completed_.fetch_add(1);
    return with_protocol(std::move(reply->line), id_json, protocol);
  }

  failed_.fetch_add(1);
  return error_line(id_json, verb, codes::kUpstreamUnavailable,
                    "no worker could serve the request (" + std::to_string(hops) + " of " +
                        std::to_string(workers_.size()) + " workers tried)",
                    protocol);
}

std::string Cluster::admin(const Request& request, int protocol) {
  const auto answer = [&](const Outcome& outcome) {
    return response_line(request, outcome, 0.0, 0.0, protocol);
  };
  const std::string& verb = request.verb;
  if (verb == "cluster-stats") return answer(Outcome::success(cluster_stats_json()));

  const util::Json* index_arg = request.args.find("worker");
  if (index_arg == nullptr || !index_arg->is_number()) {
    return answer(Outcome::failure(codes::kInvalidArgument, "'worker' must be a worker index"));
  }
  const std::int64_t index = index_arg->as_int();
  if (index < 0 || index >= static_cast<std::int64_t>(workers_.size())) {
    return answer(Outcome::failure(codes::kInvalidArgument,
                                   "worker " + std::to_string(index) + " out of range (" +
                                       std::to_string(workers_.size()) + " workers)"));
  }

  double timeout_ms = 30'000.0;
  if (const util::Json* t = request.args.find("timeout_ms"); t != nullptr && t->is_number()) {
    timeout_ms = static_cast<double>(t->as_int());
  }
  Status status = Unit{};
  if (verb == "drain-worker") {
    status = drain_worker(static_cast<std::size_t>(index), timeout_ms);
  } else if (verb == "rejoin-worker") {
    status = rejoin_worker(static_cast<std::size_t>(index));
  } else {
    status = restart_worker(static_cast<std::size_t>(index), timeout_ms);
  }
  if (!status) {
    return answer(Outcome::failure(wire_code(status.error().code), status.error().message));
  }
  const Worker& worker = *workers_[static_cast<std::size_t>(index)];
  util::JsonWriter w;
  w.begin_object();
  w.key("worker").value(index);
  w.key("action").value(verb);
  w.key("healthy").value(worker.healthy.load());
  w.key("draining").value(worker.draining.load());
  w.key("generation").value(worker.generation.load());
  w.end_object();
  return answer(Outcome::success(w.str()));
}

std::string Cluster::aggregate_stats(Backends& backends, const Request& request, int protocol) {
  // Live-sum the workers' own stats: pool counters and the registry block
  // (which loadgen's hit-rate probe reads), in the single-server shape.
  std::int64_t submitted = 0;
  std::int64_t executed = 0;
  std::int64_t shed = 0;
  std::map<std::string, std::int64_t> counters;
  std::map<std::string, std::int64_t> registry_counters;
  int reachable = 0;
  for (const std::unique_ptr<Worker>& worker : workers_) {
    const std::optional<Reply> reply = forward_once(backends, *worker, R"({"verb":"stats"})");
    if (!reply) continue;
    const Result<const util::Json*> stats = reply->envelope.result();
    if (!stats || !(*stats)->is_object()) continue;
    const util::Json* result = *stats;
    ++reachable;
    if (const util::Json* v = result->find("submitted"); v != nullptr && v->is_number()) {
      submitted += v->as_int();
    }
    if (const util::Json* v = result->find("executed"); v != nullptr && v->is_number()) {
      executed += v->as_int();
    }
    if (const util::Json* v = result->find("shed"); v != nullptr && v->is_number()) {
      shed += v->as_int();
    }
    if (const util::Json* c = result->find("counters"); c != nullptr && c->is_object()) {
      for (const auto& [name, value] : c->members()) {
        if (value.is_number()) counters[name] += value.as_int();
      }
    }
    if (const util::Json* r = result->find("registry"); r != nullptr && r->is_object()) {
      for (const auto& [name, value] : r->members()) {
        if (value.is_number()) registry_counters[name] += value.as_int();
      }
    }
  }
  util::JsonWriter w;
  w.begin_object();
  w.key("cluster").value(true);
  w.key("workers").value(static_cast<std::int64_t>(workers_.size()));
  w.key("workers_reachable").value(reachable);
  w.key("admitted").value(admitted_.load());
  w.key("completed").value(completed_.load());
  w.key("failed").value(failed_.load());
  w.key("failovers").value(failovers_.load());
  w.key("submitted").value(submitted);
  w.key("executed").value(executed);
  w.key("shed").value(shed);
  w.key("counters").begin_object();
  for (const auto& [name, value] : counters) w.key(name).value(value);
  w.end_object();
  w.key("registry").begin_object();
  for (const auto& [name, value] : registry_counters) w.key(name).value(value);
  w.end_object();
  w.end_object();
  return response_line(request, Outcome::success(w.str()), 0.0, 0.0, protocol);
}

Status Cluster::drain_worker(std::size_t index, double timeout_ms) {
  if (index >= workers_.size()) {
    return Error{ErrorCode::kInvalidArgument, "worker index out of range"};
  }
  Worker& worker = *workers_[index];
  worker.draining.store(true);
  log_line("draining", &worker, "");
  util::Timer waited;
  while (worker.outstanding.load() > 0) {
    if (waited.elapsed_ms() > timeout_ms) {
      return Error{ErrorCode::kTimeout,
                   "worker " + std::to_string(index) + " still has " +
                       std::to_string(worker.outstanding.load()) +
                       " requests in flight after " + std::to_string(timeout_ms) + " ms"};
    }
    sleep_ms(1.0);
  }
  log_line("drained", &worker, "");
  return Unit{};
}

Status Cluster::rejoin_worker(std::size_t index) {
  if (index >= workers_.size()) {
    return Error{ErrorCode::kInvalidArgument, "worker index out of range"};
  }
  Worker& worker = *workers_[index];
  worker.draining.store(false);
  log_line("rejoin", &worker, "");
  return Unit{};
}

Status Cluster::restart_worker(std::size_t index, double timeout_ms) {
  if (index >= workers_.size()) {
    return Error{ErrorCode::kInvalidArgument, "worker index out of range"};
  }
  Worker& worker = *workers_[index];
  if (!worker.spec.spawn) {
    return Error{ErrorCode::kInvalidArgument,
                 "worker " + std::to_string(index) +
                     " is adopted, not spawned; restart it externally"};
  }
  const Status drained = drain_worker(index, timeout_ms);
  if (!drained) {
    worker.draining.store(false);
    return drained.error();
  }
  // The worker has no router traffic in flight; its own SIGTERM drain
  // finishes whatever other clients sent before exiting.
  if (worker.child_pid > 0) {
    ::kill(worker.child_pid, SIGTERM);
    int status = 0;
    ::waitpid(worker.child_pid, &status, 0);
    worker.child_pid = -1;
    log_line("stopped", &worker, "exit status " + std::to_string(status));
  }
  worker.healthy.store(false);
  worker.reported_pid.store(0);
  worker.reported_start_unix_ms.store(0);
  worker.bump_generation();
  const Status spawned = spawn_worker(worker);
  if (!spawned) {
    worker.draining.store(false);
    return spawned.error();
  }
  const Status up = wait_for_worker(worker, timeout_ms);
  if (!up) {
    worker.draining.store(false);
    return up.error();
  }
  worker.draining.store(false);
  log_line("restarted", &worker, "");
  return Unit{};
}

std::string Cluster::cluster_stats_json() const {
  util::JsonWriter w;
  w.begin_object();
  w.key("workers").value(static_cast<std::int64_t>(workers_.size()));
  w.key("admitted").value(admitted_.load());
  w.key("completed").value(completed_.load());
  w.key("failed").value(failed_.load());
  w.key("failovers").value(failovers_.load());
  w.key("reregistrations").value(reregistrations_.load());
  w.key("ejections").value(ejections_.load());
  w.key("silent_restarts").value(silent_restarts_.load());
  {
    const std::lock_guard<std::mutex> lock(models_mutex_);
    w.key("known_models").value(static_cast<std::int64_t>(model_texts_.size()));
  }
  w.key("worker_state").begin_array();
  for (const std::unique_ptr<Worker>& worker : workers_) {
    bool breaker_open = false;
    {
      const std::lock_guard<std::mutex> lock(worker->breaker_mutex);
      breaker_open = worker->breaker_open;
    }
    std::size_t registered = 0;
    {
      const std::lock_guard<std::mutex> lock(worker->models_mutex);
      registered = worker->registered.size();
    }
    w.begin_object();
    w.key("index").value(worker->index);
    w.key("endpoint").value("unix:" + worker->spec.unix_socket);
    w.key("spawned").value(worker->spec.spawn);
    w.key("pid").value(worker->reported_pid.load());
    w.key("healthy").value(worker->healthy.load());
    w.key("draining").value(worker->draining.load());
    w.key("breaker_open").value(breaker_open);
    w.key("generation").value(worker->generation.load());
    w.key("start_unix_ms").value(worker->reported_start_unix_ms.load());
    w.key("outstanding").value(worker->outstanding.load());
    w.key("forwarded").value(worker->forwarded.load());
    w.key("forward_failures").value(worker->forward_failures.load());
    w.key("probes_ok").value(worker->probes_ok.load());
    w.key("probes_failed").value(worker->probes_failed.load());
    w.key("registered_models").value(static_cast<std::int64_t>(registered));
    if (!worker->spec.fault_plan.empty()) w.key("fault_plan").value(worker->spec.fault_plan);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

}  // namespace lid::serve
