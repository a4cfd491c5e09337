// The two serving workloads: open loops at a fixed rate from one process
// with four connections, one sender and one receiver thread.
//
// serve-hot: through lid_cluster with two single-thread lid_serve workers,
// protocol v2 binary frames. Registered what-if queries (analyze,
// size-queues, lint, rate-safety) with an 80/20 hot/cold model skew, plus a
// small share of register-model writes of fresh models drawn from a pool
// larger than a worker's registry cap, so evictions and the router's
// re-registration run beside the memo hits.
//
// serve-cold: one lid_serve with two workers, NDJSON v1 inline requests.
// Every request carries its own generated system, so neither the memo nor
// the router helps: parse, lint, the d[G] build, Howard, lazy sizing, the
// DES and certificate serialization do the work.
//
// Every payload is compared, after the timed window, with a direct
// serve::execute of the same request; every certificate is re-checked with
// verify::check.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "core/lazy_sizing.hpp"
#include "lid_api.hpp"
#include "lid_api_detail.hpp"
#include "lint/checks.hpp"
#include "lis/lis_graph.hpp"
#include "lis/netlist_io.hpp"
#include "loadgen.hpp"
#include "mg/mcm.hpp"
#include "proc.hpp"
#include "serve/frame.hpp"
#include "serve/protocol.hpp"
#include "serve/registry.hpp"
#include "trace.hpp"
#include "util/json.hpp"
#include "verify/certificate.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using lid::util::Json;
using lid::util::JsonWriter;

/// A per-seed stream of pseudo-random numbers (splitmix64), so every input
/// is a function of the workload seed alone.
class SeedStream {
 public:
  explicit SeedStream(std::uint64_t seed) : state_(seed * 0x9E3779B97F4A7C15ULL + 0x632BE59BD9B4E019ULL) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  /// Uniform integer in [lo, hi].
  std::int64_t between(std::int64_t lo, std::int64_t hi) {
    return lo + static_cast<std::int64_t>(next() % static_cast<std::uint64_t>(hi - lo + 1));
  }
  /// Uniform double in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

constexpr int kConnections = 4;
/// Seconds of load before the measured window (see OpenLoopOptions::warmup_s).
constexpr double kWarmupS = 2.0;

struct Model {
  std::string canonical;
  std::string fingerprint;
  lid::Instance instance;
};

/// Inclusive ranges of the generator's v, s, c and rs.
struct GenRange {
  int v_lo, v_hi, s_lo, s_hi, c_lo, c_hi, rs_lo, rs_hi;
};

Model make_model(SeedStream& rng, const GenRange& range) {
  lid::GenerateOptions gen;
  gen.cores = static_cast<int>(rng.between(range.v_lo, range.v_hi));
  gen.sccs = static_cast<int>(rng.between(range.s_lo, std::min(range.s_hi, gen.cores / 3)));
  gen.extra_cycles = static_cast<int>(rng.between(range.c_lo, range.c_hi));
  gen.relay_stations = static_cast<int>(rng.between(range.rs_lo, range.rs_hi));
  // Relay stations inside an SCC are what degrade throughput; a single-SCC
  // system has nowhere else to put them.
  gen.rs_anywhere = gen.sccs == 1 || rng.unit() < 0.3;
  gen.seed = rng.next() >> 1;
  Model m;
  const lid::Instance generated = lid::generate(gen).value();
  m.instance = lid::parse_netlist(lid::netlist_text(generated).value()).value();
  m.canonical = lid::netlist_text(m.instance).value();
  m.fingerprint = lid::serve::Registry::fingerprint(m.canonical);
  return m;
}

/// Splices `"id":"<id>"` in front of the members of `body` (a JSON object).
std::string with_id(std::size_t id, const std::string& body) {
  return "{\"id\":\"" + std::to_string(id) + "\"," + body.substr(1);
}

/// A request body: verb, the model reference (`model` fingerprint or inline
/// `netlist`), and extra members already serialized.
std::string body(const std::string& verb, const std::string& ref_key, const std::string& ref,
                 const std::string& extra = "") {
  JsonWriter w;
  w.begin_object().key("verb").value(verb).key(ref_key).value(ref);
  std::string s = w.str();  // no closing brace yet
  return s + extra + "}";
}

std::string direct_payload(const std::string& request_json, lid::serve::Registry* registry) {
  const lid::Result<lid::serve::Request> request = lid::serve::parse_request(request_json);
  if (!request) return "!parse:" + request.error().message;
  lid::serve::ExecContext context;
  context.registry = registry;
  const lid::serve::Outcome outcome = lid::serve::execute(*request, lid::serve::ExecLimits{}, context);
  if (!outcome.ok) return "!" + outcome.error_code;
  return outcome.payload;
}

std::optional<Json> result_of(const std::string& response) {
  const lid::util::JsonParse parsed = lid::util::json_parse(response);
  if (!parsed) return std::nullopt;
  const Json* ok = parsed.value.find("ok");
  const Json* result = parsed.value.find("result");
  if (ok == nullptr || !ok->as_bool() || result == nullptr) return std::nullopt;
  return *result;
}

std::int64_t member_int(const Json& object, const std::string& path_a, const std::string& path_b) {
  const Json* a = object.find(path_a);
  if (a == nullptr) return 0;
  const Json* b = a->find(path_b);
  return b == nullptr ? 0 : b->as_int();
}

/// The certificate inside a payload, parsed, with the graph it must be
/// checked against.
struct CertCheck {
  const lid::lis::LisGraph* lis = nullptr;
  lid::verify::Certificate certificate;
};

enum class CertFound { kNone, kParsed, kMalformed };

/// Parses the certificate inside `payload` into `into`, if it has one.
CertFound parse_certificate_of(const std::string& payload, const lid::lis::LisGraph& lis,
                               CertCheck& into) {
  if (payload.find("\"certificate\":") == std::string::npos) return CertFound::kNone;
  const lid::util::JsonParse parsed = lid::util::json_parse(payload);
  const Json* cert_json = parsed ? parsed.value.find("certificate") : nullptr;
  if (cert_json == nullptr) return CertFound::kMalformed;
  lid::verify::CertificateParse cert = lid::verify::parse_certificate(*cert_json);
  if (!cert) return CertFound::kMalformed;
  into.lis = &lis;
  into.certificate = std::move(cert.certificate);
  return CertFound::kParsed;
}

/// Runs verify::check on every certificate; element i tells whether
/// certificate i was accepted.
std::vector<bool> check_all(const std::vector<CertCheck>& checks) {
  std::vector<bool> accepted;
  for (const CertCheck& c : checks) accepted.push_back(lid::verify::check(*c.lis, c.certificate).ok);
  return accepted;
}

/// Thread CPU time per check, in ms, of the fastest of `reps` batches that
/// each check every certificate of `checks` once, the batches pinned in turn
/// to each allowed CPU. One check takes tens of microseconds, too short to
/// time alone, and a batch averages over the systems the run drew. The
/// fastest batch, because on the reference host a CPU switches every
/// 0.1-0.5 s between a fast regime and one about 50% slower (a busy
/// neighbour): a median of batches follows the share of slow time, which
/// differs from run to run, and the fastest of batches spread over seconds
/// and CPUs does not.
double time_per_check(const std::vector<CertCheck>& checks, int reps) {
  if (checks.empty()) return 0.0;
  const std::vector<int> cpus = allowed_cpus();
  double fastest_ms = 0.0;
  for (int r = 0; r < reps; ++r) {
    pin_thread({cpus[static_cast<std::size_t>(r) % cpus.size()]});
    const Stopwatch watch;
    for (const CertCheck& c : checks) (void)lid::verify::check(*c.lis, c.certificate);
    const double ms = watch.cpu_ms();
    if (r == 0 || ms < fastest_ms) fastest_ms = ms;
  }
  pin_thread(cpus);
  return fastest_ms / static_cast<double>(checks.size());
}

double p_or_zero(const std::vector<double>& values, double q) {
  const std::optional<Percentile> p = percentile(values, q);
  return p ? p->value : 0.0;
}

/// Client-side latency facts shared by both serving workloads.
struct LatencySummary {
  double p50_ms = 0.0;  ///< median over one-second windows of each window's p50 (gated)
  double p90_ms = 0.0;  ///< the same for p90 (gated)
  Percentile p50, p90;  ///< over every successful request of the measured window
  std::optional<Percentile> p99;  ///< recorded, not gated
  std::vector<double> window_p90;
  double late_p50_ms = 0.0;
  double late_max_ms = 0.0;
};

/// The gated percentiles are taken per second of the schedule, and the
/// median over the seconds is reported: on a shared host, contention from
/// other tenants spoils whole seconds at a time, and the median over seconds
/// lets a few spoiled ones pass while a change that slows half of the seconds
/// or more still moves it (perfbench/README.md gives the spreads of both
/// measured on the reference host). The whole-run percentiles and p99 stay
/// in the detail record.
LatencySummary summarize(const OpenLoopResult& loop, double rate) {
  const std::vector<double> lat = loop.latencies_ms();
  LatencySummary s;
  const std::optional<Percentile> p50 = percentile(lat, 0.50);
  const std::optional<Percentile> p90 = percentile(lat, 0.90);
  if (!p50 || !p90) {
    throw std::runtime_error("too few answered requests for p90 (" + std::to_string(lat.size()) +
                             ")");
  }
  s.p50 = *p50;
  s.p90 = *p90;
  s.p99 = percentile(lat, 0.99);
  const std::size_t per_window = static_cast<std::size_t>(rate);
  std::vector<double> window_p50;
  for (std::size_t from = loop.measured_from; from + per_window <= loop.replies.size();
       from += per_window) {
    std::vector<double> window;
    for (std::size_t i = from; i < from + per_window; ++i) {
      if (loop.replies[i].ok) {
        window.push_back(1e-6 * static_cast<double>(loop.replies[i].recv_ns - loop.due_ns[i]));
      }
    }
    const std::optional<Percentile> w50 = percentile(window, 0.50);
    const std::optional<Percentile> w90 = percentile(window, 0.90);
    if (!w50 || !w90) continue;
    window_p50.push_back(w50->value);
    s.window_p90.push_back(w90->value);
  }
  if (s.window_p90.empty()) throw std::runtime_error("no window has enough samples for p90");
  s.p50_ms = median(window_p50);
  s.p90_ms = median(s.window_p90);
  const std::vector<double> late = loop.lateness_ms();
  s.late_p50_ms = median(late);
  s.late_max_ms = late.empty() ? 0.0 : *std::max_element(late.begin(), late.end());
  return s;
}

void write_percentile(JsonWriter& w, const std::string& name, const Percentile& p) {
  w.key(name).begin_object();
  w.key("value_ms").value(p.value);
  w.key("samples").value(p.samples);
  w.key("beyond").value(p.beyond);
  w.end_object();
}

void write_array(JsonWriter& w, const std::string& name, const std::vector<double>& values) {
  w.key(name).begin_array();
  for (const double v : values) w.value(v);
  w.end_array();
}

/// `usage` is the wait4 rusage of the daemons the benchmark started (router
/// and workers summed, with the largest peak RSS): CPU over their whole
/// life, set-up and teardown included.
std::string latency_detail(const LatencySummary& s, const Ledger& ledger, double rate,
                           double seconds, std::int64_t unmatched, std::size_t verify_samples,
                           const std::vector<double>& setup_ms, double steal_ms,
                           const rusage& usage) {
  JsonWriter w;
  w.begin_object();
  w.key("rate_per_s").value(rate);
  w.key("seconds").value(seconds);
  w.key("connections").value(kConnections);
  write_percentile(w, "p50", s.p50);
  write_percentile(w, "p90", s.p90);
  if (s.p99) {
    write_percentile(w, "p99", *s.p99);
  } else {
    w.key("p99").value_null();
  }
  w.key("windows").value(s.window_p90.size());
  write_array(w, "window_p90s_ms", s.window_p90);
  w.key("lateness_p50_ms").value(s.late_p50_ms);
  w.key("lateness_max_ms").value(s.late_max_ms);
  w.key("unmatched_replies").value(unmatched);
  w.key("verify_samples").value(verify_samples);
  write_array(w, "setup_ms", setup_ms);
  w.key("host_steal_ms").value(steal_ms);
  w.key("failures").raw(ledger.failures_json());
  const auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1000.0 + static_cast<double>(tv.tv_usec) / 1000.0;
  };
  w.key("wait4").begin_object();
  w.key("cpu_ms").value(ms(usage.ru_utime) + ms(usage.ru_stime));
  w.key("maxrss_mb").value(static_cast<double>(usage.ru_maxrss) / 1024.0);
  w.end_object();
  w.end_object();
  return w.str();
}

/// Opens a load connection; v2 connections negotiate with `hello` first.
int open_connection(const std::string& socket, bool v2) {
  const int fd = connect_unix(socket, 5'000.0);
  if (fd < 0) throw std::runtime_error("cannot connect to " + socket);
  if (v2) {
    std::string hello;
    if (!round_trip(fd, "{\"verb\":\"hello\",\"protocol\":2}", true, hello) ||
        hello.find("\"ok\":true") == std::string::npos) {
      throw std::runtime_error("hello failed on " + socket + ": " + hello);
    }
  }
  return fd;
}

/// lid_cluster in front of two single-thread lid_serve workers that the
/// benchmark starts with the arguments lid_cluster would give them, and that
/// the router adopts. A router that spawns its workers probes one that is not
/// listening yet again only 50 ms later, so a set-up takes either about 20 ms
/// or about 70 ms, in a share that follows the host's speed (13 of 21 slow
/// in one run, 41 of 41 in the next). Adopted workers already answer when
/// the router first probes them. Routing, forwarding and re-registration do
/// not depend on who started a worker.
struct ClusterProcess {
  std::vector<std::unique_ptr<Child>> workers;
  std::unique_ptr<Child> router;

  void start(const std::string& bin_dir, const std::string& socket, const std::string& log,
             const std::vector<int>& cpus) {
    std::vector<std::string> sockets;
    for (int w = 0; w < 2; ++w) {
      sockets.push_back(socket + ".w" + std::to_string(w));
      workers.push_back(std::make_unique<Child>(
          std::vector<std::string>{bin_dir + "/lid_serve", "--socket", sockets.back(), "--workers",
                                   "1", "--queue-capacity", "1024", "--quiet"},
          log, cpus));
    }
    for (const std::string& worker : sockets) ::close(open_connection(worker, true));
    router = std::make_unique<Child>(
        std::vector<std::string>{bin_dir + "/lid_cluster", "--socket", socket, "--workers", "0",
                                 "--adopt", sockets[0] + "," + sockets[1], "--quiet"},
        log, cpus);
  }

  [[nodiscard]] std::vector<pid_t> pids() const {
    std::vector<pid_t> out;
    if (router) out.push_back(router->pid());
    for (const auto& w : workers) out.push_back(w->pid());
    return out;
  }

  /// Stops the router, then the workers; returns their summed CPU time and
  /// the largest peak RSS in one rusage.
  rusage stop() {
    rusage total{};
    const auto add = [&](const rusage& u) {
      timeradd(&total.ru_utime, &u.ru_utime, &total.ru_utime);
      timeradd(&total.ru_stime, &u.ru_stime, &total.ru_stime);
      total.ru_maxrss = std::max(total.ru_maxrss, u.ru_maxrss);
    };
    if (router) add(router->stop());
    for (const auto& w : workers) add(w->stop());
    router.reset();
    workers.clear();
    return total;
  }

  ClusterProcess() = default;
  ~ClusterProcess() { stop(); }
  ClusterProcess(const ClusterProcess&) = delete;
  ClusterProcess& operator=(const ClusterProcess&) = delete;
};

/// Sends one request on a fresh synchronous connection and returns `result`.
std::optional<Json> query(const std::string& socket, const std::string& request, bool binary) {
  const int fd = connect_unix(socket, 2'000.0);
  if (fd < 0) return std::nullopt;
  std::string response;
  std::optional<Json> result;
  if (binary) {
    std::string hello;
    if (!round_trip(fd, "{\"verb\":\"hello\",\"protocol\":2}", true, hello)) {
      ::close(fd);
      return std::nullopt;
    }
  }
  if (round_trip(fd, request, binary, response)) result = result_of(response);
  ::close(fd);
  return result;
}

/// The generator spins on the last allowed CPU; the daemons get the others.
struct CpuSplit {
  std::vector<int> generator;
  std::vector<int> servers;
};

CpuSplit split_cpus() {
  std::vector<int> cpus = allowed_cpus();
  if (cpus.size() < 2) return {};
  CpuSplit split;
  split.generator = {cpus.back()};
  cpus.pop_back();
  split.servers = cpus;
  return split;
}

// Per-verb latency medians (due -> reply) of successful requests, seconds.
double verb_latency_s(const OpenLoopResult& loop, const std::vector<std::string>& verbs,
                      const std::string& verb) {
  std::vector<double> lat;
  for (std::size_t i = loop.measured_from; i < verbs.size(); ++i) {
    if (verbs[i] == verb && loop.replies[i].ok) {
      lat.push_back(1e-9 * static_cast<double>(loop.replies[i].recv_ns - loop.due_ns[i]));
    }
  }
  return median(lat);
}

std::vector<double> server_ms_of(const OpenLoopResult& loop, const std::vector<std::string>& labels,
                                 const std::string& label) {
  std::vector<double> out;
  for (std::size_t i = loop.measured_from; i < labels.size(); ++i) {
    if (labels[i] == label && loop.replies[i].ok) out.push_back(loop.replies[i].server_ms);
  }
  return out;
}

/// Records one span per request (due -> reply) with a child for the time
/// the sender ran late (when over 10 us), so self time separates generator
/// delay from the round trip.
void record_request_spans(Trace& trace, const OpenLoopResult& loop) {
  if (!trace.enabled()) return;
  for (std::size_t i = 0; i < loop.replies.size(); ++i) {
    const std::int64_t end = loop.replies[i].recv_ns > 0 ? loop.replies[i].recv_ns : loop.end_ns;
    const int span = trace.add("request", loop.due_ns[i], end, -1, static_cast<std::int64_t>(i));
    if (loop.sent_ns[i] - loop.due_ns[i] > 10'000) {
      trace.add("client.late", loop.due_ns[i], loop.sent_ns[i], span, static_cast<std::int64_t>(i));
    }
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// serve-hot

RunResult run_serve_hot(const RunConfig& config) {
  constexpr double kRate = 5'000.0;
  constexpr int kHot = 8;
  constexpr int kCold = 92;
  constexpr int kFresh = 512;
  constexpr double kWriteShare = 0.02;
  constexpr double kHotShare = 0.8;
  constexpr int kSetups = 41;
  constexpr int kVerifyReps = 801;
  // One model size for every registered model, so that which models a seed
  // draws moves payload sizes (and so latency) as little as possible.
  const GenRange range{20, 20, 2, 2, 3, 3, 4, 4};

  RunResult out;
  Trace trace(config.trace);
  SeedStream rng(config.seed);

  // Inputs.
  std::vector<Model> models;  // [0, kHot) hot, then cold, then fresh
  for (int i = 0; i < kHot + kCold + kFresh; ++i) models.push_back(make_model(rng, range));
  struct Template {
    std::string verb, label, extra;
  };
  const std::vector<Template> templates = {
      {"analyze", "analyze", ""},
      {"analyze", "analyze", ",\"certify\":true"},
      {"size-queues", "size-queues", ""},
      {"lint", "lint", ""},
      {"rate-safety", "rate-safety", ""},
  };
  // Read-verb shares: analyze 40% (half certified), size-queues 20%, lint 20%, rate-safety 20%.
  const std::vector<double> template_share = {0.2, 0.2, 0.2, 0.2, 0.2};
  const auto read_key = [&](int model, int tmpl) { return model * 8 + tmpl; };
  // Registers models [from, to) and computes every distinct query on them
  // once, so that the memo is warm.
  const auto register_and_warm = [&](int fd, int from, int to) {
    std::string response;
    bool ok = true;
    for (int m = from; m < to && ok; ++m) {
      ok = round_trip(fd, body("register-model", "netlist", models[m].canonical), true, response) &&
           response.find("\"ok\":true") != std::string::npos;
      for (std::size_t t = 0; t < templates.size() && ok; ++t) {
        ok = round_trip(fd, body(templates[t].verb, "model", models[m].fingerprint, templates[t].extra),
                        true, response) &&
             response.find("\"ok\":true") != std::string::npos;
      }
    }
    if (!ok) throw std::runtime_error("serve-hot set-up failed: " + response);
  };

  // Set-up: spawn the cluster until `hello` answers, then register the hot
  // set and warm its queries. The last cluster stays up and gets the cold
  // set too, outside the timed set-up.
  const std::string tag = config.work_dir + "/" + std::to_string(::getpid());
  const std::string front = tag + "-hot.sock";
  const CpuSplit cpus = split_cpus();
  auto spinners = std::make_unique<IdleSpinners>(cpus.servers);
  std::vector<double> setup_ms;
  ClusterProcess cluster;
  for (int k = 0; k < kSetups; ++k) {
    cluster.stop();
    const std::int64_t t = now_ns();
    cluster.start(config.bin_dir, front, tag + "-cluster.log", cpus.servers);
    const int fd = open_connection(front, true);
    register_and_warm(fd, 0, kHot);
    setup_ms.push_back(1e-6 * static_cast<double>(now_ns() - t));
    if (k + 1 == kSetups) register_and_warm(fd, kHot, kHot + kCold);
    ::close(fd);
  }

  // The request stream, built after the set-up so that spawning the
  // daemons never forks a large process.
  const std::size_t n = static_cast<std::size_t>(kRate * (kWarmupS + config.seconds));
  std::vector<std::string> wire(n);
  std::vector<std::string> labels(n);
  std::vector<int> keys(n);  // read: model*8+template; write: -(1 + model)
  std::vector<int> fresh_order(kFresh);
  std::iota(fresh_order.begin(), fresh_order.end(), kHot + kCold);
  for (int i = kFresh - 1; i > 0; --i) std::swap(fresh_order[i], fresh_order[rng.between(0, i)]);
  std::size_t next_fresh = 0;
  for (std::size_t i = 0; i < n; ++i) {
    std::string b;
    if (rng.unit() < kWriteShare) {
      const int m = fresh_order[next_fresh++ % kFresh];
      b = body("register-model", "netlist", models[m].canonical);
      labels[i] = "register-model";
      keys[i] = -(1 + m);
    } else {
      const int m = rng.unit() < kHotShare ? static_cast<int>(rng.between(0, kHot - 1))
                                           : static_cast<int>(rng.between(kHot, kHot + kCold - 1));
      double u = rng.unit();
      int t = 0;
      while (t + 1 < static_cast<int>(templates.size()) && u >= template_share[t]) {
        u -= template_share[t];
        ++t;
      }
      b = body(templates[t].verb, "model", models[m].fingerprint, templates[t].extra);
      labels[i] = templates[t].label;
      keys[i] = read_key(m, t);
    }
    wire[i] = lid::serve::frame_message(with_id(i, b));
  }

  const std::vector<pid_t> pids = cluster.pids();
  const auto cpu_of = [&] {
    double total = 0.0;
    for (const pid_t p : pids) total += std::max(0.0, process_cpu_ms(p));
    return total;
  };

  std::vector<int> fds;
  for (int c = 0; c < kConnections; ++c) fds.push_back(open_connection(front, true));
  const std::optional<Json> stats_before = query(front, "{\"verb\":\"stats\"}", true);
  const double cpu_before = cpu_of();
  const double steal_before = host_steal_ms();
  OpenLoopOptions options;
  options.rate = kRate;
  options.warmup_s = kWarmupS;
  options.cpus = cpus.generator;
  const OpenLoopResult loop = run_open_loop(wire, fds, options);
  const double cpu_after = cpu_of();
  const double steal_ms = host_steal_ms() - steal_before;
  for (const int fd : fds) ::close(fd);
  const std::optional<Json> stats_after = query(front, "{\"verb\":\"stats\"}", true);
  const std::optional<Json> cluster_stats = query(front, "{\"verb\":\"cluster-stats\"}", true);
  double rss_mb = 0.0;
  for (const pid_t p : pids) rss_mb += std::max(0.0, process_hwm_mb(p));
  const rusage usage = cluster.stop();
  spinners.reset();

  // Reference payloads: each distinct request executed directly, reads with
  // the model's canonical text inline, writes against a fresh registry.
  std::unordered_map<int, std::uint64_t> expected;
  std::unordered_map<int, std::string> certified_payloads;
  for (std::size_t i = 0; i < n; ++i) {
    if (expected.count(keys[i]) != 0) continue;
    std::string payload;
    if (keys[i] < 0) {
      lid::serve::Registry registry;
      payload = direct_payload(body("register-model", "netlist", models[-keys[i] - 1].canonical), &registry);
    } else {
      const int m = keys[i] / 8;
      const Template& t = templates[static_cast<std::size_t>(keys[i] % 8)];
      payload = direct_payload(body(t.verb, "netlist", models[m].canonical, t.extra), nullptr);
      if (!t.extra.empty()) certified_payloads[keys[i]] = payload;
    }
    expected[keys[i]] = fnv1a(payload);
  }
  // Every certificate the run returned, re-checked; verify_s is the CPU
  // time per check.
  std::vector<CertCheck> checks;
  std::vector<int> check_keys;
  std::unordered_map<int, bool> rejected;  // certified query -> its certificate failed
  for (const auto& [key, payload] : certified_payloads) {
    CertCheck check;
    const CertFound found = parse_certificate_of(payload, models[key / 8].instance.graph(), check);
    rejected[key] = found == CertFound::kMalformed;
    if (found == CertFound::kParsed) {
      checks.push_back(std::move(check));
      check_keys.push_back(key);
    }
  }
  const std::vector<bool> accepted = check_all(checks);
  for (std::size_t c = 0; c < checks.size(); ++c) {
    if (!accepted[c]) rejected[check_keys[c]] = true;
  }
  const double verify_ms = time_per_check(checks, kVerifyReps);
  for (std::size_t i = 0; i < n; ++i) {
    Verdict v = judge(loop.replies[i], expected[keys[i]]);
    if (v == Verdict::kOk && rejected[keys[i]]) v = Verdict::kRejectedCert;
    if (v == Verdict::kWrongPayload || v == Verdict::kRejectedCert) out.correct = false;
    out.ledger.record(v);
  }

  const LatencySummary lat = summarize(loop, options.rate);
  const std::size_t completed = static_cast<std::size_t>(
      std::count_if(loop.replies.begin(), loop.replies.end(), [](const Reply& r) { return r.recv_ns > 0; }));
  const double cpu_ms_per_req = (cpu_after - cpu_before) / static_cast<double>(std::max<std::size_t>(1, completed));
  out.headline_ms = lat.p50_ms;
  out.end_to_end = {
      {"setup_s", {median(setup_ms) / 1000.0, "s"}},
      {"lint_s", {verb_latency_s(loop, labels, "lint"), "s"}},
      {"analyze_s", {verb_latency_s(loop, labels, "analyze"), "s"}},
      {"verify_s", {verify_ms / 1000.0, "s"}},
      {"size_s", {verb_latency_s(loop, labels, "size-queues"), "s"}},
      {"p50_ms", {lat.p50_ms, "ms"}},
      {"p90_ms", {lat.p90_ms, "ms"}},
      {"server_cpu_ms_per_req", {cpu_ms_per_req, "ms"}},
      {"peak_rss_mb", {rss_mb, "MB"}},
      {"success_rate", {out.ledger.success_rate(), "ratio"}},
  };
  out.detail_json = latency_detail(lat, out.ledger, kRate, config.seconds, loop.unmatched,
                                   checks.size(), setup_ms, steal_ms, usage);

  if (config.trace) {
    record_request_spans(trace, loop);
    std::vector<double> hop_us;
    std::vector<double> wait_us;
    for (std::size_t i = loop.measured_from; i < n; ++i) {
      const Reply& r = loop.replies[i];
      if (!r.ok || loop.sent_ns[i] == 0) continue;
      const double rtt_ms = 1e-6 * static_cast<double>(r.recv_ns - loop.sent_ns[i]);
      hop_us.push_back(1000.0 * (rtt_ms - r.wait_ms - r.server_ms));
      wait_us.push_back(1000.0 * r.wait_ms);
    }
    const auto exec_us = [&](const std::string& label) {
      std::vector<double> v = server_ms_of(loop, labels, label);
      for (double& x : v) x *= 1000.0;
      return p_or_zero(v, 0.5);
    };
    double memo_hit_rate = 0.0;
    double evictions = 0.0;
    if (stats_before && stats_after) {
      const double hits = static_cast<double>(member_int(*stats_after, "registry", "memo_hits") -
                                              member_int(*stats_before, "registry", "memo_hits"));
      const double misses = static_cast<double>(member_int(*stats_after, "registry", "memo_misses") -
                                                member_int(*stats_before, "registry", "memo_misses"));
      memo_hit_rate = hits + misses > 0 ? hits / (hits + misses) : 0.0;
      evictions = static_cast<double>(member_int(*stats_after, "registry", "evictions") -
                                      member_int(*stats_before, "registry", "evictions"));
    }
    const auto cluster_total = [&](const char* key) {
      const Json* v = cluster_stats ? cluster_stats->find(key) : nullptr;
      return v == nullptr ? 0.0 : static_cast<double>(v->as_int());
    };

    // In-process replay of the same stream through the serving layers, one
    // span per layer call, against a registry holding the same models.
    lid::serve::Registry registry;
    for (int m = 0; m < kHot + kCold; ++m) (void)registry.register_model(models[m].canonical);
    lid::serve::ExecContext context;
    context.registry = &registry;
    const lid::serve::ExecLimits limits;
    std::vector<double> decode_ns, parse_ns, acquire_ns, execute_ns, line_ns;
    const std::size_t replay_n = std::min<std::size_t>(n, 10'000);
    for (std::size_t i = 0; i < replay_n; ++i) {
      const int root = trace.begin("replay.request", -1, static_cast<std::int64_t>(i));
      std::int64_t t = now_ns();
      int span = trace.begin("frame.decode", root, static_cast<std::int64_t>(i));
      const lid::serve::FrameDecode frame = lid::serve::decode_frame(wire[i], 1 << 20);
      trace.end(span);
      decode_ns.push_back(static_cast<double>(now_ns() - t));
      t = now_ns();
      span = trace.begin("protocol.parse_request", root, static_cast<std::int64_t>(i));
      const lid::Result<lid::serve::Request> request = lid::serve::parse_request(frame.payload);
      trace.end(span);
      parse_ns.push_back(static_cast<double>(now_ns() - t));
      if (!request) continue;
      if (keys[i] >= 0) {
        t = now_ns();
        span = trace.begin("registry.acquire", root, static_cast<std::int64_t>(i));
        const auto entry = registry.acquire(models[keys[i] / 8].fingerprint);
        trace.end(span);
        acquire_ns.push_back(static_cast<double>(now_ns() - t));
      }
      t = now_ns();
      span = trace.begin("protocol.execute", root, static_cast<std::int64_t>(i));
      const lid::serve::Outcome outcome = lid::serve::execute(*request, limits, context);
      trace.end(span);
      execute_ns.push_back(static_cast<double>(now_ns() - t));
      t = now_ns();
      span = trace.begin("protocol.response_line", root, static_cast<std::int64_t>(i));
      const std::string line = lid::serve::response_line(*request, outcome, 0.0, 0.0, 2);
      trace.end(span);
      line_ns.push_back(static_cast<double>(now_ns() - t));
      trace.end(root);
    }

    const std::vector<double> lat_ms = loop.latencies_ms();
    out.per_layer = {
        {"cluster.hop_us", {p_or_zero(hop_us, 0.5), "us"}},
        {"cluster.reregistrations", {cluster_total("reregistrations"), "count"}},
        {"cluster.failovers", {cluster_total("failovers"), "count"}},
        {"cluster.unknown_model",
         {static_cast<double>(std::count_if(loop.replies.begin(), loop.replies.end(),
                                            [](const Reply& r) {
                                              return r.error_code == lid::serve::codes::kUnknownModel;
                                            })),
          "count"}},
        {"serve.exec_us.analyze", {exec_us("analyze"), "us"}},
        {"serve.exec_us.size-queues", {exec_us("size-queues"), "us"}},
        {"serve.exec_us.lint", {exec_us("lint"), "us"}},
        {"serve.exec_us.rate-safety", {exec_us("rate-safety"), "us"}},
        {"serve.exec_us.register-model", {exec_us("register-model"), "us"}},
        {"serve.wait_us", {p_or_zero(wait_us, 0.9), "us"}},
        {"registry.memo_hit_rate", {memo_hit_rate, "ratio"}},
        {"registry.evictions", {evictions, "count"}},
        {"frame.decode_ns", {median(decode_ns), "ns"}},
        {"protocol.parse_request_ns", {median(parse_ns), "ns"}},
        {"registry.acquire_ns", {median(acquire_ns), "ns"}},
        {"protocol.execute_ns", {median(execute_ns), "ns"}},
        {"protocol.response_line_ns", {median(line_ns), "ns"}},
        {"serve.cpu_us_per_req", {1000.0 * cpu_ms_per_req, "us"}},
        {"client.p99_ms", {lat.p99 ? lat.p99->value : 0.0, "ms"}},
        {"client.late_max_ms", {lat.late_max_ms, "ms"}},
        {"client.samples", {static_cast<double>(lat.p50.samples), "count"}},
    };
    std::string path = config.work_dir + "/serve-hot.trace.json";
    if (!trace.write(path)) path.clear();
    out.trace_json = trace.summary_json(path);
  }
  return out;
}

// ---------------------------------------------------------------------------
// serve-cold

RunResult run_serve_cold(const RunConfig& config) {
  constexpr double kRate = 600.0;
  constexpr int kSetups = 101;
  constexpr int kVerifyReps = 301;
  constexpr std::size_t kTimedChecks = 200;
  constexpr int kReplay = 3'000;
  const GenRange range{8, 40, 1, 4, 0, 5, 0, 14};

  RunResult out;
  Trace trace(config.trace);
  SeedStream rng(config.seed);

  // Set-up: spawn until `hello` answers; the last server stays up.
  const std::string tag = config.work_dir + "/" + std::to_string(::getpid());
  const std::string socket = tag + "-cold.sock";
  const CpuSplit cpus = split_cpus();
  auto spinners = std::make_unique<IdleSpinners>(cpus.servers);
  std::vector<double> setup_ms;
  std::unique_ptr<Child> server;
  for (int k = 0; k < kSetups; ++k) {
    if (server) server->stop();
    const std::int64_t t = now_ns();
    server = std::make_unique<Child>(
        std::vector<std::string>{config.bin_dir + "/lid_serve", "--socket", socket, "--workers", "2",
                                 "--queue-capacity", "4096", "--quiet"},
        tag + "-serve.log", cpus.servers);
    const int fd = open_connection(socket, true);
    setup_ms.push_back(1e-6 * static_cast<double>(now_ns() - t));
    ::close(fd);
  }

  // The requests, generated after the set-up so that spawning the server
  // never forks a large process.
  const std::size_t n = static_cast<std::size_t>(kRate * (kWarmupS + config.seconds));
  std::vector<std::string> bodies(n);
  std::vector<std::string> wire(n);
  std::vector<std::string> verbs(n);
  std::vector<std::string> labels(n);
  std::vector<lid::Instance> instances(n);
  for (std::size_t i = 0; i < n; ++i) {
    Model m = make_model(rng, range);
    const double u = rng.unit();
    const bool certify = rng.unit() < 0.4;
    std::string extra;
    if (u < 0.35) {
      verbs[i] = "analyze";
      labels[i] = certify ? "analyze-certified" : "analyze";
      if (certify) extra = ",\"certify\":true";
    } else if (u < 0.65) {
      verbs[i] = labels[i] = "size-queues";
      if (certify) extra = ",\"certify\":true";
    } else if (u < 0.85) {
      verbs[i] = labels[i] = "lint";
    } else {
      verbs[i] = labels[i] = "simulate";
      extra = ",\"horizon\":200,\"dist\":\"uniform:1:3\",\"seed\":" + std::to_string(rng.between(1, 1'000'000));
    }
    bodies[i] = body(verbs[i], "netlist", m.canonical, extra);
    wire[i] = with_id(i, bodies[i]) + "\n";
    instances[i] = std::move(m.instance);
  }

  std::vector<int> fds;
  for (int c = 0; c < kConnections; ++c) fds.push_back(open_connection(socket, false));
  const std::optional<Json> stats_before = query(socket, "{\"verb\":\"stats\"}", false);
  const double cpu_before = process_cpu_ms(server->pid());
  const double steal_before = host_steal_ms();
  OpenLoopOptions options;
  options.rate = kRate;
  options.warmup_s = kWarmupS;
  options.cpus = cpus.generator;
  const OpenLoopResult loop = run_open_loop(wire, fds, options);
  const double cpu_after = process_cpu_ms(server->pid());
  const double steal_ms = host_steal_ms() - steal_before;
  for (const int fd : fds) ::close(fd);
  const std::optional<Json> stats_after = query(socket, "{\"verb\":\"stats\"}", false);
  const double rss_mb = process_hwm_mb(server->pid());
  const rusage usage = server->stop();
  spinners.reset();

  // Reference payloads: every request executed directly (four threads).
  std::vector<std::string> payloads(n);
  {
    std::vector<std::thread> pool;
    std::atomic<std::size_t> next{0};
    for (int t = 0; t < 4; ++t) {
      pool.emplace_back([&] {
        for (std::size_t i = next++; i < n; i = next++) payloads[i] = direct_payload(bodies[i], nullptr);
      });
    }
    for (std::thread& t : pool) t.join();
  }
  std::vector<Verdict> verdicts(n);
  // Returned certificates, re-checked below: analysis certificates timed
  // (verify_s), sizing certificates only checked. verify_s leaves sizing
  // certificates out, as scale-certify does: they cost more to check, and
  // the share of each a seed draws would move the figure.
  std::vector<CertCheck> analysis_checks;
  std::vector<CertCheck> sizing_checks;
  std::vector<std::size_t> analysis_of;  // request index of each check
  std::vector<std::size_t> sizing_of;
  std::int64_t events = 0;
  double simulate_server_ms = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    verdicts[i] = judge(loop.replies[i], fnv1a(payloads[i]));
    if (verdicts[i] != Verdict::kOk) continue;
    CertCheck check;
    const CertFound found = parse_certificate_of(payloads[i], instances[i].graph(), check);
    if (found == CertFound::kMalformed) verdicts[i] = Verdict::kRejectedCert;
    if (found == CertFound::kParsed) {
      const bool analysis = labels[i] == "analyze-certified";
      (analysis ? analysis_checks : sizing_checks).push_back(std::move(check));
      (analysis ? analysis_of : sizing_of).push_back(i);
    }
    if (verbs[i] == "simulate") {
      const lid::util::JsonParse parsed = lid::util::json_parse(payloads[i]);
      const Json* e = parsed ? parsed.value.find("events") : nullptr;
      if (e != nullptr) events += e->as_int();
      simulate_server_ms += loop.replies[i].server_ms;
    }
  }
  const std::vector<bool> analysis_accepted = check_all(analysis_checks);
  for (std::size_t c = 0; c < analysis_checks.size(); ++c) {
    if (!analysis_accepted[c]) verdicts[analysis_of[c]] = Verdict::kRejectedCert;
  }
  const std::vector<bool> sizing_accepted = check_all(sizing_checks);
  for (std::size_t c = 0; c < sizing_checks.size(); ++c) {
    if (!sizing_accepted[c]) verdicts[sizing_of[c]] = Verdict::kRejectedCert;
  }
  // Timed on the first kTimedChecks, so that a batch stays short.
  const std::vector<CertCheck> timed(
      analysis_checks.begin(),
      analysis_checks.begin() + static_cast<std::ptrdiff_t>(std::min(kTimedChecks, analysis_checks.size())));
  const double verify_ms = time_per_check(timed, kVerifyReps);
  for (const Verdict v : verdicts) {
    if (v == Verdict::kWrongPayload || v == Verdict::kRejectedCert) out.correct = false;
    out.ledger.record(v);
  }

  const LatencySummary lat = summarize(loop, options.rate);
  const std::size_t completed = static_cast<std::size_t>(
      std::count_if(loop.replies.begin(), loop.replies.end(), [](const Reply& r) { return r.recv_ns > 0; }));
  const double cpu_ms_per_req = (cpu_after - cpu_before) / static_cast<double>(std::max<std::size_t>(1, completed));
  out.headline_ms = lat.p50_ms;
  out.end_to_end = {
      {"setup_s", {median(setup_ms) / 1000.0, "s"}},
      {"lint_s", {verb_latency_s(loop, verbs, "lint"), "s"}},
      {"analyze_s", {verb_latency_s(loop, verbs, "analyze"), "s"}},
      {"verify_s", {verify_ms / 1000.0, "s"}},
      {"size_s", {verb_latency_s(loop, verbs, "size-queues"), "s"}},
      {"p50_ms", {lat.p50_ms, "ms"}},
      {"p90_ms", {lat.p90_ms, "ms"}},
      {"server_cpu_ms_per_req", {cpu_ms_per_req, "ms"}},
      {"peak_rss_mb", {rss_mb, "MB"}},
      {"success_rate", {out.ledger.success_rate(), "ratio"}},
  };
  out.detail_json = latency_detail(lat, out.ledger, kRate, config.seconds, loop.unmatched,
                                   timed.size(), setup_ms, steal_ms, usage);

  if (config.trace) {
    record_request_spans(trace, loop);
    const auto exec_ms = [&](const std::string& label) { return p_or_zero(server_ms_of(loop, labels, label), 0.5); };
    std::vector<double> wait_ms;
    for (std::size_t i = loop.measured_from; i < n; ++i) {
      if (loop.replies[i].ok) wait_ms.push_back(loop.replies[i].wait_ms);
    }
    double fallback_rate = 0.0;
    if (stats_before && stats_after) {
      const double calls = static_cast<double>(member_int(*stats_after, "counters", "verb_size-queues") -
                                               member_int(*stats_before, "counters", "verb_size-queues"));
      const double fallbacks = static_cast<double>(member_int(*stats_after, "counters", "lazy_fallbacks") -
                                                   member_int(*stats_before, "counters", "lazy_fallbacks"));
      fallback_rate = calls > 0 ? fallbacks / calls : 0.0;
    }

    // In-process replay of a deterministic subset through the compute
    // layers a cold request crosses.
    std::vector<double> parse_us, preflight_us, howard_us, lazy_us, lazy_rounds;
    lid::SizeQueuesOptions size_options;
    size_options.exact_max_nodes = lid::serve::ExecLimits{}.exact_max_nodes;
    size_options.max_cycles = lid::serve::ExecLimits{}.max_cycles;
    const lid::core::QsOptions qs = lid::detail::qs_options_from(size_options);
    const std::size_t stride = std::max<std::size_t>(1, n / kReplay);
    for (std::size_t i = 0; i < n; i += stride) {
      const std::string text = lid::netlist_text(instances[i]).value();
      const auto id = static_cast<std::int64_t>(i);
      const ScopedSpan root(trace, "replay.request", -1, id);
      const auto timed = [&](const char* name, std::vector<double>& into, auto&& call) {
        const ScopedSpan span(trace, name, root.id(), id);
        const Stopwatch watch;
        call();
        into.push_back(1000.0 * watch.cpu_ms());
      };
      lid::lis::ParsedNetlist parsed;
      timed("lis.from_text", parse_us, [&] { parsed = lid::lis::from_text_with_provenance(text); });
      lid::linter::Report pre;
      timed("lint.run_error_checks", preflight_us,
            [&] { pre = lid::linter::run_error_checks(parsed.graph); });
      if (pre.has_errors()) continue;
      const lid::lis::Expansion doubled = lid::lis::expand_doubled(parsed.graph);
      lid::mg::Workspace workspace;
      lid::mg::MeanCycle critical;
      timed("mg.howard", howard_us,
            [&] { lid::mg::min_cycle_mean_howard(doubled.graph, workspace, critical); });
      if (verbs[i] == "size-queues") {
        lid::core::QsReport report;
        timed("core.size_queues_lazy", lazy_us,
              [&] { report = lid::core::size_queues_lazy(parsed.graph, qs); });
        if (report.lazy) lazy_rounds.push_back(static_cast<double>(report.lazy->iterations));
      }
    }

    out.per_layer = {
        {"serve.exec_ms.analyze", {exec_ms("analyze"), "ms"}},
        {"serve.exec_ms.analyze-certified", {exec_ms("analyze-certified"), "ms"}},
        {"serve.exec_ms.size-queues", {exec_ms("size-queues"), "ms"}},
        {"serve.exec_ms.lint", {exec_ms("lint"), "ms"}},
        {"serve.exec_ms.simulate", {exec_ms("simulate"), "ms"}},
        {"serve.wait_ms", {p_or_zero(wait_ms, 0.9), "ms"}},
        {"des.events_per_s", {simulate_server_ms > 0 ? static_cast<double>(events) / (simulate_server_ms / 1000.0) : 0.0, "1/s"}},
        {"des.events", {static_cast<double>(events), "count"}},
        {"lis.parse_us", {median(parse_us), "us"}},
        {"lint.preflight_us", {median(preflight_us), "us"}},
        {"mg.howard_us", {median(howard_us), "us"}},
        {"core.lazy_us", {median(lazy_us), "us"}},
        {"core.lazy_rounds", {median(lazy_rounds), "count"}},
        {"core.lazy_fallback_rate", {fallback_rate, "ratio"}},
        {"serve.cpu_us_per_req", {1000.0 * cpu_ms_per_req, "us"}},
        {"client.p99_ms", {lat.p99 ? lat.p99->value : 0.0, "ms"}},
        {"client.late_max_ms", {lat.late_max_ms, "ms"}},
        {"client.samples", {static_cast<double>(lat.p50.samples), "count"}},
    };
    std::string path = config.work_dir + "/serve-cold.trace.json";
    if (!trace.write(path)) path.clear();
    out.trace_json = trace.summary_json(path);
  }
  return out;
}

}  // namespace perfbench
