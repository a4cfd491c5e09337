// lid_cluster — the sharded multi-process cluster front door.
//
//   lid_cluster --socket /run/lid-cluster.sock --workers 3
//               --serve-binary ./lid_serve --worker-dir /tmp/lid-cluster
//
// Spawns (or adopts) N `lid_serve` worker processes and routes the full
// serve protocol across them: consistent hashing on the model fingerprint
// for registry cache affinity, health probes with consecutive-failure
// ejection, per-worker circuit breakers, transparent failover with model
// re-registration, and zero-loss drain/restart admin verbs. See
// src/serve/cluster.hpp for the architecture and docs/cluster.md for the
// operational story. Flags:
//
//   --socket PATH             front-door Unix socket (preferred)
//   --port N [--host A]       front-door TCP socket (0 = kernel-assigned)
//   --workers N               lid_serve processes to spawn        (default 3)
//   --serve-binary PATH       lid_serve executable for spawned workers
//                             (default: "lid_serve" next to this binary)
//   --worker-dir DIR          directory for worker sockets + pid files
//                             (default /tmp)
//   --adopt S1,S2,...         comma-separated Unix sockets of externally
//                             managed lid_serve processes to adopt instead
//                             of (or in addition to) spawning
//   --worker-fault-plan I:SPEC  pass `--fault-plan SPEC` to spawned worker I
//                             (chaos testing; see src/serve/faults.hpp)
//   --serve-threads N         --workers forwarded to each lid_serve  (default 1)
//   --queue-capacity N        --queue-capacity forwarded             (default 64)
//   --probe-interval-ms MS    health-probe period                    (default 100)
//   --probe-timeout-ms MS     per-probe budget                       (default 1000)
//   --eject-after N           consecutive probe failures that eject  (default 3)
//   --ring-replicas N         virtual nodes per worker               (default 64)
//   --connect-timeout-ms MS   backend connect() budget               (default 1000)
//   --forward-timeout-ms MS   one forwarded round trip               (default 30000)
//   --breaker-threshold N     failures that open a worker breaker    (default 3)
//   --breaker-cooldown-ms MS  open-breaker rejection window          (default 500)
//   --quiet                   suppress structured lifecycle log lines (stderr)
//
// SIGINT/SIGTERM stop the router gracefully: the front door closes, in-flight
// requests finish, and spawned workers are SIGTERMed (their own drain) and
// reaped. SIGPIPE is ignored.
#include <csignal>
#include <iostream>
#include <string>
#include <vector>

#include "serve/cluster.hpp"
#include "serve/faults.hpp"
#include "util/cli.hpp"

namespace {

lid::serve::Cluster* g_cluster = nullptr;

extern "C" void handle_stop_signal(int) {
  // Async-signal-safe: request_stop is a single write() to a pipe.
  if (g_cluster != nullptr) g_cluster->request_stop();
}

std::vector<std::string> split_commas(const std::string& text) {
  std::vector<std::string> out;
  std::size_t begin = 0;
  while (begin <= text.size()) {
    const std::size_t comma = text.find(',', begin);
    const std::size_t end = comma == std::string::npos ? text.size() : comma;
    if (end > begin) out.push_back(text.substr(begin, end - begin));
    if (comma == std::string::npos) break;
    begin = comma + 1;
  }
  return out;
}

/// Resolves the default lid_serve path: next to this executable.
std::string sibling_serve_binary(const char* argv0) {
  const std::string self(argv0 == nullptr ? "" : argv0);
  const std::size_t slash = self.rfind('/');
  if (slash == std::string::npos) return "lid_serve";
  return self.substr(0, slash + 1) + "lid_serve";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace lid;
  try {
    const util::Cli cli(argc, argv);
    serve::ClusterOptions options;
    options.unix_socket = cli.get_string("socket", "");
    if (options.unix_socket.empty()) {
      options.tcp_port =
          cli.has("port") ? static_cast<int>(cli.get_int_in("port", 0, 0, 65535)) : -1;
      options.host = cli.get_string("host", "127.0.0.1");
    }
    if (options.unix_socket.empty() && options.tcp_port < 0) {
      std::cerr << "lid_cluster: set --socket PATH or --port N\n";
      return 1;
    }

    const int spawn_count = static_cast<int>(cli.get_int_in("workers", 3, 0, 64));
    const std::string worker_dir = cli.get_string("worker-dir", "/tmp");
    options.serve_binary = cli.get_string("serve-binary", sibling_serve_binary(argv[0]));
    options.serve_threads = static_cast<int>(cli.get_int_in("serve-threads", 1, 1, 1024));
    options.serve_queue_capacity =
        static_cast<std::size_t>(cli.get_int_in("queue-capacity", 64, 1, 1'000'000));
    options.probe_interval_ms = cli.get_double_in("probe-interval-ms", 100.0, 1.0, 60'000.0);
    options.probe_timeout_ms = cli.get_double_in("probe-timeout-ms", 1'000.0, 1.0, 60'000.0);
    options.eject_after = static_cast<int>(cli.get_int_in("eject-after", 3, 1, 1'000));
    options.ring_replicas = static_cast<int>(cli.get_int_in("ring-replicas", 64, 1, 4'096));
    options.connect_timeout_ms =
        cli.get_double_in("connect-timeout-ms", 1'000.0, 1.0, 60'000.0);
    options.forward_timeout_ms =
        cli.get_double_in("forward-timeout-ms", 30'000.0, 1.0, 600'000.0);
    options.breaker_threshold = static_cast<int>(cli.get_int_in("breaker-threshold", 3, 0, 1'000));
    options.breaker_cooldown_ms =
        cli.get_double_in("breaker-cooldown-ms", 500.0, 0.0, 600'000.0);

    // Fault plan for one spawned worker: "IDX:SPEC" (SPEC itself contains
    // commas, so the flag takes a single worker).
    int fault_index = -1;
    std::string fault_spec;
    if (const std::string plan = cli.get_string("worker-fault-plan", ""); !plan.empty()) {
      const std::size_t colon = plan.find(':');
      if (colon == std::string::npos) {
        std::cerr << "lid_cluster: --worker-fault-plan wants INDEX:SPEC\n";
        return 1;
      }
      fault_index = std::stoi(plan.substr(0, colon));
      fault_spec = plan.substr(colon + 1);
      if (const Result<serve::FaultPlan> parsed = serve::FaultPlan::parse(fault_spec); !parsed) {
        std::cerr << "lid_cluster: --worker-fault-plan: " << parsed.error().to_string() << "\n";
        return 1;
      }
    }

    for (int i = 0; i < spawn_count; ++i) {
      serve::WorkerSpec spec;
      spec.unix_socket = worker_dir + "/lid-worker-" + std::to_string(i) + ".sock";
      spec.pid_file = worker_dir + "/lid-worker-" + std::to_string(i) + ".pid";
      spec.spawn = true;
      if (i == fault_index) spec.fault_plan = fault_spec;
      options.workers.push_back(spec);
    }
    for (const std::string& socket : split_commas(cli.get_string("adopt", ""))) {
      serve::WorkerSpec spec;
      spec.unix_socket = socket;
      spec.spawn = false;
      options.workers.push_back(spec);
    }
    if (options.workers.empty()) {
      std::cerr << "lid_cluster: no workers (set --workers N or --adopt SOCKETS)\n";
      return 1;
    }
    if (fault_index >= spawn_count) {
      std::cerr << "lid_cluster: --worker-fault-plan index " << fault_index
                << " is not a spawned worker\n";
      return 1;
    }
    if (!cli.get_bool("quiet", false)) options.log = &std::cerr;

    serve::Cluster cluster(std::move(options));
    g_cluster = &cluster;
    std::signal(SIGINT, handle_stop_signal);
    std::signal(SIGTERM, handle_stop_signal);
    std::signal(SIGPIPE, SIG_IGN);  // peer resets surface as EPIPE, not a kill

    const Status started = cluster.start();
    if (!started) {
      std::cerr << "lid_cluster: " << started.error().to_string() << "\n";
      return 1;
    }
    // Readiness line on stdout so scripts can wait for it.
    std::cout << "lid_cluster: listening on " << cluster.endpoint() << " ("
              << cluster.worker_count() << " workers)" << std::endl;

    cluster.wait();  // returns after a signal-triggered graceful stop
    std::cout << "lid_cluster: stopped, final stats: " << cluster.cluster_stats_json()
              << std::endl;
    g_cluster = nullptr;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "lid_cluster: " << e.what() << "\n";
    return 1;
  }
}
