// lid_perfbench — runs one workload once and prints one JSON line:
// correctness, attempted/failed operations, the end-to-end metrics, the
// per-layer metrics (traced runs), the headline timing and the facts behind
// them. perfbench/run.py builds this binary and shapes its output.
//
//   lid_perfbench --workload scale-certify|serve-hot|serve-cold --seed N
//                 --seconds S [--trace] --bin-dir DIR --work-dir DIR
#include <signal.h>

#include <cstdlib>
#include <iostream>
#include <string>

#include "util/json.hpp"
#include "workloads.hpp"

namespace {

void write_metrics(lid::util::JsonWriter& w, const perfbench::Metrics& metrics) {
  w.begin_object();
  for (const auto& [name, value_unit] : metrics) {
    w.key(name).begin_object();
    w.key("value").value(value_unit.first);
    w.key("unit").value(value_unit.second);
    w.end_object();
  }
  w.end_object();
}

int usage() {
  std::cerr << "usage: lid_perfbench --workload scale-certify|serve-hot|serve-cold --seed N "
               "--seconds S [--trace] --bin-dir DIR --work-dir DIR\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--trace") {
      config.trace = true;
    } else if (arg == "--workload" && has_value) {
      config.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      config.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      config.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--bin-dir" && has_value) {
      config.bin_dir = argv[++i];
    } else if (arg == "--work-dir" && has_value) {
      config.work_dir = argv[++i];
    } else {
      return usage();
    }
  }
  if (config.bin_dir.empty() || config.work_dir.empty() || config.seconds <= 0.0) return usage();

  ::signal(SIGPIPE, SIG_IGN);

  perfbench::RunResult result;
  try {
    if (config.workload == "scale-certify") {
      result = perfbench::run_scale_certify(config);
    } else if (config.workload == "serve-hot") {
      result = perfbench::run_serve_hot(config);
    } else if (config.workload == "serve-cold") {
      result = perfbench::run_serve_cold(config);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::cerr << "lid_perfbench: " << config.workload << ": " << e.what() << "\n";
    return 1;
  }

  lid::util::JsonWriter w;
  w.begin_object();
  w.key("correct").value(result.correct);
  w.key("attempted").value(result.ledger.attempted());
  w.key("failed").value(result.ledger.failed());
  w.key("end_to_end");
  write_metrics(w, result.end_to_end);
  w.key("per_layer");
  write_metrics(w, result.per_layer);
  w.key("headline_ms").value(result.headline_ms);
  w.key("detail").raw(result.detail_json);
  w.key("trace").raw(result.trace_json);
  w.end_object();
  std::cout << w.str() << std::endl;
  return 0;
}
