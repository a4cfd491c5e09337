// Table IV: how good are the solutions returned by the heuristic algorithm?
//
// Four generator configurations (SCCs connected with reconvergent paths, ten
// relay stations inserted only between SCCs), --trials random systems each.
// Reported per configuration, as in the paper: average (V, E), inter-SCC
// edge and cycle counts, average exact and heuristic solution sizes over the
// trials where the exact search finished within the timeout, the fraction
// that finished, and — for the unfinished ones — their cycle counts and
// heuristic solutions.
//
// The paper used a 1-hour timeout on a 2008 Intel Quad; the default here is
// 3 s (override with --timeout-ms) so the whole bench suite stays fast.
#include "bench_common.hpp"
#include "core/queue_sizing.hpp"
#include "gen/generator.hpp"
#include "graph/scc.hpp"
#include "lis/lis_graph.hpp"
#include "util/split.hpp"

int main(int argc, char** argv) {
  using namespace lid;
  const util::Cli cli(argc, argv);
  const int trials = static_cast<int>(cli.get_int("trials", 50));
  const double timeout_ms = cli.get_double("timeout-ms", 3000.0);
  util::Rng rng(static_cast<std::uint64_t>(cli.get_int("seed", 4)));

  bench::banner("Table IV", "exact vs heuristic queue sizing on generated systems");

  struct Config {
    int v, s, c;
  };
  // c chosen to land on the paper's average edge counts: (50,82), (100,122),
  // (100,144.7), (200,222).
  const Config configs[] = {{50, 10, 2}, {100, 10, 1}, {100, 20, 1}, {200, 10, 1}};

  util::Table table({"(V,E)", "#SCC", "#Edges(inter)", "Cycles(inter)", "RS", "Exact",
                     "Heuristic", "%Exact finished", "#Cycles unfinished", "Heur. (no exact)"});

  for (const Config& cfg : configs) {
    double edges = 0.0;
    double inter_edges = 0.0;
    double inter_cycles = 0.0;
    std::vector<double> exact_solutions;
    std::vector<double> heuristic_solutions;
    std::vector<double> unfinished_cycles;
    std::vector<double> unfinished_heuristic;
    int finished = 0;

    for (int t = 0; t < trials; ++t) {
      gen::GeneratorParams params;
      params.vertices = cfg.v;
      params.sccs = cfg.s;
      params.min_cycles = cfg.c;
      params.relay_stations = 10;
      params.reconvergent = true;
      params.policy = gen::RsPolicy::kScc;
      const lis::LisGraph system = gen::generate(params, rng);
      edges += static_cast<double>(system.num_channels());
      inter_edges += static_cast<double>(graph::condense(system.structure()).dag.num_edges());

      core::QsOptions options;
      options.method = core::QsMethod::kBoth;
      options.exact.timeout_ms = timeout_ms;
      const core::QsReport report = core::size_queues(system, options);
      // "Cycles (inter-SCC)" counts the cycles of the collapsed doubled
      // graph, which is exactly what the builder enumerates here.
      inter_cycles += static_cast<double>(report.problem.cycles_enumerated);

      if (report.exact->finished) {
        ++finished;
        exact_solutions.push_back(static_cast<double>(report.exact->total_extra_tokens));
        heuristic_solutions.push_back(static_cast<double>(report.heuristic->total_extra_tokens));
      } else {
        unfinished_cycles.push_back(static_cast<double>(report.problem.cycles_enumerated));
        unfinished_heuristic.push_back(static_cast<double>(report.heuristic->total_extra_tokens));
      }
    }

    std::string size(1, '(');
    util::append_decimal(size, cfg.v);
    size.push_back(',');
    size.append(util::Table::fmt(edges / trials)).push_back(')');
    table.add_row({
        std::move(size),
        std::to_string(cfg.s),
        util::Table::fmt(inter_edges / trials),
        util::Table::fmt(inter_cycles / trials),
        "10",
        exact_solutions.empty() ? "-" : util::Table::fmt(util::mean(exact_solutions)),
        heuristic_solutions.empty() ? "-" : util::Table::fmt(util::mean(heuristic_solutions)),
        util::Table::fmt(static_cast<double>(finished) / trials),
        unfinished_cycles.empty() ? "-" : util::Table::fmt(util::mean(unfinished_cycles)),
        unfinished_heuristic.empty() ? "-" : util::Table::fmt(util::mean(unfinished_heuristic)),
    });
  }
  table.print(std::cout);
  bench::footnote("paper (1 h timeout): exact 3.2-3.8, heuristic within 8%, 56-98% finished");
  return 0;
}
